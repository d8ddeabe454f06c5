#!/usr/bin/env python
"""Quickstart: build an enclave, trace it with sgx-perf, read the report.

This is the five-minute tour: a small SDK-style enclave with a deliberately
chatty interface, the preloaded event logger, and the analyser pointing out
exactly what a developer should fix.

Run:  python examples/quickstart.py
"""

from repro.perf.analysis.report import Analyzer
from repro.perf.logger import AexMode, EventLogger
from repro.sdk.edger8r import build_enclave
from repro.sdk.edl import parse_edl
from repro.sdk.urts import Urts
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig
from repro.sim.process import SimProcess

EDL = """
enclave {
    trusted {
        public int ecall_process_record([in, size=len] uint8_t* rec, size_t len);
        public int ecall_get_counter(void);
    };
    untrusted {
        void ocall_alloc_result(size_t len);
        void ocall_write_log([in, string] char* line);
    };
};
"""


def main() -> None:
    # 1. A machine with SGX and a process to run in.
    process = SimProcess(seed=42)
    device = SgxDevice(process.sim)
    urts = Urts(process, device)

    # 2. The application: one "real" ecall that commits the classic sins —
    #    an allocation ocall at its start (SNC) and a log ocall at its end —
    #    plus a tiny getter that gets hammered (SISC).
    counter = {"value": 0}

    def ecall_process_record(ctx, record, length):
        ctx.ocall("ocall_alloc_result", 256)  # reorderable: before the ecall!
        ctx.compute_jittered("work", 45_000)  # the actual work
        counter["value"] += 1
        ctx.ocall("ocall_write_log", "record done")  # reorderable: after!
        return length

    def ecall_get_counter(ctx):
        ctx.compute(250)  # far below the ~2.1 us transition cost
        return counter["value"]

    handle = build_enclave(
        urts,
        parse_edl(EDL),
        trusted_impls={
            "ecall_process_record": ecall_process_record,
            "ecall_get_counter": ecall_get_counter,
        },
        untrusted_impls={
            "ocall_alloc_result": lambda uctx, n: uctx.compute_jittered("alloc", 800),
            "ocall_write_log": lambda uctx, line: uctx.compute_jittered("log", 1_500),
        },
        config=EnclaveConfig(name="quickstart", heap_bytes=256 * 1024),
    )

    # 3. Preload the logger (the LD_PRELOAD moment) and run the workload.
    logger = EventLogger(process, urts, aex_mode=AexMode.COUNT)
    logger.install()
    for i in range(400):
        handle.ecall("ecall_process_record", bytes(64), 64)
        handle.ecall("ecall_get_counter")
        handle.ecall("ecall_get_counter")  # ...polling, like a bad UI loop
    logger.uninstall()
    trace = logger.finalize()

    # 4. Analyse.  The EDL lets the analyser audit the interface too.
    report = Analyzer(trace, definition=handle.definition).run()
    print(report.render_text())

    print()
    print("What to do about it, in priority order:")
    for finding in report.findings_by_priority():
        print(f"  [{finding.problem.name}] {finding.call}: "
              f"{finding.recommendations[0].value}")


if __name__ == "__main__":
    main()
