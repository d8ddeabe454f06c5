#!/usr/bin/env python
"""Reproduce the paper's Glamdring case study end to end (§5.2.3).

Workflow:
1. run the Glamdring-style partitioner over the signing application;
2. profile the partitioned build with sgx-perf;
3. read the analyser's finding (the paired ``bn_sub_part_words`` ecalls);
4. apply the paper's fix — move ``bn_mul_recursive`` inside — and measure
   the speed-up (paper: 2.16x).

Run:  python examples/partition_and_optimize.py
"""

from repro.perf.analysis.report import Analyzer
from repro.perf.logger import AexMode, EventLogger
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.glamdring.signer import (
    GlamdringSigner,
    SignerBuild,
    make_certificate,
    make_partition,
    run_signing_benchmark,
)


def main() -> None:
    # -- 1. the automatic partition --------------------------------------
    partition = make_partition(SignerBuild.PARTITIONED)
    print("Glamdring slice (sensitive data: rsa_private_key):")
    print(f"  trusted:   {sorted(f for f in partition.trusted if not f.startswith('bn_api'))}")
    print(f"  ecalls:    {partition.ecalls}")
    print(f"  interface: {len(partition.definition.ecalls)} ecalls / "
          f"{len(partition.definition.ocalls) + 4} ocalls (incl. SDK sync)")
    print()

    # -- 2. profile it -----------------------------------------------------
    process = SimProcess(seed=0)
    device = SgxDevice(process.sim)
    signer = GlamdringSigner(process, device, SignerBuild.PARTITIONED)
    logger = EventLogger(process, signer.urts, aex_mode=AexMode.OFF)
    logger.install()
    for serial in range(2):
        signer.sign(make_certificate(serial))
    logger.uninstall()
    trace = logger.finalize()
    signer.close()

    # -- 3. what does sgx-perf say? ------------------------------------------
    report = Analyzer(trace, definition=partition.definition).run()
    subs = [c for c in trace.calls(kind="ecall") if c.name == "ecall_bn_sub_part_words"]
    total = len(trace.calls(kind="ecall"))
    print(f"profiled 2 signatures: {total} ecalls, of which "
          f"{len(subs)} ({len(subs) / total:.1%}) are ecall_bn_sub_part_words "
          f"(paper: 99.5%)")
    for finding in report.findings_by_priority():
        if finding.call == "ecall_bn_sub_part_words":
            print(f"finding: [{finding.problem.name}] {finding.message}")
            break
    print()

    # -- 4. apply the recommendation and measure ---------------------------------
    part = run_signing_benchmark(SignerBuild.PARTITIONED, signs=4)
    opt = run_signing_benchmark(SignerBuild.OPTIMIZED, signs=4)
    native = run_signing_benchmark(SignerBuild.NATIVE, signs=4)
    print(f"native:      {native.signs_per_second:6.1f} signs/s (paper: 145)")
    print(f"partitioned: {part.signs_per_second:6.1f} signs/s (paper: 33.88)")
    print(f"optimized:   {opt.signs_per_second:6.1f} signs/s")
    print(f"speed-up:    {opt.signs_per_second / part.signs_per_second:.2f}x "
          f"(paper: 2.16x)")


if __name__ == "__main__":
    main()
