"""Recording throughput of the buffered fast path, and its seed-trace pins.

The paper's logger stays cheap by buffering events per thread in memory
and serialising off the critical path (§4.1).  This benchmark measures
recorded events per *wall-clock* second on a Table-2-style ecall+ocall
workload through :class:`EventLogger` (per-thread flat-tuple buffers,
batched drains) into the bulk writer (WAL-style pragmas, one transaction
per batch, deferred indexes), and prints the absolute rate.

The seed recording path (one ``CallEvent`` dataclass per event,
row-at-a-time writes into an untuned, eagerly indexed store) charged the
same virtual time, so its trace and analyser report survive as pinned
digests: the fast path must reproduce both byte for byte.  Absolute
record throughput is tracked against a committed baseline by the repo
benchmark's ``record-glamdring`` workload (``throughput_per_s``).
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.digest import sha256_hex, trace_digest
from repro.perf.analysis import Analyzer
from repro.perf.database import TraceDatabase
from repro.perf.logger import AexMode, EventLogger
from repro.sdk.errors import SgxStatus
from repro.sgx.device import SgxDevice
from repro.sim.loader import Library
from repro.sim.process import SimProcess

ITERATIONS = 30_000  # ecall+ocall pairs per measured run
WARMUP = 500
# The seed recording path's output on this workload (the legacy event
# logger in src/repro/perf/legacy.py over an untuned, eagerly indexed
# store, both deleted after f40c2d1), computed from that path at f40c2d1:
# trace_digest of its trace and sha256_hex of Analyzer(...).render_text().
SEED_PATH_TRACE_DIGEST = "c5a89ebf575104929e669a57e7476b11616c213c3b95f61ec25c8d54abcb3d01"
SEED_PATH_REPORT_DIGEST = "75bd40d3c7da88080fe04ceea5869f6c0153eb1c56ce4519a66f6795edcbd1ce"


class _OcallTable:
    """Minimal application ocall table (one no-op entry)."""

    def __init__(self):
        self.names = ["ocall_nop"]
        self._entries = [lambda: None]

    def entry(self, index: int):
        return self._entries[index]


class _Named:
    def __init__(self, name):
        self.name = name


class _Definition:
    def __init__(self, ecall_names):
        self.ecalls = [_Named(n) for n in ecall_names]


class _Enclave:
    def __init__(self):
        self.enclave_id = 1
        self.config = _Named("bench_enclave")
        self.config.tcs_count = 1
        self.size_pages = 64
        self.base_vaddr = 0x10_0000


class _Runtime:
    def __init__(self):
        self.definition = _Definition(["ecall_null"])
        self.enclave = _Enclave()


class _BenchUrts:
    """Just enough URTS surface for the logger: a device and one enclave.

    Keeping the real URTS (and its transition modelling) out of the loop
    makes the logger + trace store the dominant wall-clock cost, which is
    what this benchmark measures.  The runtime resolves ecall names the
    same way the real URTS bookkeeping does.
    """

    def __init__(self, device: SgxDevice) -> None:
        self.device = device
        self._runtimes = {1: _Runtime()}

    def runtimes(self) -> dict:
        return self._runtimes


def _run_recording():
    """Record ITERATIONS ecall+ocall pairs; returns (db, events, seconds)."""
    process = SimProcess(seed=0)
    sim = process.sim
    urts = _BenchUrts(SgxDevice(sim))
    table = _OcallTable()

    def app_sgx_ecall(enclave_id, index, ocall_table, args):
        # A Table-2-style null ecall that issues one null ocall through
        # the (substituted) table — the workload is pure transition +
        # logging cost, as in the paper's overhead benchmark.  Returns the
        # real URTS convention: ``(status, return value)``.
        ocall_table.entry(0)()
        return SgxStatus.SGX_SUCCESS, 0

    app = Library("libapp_urts.so", {"sgx_ecall": app_sgx_ecall})
    process.loader.load(app)
    logger = EventLogger(
        process, urts, database=TraceDatabase(), aex_mode=AexMode.OFF, trace_paging=False
    )
    logger.install()
    sgx_ecall = process.loader.resolve("sgx_ecall")
    for _ in range(WARMUP):
        sgx_ecall(1, 0, table, ())
    events_before = logger.events_recorded
    begin = time.perf_counter()
    for _ in range(ITERATIONS):
        sgx_ecall(1, 0, table, ())
    elapsed = time.perf_counter() - begin
    events = logger.events_recorded - events_before
    logger.uninstall()
    return logger.finalize(), events, elapsed


def test_record_throughput(benchmark):
    db, events, seconds = run_once(benchmark, _run_recording)
    print()
    print("Recording throughput (ecall+ocall workload, wall clock)")
    print(f"  {events} events in {seconds:6.3f} s = {events / seconds:10,.0f} events/s")

    # Identical virtual-time charges mean the seed path's rows and its
    # rendered analyser report, byte for byte.
    assert events == 2 * ITERATIONS
    assert trace_digest(db) == SEED_PATH_TRACE_DIGEST
    report = Analyzer(db).run().render_text()
    assert sha256_hex(report) == SEED_PATH_REPORT_DIGEST
