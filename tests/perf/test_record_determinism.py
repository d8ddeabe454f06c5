"""Determinism regression: the recording path against its pinned seed trace.

The buffered logger is a pure wall-clock optimisation of the seed's
recording path (one ``CallEvent`` dataclass per event, row-at-a-time
writes): the same workload must produce **identical** ``calls``/``sync``/
``aex``/``paging`` table contents — same rows, same ordering keys, same
virtual end times.  Partial mid-run drains must not reorder or drop
anything either.  The seed path itself is gone; its trace survives as the
pinned :func:`~repro.digest.trace_digest` below.
"""

from __future__ import annotations

import pytest

from repro.digest import trace_digest
from repro.perf.database import TraceDatabase
from repro.perf.logger import AexMode, EventLogger
from repro.sdk.edger8r import build_enclave
from repro.sdk.urts import Urts
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig
from repro.sgx.epc import Epc
from repro.sim.process import SimProcess

from tests.conftest import SIMPLE_EDL, make_simple_impls

# trace_digest of _record() through the seed's dataclass-per-event legacy
# logger (src/repro/perf/legacy.py, deleted after f40c2d1), computed from
# that logger at f40c2d1.
LEGACY_TRACE_DIGEST = "c4ab712d974afecf9f6d30ada2babb5c678abd25a87bef757ea0675080c5e543"


def _record(seed: int = 11, db: TraceDatabase = None):
    """Run one mixed workload (ecalls, nested ocalls, AEX, paging, sync)."""
    process = SimProcess(seed=seed)
    device = SgxDevice(
        process.sim, timer_period_ns=100_000, epc=Epc(capacity_pages=192)
    )
    urts = Urts(process, device)
    trusted, untrusted = make_simple_impls()

    def ecall_lock_or_touch(ctx, ns):
        if ns < 0:  # EPC-thrashing mode
            buf = ctx.malloc(240 * 1024)
            ctx.touch(buf, write=True)
            ctx.free(buf)
            return 0
        mutex = ctx.mutex("m")
        mutex.lock(ctx)
        ctx.compute(int(ns))
        mutex.unlock(ctx)
        return 0

    trusted["ecall_compute"] = ecall_lock_or_touch
    handle = build_enclave(
        urts,
        SIMPLE_EDL,
        trusted,
        untrusted,
        config=EnclaveConfig(heap_bytes=256 * 1024, code_bytes=128 * 1024, tcs_count=4),
    )
    logger = EventLogger(
        process, urts, database=db or TraceDatabase(), aex_mode=AexMode.TRACE
    )
    logger.install()
    # Single-thread phase: plain ecalls, nested ocalls, a long AEX-heavy
    # call and an EPC-thrashing call.
    for i in range(6):
        handle.ecall("ecall_add", i, i + 1)
        handle.ecall("ecall_with_ocall")
    handle.ecall("ecall_compute", 400_000)
    handle.ecall("ecall_compute", -1)

    # Multi-thread phase: mutex contention produces the four sync ocalls.
    def worker():
        for _ in range(4):
            handle.ecall("ecall_compute", 8_000)

    for i in range(3):
        process.sim.spawn(worker, name=f"w{i}")
    process.sim.run()
    logger.uninstall()
    return logger.finalize()


@pytest.fixture(scope="module")
def recorded():
    return _record()


def test_tables_nonempty(recorded):
    """The workload must exercise every event source to be a real oracle."""
    for table in ("calls", "aex", "paging", "sync"):
        assert recorded.execute(f"SELECT count(*) FROM {table}")[0][0], (
            f"workload produced no {table} rows"
        )


def test_buffered_path_matches_legacy(recorded):
    assert trace_digest(recorded) == LEGACY_TRACE_DIGEST


def test_partial_drains_do_not_reorder(monkeypatch):
    """Tiny thresholds force many mid-run drains of both buffer layers."""
    monkeypatch.setattr("repro.perf.logger.DRAIN_THRESHOLD", 8)
    db = TraceDatabase(flush_threshold=4)
    assert trace_digest(_record(db=db)) == LEGACY_TRACE_DIGEST
