"""Scheduler run queue under a futex hammer, and its seed-schedule pin.

Every scheduling turn the seed kernel scanned all live threads for the
minimum ``(wake_time, seq)`` key and rebuilt the live-non-daemon list —
O(n) per turn, O(n²) per simulation.  The heap run queue replaced both
with an indexed min-heap (lazy invalidation) and a maintained liveness
counter, O(log n) per turn.

The workload is adversarial for a scan: many threads hammering timed
futex waits, so the run queue is large and churns every turn.  The heap
was a pure data-structure swap, so its event log must equal the one the
linear scan produced (pinned below); the benchmark prints the absolute
wall time and scheduling rate.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.digest import sha256_hex
from repro.sim.kernel import Simulation

THREADS = 160
ROUNDS = 12
# sha256_hex(repr(log)) of this hammer on the seed's O(n) linear-scan
# picker (the kernel's "linear" run queue, deleted after f40c2d1), computed
# from that picker at f40c2d1.
LINEAR_SCAN_LOG_DIGEST = "9de3a34db36720e8660cb906955b36dc352bb2d4b28e7a85d7907260d38f0fe9"


def _futex_hammer() -> tuple[float, list]:
    """Run the hammer workload; return (wall seconds, event log)."""
    sim = Simulation(seed=7)
    log = []

    def worker(i: int) -> None:
        for round_no in range(ROUNDS):
            sim.compute(sim.rng.jitter_ns(f"hammer-{i}-{round_no}", 2_000))
            # Mostly-expiring timed waits keep the queue full of deadlines;
            # periodic wakes exercise invalidation of those entries.
            woke = sim.futex_wait(("gate", i % 8), timeout_ns=5_000)
            log.append((i, round_no, woke, sim.now_ns))
            if i % 8 == 0:
                sim.futex_wake(("gate", round_no % 8), count=4)

    for i in range(THREADS):
        sim.spawn(worker, i)
    begin = time.perf_counter()
    sim.run()
    return time.perf_counter() - begin, log


def test_bench_scheduler_futex_hammer(benchmark):
    wall, log = run_once(benchmark, _futex_hammer)

    assert len(log) == THREADS * ROUNDS
    # The schedule itself must be the seed scheduler's.
    assert sha256_hex(repr(log)) == LINEAR_SCAN_LOG_DIGEST
    print(
        f"\nscheduler run queue ({THREADS} threads x {ROUNDS} rounds): "
        f"{wall:.3f}s, {len(log) / wall:,.0f} timed waits/s"
    )
