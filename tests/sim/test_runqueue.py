"""The indexed min-heap run queue."""

import pytest

from repro.digest import sha256_hex
from repro.sim.kernel import DeadlockError, Simulation

# sha256_hex(repr(_interleaving(seed))) on the seed's O(n) linear-scan
# picker (the kernel's "linear" run queue, deleted after f40c2d1), computed
# from that picker at f40c2d1.
LINEAR_SCHEDULE_DIGESTS = {
    0: "95decf99cd10d92d0ef3ddc2f6b9cfd420b32a87f0b71d0a361c52f26d480945",
    7: "6193d6dfb43f965567e267bf887e2ed2d786eb623098b4c6c1d8ac86426d7f57",
    21: "d6a8bb6a7758b871f9f1a41d44980c6d2c1826c5f77a194c1ba997974cf3f0d1",
}


def _interleaving(seed: int):
    """A mixed workload's event log: jittered computes, timed waits, wakes, a daemon.

    Means of a few dozen ns keep the jittered deadlines small integers, so
    seeds differ in where threads tie on ``(wake_time, seq)`` order.
    """
    sim = Simulation(seed=seed)
    log = []

    def compute(stream, mean_ns):
        sim.compute(sim.rng.jitter_ns(stream, mean_ns))

    def daemon():
        while True:
            compute("daemon", 40)
            log.append(("daemon", sim.now_ns))

    def sleeper(name, timeout_ns):
        compute(name, 5)
        woke = sim.futex_wait("gate", timeout_ns=timeout_ns)
        log.append((name, "woke" if woke else "expired", sim.now_ns))

    def waker():
        compute("waker", 120)
        n = sim.futex_wake("gate", count=1)
        log.append(("waker", n, sim.now_ns))

    def worker(name, step):
        for _ in range(4):
            compute(name, step)
            log.append((name, sim.now_ns))

    sim.spawn(daemon, daemon=True)
    sim.spawn(sleeper, "early", 50)
    sim.spawn(sleeper, "late", 500)
    sim.spawn(waker)
    sim.spawn(worker, "fast", 15)
    sim.spawn(worker, "slow", 60)
    sim.run()
    return log


class TestHeapRunQueue:
    def test_timed_wait_expiry_ordering(self):
        # Two timed waiters with different deadlines must expire in
        # deadline order, interleaved correctly with a computing thread.
        sim = Simulation()
        log = []

        def sleeper(name, timeout_ns):
            expired = not sim.futex_wait("never-woken", timeout_ns=timeout_ns)
            log.append((name, expired, sim.now_ns))

        def ticker():
            for _ in range(3):
                sim.compute(100)
                log.append(("tick", sim.now_ns))

        sim.spawn(sleeper, "short", 50)
        sim.spawn(sleeper, "long", 250)
        sim.spawn(ticker)
        sim.run()
        assert log == [
            ("short", True, 50),
            ("tick", 100),
            ("tick", 200),
            ("long", True, 250),
            ("tick", 300),
        ]

    def test_same_wake_time_fifo_by_seq(self):
        # Threads resumable at the same virtual instant run in seq
        # (spawn/block) order — the heap must not reorder key ties.
        sim = Simulation()
        log = []

        def waiter(name):
            sim.futex_wait("gate")
            log.append(name)

        for name in ("a", "b", "c"):
            sim.spawn(waiter, name)
        sim.spawn(lambda: sim.futex_wake("gate", count=3))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_daemon_killed_when_last_non_daemon_exits(self):
        sim = Simulation()
        log = []

        def daemon():
            while True:
                sim.compute(10)
                log.append(sim.now_ns)

        sim.spawn(daemon, daemon=True)
        sim.spawn(lambda: sim.compute(35))
        sim.run()
        # The daemon may run while real work remains, never after.
        assert log == [10, 20, 30]

    def test_unstarted_daemon_killed_cleanly(self):
        sim = Simulation()
        sim.spawn(lambda: None, daemon=True)
        sim.spawn(lambda: None, daemon=True)
        sim.run()  # no non-daemon work at all; must not hang or leak

    def test_deadlock_detected_with_diagnostics(self):
        sim = Simulation()
        sim.spawn(lambda: sim.futex_wait("lost-key"))
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        message = str(exc.value)
        assert "futex_key='lost-key'" in message
        assert "blocked_since_ns=" in message

    def test_heap_matches_linear_reference_schedule(self):
        for seed, digest in LINEAR_SCHEDULE_DIGESTS.items():
            assert sha256_hex(repr(_interleaving(seed))) == digest, seed

    def test_compute_fast_path_keeps_thread_running(self):
        # A lone thread doing many computes must not churn the heap: the
        # peeked queue is empty, so the thread stays RUNNING inline.
        sim = Simulation()

        def worker():
            for _ in range(50):
                sim.compute(10)

        sim.spawn(worker)
        sim.run()
        assert sim.now_ns == 500
        # All stale entries were pruned or never pushed.
        assert sim._runq_peek() is None
