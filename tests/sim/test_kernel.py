"""The deterministic cooperative scheduler."""

import sys

import pytest

from repro.sim.kernel import DeadlockError, Simulation, SimulationError


class TestInlineMode:
    def test_compute_advances_clock(self):
        sim = Simulation()
        sim.compute(1_000)
        assert sim.now_ns == 1_000

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Simulation().compute(-5)

    def test_block_outside_thread_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().block_current()

    def test_futex_wait_outside_thread_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().futex_wait("k")


class TestScheduling:
    def test_single_thread_runs_to_completion(self):
        sim = Simulation()
        log = []
        sim.spawn(lambda: log.append(sim.now_ns))
        sim.run()
        assert log == [0]

    def test_thread_result_captured(self):
        sim = Simulation()
        thread = sim.spawn(lambda: 41 + 1)
        sim.run()
        assert thread.result == 42

    def test_threads_interleave_by_virtual_time(self):
        sim = Simulation()
        log = []

        def worker(name, step):
            for _ in range(3):
                sim.compute(step)
                log.append((name, sim.now_ns))

        sim.spawn(worker, "fast", 10)
        sim.spawn(worker, "slow", 25)
        sim.run()
        # Events must come out in global time order.
        times = [t for _, t in log]
        assert times == sorted(times)
        assert ("fast", 10) in log and ("slow", 25) in log

    def test_spawn_order_breaks_ties(self):
        sim = Simulation()
        log = []
        sim.spawn(lambda: log.append("first"))
        sim.spawn(lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second"]

    def test_exception_propagates_to_run(self):
        sim = Simulation()

        def boom():
            sim.compute(10)
            raise ValueError("boom")

        sim.spawn(boom)
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_daemon_threads_killed_at_end(self):
        sim = Simulation()
        log = []

        def daemon():
            while True:
                sim.compute(5)
                log.append("tick")

        def main():
            sim.compute(20)

        sim.spawn(daemon, daemon=True)
        sim.spawn(main)
        sim.run()
        assert 1 <= len(log) <= 10  # ran some, then killed

    def test_deadlock_detected(self):
        sim = Simulation()
        sim.spawn(lambda: sim.futex_wait("never"))
        with pytest.raises(DeadlockError):
            sim.run()

    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulation(seed=5)
            log = []

            def worker(i):
                for _ in range(4):
                    sim.compute(sim.rng.jitter_ns(f"w{i}", 1_000))
                    log.append((i, sim.now_ns))

            for i in range(3):
                sim.spawn(worker, i)
            sim.run()
            return log

        assert run_once() == run_once()

    def test_nested_spawn(self):
        sim = Simulation()
        log = []

        def child():
            sim.compute(5)
            log.append("child")

        def parent():
            sim.spawn(child)
            sim.compute(1)
            log.append("parent")

        sim.spawn(parent)
        sim.run()
        assert set(log) == {"parent", "child"}


class TestFutex:
    def test_wait_and_wake(self):
        sim = Simulation()
        log = []

        def waiter():
            sim.futex_wait("key")
            log.append(("woken", sim.now_ns))

        def waker():
            sim.compute(100)
            assert sim.futex_wake("key") == 1

        sim.spawn(waiter)
        sim.spawn(waker)
        sim.run()
        assert log == [("woken", 100)]

    def test_wake_without_waiters_returns_zero(self):
        sim = Simulation()
        sim.spawn(lambda: None)
        assert sim.futex_wake("nobody") == 0
        sim.run()

    def test_wake_count_limits(self):
        sim = Simulation()
        woken = []

        def waiter(i):
            sim.futex_wait("k")
            woken.append(i)

        def waker():
            sim.compute(10)
            assert sim.futex_wake("k", count=2) == 2
            sim.compute(10)
            assert sim.futex_wake("k", count=5) == 1

        for i in range(3):
            sim.spawn(waiter, i)
        sim.spawn(waker)
        sim.run()
        assert sorted(woken) == [0, 1, 2]

    def test_fifo_wake_order(self):
        sim = Simulation()
        order = []

        def waiter(i):
            sim.compute(i)  # enqueue in a known order
            sim.futex_wait("k")
            order.append(i)

        def waker():
            sim.compute(100)
            for _ in range(3):
                sim.futex_wake("k")
                sim.compute(1)

        for i in range(3):
            sim.spawn(waiter, i)
        sim.spawn(waker)
        sim.run()
        assert order == [0, 1, 2]

    def test_waiter_count(self):
        sim = Simulation()

        def waiter():
            sim.futex_wait("k")

        def checker():
            sim.compute(50)
            assert sim.futex_waiters("k") == 2
            sim.futex_wake("k", count=2)

        sim.spawn(waiter)
        sim.spawn(waiter)
        sim.spawn(checker)
        sim.run()


class TestTimedFutexWait:
    def test_timed_wait_returns_false_at_deadline(self):
        sim = Simulation()
        results = []

        def waiter():
            start = sim.now_ns
            woke = sim.futex_wait("never-signalled", timeout_ns=7_000)
            results.append((woke, sim.now_ns - start))

        sim.spawn(waiter)
        sim.run()
        assert results == [(False, 7_000)]

    def test_timed_wait_returns_true_on_genuine_wake(self):
        sim = Simulation()
        results = []

        def waiter():
            results.append(sim.futex_wait("k", timeout_ns=1_000_000))

        def waker():
            sim.compute(1_000)
            sim.futex_wake("k")

        sim.spawn(waiter)
        sim.spawn(waker)
        sim.run()
        assert results == [True]
        assert sim.now_ns < 1_000_000  # woke early, did not sit out the timeout

    def test_expired_waiter_leaves_futex_queue(self):
        # After a timeout the thread must not linger in the wait queue and
        # absorb a later wake meant for another waiter.
        sim = Simulation()
        order = []

        def impatient():
            order.append(("impatient", sim.futex_wait("k", timeout_ns=100)))

        def patient():
            sim.compute(50)
            order.append(("patient", sim.futex_wait("k")))

        def waker():
            sim.compute(10_000)
            assert sim.futex_waiters("k") == 1  # only the patient one left
            sim.futex_wake("k")

        sim.spawn(impatient)
        sim.spawn(patient)
        sim.spawn(waker)
        sim.run()
        assert order == [("impatient", False), ("patient", True)]

    def test_timed_waits_expire_in_deadline_order(self):
        sim = Simulation()
        order = []

        def waiter(tag, timeout):
            sim.futex_wait(f"k{tag}", timeout_ns=timeout)
            order.append(tag)

        sim.spawn(waiter, "late", 9_000)
        sim.spawn(waiter, "early", 3_000)
        sim.run()
        assert order == ["early", "late"]
        assert sim.now_ns == 9_000


def _assert_no_os_thread_left(threads):
    """Every simulated thread's OS thread has exited once run() is over."""
    for thread in threads:
        if thread._os_thread is not None:
            thread._os_thread.join(timeout=1.0)
    assert [t for t in threads if t._os_thread is not None and t._os_thread.is_alive()] == []
    assert [t for t in threads if t.is_alive] == []


class TestTurnHandoff:
    def test_lone_timed_waiter_hands_the_turn_to_itself(self):
        # Once "late" has queued at 100, the waiter's expiry at 30 is the
        # only earlier entry: the waiter pops itself.
        sim = Simulation()
        log = []

        def late():
            sim.compute(100)
            log.append(("late", sim.now_ns))

        def waiter():
            log.append(("woke", sim.futex_wait("never", timeout_ns=30), sim.now_ns))

        sim.spawn(late)
        sim.spawn(waiter)
        sim.run()
        assert log == [("woke", False, 30), ("late", 100)]

    def test_current_thread_follows_the_turn(self):
        sim = Simulation()
        players = {}
        turns = []

        def player(name):
            for _ in range(4):
                sim.compute(10)  # the other player precedes us: a handoff
                assert sim.current_thread is players[name]
                turns.append((name, sim.now_ns))

        players["a"] = sim.spawn(player, "a")
        players["b"] = sim.spawn(player, "b")
        sim.run()
        assert turns == [(name, t) for t in (10, 20, 30, 40) for name in "ab"]
        assert sim.current_thread is None

    def test_schedule_survives_forced_interpreter_switches(self):
        # A thread giving up the turn must touch no simulation state after
        # releasing the next thread's baton.  A tiny switch interval lets
        # the next thread run inside that window; the log must not change.
        def hammer(switch_interval_s):
            old = sys.getswitchinterval()
            sys.setswitchinterval(switch_interval_s)
            try:
                sim = Simulation(seed=3)
                log = []

                def worker(i):
                    for r in range(20):
                        sim.compute(sim.rng.jitter_ns(f"w{i}", 1_000))
                        woke = sim.futex_wait(("k", i % 4), timeout_ns=1_500)
                        log.append((i, r, woke, sim.now_ns, sim.current_thread.tid))
                        sim.futex_wake(("k", (i + 1) % 4))

                for i in range(16):
                    sim.spawn(worker, i)
                sim.run()
                return log
            finally:
                sys.setswitchinterval(old)

        reference = hammer(0.005)
        assert len(reference) == 16 * 20
        assert hammer(1e-6) == reference


class TestNoLeakedOsThreads:
    def test_thread_exception(self):
        sim = Simulation()

        def spinner():
            while True:
                sim.compute(5)

        def boom():
            sim.compute(50)
            raise ValueError("boom")

        threads = [
            sim.spawn(lambda: sim.futex_wait("never")),
            sim.spawn(spinner, daemon=True),
            sim.spawn(boom),
        ]
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        _assert_no_os_thread_left(threads)

    def test_deadlock(self):
        sim = Simulation()

        def last():
            sim.compute(10)
            sim.futex_wait("also-never")

        threads = [sim.spawn(lambda: sim.futex_wait("never")), sim.spawn(last)]
        with pytest.raises(DeadlockError):
            sim.run()
        _assert_no_os_thread_left(threads)

    def test_daemon_killed_at_end(self):
        sim = Simulation()

        def spinner():
            while True:
                sim.compute(5)

        threads = [sim.spawn(spinner, daemon=True), sim.spawn(lambda: sim.compute(20))]
        sim.run()
        _assert_no_os_thread_left(threads)
