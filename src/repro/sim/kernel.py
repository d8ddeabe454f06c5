"""Deterministic cooperative scheduler.

The simulator executes workload code as plain Python functions inside
*simulated threads* (:class:`SimThread`).  Exactly one simulated thread runs
at any moment; it runs until it calls back into the simulation (to consume
compute time, to block on a futex, ...), at which point the scheduler picks
the runnable thread with the smallest wake-up time.  This makes every
interleaving — and therefore every lock-contention pattern and every sync
ocall the SGX SDK model emits — fully deterministic.

Simulated threads are backed by real OS threads purely as a coroutine
mechanism (so workload code does not need to be written as generators);
the global-turn discipline means there is no actual parallelism and no data
races.

Single-threaded convenience: a :class:`Simulation` can also be used *inline*
without spawning any thread.  ``sim.compute(...)`` then simply advances the
clock.  This keeps simple benchmarks free of spawn/run boilerplate.

Scheduling is O(log n): schedulable threads (runnable, or blocked with a
timed-wait deadline) live in an indexed min-heap keyed on
``(wake_time, seq)`` with lazy invalidation — every state transition pushes
a fresh entry and stamps the thread with its push id, so stale heap entries
are recognised and discarded at pop time instead of being searched for.

The turn passes directly from thread to thread.  Every simulated thread
owns a *baton*, a ``threading.Lock`` that stays locked except while the
turn is being handed to it; waiting for the turn is acquiring it.  A
thread that yields, blocks or finishes calls :meth:`Simulation._pass_turn`
itself: it pops the next live run-queue entry (expiring a timed wait if
that is what it popped), advances the clock, sets the current thread and
releases that thread's baton — one OS thread switch per turn, with no
scheduler loop in between.  A lone thread whose timed wait expires pops
itself and so hands the turn to itself.  :meth:`Simulation.run` starts the
first thread and then sleeps on a baton of its own.  It wakes only when
the simulation is over: every non-daemon thread has finished, no thread is
schedulable (deadlock), or a thread raised.  It then kills the threads
still alive one at a time, each victim waking it again as it exits.
"""

from __future__ import annotations

import heapq
import threading
from typing import Any, Callable, Optional

from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng


class SimulationError(Exception):
    """Base class for scheduler errors."""


class DeadlockError(SimulationError):
    """All live simulated threads are blocked with nobody left to wake them."""


class _ThreadKilled(BaseException):
    """Raised inside a simulated thread to unwind it when the sim shuts down.

    Derives from ``BaseException`` so workload ``except Exception`` blocks do
    not swallow it.
    """


_NEW = "new"
_RUNNABLE = "runnable"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"


class SimThread:
    """A simulated thread of execution.

    Created via :meth:`Simulation.spawn`.  The target function runs with the
    thread as the *current thread* of the simulation; it may call
    :meth:`Simulation.compute`, block on futexes, and spawn further threads.
    """

    def __init__(
        self,
        sim: "Simulation",
        tid: int,
        target: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        name: str,
        daemon: bool,
    ) -> None:
        self._sim = sim
        self.tid = tid
        self.name = name
        self.daemon = daemon
        self._target = target
        self._args = args
        self._kwargs = kwargs
        self.state = _NEW
        self.wake_time = sim.clock.now_ns
        self.seq = sim._next_seq()
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        # Timed-wait bookkeeping (futex_wait with a timeout) and the
        # blocked-since stamp the hang watchdog reads.
        self.timeout_at: Optional[int] = None
        self.timed_out = False
        self.futex_key: Any = None
        self.blocked_since_ns: Optional[int] = None
        self._killed = False
        # Push id of this thread's only live run-queue entry (0 = none);
        # see Simulation._runq_push.
        self._rq_entry = 0
        # The turn baton: locked unless the turn is being handed to us.
        self._baton = threading.Lock()
        self._baton.acquire()
        self._os_thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def _start_os_thread(self) -> None:
        self._os_thread = threading.Thread(
            target=self._run, name=f"sim:{self.name}", daemon=True
        )
        self._os_thread.start()

    def _run(self) -> None:
        try:
            self.result = self._target(*self._args, **self._kwargs)
        except _ThreadKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to run()
            self.exception = exc
        finally:
            self.state = _DONE
            self._sim._on_thread_done(self)

    # -- scheduling primitives (called with the sim lock conventions) ------

    def _resume(self) -> None:
        """Hand the turn to this thread; the caller's last touch of the sim."""
        self.state = _RUNNING
        if self._os_thread is None:
            self._start_os_thread()
        else:
            self._baton.release()

    def _wait_for_turn(self) -> None:
        """Thread side: sleep until another thread hands us the turn."""
        self._baton.acquire()
        if self._killed:
            raise _ThreadKilled()

    @property
    def is_alive(self) -> bool:
        """Whether the simulated thread has not finished yet."""
        return self.state != _DONE

    def wake(self) -> bool:
        """Make a blocked thread runnable at the current virtual time.

        Returns ``False`` if the thread was not blocked.
        """
        if self.state != _BLOCKED:
            return False
        self.state = _RUNNABLE
        self.wake_time = self._sim.clock.now_ns
        self.seq = self._sim._next_seq()
        self.timed_out = False
        self.timeout_at = None
        self.futex_key = None
        self.blocked_since_ns = None
        self._sim._runq_push(self, self.wake_time, self.seq)
        return True

    def __repr__(self) -> str:
        return f"SimThread(tid={self.tid}, name={self.name!r}, state={self.state})"


class Simulation:
    """Owner of the virtual clock, the scheduler and the futex table."""

    def __init__(self, seed: int = 0, frequency_ghz: float = 3.4) -> None:
        self.clock = VirtualClock(frequency_ghz)
        self.rng = DeterministicRng(seed)
        self._threads: list[SimThread] = []
        self._next_tid = 1
        self._seq = 0
        self._current: Optional[SimThread] = None
        # run()'s own baton, released when the simulation is over (and by
        # each thread the kill sweep unwinds); ``_failure`` says why.
        self._wake = threading.Lock()
        self._wake.acquire()
        self._failure: Optional[BaseException] = None
        self._futexes: dict[Any, list[SimThread]] = {}
        self._running = False
        self._exit_hooks: list[Callable[[SimThread], None]] = []
        # Indexed min-heap of (time, seq, push_id, thread) with lazy
        # invalidation; push ids are globally unique so tuple comparison
        # never reaches the (uncomparable) thread object.
        self._runq: list[tuple[int, int, int, SimThread]] = []
        self._runq_push_id = 0
        # Live non-daemon threads; run() drives the simulation until 0.
        self._non_daemons_alive = 0

    # -- bookkeeping --------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    @property
    def now_ns(self) -> int:
        """Current virtual time in nanoseconds."""
        return self.clock.now_ns

    @property
    def current_thread(self) -> Optional[SimThread]:
        """The simulated thread currently holding the turn (``None`` inline)."""
        return self._current

    def spawn(
        self,
        target: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        **kwargs: Any,
    ) -> SimThread:
        """Create a simulated thread, runnable at the current virtual time."""
        tid = self._next_tid
        self._next_tid += 1
        thread = SimThread(
            self,
            tid,
            target,
            args,
            kwargs,
            name or f"thread-{tid}",
            daemon,
        )
        thread.state = _RUNNABLE
        self._threads.append(thread)
        if not daemon:
            self._non_daemons_alive += 1
        self._runq_push(thread, thread.wake_time, thread.seq)
        return thread

    # -- the run queue -------------------------------------------------------

    def _runq_push(self, thread: SimThread, time: int, seq: int) -> None:
        """Enqueue ``thread`` at key ``(time, seq)``, invalidating its old entry.

        A thread has at most one *live* entry: the one whose push id matches
        ``thread._rq_entry``.  Anything else in the heap is stale and gets
        discarded lazily at peek/pop time.
        """
        self._runq_push_id += 1
        thread._rq_entry = pid = self._runq_push_id
        heapq.heappush(self._runq, (time, seq, pid, thread))

    def _runq_peek(self) -> Optional[tuple[int, int, int, SimThread]]:
        """The live minimum entry, pruning stale ones; ``None`` if empty."""
        runq = self._runq
        while runq:
            entry = runq[0]
            if entry[3]._rq_entry == entry[2]:
                return entry
            heapq.heappop(runq)
        return None

    def _runq_pop(self) -> Optional[SimThread]:
        """Remove and return the live minimum thread; ``None`` if empty."""
        entry = self._runq_peek()
        if entry is None:
            return None
        heapq.heappop(self._runq)
        thread = entry[3]
        thread._rq_entry = 0
        return thread

    # -- the scheduler ------------------------------------------------------

    def _expire_timed_wait(self, thread: SimThread) -> None:
        """Turn a timed-out futex wait into a wake-up flagged ``timed_out``."""
        queue = self._futexes.get(thread.futex_key)
        if queue is not None and thread in queue:
            queue.remove(thread)
            if not queue:
                self._futexes.pop(thread.futex_key, None)
        thread.state = _RUNNABLE
        thread.wake_time = thread.timeout_at
        thread.seq = self._next_seq()
        thread.timed_out = True
        thread.timeout_at = None
        thread.blocked_since_ns = None

    def _deadlock(self) -> DeadlockError:
        """Build the no-runnable-thread diagnostic, one entry per blocked thread.

        Includes each blocked thread's futex key and ``blocked_since_ns`` so
        a failure report from a parallel-sweep child process is actionable
        without re-running the task under a debugger.
        """
        blocked = [t for t in self._threads if t.state == _BLOCKED]
        details = ", ".join(
            f"{t!r} futex_key={t.futex_key!r} blocked_since_ns={t.blocked_since_ns}"
            for t in blocked
        )
        return DeadlockError("no runnable thread; blocked: " + details)

    def run(self) -> None:
        """Drive the simulation until all non-daemon threads complete.

        Daemon threads still alive at that point are killed.  If a thread
        raised, its exception is re-raised here.
        """
        if self._running:
            raise SimulationError("simulation is already running")
        self._running = True
        try:
            self._pass_turn()
            self._wake.acquire()
            if self._failure is not None:
                raise self._failure
        finally:
            self._kill_remaining()
            self._running = False
            self._current = None

    def _pass_turn(self) -> None:
        """Hand the turn to the next schedulable thread, or wake ``run()``.

        Called by the thread giving up the turn (and by ``run()`` to start
        the first one).  Releasing the next thread's baton is the caller's
        last touch of simulation state.
        """
        if self._non_daemons_alive <= 0:
            self._stop(None)
            return
        nxt = self._runq_pop()
        if nxt is None:
            self._stop(self._deadlock())
            return
        if nxt.state == _BLOCKED:
            self._expire_timed_wait(nxt)
        self.clock.advance_to(nxt.wake_time)
        self._current = nxt
        nxt._resume()

    def _stop(self, failure: Optional[BaseException]) -> None:
        """End the simulation: wake ``run()``, to raise ``failure`` if any."""
        self._failure = failure
        self._current = None
        self._wake.release()

    def _kill_remaining(self) -> None:
        for thread in self._threads:
            if thread.is_alive and thread._os_thread is not None:
                thread._killed = True
                thread._baton.release()
                self._wake.acquire()
            elif thread.is_alive:
                thread.state = _DONE
                thread._rq_entry = 0
                self._note_thread_done(thread)
                self._run_exit_hooks(thread)

    def on_thread_exit(self, hook: Callable[[SimThread], None]) -> None:
        """Register a callback fired when any simulated thread finishes.

        Runs on the finishing thread, while it still holds the turn — safe
        for per-thread bookkeeping cleanup (the URTS reclaims its call-stack
        and event state here).  Hooks must not block or consume time.
        """
        self._exit_hooks.append(hook)

    def _run_exit_hooks(self, thread: SimThread) -> None:
        for hook in self._exit_hooks:
            hook(thread)

    def _note_thread_done(self, thread: SimThread) -> None:
        if not thread.daemon:
            self._non_daemons_alive -= 1

    def _on_thread_done(self, thread: SimThread) -> None:
        self._note_thread_done(thread)
        self._run_exit_hooks(thread)
        if thread._killed:
            self._wake.release()  # the kill sweep waits for each victim
        elif thread.exception is not None:
            self._stop(thread.exception)
        else:
            self._pass_turn()

    def _yield_turn(self, thread: SimThread) -> None:
        """Thread side: hand the turn on and wait until it comes back."""
        self._pass_turn()
        thread._wait_for_turn()

    # -- primitives available to simulated threads (and inline) -------------

    def compute(self, duration_ns: int) -> None:
        """Consume ``duration_ns`` of virtual compute time.

        If another runnable thread would start before this slice finishes,
        the turn is handed over so interleavings stay time-ordered;
        otherwise the clock simply advances (fast path).  This is the
        logger's per-event hot path, so the clock is touched through one
        cached local and advanced in place.
        """
        if duration_ns < 0:
            raise ValueError("negative compute duration")
        clock = self.clock
        current = self._current
        deadline = clock.now_ns + int(duration_ns)
        if current is None:
            # Inline (schedulerless) mode.
            if deadline > clock.now_ns:
                clock.now_ns = deadline
            return
        current.wake_time = deadline
        self._seq = seq = self._seq + 1
        current.seq = seq
        current.state = _RUNNABLE
        # Keep the turn unless some other schedulable thread precedes our
        # new key — a peek, not a push+pop, so the single-runnable fast
        # path never touches the heap.  ``seq`` is freshly bumped, so a
        # key tie goes to the thread that queued first.
        entry = self._runq_peek()
        if entry is None or (deadline, seq) < (entry[0], entry[1]):
            current.state = _RUNNING
            if deadline > clock.now_ns:
                clock.now_ns = deadline
            return
        self._runq_push(current, deadline, seq)
        self._yield_turn(current)
        current.state = _RUNNING

    def yield_now(self) -> None:
        """Let equally-ready threads run without consuming time."""
        self.compute(0)

    def block_current(self) -> None:
        """Block the current thread until another thread wakes it."""
        current = self._require_thread("block")
        current.state = _BLOCKED
        current.blocked_since_ns = self.clock.now_ns
        self._yield_turn(current)

    def _require_thread(self, what: str) -> SimThread:
        if self._current is None:
            raise SimulationError(
                f"cannot {what} outside a simulated thread; use sim.spawn()"
            )
        return self._current

    # -- futexes -------------------------------------------------------------

    def futex_wait(self, key: Any, timeout_ns: Optional[int] = None) -> bool:
        """Block the current thread on ``key`` until a matching wake.

        With ``timeout_ns`` the wait is bounded in virtual time: if no wake
        arrives by the deadline the scheduler expires the wait and the call
        returns ``False`` (``True`` means a genuine wake).  Untimed waits
        always return ``True``.
        """
        current = self._require_thread("futex_wait")
        self._futexes.setdefault(key, []).append(current)
        current.futex_key = key
        if timeout_ns is None:
            self.block_current()
            current.futex_key = None
            return True
        current.timeout_at = self.clock.now_ns + int(timeout_ns)
        current.timed_out = False
        # A timed wait competes for the turn at its expiry key; enqueue it
        # so the scheduler can expire it without scanning.
        self._runq_push(current, current.timeout_at, current.seq)
        self.block_current()
        woken = not current.timed_out
        current.timed_out = False
        current.futex_key = None
        return woken

    def futex_wake(self, key: Any, count: int = 1) -> int:
        """Wake up to ``count`` threads blocked on ``key``; returns how many."""
        queue = self._futexes.get(key)
        if not queue:
            return 0
        woken = 0
        while queue and woken < count:
            thread = queue.pop(0)
            if thread.wake():
                woken += 1
        if not queue:
            self._futexes.pop(key, None)
        return woken

    def futex_waiters(self, key: Any) -> int:
        """Number of threads currently blocked on ``key``."""
        return len(self._futexes.get(key, ()))
