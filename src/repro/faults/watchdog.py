"""Virtual-time hang watchdog for the SDK sync layer and open ecalls.

A wedged enclave does not crash — it *stops*: a lock cycle across
``SdkMutex`` sleep ocalls, a ``SdkCondVar`` signal that raced a waiter
(lost wakeup), or an ecall that never returns.  On real hardware these are
found with wall-clock timeouts; here everything runs on the simulator's
virtual clock, so the watchdog is a daemon *simulated* thread that wakes
every ``check_interval_ns`` of virtual time and inspects runtime state:

* **deadlock** — the wait-for graph (mutex waiter → mutex owner, built
  from :meth:`SdkMutex.queued_tokens` / :attr:`SdkMutex.owner_token`)
  contains a cycle;
* **lost wakeup** — a thread queued on a condition variable has been
  blocked longer than ``sync_deadline_ns`` without being part of a cycle;
* **ecall timeout** — an ecall frame has stayed open longer than
  ``ecall_deadline_ns``.

Detections are deterministic: the scan runs at fixed virtual times and
draws no randomness, so a hang is detected at the same virtual nanosecond
on every seeded run.  Each detection is recorded as a ``faults``-table row
(kind ``watchdog:*``); by default the watchdog then raises
:class:`WatchdogHangError` out of the simulation so campaigns fail fast
and salvage the trace.

The watchdog is only ever armed explicitly — an un-armed run has no
watchdog thread and a byte-identical trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.faultrows import WATCHDOG_DEADLOCK, WATCHDOG_ECALL_TIMEOUT, WATCHDOG_LOST_WAKEUP
from repro.sim.kernel import Simulation


class WatchdogHangError(RuntimeError):
    """The watchdog detected a hang (deadlock, lost wakeup or stuck ecall)."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


@dataclass(frozen=True)
class HangDetection:
    """One hang the watchdog observed."""

    kind: str
    timestamp_ns: int
    detail: str


class HangWatchdog:
    """Deadline-and-wait-for-graph monitor over one URTS.

    ``mode`` is ``"raise"`` (record the fault row, then abort the
    simulation with :class:`WatchdogHangError`) or ``"record"`` (log and
    keep running — each distinct hang is reported once).
    """

    def __init__(
        self,
        sim: Simulation,
        urts: Any,
        logger: Optional[Any] = None,
        check_interval_ns: int = 1_000_000,
        ecall_deadline_ns: int = 50_000_000,
        sync_deadline_ns: int = 20_000_000,
        mode: str = "raise",
        slow_windows: tuple = (),
        slow_extra_ns: int = 0,
        slow_slack: float = 1.0,
    ) -> None:
        if mode not in ("raise", "record"):
            raise ValueError(f"unknown watchdog mode {mode!r}")
        self.sim = sim
        self.urts = urts
        self.logger = logger
        self.check_interval_ns = check_interval_ns
        self.ecall_deadline_ns = ecall_deadline_ns
        self.sync_deadline_ns = sync_deadline_ns
        self.mode = mode
        # Gray-failure awareness: while a chaos slow window is active,
        # every socket op inside an open ecall stalls ``slow_extra_ns``
        # extra, so a frame can legitimately stay open far past the
        # healthy deadline.  The deadline clock runs ``slow_slack`` times
        # slower across the overlap with these windows (1.0 = paused) —
        # a *slow* node stops being reported as a *hung* one.
        self.slow_windows = tuple(slow_windows) if slow_extra_ns > 0 else ()
        self.slow_extra_ns = slow_extra_ns
        self.slow_slack = slow_slack
        self.detections: list[HangDetection] = []
        self._stopped = False
        self._armed = False
        # First virtual time each open ecall frame was seen, keyed by stack
        # slot ``(tid, depth)``; the frame object itself is held so a new
        # frame in the same slot is recognised and restarts the clock.
        self._frame_first_seen: dict[tuple, tuple[Any, int]] = {}
        self._reported: set = set()

    # -- lifecycle ----------------------------------------------------------

    def arm(self) -> "HangWatchdog":
        """Spawn the watchdog daemon thread (idempotent)."""
        if not self._armed:
            self._armed = True
            if self.logger is not None:
                self.logger.enable_fault_recording()
            self.sim.spawn(self._loop, name="hang-watchdog", daemon=True)
        return self

    def stop(self) -> None:
        """Ask the watchdog thread to exit at its next tick."""
        self._stopped = True

    def _loop(self) -> None:
        while not self._stopped:
            self.sim.compute(self.check_interval_ns)
            self.scan()

    # -- detection ----------------------------------------------------------

    def _report(self, kind: str, dedup_key: Any, detail: str) -> None:
        if dedup_key in self._reported:
            return
        self._reported.add(dedup_key)
        detection = HangDetection(kind, self.sim.now_ns, detail)
        self.detections.append(detection)
        if self.logger is not None:
            self.logger.record_fault(kind, enclave_id=0, call="", detail=detail)
        if self.mode == "raise":
            raise WatchdogHangError(kind, detail)

    def scan(self) -> None:
        """Run one inspection pass (normally called from the daemon loop)."""
        self._scan_wait_for_graph()
        self._scan_open_ecalls()

    def _blocked_age(self, threads_by_tid: dict, token: Any) -> Optional[int]:
        thread = threads_by_tid.get(token)
        if thread is None or thread.blocked_since_ns is None:
            return None
        return self.sim.now_ns - thread.blocked_since_ns

    def _scan_wait_for_graph(self) -> None:
        # waiter token -> (owner token, mutex name); a thread sleeps on at
        # most one mutex at a time, so each waiter has one outgoing edge.
        edges: dict[Any, tuple[Any, str]] = {}
        cond_waits: list[tuple[Any, str]] = []
        for runtime in self.urts.runtimes().values():
            for (kind, name), obj in runtime.sync_objects().items():
                if kind == "mutex":
                    owner = obj.owner_token
                    for waiter in obj.queued_tokens():
                        if owner is not None:
                            edges[waiter] = (owner, name)
                elif kind == "cond":
                    for waiter in obj.queued_tokens():
                        cond_waits.append((waiter, name))
        threads_by_tid = {t.tid: t for t in self.sim._threads}
        in_cycle: set = set()
        for start in sorted(edges, key=repr):
            path: list[Any] = []
            seen: dict[Any, int] = {}
            node = start
            while node in edges and node not in seen:
                seen[node] = len(path)
                path.append(node)
                node = edges[node][0]
            if node in seen:
                cycle = path[seen[node] :]
                in_cycle.update(cycle)
                hops = " -> ".join(
                    f"t{tok}(waits {edges[tok][1]!r})" for tok in cycle
                )
                self._report(
                    WATCHDOG_DEADLOCK,
                    (WATCHDOG_DEADLOCK, tuple(sorted(cycle, key=repr))),
                    f"lock cycle: {hops} -> t{cycle[0]}",
                )
        for waiter, name in cond_waits:
            if waiter in in_cycle:
                continue
            age = self._blocked_age(threads_by_tid, waiter)
            if age is not None and age >= self.sync_deadline_ns:
                self._report(
                    WATCHDOG_LOST_WAKEUP,
                    (WATCHDOG_LOST_WAKEUP, waiter, name),
                    f"t{waiter} waiting on cond {name!r} for {age} ns "
                    f"with no wake in flight",
                )

    def _slow_allowance_ns(self, first_ns: int, now_ns: int) -> int:
        """Extra deadline budget from gray-failure slow windows.

        Proportional to how long the frame's open interval overlaps the
        active slow windows — an ecall that spans the whole window gets
        the whole window forgiven (at ``slow_slack`` 1.0), one that opened
        after recovery gets nothing.
        """
        if not self.slow_windows:
            return 0
        overlap = 0
        for start, end in self.slow_windows:
            overlap += max(0, min(now_ns, end) - max(first_ns, start))
        return int(overlap * self.slow_slack)

    def _scan_open_ecalls(self) -> None:
        now = self.sim.now_ns
        live: set = set()
        for tid, state in self.urts.thread_states().items():
            for depth, frame in enumerate(state.frames):
                if getattr(frame, "execution", None) is None:  # ocall frame
                    continue
                slot = (tid, depth)
                live.add(slot)
                stored = self._frame_first_seen.get(slot)
                if stored is None or stored[0] is not frame:
                    self._frame_first_seen[slot] = (frame, now)
                    continue
                first = stored[1]
                deadline = self.ecall_deadline_ns + self._slow_allowance_ns(first, now)
                if now - first >= deadline:
                    self._report(
                        WATCHDOG_ECALL_TIMEOUT,
                        (WATCHDOG_ECALL_TIMEOUT, slot, first),
                        f"ecall {frame.decl.name!r} on t{tid} open for {now - first} ns",
                    )
        # Frames that returned no longer pin their first-seen stamps.
        for slot in list(self._frame_first_seen):
            if slot not in live:
                self._frame_first_seen.pop(slot)
