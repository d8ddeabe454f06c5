"""Graceful degradation under EPC pressure: the gateway brownout controller.

A node under EPC pressure does not fail — it *slows*: every page load
evicts (EWB) and reloads (ELDU), ecalls stretch, the gateway backlog
climbs, and an admission limit tuned for the happy path sheds whatever
arrives next, writes and reads alike.  The brownout controller replaces
that cliff with a *priority-ordered* slope, driven by the one signal the
paging machinery already produces:

* **pressure signal** — the shard's EWB+ELDU count, sampled on the
  virtual clock and folded into an EWMA paging rate (pages per virtual
  second).  No extra threads, no randomness: the dispatcher samples at
  each arrival it processes, so the signal is a pure function of the
  simulation schedule and replays byte-identically.
* **levels with hysteresis** — ``normal`` → ``brownout`` (rate above
  ``enter_rate``) → ``deep`` (above ``deep_rate``), stepping back only
  after the rate falls below half the entry threshold *and* a minimum
  dwell has passed, so the controller cannot flap across a noisy signal.
* **priority-classed admission** — arrivals are classed ``write``
  (client creates/fills, the acknowledged-durability traffic), ``read``
  (client gets/fetches) and ``background`` (replica copies, hinted
  handoffs).  Brownout sheds background first, deep brownout also sheds
  reads; writes are only ever shed at the hard ``admission_limit``.
  Refusals are typed — :class:`ClusterOverloaded` carries the class and
  level — and every shed writes a trace row naming its class, so the
  strict shed order is assertable from the trace afterwards.
* **pressure-proportional batching** — above ``enter_rate`` the gateway
  batch limit scales down as ``enter_rate / rate``: smaller batches hold
  fewer victim-able pages per upstream exchange and return capacity to
  the paging-bound enclave sooner.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import faultrows
from repro.cluster.router import (
    OP_CREATE,
    OP_FILL,
    ROLE_CLIENT,
)

# Priority classes, in strict shed order (background goes first).
PRIORITY_WRITE = "write"
PRIORITY_READ = "read"
PRIORITY_BACKGROUND = "background"
PRIORITY_ORDER = (PRIORITY_BACKGROUND, PRIORITY_READ, PRIORITY_WRITE)

# Controller levels, named by their index in ``faultrows.BROWNOUT_LEVELS``.
LEVEL_NORMAL = 0
LEVEL_BROWNOUT = 1
LEVEL_DEEP = 2

# Default thresholds, in EPC pages per virtual second.  One EWB/ELDU pair
# costs ~14 µs of device time, so ~70k pages/s means the shard spends
# roughly its whole budget paging; brownout engages when about a third of
# the budget burns on paging and deep brownout when paging dominates.
ENTER_RATE_PPS = 25_000.0
DEEP_RATE_PPS = 55_000.0
# Hysteresis: step a level down only below exit_fraction * entry rate.
EXIT_FRACTION = 0.5
# Minimum dwell at a level before stepping back down (virtual ns).
MIN_DWELL_NS = 2_000_000
# Pressure sampling period (virtual ns) and EWMA smoothing factor.
SAMPLE_NS = 250_000
EWMA_ALPHA = 0.35


class ClusterOverloaded(Exception):
    """Typed admission refusal: the gateway shed this request.

    Carries what a client (or the replication machinery) needs to react
    sensibly: the priority class that was refused, the controller level
    that refused it, and the backlog at refusal time.
    """

    def __init__(self, priority: str, level: int, backlog: int, reason: str) -> None:
        super().__init__(
            f"{reason}: {priority} shed at {faultrows.BROWNOUT_LEVELS[level]} (backlog {backlog})"
        )
        self.priority = priority
        self.level = level
        self.backlog = backlog
        self.reason = reason


def priority_class(op: str, role: str) -> str:
    """Admission priority for one routed request.

    Replica copies and hinted handoffs are background work — shedding one
    narrows the durability margin (read repair restores it later) but
    never breaks a client promise.  Client writes carry acknowledgements
    the cluster must not lose, so they outrank reads.
    """
    if role != ROLE_CLIENT:
        return PRIORITY_BACKGROUND
    if op in (OP_CREATE, OP_FILL):
        return PRIORITY_WRITE
    return PRIORITY_READ


class PressureSignal:
    """EWMA paging rate (pages per virtual second) from the driver stats.

    Sampled opportunistically: the caller invokes :meth:`observe` from
    its own (deterministically scheduled) loop, and the signal folds a
    new sample only once per ``sample_ns`` of virtual time.
    """

    def __init__(
        self,
        stats: dict,
        *,
        sample_ns: int = SAMPLE_NS,
        alpha: float = EWMA_ALPHA,
    ) -> None:
        self._stats = stats
        self.sample_ns = sample_ns
        self.alpha = alpha
        self._last_ns = 0
        self._last_pages = 0
        self.rate_pps = 0.0
        self.peak_pps = 0.0

    def _paged(self) -> int:
        return int(self._stats.get("page_in", 0)) + int(self._stats.get("page_out", 0))

    def observe(self, now_ns: int) -> float:
        """Fold the paging counters at ``now_ns``; returns the EWMA rate."""
        elapsed = now_ns - self._last_ns
        if elapsed < self.sample_ns:
            return self.rate_pps
        paged = self._paged()
        instant = (paged - self._last_pages) / elapsed * 1e9
        self.rate_pps = self.alpha * instant + (1.0 - self.alpha) * self.rate_pps
        self.peak_pps = max(self.peak_pps, self.rate_pps)
        self._last_ns = now_ns
        self._last_pages = paged
        return self.rate_pps


class BrownoutController:
    """Hysteretic pressure → admission/batch policy for one gateway.

    ``record`` (optional) receives ``(kind, detail)`` for every level
    transition and brownout shed, wired to the shard's
    :meth:`~repro.workloads.serving.ServingStats.record_event` so traced
    runs carry the evidence rows.
    """

    def __init__(
        self,
        signal: PressureSignal,
        *,
        enter_rate: float = ENTER_RATE_PPS,
        deep_rate: float = DEEP_RATE_PPS,
        exit_fraction: float = EXIT_FRACTION,
        min_dwell_ns: int = MIN_DWELL_NS,
        congestion_backlog: int = 0,
        record: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.signal = signal
        self.enter_rate = enter_rate
        self.deep_rate = deep_rate
        self.exit_fraction = exit_fraction
        self.min_dwell_ns = min_dwell_ns
        self.congestion_backlog = congestion_backlog
        self.record = record
        self.level = LEVEL_NORMAL
        self.transitions = 0
        self.deep_transitions = 0
        self._level_since_ns = 0

    @property
    def level_name(self) -> str:
        return faultrows.BROWNOUT_LEVELS[self.level]

    def _set_level(self, level: int, now_ns: int) -> None:
        if level == self.level:
            return
        if level > self.level:
            self.transitions += 1
            if level == LEVEL_DEEP:
                self.deep_transitions += 1
        previous = self.level
        self.level = level
        self._level_since_ns = now_ns
        if self.record is not None:
            self.record(
                faultrows.BROWNOUT_LEVEL,
                faultrows.encode_brownout_level(previous, level, self.signal.rate_pps),
            )

    def observe(self, now_ns: int) -> int:
        """Sample pressure and update the level; returns the level."""
        rate = self.signal.observe(now_ns)
        # Escalation is immediate — pressure does not wait politely.
        if rate >= self.deep_rate:
            self._set_level(LEVEL_DEEP, now_ns)
            return self.level
        if rate >= self.enter_rate:
            if self.level < LEVEL_BROWNOUT:
                self._set_level(LEVEL_BROWNOUT, now_ns)
            elif self.level == LEVEL_DEEP:
                self._maybe_step_down(LEVEL_BROWNOUT, self.deep_rate, rate, now_ns)
            return self.level
        # Below the entry band: de-escalate one level at a time, with
        # dwell + hysteresis so a noisy signal cannot flap the gateway.
        if self.level == LEVEL_DEEP:
            self._maybe_step_down(LEVEL_BROWNOUT, self.deep_rate, rate, now_ns)
        elif self.level == LEVEL_BROWNOUT:
            self._maybe_step_down(LEVEL_NORMAL, self.enter_rate, rate, now_ns)
        return self.level

    def _maybe_step_down(
        self, target: int, entry_rate: float, rate: float, now_ns: int
    ) -> None:
        if rate > entry_rate * self.exit_fraction:
            return
        if now_ns - self._level_since_ns < self.min_dwell_ns:
            return
        self._set_level(target, now_ns)

    # -- policy --------------------------------------------------------------

    def admit(self, priority: str, backlog: int) -> None:
        """Admission check; raises :class:`ClusterOverloaded` to refuse.

        Writes are never refused here — the hard ``admission_limit``
        (checked by the caller) is their only backstop — which is what
        makes the shed order strict: background drops at ``brownout``,
        reads drop at ``deep``, writes only ever drop at the limit.

        Pressure alone does not shed: while fewer than
        ``congestion_backlog`` requests are queued the shard is keeping
        up despite the paging, and refusing work then would manufacture
        an outage the pressure never caused.
        """
        if backlog < self.congestion_backlog:
            return
        if self.level >= LEVEL_BROWNOUT and priority == PRIORITY_BACKGROUND:
            raise ClusterOverloaded(priority, self.level, backlog, "brownout")
        if self.level >= LEVEL_DEEP and priority == PRIORITY_READ:
            raise ClusterOverloaded(priority, self.level, backlog, "brownout")

    def note_shed(self, exc: ClusterOverloaded) -> None:
        """Write the typed-shed evidence row (class + level + reason)."""
        if self.record is not None:
            self.record(
                faultrows.BROWNOUT_SHED,
                faultrows.encode_brownout_shed(exc.priority, exc.level, exc.reason, exc.backlog),
            )

    def batch_limit(self, base: int) -> int:
        """Pressure-proportional batch size (never below one request)."""
        rate = self.signal.rate_pps
        if self.level < LEVEL_BROWNOUT or rate <= self.enter_rate:
            return base
        return max(1, min(base, int(base * self.enter_rate / rate)))

    def summary(self) -> dict:
        """Deterministic metrics for the shard report."""
        return {
            "brownout_transitions": self.transitions,
            "brownout_deep_transitions": self.deep_transitions,
            "pressure_peak_pps": round(self.signal.peak_pps, 1),
        }
