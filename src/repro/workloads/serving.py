"""Serving-path resilience primitives shared by the networked workloads.

The paper's serving experiments (TaLoS+nginx, SecureKeeper, §5) run happy
paths; under the chaos plans of :mod:`repro.faults` a request can instead
hit a connection reset, a stalled link, or a lost enclave mid-request.
This module gives both workloads one vocabulary for surviving that:

* :class:`RetryPolicy` — bounded attempts with exponential virtual-time
  backoff, used by clients to reconnect and replay idempotent requests;
* :class:`CircuitBreaker` — a closed/open/half-open breaker around a
  server's request handler; while open, requests are *shed* instead of
  queued behind a failing dependency;
* :class:`ServingStats` — the one ledger of a workload's request
  outcomes (successes, retries, shed and failed requests, latency
  percentiles).  With a logger wired in it writes each outcome as a
  ``serve:*`` row of the trace's ``faults`` table, and
  :meth:`ServingStats.fold_row` replays such rows, so the analyser and
  the cluster trace merge report availability after the fact without
  parsing rows themselves.

Everything runs on the simulator's virtual clock and draws no randomness,
so a seeded chaos campaign produces identical retry/shed sequences — and
identical traces — on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro import faultrows

if TYPE_CHECKING:
    from repro.sim.kernel import Simulation

# Sentinel returned by :func:`percentile_ns` when there are no samples: a
# latency can never be negative, so ``-1`` is unambiguous, and reports that
# would otherwise print a fake ``0 ns`` percentile show the gap instead.
NO_SAMPLES_NS = -1


def percentile_ns(ordered: list, pct: float) -> int:
    """Nearest-rank percentile over an *ascending-sorted* sample list.

    The nearest-rank definition (``ceil(pct/100 * n)``) is used exactly,
    with the edge cases pinned down instead of left to rounding luck:

    * no samples       → :data:`NO_SAMPLES_NS` (``-1``);
    * one sample       → that sample, for every ``pct``;
    * ``pct <= 0``     → the minimum;
    * ``pct >= 100``   → the maximum (never an out-of-range index).

    Used by :meth:`ServingStats.summary`, which the analyser and the
    cluster trace merge also report through, and mirrored by the cluster's
    bucketed histograms, so every layer reports the same numbers for the
    same samples.
    """
    count = len(ordered)
    if count == 0:
        return NO_SAMPLES_NS
    if pct <= 0.0:
        return ordered[0]
    if pct >= 100.0:
        return ordered[-1]
    rank = math.ceil(pct / 100.0 * count)
    return ordered[min(count, max(1, rank)) - 1]


def success_rate(succeeded: int, attempted: int) -> float:
    """Fraction of attempted requests that succeeded (1.0 with no attempts)."""
    return succeeded / attempted if attempted else 1.0


def availability_summary(
    workload: str, ledger: Any, percentile_ns: Callable[[float], int]
) -> dict:
    """The availability schema of one scope: outcome counts from ``ledger``,
    p50/p99/p999 from ``percentile_ns`` (exact samples in
    :meth:`ServingStats.summary`, a histogram in ``SloSummary.as_dict``)."""
    return {
        "workload": workload,
        "attempted": ledger.attempted,
        "succeeded": ledger.succeeded,
        "retries": ledger.retries,
        "shed": ledger.shed,
        "failed": ledger.failed,
        "success_rate": success_rate(ledger.succeeded, ledger.attempted),
        "p50_ns": percentile_ns(50),
        "p99_ns": percentile_ns(99),
        "p999_ns": percentile_ns(99.9),
    }


def summary_lines(entry: dict) -> list[str]:
    """The two report lines of one :meth:`ServingStats.summary` dict."""
    return [
        f"{entry['workload']}: {entry['succeeded']}/{entry['attempted']} "
        f"requests ok ({entry['success_rate']:.2%}), "
        f"{entry['retries']} retries, {entry['shed']} shed, "
        f"{entry['failed']} failed",
        f"  latency p50 {entry['p50_ns']} ns, p99 {entry['p99_ns']} ns, "
        f"p999 {entry['p999_ns']} ns",
    ]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential, capped virtual-time backoff.

    ``max_backoff_ns`` clamps the exponential curve so a long retry chain
    keeps probing at a steady cadence instead of sleeping past the end of
    an outage window.  The default cap sits above every backoff the
    default ``max_attempts`` can reach (3 ms · 2⁴ = 48 ms), so it only
    bites for policies tuned toward more attempts.
    """

    max_attempts: int = 6
    backoff_ns: int = 3_000_000
    multiplier: float = 2.0
    max_backoff_ns: int = 60_000_000

    def backoff_for(self, attempt: int) -> int:
        """Backoff to sleep before retry number ``attempt`` (1-based)."""
        backoff = int(self.backoff_ns * (self.multiplier ** (attempt - 1)))
        return min(backoff, self.max_backoff_ns)


class CircuitBreaker:
    """Closed/open/half-open breaker over a request handler.

    ``failure_threshold`` consecutive failures open the breaker; while
    open, :meth:`allow` returns ``False`` (the caller sheds the request)
    until ``cooldown_ns`` of virtual time has passed, after which one
    probe request is let through (half-open).  A probe success closes the
    breaker, a probe failure re-opens it for another cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        sim: Simulation,
        failure_threshold: int = 5,
        cooldown_ns: int = 8_000_000,
    ) -> None:
        self.sim = sim
        self.failure_threshold = failure_threshold
        self.cooldown_ns = cooldown_ns
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_count = 0
        self._open_until_ns = 0

    def allow(self) -> bool:
        """Whether the next request may proceed (``False`` → shed it)."""
        if self.state == self.OPEN:
            if self.sim.now_ns < self._open_until_ns:
                return False
            self.state = self.HALF_OPEN
        return True

    def record_success(self) -> None:
        """A handled request succeeded; close the breaker."""
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> None:
        """A handled request failed; maybe trip the breaker."""
        self.consecutive_failures += 1
        if (
            self.state == self.HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            self.state = self.OPEN
            self.opened_count += 1
            self._open_until_ns = self.sim.now_ns + self.cooldown_ns


class ServingStats:
    """The ledger of one workload's request outcomes under (possible) chaos.

    Each ``record_*`` call counts one outcome and, with a logger wired in,
    writes it as one ``serve:*`` row.  :meth:`fold_row` is the inverse: it
    counts a row read back from a trace, so a fresh ledger fed a trace's
    rows reports the :meth:`summary` the live ledger did, and
    :meth:`merge` adds another ledger's outcomes (the cluster-wide entry
    of a traced cluster run is the merge of its per-node ledgers).
    """

    def __init__(self, workload: str, logger: Optional[Any] = None) -> None:
        self.workload = workload
        self.logger = logger
        self.attempted = 0
        self.succeeded = 0
        self.retries = 0
        self.shed = 0
        self.failed = 0
        self.latencies_ns: list[int] = []

    def _row(self, kind: str, detail: str) -> None:
        if self.logger is not None:
            self.logger.record_fault(kind, enclave_id=0, call=self.workload, detail=detail)

    def record_success(self, latency_ns: int) -> None:
        """One request completed end to end after ``latency_ns``."""
        self.attempted += 1
        self.succeeded += 1
        self.latencies_ns.append(latency_ns)
        self._row(faultrows.SERVE_REQUEST, faultrows.encode_serve_request(latency_ns))

    def record_retry(self, reason: str) -> None:
        """One attempt failed and will be retried."""
        self.retries += 1
        self._row(faultrows.SERVE_RETRY, reason)

    def record_shed(self, reason: str) -> None:
        """The server refused a request (breaker open / overload)."""
        self.shed += 1
        self._row(faultrows.SERVE_SHED, reason)

    def record_failure(self, reason: str) -> None:
        """One request exhausted its retries and was given up on."""
        self.attempted += 1
        self.failed += 1
        self._row(faultrows.SERVE_FAILED, reason)

    def record_event(self, kind: str, detail: str) -> None:
        """Mirror a protocol-level event into the trace's fault table.

        No availability counter moves — this is for rows that validators
        (e.g. the cluster's session-orderliness check) fold over, such as
        the gateway's ``session:*`` lifecycle markers.
        """
        self._row(kind, detail)

    def fold_row(self, kind: str, detail: str) -> None:
        """Count one row as the ``record_*`` call that wrote it did.

        Writes no row.  A ``serve:request`` whose detail carries no
        latency counts a success without a sample; a row of any kind
        outside ``repro.faultrows.SERVE_KINDS`` counts nothing.
        """
        if kind == faultrows.SERVE_REQUEST:
            self.attempted += 1
            self.succeeded += 1
            latency_ns = faultrows.decode_serve_request(detail)
            if latency_ns is not None:
                self.latencies_ns.append(latency_ns)
        elif kind == faultrows.SERVE_RETRY:
            self.retries += 1
        elif kind == faultrows.SERVE_SHED:
            self.shed += 1
        elif kind == faultrows.SERVE_FAILED:
            self.attempted += 1
            self.failed += 1

    def merge(self, other: ServingStats) -> None:
        """Add ``other``'s outcomes to this ledger's."""
        self.attempted += other.attempted
        self.succeeded += other.succeeded
        self.retries += other.retries
        self.shed += other.shed
        self.failed += other.failed
        self.latencies_ns.extend(other.latencies_ns)

    @property
    def success_rate(self) -> float:
        """Fraction of attempted requests that eventually succeeded."""
        return success_rate(self.succeeded, self.attempted)

    def summary(self) -> dict:
        """Availability summary for reports and campaign output.

        The p50/p99/p999 triple is the SLO schema shared by single-node
        campaigns and the cluster reports of :mod:`repro.cluster`.
        """
        ordered = sorted(self.latencies_ns)
        return availability_summary(self.workload, self, lambda pct: percentile_ns(ordered, pct))
