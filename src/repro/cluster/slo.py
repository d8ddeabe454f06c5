"""Cluster-wide SLO accounting: mergeable latency histograms and reports.

Shards are shared-nothing OS processes, so per-request latencies cannot be
shipped back raw without bloating the deterministic manifest.  Each shard
instead folds its latencies into a :class:`LatencyHistogram` — geometric
buckets with ``GROWTH``-factor spacing (≈2% relative resolution) — which
is compact, exactly mergeable, and deterministic.  Per-node and
cluster-wide p50/p99/p999 are all computed from histograms with the same
nearest-rank convention as :func:`repro.workloads.serving.percentile_ns`,
so one SLO schema covers the single-node campaigns and the cluster.

The module also extends the analyser to cluster scale:
:func:`fold_shard_traces` replays the ``serve:*`` rows of per-shard
trace databases into per-node + cluster-wide entries of the same schema,
so a traced cluster run can be re-analysed offline, long after the run,
and audits each trace's gateway session rows (:mod:`repro.cluster.orderly`)
in the same read.  Its counts match the live report; its percentiles come
from the exact latencies, not the live run's histogram buckets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.workloads.serving import (
    NO_SAMPLES_NS,
    ServingStats,
    availability_summary,
    success_rate,
    summary_lines,
)

# Geometric bucket growth: bucket i covers [GROWTH**i, GROWTH**(i+1)).
# 1.04 keeps the representative-value error under ~2% — far below the
# run-to-run spread of any real latency distribution.
GROWTH = 1.04
_LOG_GROWTH = math.log(GROWTH)


def bucket_index(latency_ns: int) -> int:
    """Histogram bucket for one latency sample."""
    if latency_ns <= 1:
        return 0
    return int(math.log(latency_ns) / _LOG_GROWTH)


def bucket_value_ns(index: int) -> int:
    """Representative latency (geometric bucket midpoint) for a bucket."""
    if index <= 0:
        return 1
    return int(round(GROWTH ** (index + 0.5)))


class LatencyHistogram:
    """Compact, mergeable latency distribution with deterministic quantiles."""

    def __init__(self, buckets: Optional[dict[int, int]] = None) -> None:
        self.buckets: dict[int, int] = dict(buckets or {})

    def add(self, latency_ns: int) -> None:
        """Fold one sample in.

        The :data:`~repro.workloads.serving.NO_SAMPLES_NS` sentinel is a
        silent no-op — a shard with zero samples must not poison a merge
        by materialising as a fake 1 ns request.  Any other negative is a
        caller bug and raises.
        """
        if latency_ns == NO_SAMPLES_NS:
            return
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns} ns is not a sample")
        index = bucket_index(latency_ns)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another histogram in (commutative, associative)."""
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        return self

    @property
    def total(self) -> int:
        """Number of samples folded in."""
        return sum(self.buckets.values())

    def percentile_ns(self, pct: float) -> int:
        """Nearest-rank percentile over the bucketed samples.

        Same edge-case contract as
        :func:`repro.workloads.serving.percentile_ns`: empty histograms
        return :data:`~repro.workloads.serving.NO_SAMPLES_NS`.
        """
        total = self.total
        if total == 0:
            return NO_SAMPLES_NS
        if pct <= 0.0:
            return bucket_value_ns(min(self.buckets))
        if pct >= 100.0:
            return bucket_value_ns(max(self.buckets))
        rank = min(total, max(1, math.ceil(pct / 100.0 * total)))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return bucket_value_ns(index)
        return bucket_value_ns(max(self.buckets))  # unreachable

    # -- JSON round-trip (manifest metrics) ---------------------------------

    def as_dict(self) -> dict[str, int]:
        """JSON-safe form: stringified bucket index → count, sorted."""
        return {str(index): self.buckets[index] for index in sorted(self.buckets)}

    @classmethod
    def from_dict(cls, mapping: dict) -> "LatencyHistogram":
        """Rebuild from :meth:`as_dict` output.

        Defensive on the way back in from JSON: bucket indexes must be
        non-negative and counts positive (zero-count buckets are dropped
        so a round-trip never changes ``as_dict`` output or quantiles).
        """
        buckets: dict[int, int] = {}
        for index, count in mapping.items():
            index = int(index)
            count = int(count)
            if index < 0:
                raise ValueError(f"histogram bucket index {index} is negative")
            if count < 0:
                raise ValueError(f"histogram bucket count {count} is negative")
            if count:
                buckets[index] = count
        return cls(buckets)


@dataclass
class SloSummary:
    """Availability + latency SLO numbers for one scope (node or cluster)."""

    scope: str
    attempted: int = 0
    succeeded: int = 0
    retries: int = 0
    shed: int = 0
    failed: int = 0
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def success_rate(self) -> float:
        """Fraction of attempted requests that eventually succeeded."""
        return success_rate(self.succeeded, self.attempted)

    def merge(self, other: "SloSummary") -> "SloSummary":
        """Fold another scope's numbers in (for cluster-wide rollup)."""
        self.attempted += other.attempted
        self.succeeded += other.succeeded
        self.retries += other.retries
        self.shed += other.shed
        self.failed += other.failed
        self.histogram.merge(other.histogram)
        return self

    def as_dict(self) -> dict:
        """``ServingStats.summary``'s schema, percentiles from the histogram."""
        return availability_summary(self.scope, self, self.histogram.percentile_ns)

    @classmethod
    def from_metrics(cls, scope: str, metrics: dict) -> "SloSummary":
        """Rebuild a shard's summary from its sweep-task metrics."""
        return cls(
            scope=scope,
            attempted=int(metrics.get("attempted", 0)),
            succeeded=int(metrics.get("succeeded", 0)),
            retries=int(metrics.get("retries", 0)),
            shed=int(metrics.get("shed", 0)),
            failed=int(metrics.get("failed", 0)),
            histogram=LatencyHistogram.from_dict(metrics.get("latency_hist", {})),
        )


def rollup(summaries: Iterable[SloSummary], scope: str = "cluster") -> SloSummary:
    """Merge per-node summaries into one cluster-wide summary."""
    total = SloSummary(scope=scope)
    for summary in summaries:
        total.merge(summary)
    return total


def render_slo_table(summaries: list[SloSummary]) -> str:
    """Fixed-width SLO table: one row per scope (deterministic)."""
    header = (
        f"{'scope':<22} {'ok':>8} {'attempted':>10} {'avail':>8} "
        f"{'retries':>8} {'shed':>6} {'failed':>7} "
        f"{'p50':>10} {'p99':>11} {'p999':>11}"
    )
    lines = [header]
    for summary in summaries:
        entry = summary.as_dict()
        lines.append(
            f"{entry['workload']:<22} {entry['succeeded']:>8} "
            f"{entry['attempted']:>10} {entry['success_rate']:>8.2%} "
            f"{entry['retries']:>8} {entry['shed']:>6} {entry['failed']:>7} "
            f"{entry['p50_ns']:>10} {entry['p99_ns']:>11} {entry['p999_ns']:>11}"
        )
    return "\n".join(lines)


# -- analyser extension: merge per-shard traces ------------------------------


def fold_shard_traces(trace_paths: Iterable[str]) -> tuple[list[dict], list]:
    """Fold each per-shard trace's fault rows, read once, for ``analyze --cluster``.

    The rows feed the analyser's ``FaultAccumulator``, whose per-workload
    ledgers give what ``sgxperf analyze --availability`` prints for each
    trace, and one :class:`~repro.cluster.orderly.SessionAudit` per trace.
    Returns those summaries plus a ``cluster`` one (their merge), and the
    audits, in sorted path order.
    """
    from repro.cluster.orderly import SessionAudit
    from repro.perf.analysis.report import FaultAccumulator
    from repro.perf.database import TraceDatabase

    acc = FaultAccumulator()
    audits = []
    for path in sorted(trace_paths):
        audit = SessionAudit(trace=path)
        with TraceDatabase(path, readonly=True) as db:
            for fault in db.fault_events():
                acc.add(fault)
                audit.add(fault)
        audit.finish()
        audits.append(audit)
    cluster = ServingStats("cluster")
    for ledger in acc.serving.values():
        cluster.merge(ledger)
    return acc.availability() + [cluster.summary()], audits


def render_trace_slo(entries: list[dict]) -> str:
    """Render :func:`fold_shard_traces`' summaries for a terminal."""
    lines = ["-- cluster availability (from traces) " + "-" * 40]
    for entry in entries:
        lines.extend(summary_lines(entry))
    return "\n".join(lines)
