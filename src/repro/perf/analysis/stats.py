"""General call statistics (paper §4.3.1).

Per ecall/ocall: call counts, mean and median duration, standard deviation
and the 90th/95th/99th percentiles; plus the execution-time histogram of
the Figure 7-style visualisation.

Remember the duration convention (§4.1.2): ocall durations are execution
time only and compare directly to the transition cost, while ecall
durations include one transition round-trip, which must be subtracted
before such comparisons.

Every entry point takes durations as an int64 array, as
:meth:`~repro.perf.columns.CallColumns.duration_ns` returns them.
:func:`compute_statistics` wants one call site's in the trace's
``(start_ns, id)`` order: its mean and standard deviation depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CallStatistics:
    """Summary statistics for one call (one ecall or ocall name)."""

    kind: str
    name: str
    count: int
    total_ns: int
    mean_ns: float
    median_ns: float
    std_ns: float
    p90_ns: float
    p95_ns: float
    p99_ns: float
    min_ns: int
    max_ns: int

    def row(self) -> tuple:
        """Tabular form for reports."""
        return (
            self.kind,
            self.name,
            self.count,
            round(self.mean_ns),
            round(self.median_ns),
            round(self.std_ns),
            round(self.p90_ns),
            round(self.p95_ns),
            round(self.p99_ns),
        )


@dataclass(frozen=True)
class Histogram:
    """Execution-time histogram (Figure 7 uses 100 bins)."""

    counts: tuple[int, ...]
    edges_ns: tuple[float, ...]

    def render(self, width: int = 60, max_rows: int = 25) -> str:
        """ASCII rendering for terminal reports."""
        if not self.counts:
            return "(empty histogram)"
        # Re-bin down to max_rows rows for readability.
        counts = np.asarray(self.counts, dtype=float)
        edges = np.asarray(self.edges_ns)
        if len(counts) > max_rows:
            factor = -(-len(counts) // max_rows)
            pad = (-len(counts)) % factor
            counts = np.pad(counts, (0, pad)).reshape(-1, factor).sum(axis=1)
            edges = edges[:: factor]
        peak = counts.max() or 1.0
        lines = []
        for i, count in enumerate(counts):
            low = edges[i] / 1000.0
            bar = "#" * int(round(width * count / peak))
            lines.append(f"{low:10.1f} us | {bar} {int(count)}")
        return "\n".join(lines)


def compute_statistics(kind: str, name: str, values: np.ndarray) -> CallStatistics:
    """Summary statistics over one call site's durations."""
    if len(values) == 0:
        return CallStatistics(kind, name, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
    # One partition for all four order statistics; the 50th percentile is
    # the median (the mean of the middle pair for an even count).
    median, p90, p95, p99 = np.percentile(values, (50, 90, 95, 99)).tolist()
    return CallStatistics(
        kind=kind,
        name=name,
        count=int(len(values)),
        total_ns=int(values.sum()),
        mean_ns=float(values.mean()),
        median_ns=median,
        std_ns=float(values.std()),
        p90_ns=p90,
        p95_ns=p95,
        p99_ns=p99,
        min_ns=int(values.min()),
        max_ns=int(values.max()),
    )


def histogram(values: np.ndarray, bins: int = 100) -> Histogram:
    """Execution-time histogram over one call site's durations (Figure 7)."""
    if len(values) == 0:
        return Histogram(counts=(), edges_ns=())
    counts, edges = np.histogram(values, bins=bins)
    return Histogram(counts=tuple(int(c) for c in counts), edges_ns=tuple(float(e) for e in edges))


def fraction_shorter_than(values: np.ndarray, threshold_ns: float) -> float:
    """Fraction of ``values`` strictly below ``threshold_ns``."""
    if len(values) == 0:
        return 0.0
    return float((values < threshold_ns).mean())
