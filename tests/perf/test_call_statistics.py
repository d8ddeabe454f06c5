"""Per-site call statistics, against the formulas they replaced.

``compute_statistics`` takes the median and the 90th/95th/99th
percentiles from one ``np.percentile`` partition; ``np.median`` plus three
``np.percentile`` calls must give the same floats.  Durations are drawn
below 2^52 ns (52 days): there every duration, every sum of two and its
half are exact in float64, so the two formulas compute the same number.

``_GroupState.sorted_durations`` skips its ``lexsort`` when a site's rows
already arrived in global ``(start, id)`` order, and must return what the
sort returns either way.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import assume, example, given, strategies as st

from repro.perf.analysis.stats import compute_statistics
from repro.perf.analysis.streaming import _GroupState
from repro.perf.events import ECALL

durations = st.lists(
    st.integers(0, 8) | st.integers(0, 2**52 - 1),  # small values tie often
    min_size=1,
    max_size=300,
)


def four_partitions(values: np.ndarray) -> tuple[float, ...]:
    return (
        float(np.median(values)),
        float(np.percentile(values, 90)),
        float(np.percentile(values, 95)),
        float(np.percentile(values, 99)),
    )


@given(durations)
@example([7])  # one element
@example([4, 1, 9])  # odd length
@example([3, 1, 8, 2])  # even length: the median is the middle pair's mean
@example([5, 5, 5, 5, 2, 2])  # ties
@example([2**52 - 1, 2**52 - 2])
def test_one_partition_equals_median_and_three_percentiles(values):
    array = np.array(values, dtype=np.int64)
    stats = compute_statistics(ECALL, "ecall_a", array)
    one_partition = (stats.median_ns, stats.p90_ns, stats.p95_ns, stats.p99_ns)
    assert one_partition == four_partitions(array)
    assert stats.count == len(values)


starts = st.integers(0, 3) | st.integers(0, 200)  # ties leave the order to the ids


@st.composite
def thread_major_rows(draw) -> list[list[tuple[int, int, int]]]:
    """One site's ``(start, id, duration)`` rows per thread, each thread in
    ``(start, id)`` order; ids are unique across threads, starts tie often."""
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    ids = draw(st.permutations(range(1, sum(sizes) + 1)))
    threads, taken = [], 0
    for size in sizes:
        rows = [
            (draw(starts), ids[taken + i], draw(st.integers(0, 10**6)))
            for i in range(size)
        ]
        taken += size
        threads.append(sorted(rows))
    return threads


def fed_group(draw, rows: list[tuple[int, int, int]]) -> _GroupState:
    """A site accumulator fed ``rows`` in chunks, as the fold appends them."""
    group = _GroupState(ECALL, "ecall_a")
    table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    cuts = sorted(draw(st.sets(st.integers(1, len(rows) - 1)))) if len(rows) > 1 else []
    for chunk in np.split(table, cuts):
        group.starts.append(chunk[:, 0])
        group.ids.append(chunk[:, 1])
        group.durs.append(chunk[:, 2])
    return group


def lexsorted(rows: list[tuple[int, int, int]]) -> list[int]:
    table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return table[np.lexsort((table[:, 1], table[:, 0])), 2].tolist()


@given(thread_major_rows(), st.data())
def test_thread_major_rows_out_of_global_order_are_sorted(threads, data):
    rows = [row for thread in threads for row in thread]
    assume(rows != sorted(rows))
    group = fed_group(data.draw, rows)
    assert group.sorted_durations().tolist() == lexsorted(rows)


@given(thread_major_rows(), st.data())
def test_rows_in_global_order_skip_the_sort(threads, data):
    rows = sorted(row for thread in threads for row in thread)
    group = fed_group(data.draw, rows)
    with mock.patch.object(np, "lexsort", side_effect=AssertionError("sorted again")):
        durations = group.sorted_durations().tolist()
    assert durations == lexsorted(rows) == [row[2] for row in rows]


def test_no_rows_give_no_durations():
    assert _GroupState(ECALL, "ecall_a").sorted_durations().tolist() == []
