"""Analyser memory bar on a 10× trace.

On a trace an order of magnitude larger than the workload defaults, the
analyser's traced peak memory at the default chunk size must stay at or
below 25% of what the in-memory analyser it replaced peaked at on the same
trace.  That analyser materialised every row as a Python tuple before
building columns; the chunked fold's working set is one column batch plus
the per-call-site accumulators (~24 bytes of retained state per row).

The reference peak is a committed constant, not a live twin: absolute
analysis throughput is tracked by the repo benchmark's ``analyze-glamdring``
workload (``throughput_per_s``), so this file only prints rows/s.

Memory is measured with :mod:`tracemalloc`; throughput is timed in a
separate, uninstrumented pass.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from conftest import run_once

from repro.perf.analysis.report import Analyzer
from repro.perf.database import TraceDatabase

# 10× the default glamdring recording (signs=4 → ~25k calls).
SIGNS_10X = 40
# tracemalloc peak of the in-memory analyser (removed when the chunked fold
# became the only analysis path) on this exact trace — record_glamdring
# seed 0, signs 40, 251,666 calls — measured with Python 3.11 / NumPy 2.4.
IN_MEMORY_PEAK_MB = 132.6
MAX_MEMORY_FRACTION = 0.25


@pytest.fixture(scope="module")
def big_trace(tmp_path_factory) -> str:
    from repro.workloads.recorders import record_glamdring

    path = str(tmp_path_factory.mktemp("bench-streaming") / "big.db")
    record_glamdring(path, seed=0, signs=SIGNS_10X)
    return path


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bench_analysis_memory(big_trace, benchmark):
    """Traced peak at the default chunk ≤ 25% of the in-memory analyser's."""
    with TraceDatabase(big_trace, readonly=True) as db:
        rows = db.calls_count()
        assert rows >= 200_000, f"10x trace unexpectedly small: {rows} calls"
        seconds, _ = run_once(benchmark, lambda: _timed(lambda: Analyzer(db).run()))
        peak_mb = _traced_peak(lambda: Analyzer(db).run()) / 1e6

    fraction = peak_mb / IN_MEMORY_PEAK_MB
    print(
        f"\nanalysis ({rows} calls): {seconds:.2f}s ({rows / seconds:,.0f} rows/s), "
        f"peak {peak_mb:.1f} MB = {fraction:.1%} of the in-memory analyser's "
        f"{IN_MEMORY_PEAK_MB} MB"
    )
    assert fraction <= MAX_MEMORY_FRACTION, (
        f"analysis peak memory {peak_mb:.1f} MB is {fraction:.1%} of "
        f"{IN_MEMORY_PEAK_MB} MB (need <= {MAX_MEMORY_FRACTION:.0%})"
    )
