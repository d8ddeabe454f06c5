"""Trace analysis and developer hints (paper §4.3)."""

# The benchmark harness (perfbench/workloads.py) imports Analyzer from here.
from repro.perf.analysis.report import Analyzer  # noqa: F401
