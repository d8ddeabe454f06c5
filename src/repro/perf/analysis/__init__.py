"""Trace analysis and developer hints (paper §4.3)."""

from repro.perf.analysis.callgraph import edge_counts, to_dot
from repro.perf.analysis.detectors import (
    AnalyzerWeights,
    Finding,
    Problem,
    Recommendation,
)
from repro.perf.analysis.export import (
    FINDINGS_SCHEMA,
    finding_to_dict,
    load_findings,
    report_to_dict,
    report_to_json,
)
from repro.perf.analysis.parents import recompute_direct_parents
from repro.perf.analysis.report import AnalysisReport, Analyzer
from repro.perf.analysis.stats import (
    CallStatistics,
    Histogram,
    compute_statistics,
    fraction_shorter_than,
    histogram,
)

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "AnalyzerWeights",
    "CallStatistics",
    "FINDINGS_SCHEMA",
    "Finding",
    "Histogram",
    "Problem",
    "Recommendation",
    "compute_statistics",
    "edge_counts",
    "finding_to_dict",
    "fraction_shorter_than",
    "histogram",
    "load_findings",
    "recompute_direct_parents",
    "report_to_dict",
    "report_to_json",
    "to_dot",
]
