"""Machine-readable findings export (``sgxperf analyze --json``).

Serialises an :class:`~repro.perf.analysis.report.AnalysisReport`'s
findings to a stable JSON document — the contract the automatic interface
optimizer (:mod:`repro.optimizer`) consumes.  Stability matters twice
over: the schema is versioned so downstream tooling can detect drift, and
the byte stream is canonical (sorted keys, fixed float formatting via
``repr`` of Python floats, findings in priority order) so the export of a
trace is byte-identical at any chunk size or job count.
"""

from __future__ import annotations

import json
from typing import Any, Union

from repro.perf.analysis.detectors import Finding
from repro.perf.analysis.report import AnalysisReport

FINDINGS_SCHEMA = "sgxperf-findings/1"


def _plain(value: Any) -> Any:
    """Coerce evidence values to plain JSON-stable Python types.

    NumPy scalars become Python ints/floats; enums collapse to their
    names; tuple-keyed dicts (the SSC wake matrix) become sorted
    ``[key..., count]`` rows, since JSON objects cannot key on tuples.
    """
    if isinstance(value, bool):
        return value
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()
    if isinstance(value, (int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        if any(isinstance(k, tuple) for k in value):
            return [
                [*(_plain(part) for part in key), _plain(count)]
                for key, count in sorted(value.items(), key=lambda kv: repr(kv[0]))
            ]
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "name"):  # enum members
        return value.name
    return str(value)


def finding_to_dict(finding: Finding) -> dict:
    """One finding as a plain dict following the export schema."""
    return {
        "problem": finding.problem.name,
        "kind": finding.kind,
        "call": finding.call,
        "priority": finding.priority,
        "recommendations": [r.name for r in finding.recommendations],
        "message": finding.message,
        "evidence": _plain(finding.evidence),
    }


def report_to_dict(report: AnalysisReport) -> dict:
    """The full export document for one analysed trace."""
    return {
        "schema": FINDINGS_SCHEMA,
        "transition_round_trip_ns": report.transition_round_trip_ns,
        "counts": {
            "ecalls": report.ecall_count,
            "ocalls": report.ocall_count,
            "distinct_ecalls": report.distinct_ecalls,
            "distinct_ocalls": report.distinct_ocalls,
            "aex_total": report.aex_total,
            "paging_events": report.paging_events,
        },
        "short_fractions": {
            "ecall": report.ecall_short_fraction,
            "ocall": report.ocall_short_fraction,
        },
        "findings": [finding_to_dict(f) for f in report.findings_by_priority()],
    }


def report_to_json(report: AnalysisReport) -> str:
    """Canonical JSON text for ``--json`` output (byte-stable)."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2)


def load_findings(document: Union[str, dict]) -> dict:
    """Parse an export document, checking the schema marker."""
    if isinstance(document, str):
        document = json.loads(document)
    schema = document.get("schema")
    if schema != FINDINGS_SCHEMA:
        raise ValueError(
            f"unsupported findings document schema {schema!r} "
            f"(expected {FINDINGS_SCHEMA!r})"
        )
    return document
