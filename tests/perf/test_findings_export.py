"""The machine-readable findings export (``sgxperf analyze --json``)."""

import json

import pytest

from repro.perf.analysis import Analyzer
from repro.perf.analysis.export import (
    FINDINGS_SCHEMA,
    finding_to_dict,
    load_findings,
    report_to_json,
)
from repro.perf.database import TraceDatabase
from repro.workloads.recorders import record_sqlite


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("export") / "sqlite.db")
    record_sqlite(path, seed=0, requests=80)
    return path


class TestExportDocument:
    def test_schema_and_structure(self, trace_path):
        with TraceDatabase(trace_path) as db:
            document = json.loads(report_to_json(Analyzer(db).run()))
        assert document["schema"] == FINDINGS_SCHEMA
        assert document["counts"]["ecalls"] > 0
        assert document["findings"]
        row = document["findings"][0]
        assert set(row) == {
            "problem", "kind", "call", "priority",
            "recommendations", "message", "evidence",
        }

    def test_sdsc_rows_carry_fusion_evidence(self, trace_path):
        with TraceDatabase(trace_path) as db:
            document = json.loads(report_to_json(Analyzer(db).run()))
        sdsc = [f for f in document["findings"] if f["problem"] == "SDSC"]
        assert sdsc
        for row in sdsc:
            assert "indirect_parent" in row["evidence"]
            assert "score" in row["evidence"]
            assert "pairs" in row["evidence"]

    def test_chunked_and_sharded_exports_byte_identical(self, trace_path):
        with TraceDatabase(trace_path) as db:
            default = report_to_json(Analyzer(db).run())
        with TraceDatabase(trace_path) as db:
            chunked = report_to_json(Analyzer(db, chunk_events=512).run())
        assert chunked == default

    def test_export_is_valid_json_and_stable(self, trace_path):
        with TraceDatabase(trace_path) as db:
            report = Analyzer(db).run()
            first = report_to_json(report)
            second = report_to_json(report)
        assert first == second
        json.loads(first)


class TestLoadFindings:
    def test_round_trip(self, trace_path):
        with TraceDatabase(trace_path) as db:
            text = report_to_json(Analyzer(db).run())
        document = load_findings(text)
        assert document["schema"] == FINDINGS_SCHEMA
        assert document["findings"]

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            load_findings(json.dumps({"schema": "sgxperf-findings/99"}))

    def test_feeds_the_optimizer(self, trace_path):
        from repro.optimizer import build_plan
        from repro.workloads.minisql.enclavised import sqlite_definition

        with TraceDatabase(trace_path) as db:
            document = load_findings(report_to_json(Analyzer(db).run()))
        plan = build_plan(document, definition=sqlite_definition())
        assert plan.fused  # the lseek+write pair survives the JSON round trip


class TestFindingDict:
    def test_evidence_values_are_json_safe(self, trace_path):
        with TraceDatabase(trace_path) as db:
            report = Analyzer(db).run()
        for finding in report.findings_by_priority():
            json.dumps(finding_to_dict(finding))
