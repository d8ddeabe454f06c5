"""Security hints, call graphs, the analyzer facade and the CLI."""

import os
import subprocess
import sys

import pytest

import repro
from repro.perf.analysis import callgraph as CG
from repro.perf.analysis.detectors import Problem, Recommendation
from repro.perf.analysis.report import Analyzer
from repro.perf.database import TraceDatabase
from repro.perf.events import CallEvent, ECALL, OCALL
from repro.sdk.edl import parse_edl

from tests.perf.synthetic import analyze


def call(event_id, kind, name, start, end, thread=1, parent=None):
    return CallEvent(
        event_id=event_id,
        kind=kind,
        name=name,
        call_index=0,
        enclave_id=1,
        thread_id=thread,
        start_ns=start,
        end_ns=end,
        parent_id=parent,
    )


def nested_trace():
    """E1 -> O1 -> E2 repeated; E2 only ever runs inside O1."""
    events = []
    event_id = 1
    for i in range(6):
        base = i * 1_000_000
        e1 = call(event_id, ECALL, "ecall_outer", base, base + 100_000)
        o1 = call(event_id + 1, OCALL, "ocall_mid", base + 10_000, base + 90_000, parent=event_id)
        e2 = call(event_id + 2, ECALL, "ecall_inner", base + 20_000, base + 50_000, parent=event_id + 1)
        events += [e1, o1, e2]
        event_id += 3
    return events


EDL_WITH_WIDE_ALLOW = """
enclave {
    trusted {
        public int ecall_outer(void);
        public int ecall_inner(void);
        public int ecall_unused([user_check] void* p);
    };
    untrusted {
        void ocall_mid(void) allow(ecall_inner, ecall_unused);
    };
};
"""


def interface_findings(events, recommendation, definition=None):
    """The analyser's interface findings carrying ``recommendation``."""
    report, _ = analyze(events, definition=definition)
    return [
        f
        for f in report.findings
        if f.problem is Problem.INTERFACE and recommendation in f.recommendations
    ]


def private_findings(events):
    return interface_findings(events, Recommendation.MAKE_PRIVATE)


def allowlist_findings(events, definition):
    return interface_findings(events, Recommendation.NARROW_ALLOWLIST, definition)


class TestSecurityAnalysis:
    def test_private_candidate_found(self):
        findings = private_findings(nested_trace())
        assert len(findings) == 1
        assert findings[0].call == "ecall_inner"
        assert findings[0].evidence["allowing_ocalls"] == ["ocall_mid"]

    def test_top_level_instance_disqualifies(self):
        events = nested_trace()
        events.append(call(999, ECALL, "ecall_inner", 99_000_000, 99_000_100))
        assert private_findings(events) == []

    def test_allowlist_narrowing_with_edl(self):
        definition = parse_edl(EDL_WITH_WIDE_ALLOW)
        findings = allowlist_findings(nested_trace(), definition)
        assert len(findings) == 1
        assert findings[0].call == "ocall_mid"
        assert findings[0].evidence["removable"] == ["ecall_unused"]
        assert findings[0].evidence["observed"] == ["ecall_inner"]

    def test_minimal_sets_without_edl(self):
        findings = allowlist_findings(nested_trace(), None)
        assert findings[0].evidence["observed"] == ["ecall_inner"]

    def test_exact_allowlist_not_flagged(self):
        source = EDL_WITH_WIDE_ALLOW.replace(", ecall_unused)", ")")
        definition = parse_edl(source)
        assert allowlist_findings(nested_trace(), definition) == []

    def test_user_check_flagged_with_counts(self):
        definition = parse_edl(EDL_WITH_WIDE_ALLOW)
        findings = interface_findings(
            nested_trace(), Recommendation.CHECK_POINTERS, definition
        )
        assert len(findings) == 1
        assert findings[0].call == "ecall_unused"
        assert "user_check" in findings[0].message


class TestCallGraph:
    def test_nodes_and_edge_kinds(self):
        _, graph = analyze(nested_trace())
        assert set(graph.nodes) == {
            "ecall:ecall_outer",
            "ocall:ocall_mid",
            "ecall:ecall_inner",
        }
        direct = CG.edge_counts(graph, CG.DIRECT)
        assert direct[("ecall_outer", "ocall_mid")] == 6
        assert direct[("ocall_mid", "ecall_inner")] == 6
        indirect = CG.edge_counts(graph, CG.INDIRECT)
        assert indirect[("ecall_outer", "ecall_outer")] == 5

    def test_dot_output_shapes(self):
        dot = CG.to_dot(analyze(nested_trace())[1])
        assert "shape=box" in dot  # ecalls square
        assert "shape=ellipse" in dot  # ocalls round
        assert "style=solid" in dot and "style=dashed" in dot
        assert 'label="6"' in dot

    def test_node_counts(self):
        _, graph = analyze(nested_trace())
        assert graph.nodes["ecall:ecall_outer"]["count"] == 6


class TestAnalyzerFacade:
    def make_db(self):
        db = TraceDatabase()
        for event in nested_trace():
            db.add_call(event)
        db.set_meta("transition_round_trip_ns", "2130")
        return db

    def test_report_contains_summary(self):
        report = Analyzer(self.make_db()).run()
        assert report.ecall_count == 12
        assert report.ocall_count == 6
        text = report.render_text()
        assert "sgx-perf analysis report" in text
        assert "ecall_outer" in text

    def test_edl_supplied_enables_user_check(self):
        definition = parse_edl(EDL_WITH_WIDE_ALLOW)
        report = Analyzer(self.make_db(), definition=definition).run()
        checks = [
            f for f in report.findings if f.call == "ecall_unused"
        ]
        assert checks
        assert report.notes == []

    def test_note_without_edl(self):
        report = Analyzer(self.make_db()).run()
        assert any("no EDL" in note for note in report.notes)

    def test_findings_sorted_by_priority(self):
        report = Analyzer(self.make_db()).run()
        priorities = [f.priority for f in report.findings_by_priority()]
        assert priorities == sorted(priorities)

    def test_histogram_and_scatter_helpers(self):
        analyzer = Analyzer(self.make_db())
        hist = analyzer.histogram(ECALL, "ecall_outer")
        assert sum(hist.counts) == 6
        starts, durations = analyzer.scatter(ECALL, "ecall_outer")
        assert len(starts) == 6

    def test_dot_helper(self):
        assert "digraph" in Analyzer(self.make_db()).call_graph_dot()


class TestCli:
    def test_analyze_command(self, tmp_path, capsys):
        from repro.perf.cli import main

        path = str(tmp_path / "t.db")
        with TraceDatabase(path) as db:
            for event in nested_trace():
                db.add_call(event)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "sgx-perf analysis report" in out

    def test_analyze_with_edl(self, tmp_path, capsys):
        from repro.perf.cli import main

        trace = str(tmp_path / "t.db")
        with TraceDatabase(trace) as db:
            for event in nested_trace():
                db.add_call(event)
        edl = tmp_path / "app.edl"
        edl.write_text(EDL_WITH_WIDE_ALLOW)
        assert main(["analyze", trace, "--edl", str(edl)]) == 0
        assert "user_check" in capsys.readouterr().out

    def test_stats_command(self, tmp_path, capsys):
        from repro.perf.cli import main

        path = str(tmp_path / "t.db")
        with TraceDatabase(path) as db:
            for event in nested_trace():
                db.add_call(event)
        assert main(["stats", path, "ecall", "ecall_outer", "--histogram"]) == 0
        out = capsys.readouterr().out
        assert "n=6" in out

    def test_stats_unknown_call(self, tmp_path, capsys):
        from repro.perf.cli import main

        path = str(tmp_path / "t.db")
        TraceDatabase(path).close()
        assert main(["stats", path, "ecall", "ghost"]) == 1

    def test_dot_command(self, tmp_path, capsys):
        from repro.perf.cli import main

        path = str(tmp_path / "t.db")
        with TraceDatabase(path) as db:
            for event in nested_trace():
                db.add_call(event)
        assert main(["dot", path]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_workloads_listing(self, capsys):
        from repro.perf.cli import main

        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("talos", "sqlite", "glamdring", "securekeeper"):
            assert name in out

    def test_record_unknown_workload(self, capsys):
        from repro.perf.cli import main

        assert main(["record", "ghost"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["analyze", "--json"],
            ["stats", "ecall", "e"],
            ["dot"],
            ["salvage"],
            ["optimize"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_missing_trace_fails_loudly(self, tmp_path, capsys, argv):
        from repro.perf.cli import main

        path = tmp_path / "typo.db"
        command, *rest = argv
        assert main([command, str(path), *rest]) == 2
        err = capsys.readouterr().err
        assert err == f"sgxperf: no such trace: {path}\n"
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["record", "sqlite"],
            ["top", "sqlite"],
            ["campaign"],
            ["netcampaign", "--workload", "talos"],
            ["stressor"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_existing_trace_refused_before_the_workload_runs(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        from repro.faults import campaign, netcampaign
        from repro.perf.cli import main
        from repro.workloads import recorders
        from repro.workloads.stressors import runner

        def must_not_run(*args, **kwargs):
            raise AssertionError("the workload started")

        monkeypatch.setitem(recorders.REGISTRY, "sqlite", must_not_run)
        monkeypatch.setattr(campaign, "run_campaign", must_not_run)
        monkeypatch.setattr(netcampaign, "run_netcampaign", must_not_run)
        monkeypatch.setattr(runner, "run_stressor", must_not_run)
        path = tmp_path / "trace.db"
        path.write_bytes(b"an earlier trace")
        assert main([*argv, "-o", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"sgxperf: trace already exists: {path}\n"
        assert captured.out == ""
        assert path.read_bytes() == b"an earlier trace"

    def test_closed_pipe_exits_without_traceback(self, tmp_path):
        """``sgxperf analyze t.db | head -1``: the reader leaves early."""
        path = str(tmp_path / "t.db")
        with TraceDatabase(path) as db:
            for event in nested_trace():
                db.add_call(event)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.perf.cli", "analyze", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        proc.stdout.close()  # no reader left before the first write
        err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 141, err  # 128 + SIGPIPE, like any pipeline stage
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err
