"""Direct/indirect parent computation (Figure 4) and general statistics."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.perf.analysis import callgraph as CG
from repro.perf.analysis import parents as P
from repro.perf.analysis import stats as S
from repro.perf.analysis.detectors import AnalyzerWeights
from repro.perf.database import TraceDatabase
from repro.perf.events import CallEvent, ECALL, OCALL

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


def indirect_edges(calls):
    """(indirect parent name, child name) → count, from the analyser's graph."""
    _, graph = analyze(calls)
    return CG.edge_counts(graph, CG.INDIRECT)


class TestFigure4Cases:
    """The four indirect-parent examples of the paper's Figure 4."""

    def test_case1_sibling_ecalls_chain(self):
        calls = [
            call(1, ECALL, "E1", 0, 10),
            call(2, ECALL, "E2", 20, 30),
            call(3, ECALL, "E3", 40, 50),
        ]
        assert indirect_edges(calls) == {("E1", "E2"): 1, ("E2", "E3"): 1}

    def test_case2_ocalls_within_one_ecall_chain(self):
        calls = [
            call(1, ECALL, "E1", 0, 100),
            call(2, OCALL, "O2", 10, 20, parent=1),
            call(3, OCALL, "O3", 30, 40, parent=1),
        ]
        # Only O3 has an indirect parent.
        assert indirect_edges(calls) == {("O2", "O3"): 1}

    def test_case3_nested_alternating_no_indirect(self):
        calls = [
            call(1, ECALL, "E1", 0, 100),
            call(2, OCALL, "O2", 10, 90, parent=1),
            call(3, ECALL, "E3", 20, 80, parent=2),
        ]
        assert indirect_edges(calls) == {}

    def test_case4_skips_calls_of_other_kind(self):
        calls = [
            call(1, ECALL, "E1", 0, 30),
            call(2, OCALL, "O2", 10, 20, parent=1),
            call(3, ECALL, "E3", 40, 50),
        ]
        # E3's indirect parent is E1, not O2.
        assert indirect_edges(calls) == {("E1", "E3"): 1}

    def test_threads_do_not_mix(self):
        calls = [
            call(1, ECALL, "E", 0, 10, thread=1),
            call(2, ECALL, "E", 20, 30, thread=2),
        ]
        assert indirect_edges(calls) == {}


class TestDirectParentRecomputation:
    def test_matches_logged_parents(self):
        calls = [
            call(1, ECALL, "E1", 0, 100),
            call(2, OCALL, "O1", 10, 40, parent=1),
            call(3, ECALL, "E2", 15, 30, parent=2),
            call(4, OCALL, "O2", 50, 70, parent=1),
            call(5, ECALL, "E3", 120, 140),
        ]
        recomputed = P.recompute_direct_parents(calls)
        for event in calls:
            assert recomputed[event.event_id] == event.parent_id

    def test_gap_to_indirect_parent(self):
        # One link (the first call has no indirect parent) with a 7 ns gap:
        # within 1 us, so it counts in every Equation 3 threshold.
        calls = [
            call(1, ECALL, "E", 0, 10),
            call(2, ECALL, "E", 17, 30),
        ]
        report, _ = analyze(calls, weights=AnalyzerWeights(min_calls=1))
        (batch,) = [f for f in report.findings if "indirect_parent" in f.evidence]
        assert batch.evidence["pairs"] == 1
        assert batch.evidence["p1"] == batch.evidence["p20"] == 0.5  # 1 of 2 calls

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1, max_value=500),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_indirect_parent_always_precedes(self, spans):
        events = []
        cursor = 0
        for i, (gap, width) in enumerate(spans):
            start = cursor + gap
            events.append(call(i + 1, ECALL, f"E{i % 3}", start, start + width))
            cursor = start + width
        # Top-level calls on one thread form one chain: each call's indirect
        # parent is the call that ended right before it started.
        expected = Counter(
            (previous.name, current.name) for previous, current in zip(events, events[1:])
        )
        assert indirect_edges(events) == dict(expected)


class TestStatistics:
    def make_events(self, durations):
        return [
            call(i + 1, ECALL, "e", i * 1_000, i * 1_000 + d)
            for i, d in enumerate(durations)
        ]

    def test_summary_values(self):
        stats = S.compute_statistics("ecall", "e", np.array([100, 200, 300]))
        assert stats.count == 3
        assert stats.mean_ns == 200
        assert stats.median_ns == 200
        assert stats.min_ns == 100 and stats.max_ns == 300
        assert stats.total_ns == 600

    def test_percentiles_ordered(self):
        stats = S.compute_statistics("ecall", "e", np.arange(1, 101))
        assert stats.p90_ns <= stats.p95_ns <= stats.p99_ns <= stats.max_ns

    def test_empty_group(self):
        stats = S.compute_statistics("ecall", "e", np.array([], dtype=np.int64))
        assert stats.count == 0 and stats.mean_ns == 0.0

    def test_execution_durations_subtract_transition_for_ecalls(self):
        # 11.0 / 12.5 us measured are 8.87 / 10.37 us of execution time.
        report, _ = analyze(self.make_events([11_000, 12_500]))
        assert report.ecall_short_fraction == 0.5

    def test_execution_durations_clamped_at_zero(self):
        # A call shorter than the transition executed for 0 ns: under 1 us.
        report, _ = analyze(self.make_events([1_000]), weights=AnalyzerWeights(min_calls=1))
        (move,) = [f for f in report.findings if "c1" in f.evidence]
        assert move.evidence["c1"] == 1.0

    def test_ocall_durations_not_adjusted(self):
        report, _ = analyze([call(1, OCALL, "o", 0, 11_000)])
        assert report.ocall_short_fraction == 0.0

    def test_fraction_shorter_than(self):
        values = np.array([1, 5, 9, 20])
        assert S.fraction_shorter_than(values, 10) == 0.75
        assert S.fraction_shorter_than(np.array([]), 10) == 0.0

    def test_histogram_total_preserved(self):
        hist = S.histogram(np.array([10, 20, 30, 40, 50] * 10), bins=5)
        assert sum(hist.counts) == 50

    def test_histogram_render_nonempty(self):
        text = S.histogram(np.arange(100, 200), bins=100).render(max_rows=10)
        assert "us |" in text

    def test_scatter_series_alignment(self, tmp_path, capsys):
        from repro.perf.cli import main

        path = str(tmp_path / "t.db")
        with TraceDatabase(path) as db:
            for event in self.make_events([10, 20]):
                db.add_call_row(event.to_row())
        assert main(["stats", path, "ecall", "e", "--scatter"]) == 0
        # Each call's start next to its duration, in start order.
        assert capsys.readouterr().out.splitlines()[1:] == ["0 10", "1000 20"]

    def test_all_statistics_sorted_by_total(self):
        events = self.make_events([100] * 5) + [
            call(99, OCALL, "big", 0, 10_000)
        ]
        report, _ = analyze(events)
        assert report.statistics[0].name == "big"

    def test_group_by_name(self):
        events = self.make_events([1, 2]) + [call(9, OCALL, "o", 0, 5)]
        report, _ = analyze(events)
        assert {(s.kind, s.name): s.count for s in report.statistics} == {
            ("ecall", "e"): 2,
            ("ocall", "o"): 1,
        }
