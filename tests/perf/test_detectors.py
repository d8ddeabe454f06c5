"""The paper's detection equations (§4.3.2) on synthetic traces."""

import pytest

from repro.perf.analysis import detectors as D
from repro.perf.events import CallEvent, ECALL, OCALL, PagingRecord, SyncEvent, SyncKind

from tests.perf.synthetic import analyze


def call(event_id, kind, name, start, end, thread=1, parent=None, is_sync=False):
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
        is_sync=is_sync,
    )


def findings_of(problems, calls, sync=(), paging=(), evidence=None):
    """The analyser's findings for ``problems`` (and carrying ``evidence``)."""
    report, _ = analyze(calls, sync, paging)
    return [
        f
        for f in report.findings
        if f.problem in problems and (evidence is None or evidence in f.evidence)
    ]


def move_findings(calls):
    """Equation 1 findings (the ones with threshold fractions c1/c5/c10)."""
    return findings_of({D.Problem.SISC}, calls, evidence="c1")


def reorder_findings(calls):
    return findings_of({D.Problem.SNC}, calls)


def merge_batch_findings(calls):
    """Equation 3 findings (the ones naming an indirect parent)."""
    return findings_of({D.Problem.SISC, D.Problem.SDSC}, calls, evidence="indirect_parent")


def ssc_findings(calls, syncs):
    return findings_of({D.Problem.SSC}, calls, syncs)


def paging_findings(calls, paging):
    return findings_of({D.Problem.PAGING}, calls, paging=paging)


TRANSITION = 2_130  # the analyser's default when a trace carries no metadata


def short_successive(name, count, duration=500, gap=400, kind=ECALL, start_id=1):
    """A run of short calls of the same name with small gaps."""
    events = []
    cursor = 0
    for i in range(count):
        events.append(call(start_id + i, kind, name, cursor, cursor + duration))
        cursor += duration + gap
    return events


class TestEquation1Move:
    def test_short_ecalls_flagged(self):
        events = short_successive("tiny", 20, duration=2_500)  # exec ~0.4us
        findings = move_findings(events)
        assert len(findings) == 1
        assert findings[0].call == "tiny"
        assert D.Recommendation.MOVE_OUT in findings[0].recommendations

    def test_long_ecalls_not_flagged(self):
        events = short_successive("big", 20, duration=80_000, gap=1_000)
        assert move_findings(events) == []

    def test_short_ocalls_get_move_in_hint(self):
        events = short_successive("o", 20, duration=800, kind=OCALL)
        findings = move_findings(events)
        assert findings[0].recommendations == (
            D.Recommendation.MOVE_IN,
            D.Recommendation.DUPLICATE,
        )

    def test_threshold_weights_respected(self):
        # Exactly at the 10us boundary with default gamma=0.65: flagged only
        # when >=65% of calls are below 10us of execution time.
        fast = short_successive("mixed", 13, duration=TRANSITION + 8_000)
        slow = short_successive("mixed", 7, duration=60_000, start_id=100)
        not_enough = short_successive("mixed2", 12, duration=TRANSITION + 8_000)
        slow2 = short_successive("mixed2", 8, duration=60_000, start_id=200)
        assert move_findings(fast + slow)
        assert not move_findings(not_enough + slow2)

    def test_few_calls_ignored(self):
        events = short_successive("rare", 2, duration=300)
        assert move_findings(events) == []

    def test_sync_ocalls_excluded(self):
        events = short_successive("sleepy", 20, duration=400, kind=OCALL)
        for event in events:
            event.is_sync = True
        assert move_findings(events) == []


class TestEquation2Reorder:
    def make_parent_child(self, offset_from_start, offset_from_end, count=10):
        events = []
        for i in range(count):
            base = i * 1_000_000
            parent = call(i * 2 + 1, ECALL, "parent", base, base + 500_000)
            child = call(
                i * 2 + 2,
                OCALL,
                "child",
                base + offset_from_start,
                base + 500_000 - offset_from_end,
                parent=parent.event_id,
            )
            events += [parent, child]
        return events

    def test_calls_at_start_flagged(self):
        events = self.make_parent_child(2_000, 490_000)
        findings = reorder_findings(events)
        assert findings and findings[0].evidence["position"] == "start"
        assert findings[0].recommendations == (D.Recommendation.REORDER,)

    def test_calls_at_end_flagged(self):
        events = self.make_parent_child(480_000, 3_000)
        findings = reorder_findings(events)
        assert findings and findings[0].evidence["position"] == "end"

    def test_calls_in_middle_not_flagged(self):
        events = self.make_parent_child(250_000, 240_000)
        assert reorder_findings(events) == []

    def test_weighted_threshold(self):
        def mixture(near_count, far_count):
            events = []
            event_id = 1
            for i in range(near_count + far_count):
                base = i * 1_000_000
                start_offset = 2_000 if i < near_count else 250_000
                parent = call(event_id, ECALL, "parent", base, base + 500_000)
                child = call(
                    event_id + 1, OCALL, "child",
                    base + start_offset, base + start_offset + 8_000,
                    parent=event_id,
                )
                events += [parent, child]
                event_id += 2
            return events

        # Half the children within 10us of the start: score = 0.5*1.0 +
        # 0.5*0.75 = 0.875 >= 0.5 -> flagged; with only 20% near it is
        # 0.2*1.75 = 0.35 < 0.5 -> not flagged.
        assert reorder_findings(mixture(5, 5))
        assert not reorder_findings(mixture(2, 8))


class TestEquation3MergeBatch:
    def test_batching_for_identical_successive(self):
        events = short_successive("pair", 30, duration=600, gap=300)
        findings = merge_batch_findings(events)
        batch = [f for f in findings if D.Recommendation.BATCH in f.recommendations]
        assert batch and batch[0].problem is D.Problem.SISC
        assert batch[0].call == "pair"

    def test_merging_for_different_successive(self):
        events = []
        cursor = 0
        for i in range(20):
            events.append(call(2 * i + 1, ECALL, "seek", cursor, cursor + 900))
            cursor += 1_200
            events.append(call(2 * i + 2, ECALL, "write", cursor, cursor + 2_000))
            cursor += 40_000  # big gap before the next pair
        findings = merge_batch_findings(events)
        merge = [f for f in findings if f.call == "write"]
        assert merge and merge[0].problem is D.Problem.SDSC
        assert merge[0].evidence["indirect_parent"] == "seek"

    def test_long_gaps_not_flagged(self):
        events = short_successive("spread", 20, duration=600, gap=400_000)
        assert merge_batch_findings(events) == []

    def test_lambda_ratio_guard(self):
        # Parent seen once for many children: P/C << 0.35 -> skip.
        events = [call(1, ECALL, "rare_parent", 0, 100)]
        cursor = 200
        for i in range(30):
            events.append(call(i + 2, ECALL, "common", cursor, cursor + 100))
            cursor += 200
        findings = merge_batch_findings(events)
        assert not any(
            f.evidence.get("indirect_parent") == "rare_parent" for f in findings
        )


class TestSscDetector:
    def make_sync_trace(self, sleeps, sleep_ns):
        calls, syncs = [], []
        cursor = 0
        event_id = 1
        for i in range(sleeps):
            sleep_call = call(
                event_id, OCALL, "sgx_thread_wait_untrusted_event_ocall",
                cursor, cursor + sleep_ns, is_sync=True,
            )
            syncs.append(
                SyncEvent(
                    event_id=event_id + 1000,
                    timestamp_ns=cursor,
                    thread_id=1,
                    kind=SyncKind.SLEEP,
                    call_id=event_id,
                    targets=(1,),
                )
            )
            wake_call = call(
                event_id + 1, OCALL, "sgx_thread_set_untrusted_event_ocall",
                cursor + sleep_ns + 50, cursor + sleep_ns + 550, is_sync=True,
            )
            syncs.append(
                SyncEvent(
                    event_id=event_id + 2000,
                    timestamp_ns=cursor + sleep_ns + 50,
                    thread_id=2,
                    kind=SyncKind.WAKE,
                    call_id=event_id + 1,
                    targets=(1,),
                )
            )
            calls += [sleep_call, wake_call]
            event_id += 2
            cursor += sleep_ns + 2_000
        return calls, syncs

    def test_short_sleeps_flagged(self):
        calls, syncs = self.make_sync_trace(sleeps=10, sleep_ns=8_000)
        findings = ssc_findings(calls, syncs)
        assert findings and findings[0].problem is D.Problem.SSC
        assert findings[0].recommendations == (D.Recommendation.HYBRID_SYNC,)
        assert findings[0].evidence["short_sleep_fraction"] == 1.0

    def test_wake_matrix_tracks_who_wakes_whom(self):
        calls, syncs = self.make_sync_trace(sleeps=10, sleep_ns=8_000)
        matrix = ssc_findings(calls, syncs)[0].evidence["wake_matrix"]
        assert matrix == {(2, 1): 10}

    def test_few_events_ignored(self):
        calls, syncs = self.make_sync_trace(sleeps=2, sleep_ns=1_000)
        assert ssc_findings(calls, syncs) == []


class TestPagingDetector:
    def test_no_paging_no_findings(self):
        assert paging_findings([], []) == []

    def test_paging_during_ecall_attributed(self):
        ecalls = [call(1, ECALL, "big_ecall", 1_000, 100_000)]
        paging = [
            PagingRecord(10, 50_000, 1, 0x7F00_0000_0000, "page_in"),
            PagingRecord(11, 60_000, 1, 0x7F00_0000_1000, "page_out"),
        ]
        findings = paging_findings(ecalls, paging)
        assert findings[0].call == "big_ecall"
        assert findings[0].evidence["events_during_call"] == 2
        assert D.Recommendation.PRELOAD_PAGES in findings[0].recommendations

    def test_paging_outside_ecalls_reported(self):
        ecalls = [call(1, ECALL, "e", 1_000, 2_000)]
        paging = [PagingRecord(10, 999_000, 1, 0x7F00_0000_0000, "page_in")]
        findings = paging_findings(ecalls, paging)
        assert findings[0].call == "(outside ecalls)"


class TestFindingPriorities:
    def test_reorder_beats_merge_beats_move(self):
        reorder = D.Finding(
            D.Problem.SNC, OCALL, "a", (D.Recommendation.REORDER,), "m"
        )
        merge = D.Finding(D.Problem.SDSC, ECALL, "b", (D.Recommendation.MERGE,), "m")
        move = D.Finding(
            D.Problem.SISC, OCALL, "c", (D.Recommendation.MOVE_IN,), "m"
        )
        assert reorder.priority < merge.priority < move.priority
