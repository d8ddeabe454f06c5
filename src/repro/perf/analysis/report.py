"""Human-readable analysis reports and the analyser facade (paper §4.3).

:class:`Analyzer` streams a trace out of a :class:`TraceDatabase` in
bounded-size chunks, computes the general statistics, every problem
detector and the security analysis, and packages the result as an
:class:`AnalysisReport` that renders to text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import faultrows
from repro.perf.analysis import callgraph as callgraph_mod
from repro.perf.analysis import detectors as det
from repro.perf.analysis import stats as stats_mod
from repro.perf.analysis.streaming import CallFold
from repro.perf.database import DEFAULT_CHUNK_EVENTS, TraceDatabase
from repro.perf.events import SyncKind
from repro.workloads.serving import ServingStats, summary_lines

if TYPE_CHECKING:
    from repro.sdk.edl import EnclaveDefinition

DEFAULT_TRANSITION_NS = 2_130  # §2.3.1 baseline if the trace lacks metadata


class FaultAccumulator:
    """Folds fault rows into kind counts and availability summaries.

    Each workload's ``serve:*`` rows replay into one
    :class:`~repro.workloads.serving.ServingStats` ledger (``serving``,
    keyed by the rows' ``call``), so the offline analyser reports the
    summary a live campaign did and the cluster trace merge can merge the
    ledgers.  The ledgers retain per-request latencies (the percentiles
    need the full ordered set); everything else is O(distinct kinds).
    """

    def __init__(self) -> None:
        self.total = 0
        self.counts: dict[str, int] = {}
        self.serving: dict[str, ServingStats] = {}
        # Resource-pressure accounting, parsed out of brownout:* rows.
        self.shed_by_class: dict[str, int] = {}
        self.brownout_transitions = 0
        self.brownout_deep_transitions = 0

    def add(self, fault) -> None:
        self.total += 1
        self.counts[fault.kind] = self.counts.get(fault.kind, 0) + 1
        if fault.kind == faultrows.BROWNOUT_LEVEL:
            change = faultrows.decode_brownout_level(fault.detail)
            # Escalations only, as BrownoutController.summary() counts them.
            if change is not None and change[1] > change[0]:
                self.brownout_transitions += 1
                if change[1] == len(faultrows.BROWNOUT_LEVELS) - 1:  # deep
                    self.brownout_deep_transitions += 1
        elif fault.kind == faultrows.BROWNOUT_SHED:
            shed = faultrows.decode_brownout_shed(fault.detail)
            if shed is not None:
                self.shed_by_class[shed[0]] = self.shed_by_class.get(shed[0], 0) + 1
        elif fault.kind in faultrows.SERVE_KINDS:
            workload = fault.call or "?"
            ledger = self.serving.get(workload)
            if ledger is None:
                ledger = self.serving[workload] = ServingStats(workload)
            ledger.fold_row(fault.kind, fault.detail)

    def availability(self) -> list[dict]:
        """The per-workload summaries, in workload order."""
        return [self.serving[workload].summary() for workload in sorted(self.serving)]


def apply_fault_annotations(
    report: "AnalysisReport",
    acc: FaultAccumulator,
    trace_state: Optional[str],
) -> None:
    """Attach the fault/recovery section and notes to a report."""
    if not acc.total and trace_state is None:
        return
    counts = acc.counts
    report.trace_state = trace_state
    report.fault_counts = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    report.truncated_calls = counts.get(faultrows.TRUNCATED, 0)
    report.availability = acc.availability()
    report.pressure = {
        "brownout_transitions": acc.brownout_transitions,
        "brownout_deep_transitions": acc.brownout_deep_transitions,
        "shed_by_class": dict(sorted(acc.shed_by_class.items())),
        "epc_waits": counts.get(faultrows.RECOVER_EPC_WAIT, 0),
        "epc_squeezes": counts.get(faultrows.INJECT_EPC_SQUEEZE, 0),
        "stressor_windows": counts.get(faultrows.INJECT_STRESSOR_START, 0),
    }
    report.watchdog_counts = sorted(
        kv for kv in counts.items() if kv[0].startswith(faultrows.WATCHDOG_PREFIX)
    )
    losses = counts.get(faultrows.INJECT_LOSS, 0)
    recreates = counts.get(faultrows.RECOVER_RECREATE, 0)
    retries = counts.get(faultrows.RECOVER_RETRY, 0)
    if losses or recreates:
        report.notes.append(
            f"enclave loss: {losses} lost, {recreates} re-created, "
            f"{retries} calls retried — statistics include retried calls"
        )
    if trace_state is not None:
        report.notes.append(
            f"trace was {trace_state}: {report.truncated_calls} call(s) "
            "closed at the trace horizon, not by returning"
        )


@dataclass
class AnalysisReport:
    """Everything the analyser produced for one trace."""

    statistics: list[stats_mod.CallStatistics]
    findings: list[det.Finding]
    transition_round_trip_ns: int
    ecall_count: int = 0
    ocall_count: int = 0
    ecall_short_fraction: float = 0.0
    ocall_short_fraction: float = 0.0
    distinct_ecalls: int = 0
    distinct_ocalls: int = 0
    aex_total: int = 0
    paging_events: int = 0
    notes: list[str] = field(default_factory=list)
    # Fault & recovery annotations: None/empty for clean fault-free traces.
    trace_state: Optional[str] = None  # None | "aborted" | "salvaged"
    fault_counts: list[tuple[str, int]] = field(default_factory=list)
    truncated_calls: int = 0
    # Serving-path availability: empty unless the trace has serve:* rows.
    availability: list[dict] = field(default_factory=list)
    watchdog_counts: list[tuple[str, int]] = field(default_factory=list)
    # Resource-pressure summary: empty unless fault annotations applied.
    pressure: dict = field(default_factory=dict)

    def findings_by_priority(self) -> list[det.Finding]:
        """Findings sorted best-priority-first (reorder > merge > move...)."""
        return sorted(self.findings, key=lambda f: (f.priority, f.call))

    def render_availability(self) -> str:
        """Render the availability-under-chaos section (``--availability``)."""
        lines: list[str] = []
        lines.append("-- availability " + "-" * 62)
        if not self.availability:
            lines.append("no serving-path events recorded (trace has no serve:* rows)")
        for entry in self.availability:
            lines.extend(summary_lines(entry))
        if self.watchdog_counts:
            for kind, count in self.watchdog_counts:
                lines.append(f"{kind:30} {count:>8}")
        else:
            lines.append("watchdog: no hangs detected")
        return "\n".join(lines)

    def render_pressure(self) -> str:
        """Render the resource-pressure section (``--pressure``).

        Folds the brownout evidence rows (level transitions, typed sheds
        by priority class), EPC-wait degradation retries and the injected
        pressure events back out of the trace — the offline mirror of the
        per-shard brownout summary a cluster run prints live.
        """
        p = self.pressure
        lines: list[str] = []
        lines.append("-- pressure " + "-" * 66)
        interesting = p and (
            p["brownout_transitions"]
            or p["shed_by_class"]
            or p["epc_waits"]
            or p["epc_squeezes"]
            or p["stressor_windows"]
        )
        if not interesting:
            lines.append(
                "no resource-pressure events recorded "
                "(no brownout:*/inject:epc-*/inject:stressor-* rows)"
            )
            lines.append(f"paging events: {self.paging_events}")
            return "\n".join(lines)
        lines.append(f"paging events: {self.paging_events}")
        lines.append(
            f"injected: {p['stressor_windows']} stressor window(s), "
            f"{p['epc_squeezes']} EPC squeeze(s)"
        )
        lines.append(
            f"brownout: {p['brownout_transitions']} transition(s) "
            f"({p['brownout_deep_transitions']} deep)"
        )
        if p["shed_by_class"]:
            shed = ", ".join(
                f"{cls} {count}" for cls, count in p["shed_by_class"].items()
            )
            lines.append(f"shed by class: {shed}")
        else:
            lines.append("shed by class: none")
        lines.append(f"epc-wait degradation retries: {p['epc_waits']}")
        return "\n".join(lines)

    def render_text(self, max_stats_rows: int = 20) -> str:
        """Render the report for a terminal."""
        lines: list[str] = []
        lines.append("=" * 78)
        lines.append("sgx-perf analysis report")
        lines.append("=" * 78)
        lines.append(
            f"ecalls: {self.ecall_count} events over {self.distinct_ecalls} "
            f"distinct calls ({self.ecall_short_fraction:.2%} shorter than 10us)"
        )
        lines.append(
            f"ocalls: {self.ocall_count} events over {self.distinct_ocalls} "
            f"distinct calls ({self.ocall_short_fraction:.2%} shorter than 10us)"
        )
        lines.append(
            f"AEXs: {self.aex_total}   paging events: {self.paging_events}   "
            f"transition round-trip: {self.transition_round_trip_ns} ns"
        )
        if self.trace_state is not None:
            lines.append(
                f"trace state: {self.trace_state} — {self.truncated_calls} "
                "truncated call(s); truncated durations are lower bounds"
            )
        if self.fault_counts or self.trace_state is not None:
            lines.append("")
            lines.append("-- faults & recovery " + "-" * 57)
            if not self.fault_counts:
                lines.append("no fault events recorded")
            for kind, count in self.fault_counts:
                lines.append(f"{kind:30} {count:>8}")
        lines.append("")
        lines.append("-- general statistics (top by total time) " + "-" * 35)
        header = (
            f"{'kind':6} {'name':40} {'count':>8} {'mean':>9} {'median':>9} "
            f"{'std':>9} {'p90':>9} {'p95':>9} {'p99':>9}"
        )
        lines.append(header)
        for stat in self.statistics[:max_stats_rows]:
            kind, name, count, mean, median, std, p90, p95, p99 = stat.row()
            lines.append(
                f"{kind:6} {name[:40]:40} {count:>8} {mean:>9} {median:>9} "
                f"{std:>9} {p90:>9} {p95:>9} {p99:>9}"
            )
        if len(self.statistics) > max_stats_rows:
            lines.append(f"... ({len(self.statistics) - max_stats_rows} more)")
        lines.append("")
        lines.append("-- findings (priority order: reorder < merge/batch < move) " + "-" * 17)
        if not self.findings:
            lines.append("no problems detected")
        for finding in self.findings_by_priority():
            recs = "; ".join(r.value for r in finding.recommendations)
            lines.append(
                f"[P{finding.priority}] {finding.problem.name}: "
                f"{finding.kind} {finding.call}"
            )
            lines.append(f"      {finding.message}")
            lines.append(f"      -> {recs}")
        if self.notes:
            lines.append("")
            lines.append("-- notes " + "-" * 69)
            lines.extend(f"* {note}" for note in self.notes)
        return "\n".join(lines)


class Analyzer:
    """The sgx-perf analyser: trace database in, report out.

    Runs four passes over the trace database, each in bounded memory:

    1. a *sync* pass over the (small) sync table, producing the sleep
       multiplicities and wake matrix the SSC detector needs;
    2. the *call fold* — :class:`~repro.perf.analysis.streaming.CallFold`
       over thread-major column chunks of ``chunk_events`` rows;
    3. a *paging* pass merge-joining time-ordered paging records against
       time-ordered ecall intervals, skipped when the trace has no paging
       rows;
    4. a *fault* pass folding fault rows through :class:`FaultAccumulator`.

    The report is byte-identical for any chunk size; the golden-digest
    tests and the CI digest gates hold it to that.
    """

    def __init__(
        self,
        database: TraceDatabase,
        definition: Optional[EnclaveDefinition] = None,
        weights: Optional[det.AnalyzerWeights] = None,
        chunk_events: Optional[int] = None,
    ) -> None:
        self.db = database
        self.definition = definition
        self.weights = weights or det.AnalyzerWeights()
        self.chunk_events = int(chunk_events or DEFAULT_CHUNK_EVENTS)
        self._fold: Optional[CallFold] = None

    def run(self) -> AnalysisReport:
        """Run every analysis over the trace."""
        db = self.db
        counts = db.table_counts()
        trace_state = db.get_meta("trace_state")
        transition_ns = int(
            db.get_meta("transition_round_trip_ns", str(DEFAULT_TRANSITION_NS))
        )
        sync = self._sync_pass()
        fold = self._fold = self._fold_trace(transition_ns, sync["sleep_counts"])

        findings: list[det.Finding] = []
        findings += fold.reorder_findings()
        findings += fold.merge_findings()
        findings += fold.move_findings()
        findings += det.ssc_finding_from_counts(
            sync["total"],
            sync["sleeps"],
            sync["wakes"],
            fold.ssc_matched,
            fold.ssc_short,
            sync["wake_matrix"],
            self.weights,
        )
        if counts["paging"]:
            findings += det.paging_findings_from_counts(*self._paging_pass())
        findings += fold.security_findings(self.definition)

        distinct_ecalls, distinct_ocalls = fold.distinct_counts()
        report = AnalysisReport(
            statistics=fold.statistics(),
            findings=findings,
            transition_round_trip_ns=transition_ns,
            ecall_count=fold.ecall_rows,
            ocall_count=fold.ocall_rows,
            ecall_short_fraction=(
                fold.ecall_short / fold.ecall_rows if fold.ecall_rows else 0.0
            ),
            ocall_short_fraction=(
                fold.ocall_short / fold.ocall_rows if fold.ocall_rows else 0.0
            ),
            distinct_ecalls=distinct_ecalls,
            distinct_ocalls=distinct_ocalls,
            aex_total=fold.aex_total,
            paging_events=counts["paging"],
        )
        fault_acc = FaultAccumulator()
        for chunk in db.fault_events_chunks(self.chunk_events):
            for fault in chunk:
                fault_acc.add(fault)
        apply_fault_annotations(report, fault_acc, trace_state)
        if self.definition is None:
            report.notes.append(
                "no EDL supplied: allow-list narrowing reports minimal observed "
                "sets; pass the enclave's EDL for removable-entry analysis"
            )
        return report

    # -- passes --------------------------------------------------------------

    def _sync_pass(self) -> dict:
        """Sleep multiplicities, wake matrix and sync totals (one pass)."""
        total = sleeps = wakes = 0
        sleep_counts: dict[int, int] = {}
        wake_matrix: dict[tuple[int, int], int] = {}
        for rows in self.db.sync_rows_chunks(self.chunk_events):
            for row in rows:
                total += 1
                kind = row[3]
                if kind == SyncKind.SLEEP.value:
                    sleeps += 1
                    if row[4] is not None:
                        call_id = int(row[4])
                        sleep_counts[call_id] = sleep_counts.get(call_id, 0) + 1
                elif kind == SyncKind.WAKE.value:
                    wakes += 1
                    thread_id = int(row[2])
                    for target in (row[5] or "").split(","):
                        if target:
                            key = (thread_id, int(target))
                            wake_matrix[key] = wake_matrix.get(key, 0) + 1
        return {
            "total": total,
            "sleeps": sleeps,
            "wakes": wakes,
            "sleep_counts": sleep_counts,
            "wake_matrix": wake_matrix,
        }

    def _fold_trace(self, transition_ns: int, sleep_counts: dict[int, int]) -> CallFold:
        fold = CallFold(transition_ns, self.weights, sleep_counts)
        for cols in self.db.call_columns_chunks(self.chunk_events):
            fold.fold(cols)
        return fold

    def _paging_pass(self) -> tuple[dict[str, int], int, int, int]:
        """Attribute paging events to enclosing ecalls via a merge-join.

        Both streams are time-ordered, so "the last ecall started at or
        before the fault's timestamp" is a single forward pointer, which
        picks the last of several ecalls with tied starts.
        """
        page_in = total = 0
        distinct: set[tuple[int, int]] = set()
        affected: dict[str, int] = {}

        def intervals():
            for rows in self.db.ecall_intervals_chunks(self.chunk_events):
                yield from rows

        ecalls = intervals()
        upcoming = next(ecalls, None)
        current = None  # last interval started at or before the fault
        for rows in self.db.paging_rows_chunks(self.chunk_events):
            for row in rows:
                ts = int(row[1])
                total += 1
                if row[4] == "page_in":
                    page_in += 1
                distinct.add((int(row[2]), int(row[3])))
                while upcoming is not None and upcoming[0] <= ts:
                    current = upcoming
                    upcoming = next(ecalls, None)
                if current is not None and current[1] >= ts:
                    name = str(current[2])
                    affected[name] = affected.get(name, 0) + 1
        return affected, page_in, total - page_in, len(distinct)

    def call_graph(self) -> callgraph_mod.CallGraph:
        """Name-level call graph with direct/indirect edges (Figure 5).

        Built from the last :meth:`run`'s fold (runs one if needed).
        """
        if self._fold is None:
            self.run()
        return self._fold.call_graph()

    def call_graph_dot(self) -> str:
        """Figure 5-style Graphviz DOT text."""
        return callgraph_mod.to_dot(self.call_graph())
