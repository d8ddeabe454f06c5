"""Closed-loop rerun: measure a workload before and after optimization.

``sgxperf optimize --rerun`` lands here.  One call to :func:`run_rerun`:

1. records a *baseline* trace of the workload (same seed, same request
   stream the optimized run will see);
2. analyses it and derives the :class:`OptimizationPlan`;
3. rebuilds the workload's enclave with the plan applied and replays the
   identical load;
4. reports the measured difference — transition counts, latency
   percentiles, throughput — and re-analyses the optimized trace to
   verify the transformed findings are actually gone.

Everything is virtual-time deterministic: the same seed produces the same
baseline digest, the same plan, and the same optimized digest, at any
process-pool width.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from repro.digest import trace_digest
from repro.optimizer.plan import OptimizationPlan
from repro.optimizer.switchless import WORKER_ECALL
from repro.optimizer.transforms import PlanKnobs, build_plan

RERUN_SCHEMA = "sgxperf-rerun/1"

RERUN_WORKLOADS = ("sqlite", "securekeeper")


def _percentile(sorted_values: list, q: float) -> int:
    if not sorted_values:
        return 0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return int(sorted_values[index])


@dataclass(frozen=True)
class RunMetrics:
    """One run's measured performance, straight from its trace."""

    label: str
    requests: int
    wall_ns: int
    throughput_rps: float
    p50_ns: int
    p99_ns: int
    ecalls: int
    ocalls: int
    transitions: int  # 2 crossings per ecall row + 2 per ocall row
    digest: str

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "requests": self.requests,
            "wall_ns": self.wall_ns,
            "throughput_rps": round(self.throughput_rps, 3),
            "p50_ns": self.p50_ns,
            "p99_ns": self.p99_ns,
            "ecalls": self.ecalls,
            "ocalls": self.ocalls,
            "transitions": self.transitions,
            "digest": self.digest,
        }


def _metrics_from(
    label: str, db, requests: int, latencies: list, wall_ns: Optional[int] = None
) -> RunMetrics:
    ecalls = db.calls_count(kind="ecall")
    ocalls = db.calls_count(kind="ocall")
    wall = int(wall_ns if wall_ns is not None else sum(latencies))
    ordered = sorted(latencies)
    seconds = wall / 1e9
    return RunMetrics(
        label=label,
        requests=requests,
        wall_ns=wall,
        throughput_rps=requests / seconds if seconds else 0.0,
        p50_ns=_percentile(ordered, 0.50),
        p99_ns=_percentile(ordered, 0.99),
        ecalls=ecalls,
        ocalls=ocalls,
        transitions=2 * (ecalls + ocalls),
        digest=trace_digest(db),
    )


@dataclass
class RerunReport:
    """Before/after comparison for one optimize-and-rerun cycle."""

    workload: str
    seed: int
    requests: int
    plan: OptimizationPlan
    baseline: RunMetrics
    optimized: RunMetrics
    applied: dict = field(default_factory=dict)  # transform → observed uses
    fixed_findings: list = field(default_factory=list)
    remaining_findings: list = field(default_factory=list)
    baseline_trace: str = ""
    optimized_trace: str = ""

    @property
    def speedup(self) -> float:
        """Baseline wall time over optimized wall time."""
        return self.baseline.wall_ns / self.optimized.wall_ns if self.optimized.wall_ns else 0.0

    @property
    def transition_reduction(self) -> float:
        """Fraction of boundary crossings removed."""
        if not self.baseline.transitions:
            return 0.0
        return 1.0 - self.optimized.transitions / self.baseline.transitions

    def to_dict(self) -> dict:
        return {
            "schema": RERUN_SCHEMA,
            "workload": self.workload,
            "seed": self.seed,
            "requests": self.requests,
            "plan": self.plan.to_dict(),
            "baseline": self.baseline.to_dict(),
            "optimized": self.optimized.to_dict(),
            "applied": dict(self.applied),
            "speedup": round(self.speedup, 4),
            "transition_reduction": round(self.transition_reduction, 4),
            "fixed_findings": list(self.fixed_findings),
            "remaining_findings": list(self.remaining_findings),
            "baseline_trace": self.baseline_trace,
            "optimized_trace": self.optimized_trace,
        }

    def to_json(self) -> str:
        """Canonical JSON text (byte-stable: sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def render_text(self) -> str:
        """Terminal before/after table."""
        lines = [
            f"interface optimizer rerun: {self.workload} "
            f"(seed {self.seed}, {self.requests} requests)",
            "",
            self.plan.render_text(),
            "",
            f"{'':14} {'baseline':>14} {'optimized':>14}",
        ]
        rows = [
            ("ecalls", self.baseline.ecalls, self.optimized.ecalls),
            ("ocalls", self.baseline.ocalls, self.optimized.ocalls),
            ("transitions", self.baseline.transitions, self.optimized.transitions),
            ("p50 (ns)", self.baseline.p50_ns, self.optimized.p50_ns),
            ("p99 (ns)", self.baseline.p99_ns, self.optimized.p99_ns),
            (
                "req/s",
                f"{self.baseline.throughput_rps:,.0f}",
                f"{self.optimized.throughput_rps:,.0f}",
            ),
        ]
        for name, before, after in rows:
            lines.append(f"{name:14} {before:>14} {after:>14}")
        lines.append("")
        lines.append(
            f"speedup {self.speedup:.2f}x, transitions down "
            f"{self.transition_reduction:.0%}"
        )
        if self.applied:
            uses = ", ".join(f"{k}={v}" for k, v in sorted(self.applied.items()))
            lines.append(f"applied: {uses}")
        if self.fixed_findings:
            lines.append("findings fixed: " + "; ".join(self.fixed_findings))
        if self.remaining_findings:
            lines.append(
                "findings REMAINING on transformed calls: "
                + "; ".join(self.remaining_findings)
            )
        return "\n".join(lines)


# -- finding verification -----------------------------------------------------


def _finding_keys(report, touched: set) -> set:
    """(problem, kind, call) keys of perf findings on transformed calls."""
    keys = set()
    for finding in report.findings:
        problem = finding.problem.name
        if problem not in ("SDSC", "SISC", "SNC"):
            continue
        if finding.call in touched:
            keys.add((problem, finding.kind, finding.call))
    return keys


def _verify_findings(plan: OptimizationPlan, base_report, opt_report) -> tuple[list, list]:
    touched = set()
    for pair in plan.fused:
        touched.update((pair.parent, pair.child))
    touched.update(call.call for call in plan.switchless)
    touched.update(batch.call for batch in plan.batched)
    before = _finding_keys(base_report, touched)
    after = _finding_keys(opt_report, touched)
    fixed = sorted(f"{p} {k} {c}" for (p, k, c) in before - after)
    remaining = sorted(f"{p} {k} {c}" for (p, k, c) in after)
    return fixed, remaining


# -- drivers ------------------------------------------------------------------


def _rerun_sqlite(
    seed: int, requests: int, workdir: str, knobs: PlanKnobs
) -> RerunReport:
    from repro.perf.analysis.report import Analyzer
    from repro.perf.database import TraceDatabase
    from repro.workloads.minisql.enclavised import sqlite_definition
    from repro.workloads.recorders import record_sqlite

    baseline_path = os.path.join(workdir, "baseline.db")
    optimized_path = os.path.join(workdir, "optimized.db")

    baseline_latencies: list = []
    record_sqlite(
        baseline_path,
        seed=seed,
        requests=requests,
        prepared=True,
        spawn=True,
        latencies=baseline_latencies,
    )
    with TraceDatabase(baseline_path, readonly=True) as db:
        base_report = Analyzer(db).run()
        base_metrics = _metrics_from("baseline", db, requests, baseline_latencies)

    plan = build_plan(
        base_report.findings,
        definition=sqlite_definition(),
        knobs=knobs,
        source=baseline_path,
    )

    optimized_latencies: list = []
    record_sqlite(
        optimized_path,
        seed=seed,
        requests=requests,
        prepared=True,
        plan=plan,
        spawn=True,
        latencies=optimized_latencies,
    )
    with TraceDatabase(optimized_path, readonly=True) as db:
        opt_report = Analyzer(db).run()
        opt_metrics = _metrics_from("optimized", db, requests, optimized_latencies)
        applied = _applied_counts(db, plan)

    fixed, remaining = _verify_findings(plan, base_report, opt_report)
    return RerunReport(
        workload="sqlite",
        seed=seed,
        requests=requests,
        plan=plan,
        baseline=base_metrics,
        optimized=opt_metrics,
        applied=applied,
        fixed_findings=fixed,
        remaining_findings=remaining,
        baseline_trace=baseline_path,
        optimized_trace=optimized_path,
    )


def _rerun_securekeeper(
    seed: int, requests: int, workdir: str, knobs: PlanKnobs
) -> RerunReport:
    from repro.perf.analysis.report import Analyzer
    from repro.perf.database import TraceDatabase
    from repro.perf.logger import AexMode, EventLogger
    from repro.sgx.device import SgxDevice
    from repro.sim.process import SimProcess
    from repro.workloads.securekeeper.loadgen import run_securekeeper_load
    from repro.workloads.securekeeper.proxy import ECALL_FROM_CLIENT, SecureKeeperProxy

    baseline_path = os.path.join(workdir, "baseline.db")
    optimized_path = os.path.join(workdir, "optimized.db")

    def run(db_path: str, plan: Optional[OptimizationPlan]):
        process = SimProcess(seed=seed)
        device = SgxDevice(process.sim)
        proxy = SecureKeeperProxy(process, device, tcs_count=16, plan=plan)
        with EventLogger(
            process, proxy.urts, database=db_path, aex_mode=AexMode.COUNT
        ) as logger:
            result = run_securekeeper_load(
                clients=8,
                operations_per_client=requests,
                process=process,
                device=device,
                proxy=proxy,
            )
            # Close inside the logger so the teardown flush (batched
            # ocalls) lands in the trace.
            proxy.close()
        return result

    base_result = run(baseline_path, None)
    with TraceDatabase(baseline_path, readonly=True) as db:
        base_report = Analyzer(db).run()
        base_latencies = (
            db.call_columns(kind="ecall", name=ECALL_FROM_CLIENT).duration_ns().tolist()
        )
        base_metrics = _metrics_from(
            "baseline",
            db,
            base_result.operations,
            base_latencies,
            wall_ns=int(base_result.virtual_seconds * 1e9),
        )

    plan = build_plan(base_report.findings, knobs=knobs, source=baseline_path)

    opt_result = run(optimized_path, plan)
    with TraceDatabase(optimized_path, readonly=True) as db:
        opt_report = Analyzer(db).run()
        opt_latencies = (
            db.call_columns(kind="ecall", name=ECALL_FROM_CLIENT).duration_ns().tolist()
        )
        opt_metrics = _metrics_from(
            "optimized",
            db,
            opt_result.operations,
            opt_latencies,
            wall_ns=int(opt_result.virtual_seconds * 1e9),
        )
        applied = _applied_counts(db, plan)

    fixed, remaining = _verify_findings(plan, base_report, opt_report)
    return RerunReport(
        workload="securekeeper",
        seed=seed,
        requests=requests,
        plan=plan,
        baseline=base_metrics,
        optimized=opt_metrics,
        applied=applied,
        fixed_findings=fixed,
        remaining_findings=remaining,
        baseline_trace=baseline_path,
        optimized_trace=optimized_path,
    )


def _applied_counts(db, plan: OptimizationPlan) -> dict:
    """How often each applied transform is visible in the optimized trace."""
    applied: dict = {}
    for pair in plan.fused:
        applied[f"fused:{pair.name}"] = db.calls_count(kind="ocall", name=pair.name)
    if plan.switchless:
        applied["switchless:worker_ecalls"] = db.calls_count(kind="ecall", name=WORKER_ECALL)
        for call in plan.switchless:
            # Switchless requests bypass sgx_ecall entirely; remaining
            # rows are the cold-path fallbacks (expected: 0).
            applied[f"switchless:{call.call}_residual_ecalls"] = db.calls_count(
                kind="ecall", name=call.call
            )
    for batch in plan.batched:
        applied[f"batch:{batch.name}_flushes"] = db.calls_count(kind="ocall", name=batch.name)
    return applied


def run_rerun(
    workload: str,
    seed: int = 0,
    requests: int = 400,
    workdir: Optional[str] = None,
    knobs: Optional[PlanKnobs] = None,
) -> RerunReport:
    """Record → analyse → optimize → replay → compare, in one call.

    ``requests`` means commits for ``sqlite`` and operations per client
    for ``securekeeper``.  Traces land in ``workdir`` (a fresh temporary
    directory when omitted); the report carries both paths.
    """
    if workload not in RERUN_WORKLOADS:
        raise ValueError(
            f"unsupported rerun workload {workload!r}; "
            f"available: {', '.join(RERUN_WORKLOADS)}"
        )
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="sgxperf-optimize-")
    os.makedirs(workdir, exist_ok=True)
    knobs = knobs or PlanKnobs()
    if workload == "sqlite":
        return _rerun_sqlite(seed, requests, workdir, knobs)
    return _rerun_securekeeper(seed, requests, workdir, knobs)
