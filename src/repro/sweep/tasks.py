"""Sweep task model and the worker-side runners.

A :class:`SweepTask` is plain picklable data — the pool ships it to a
worker (forked or spawned, see :mod:`repro.sweep.engine`), which builds a
fully isolated simulation (its own ``SgxDevice``, ``EventLogger`` and
trace store), runs it, and returns a compact :class:`TaskResult`.  A
forked worker inherits the caller's modules but no simulation: nothing
is shared between workers, and the parent never sees a live simulation
object: shared-nothing by construction.

Task kinds:

* ``campaign``    — one :func:`repro.faults.campaign.run_campaign` run;
* ``clusternode`` — one node shard of a :mod:`repro.cluster` serving run;
* ``netcampaign`` — one :func:`repro.faults.netcampaign.run_netcampaign` run;
* ``stressor``    — one :func:`repro.workloads.stressors.runner.run_stressor` run
  (the EPC-pressure scenario matrix: ``--axis stressor=... --axis
  intensity=...``);
* ``optimizer``   — one :func:`repro.optimizer.rerun.run_rerun` analyze→optimize→
  rerun A/B cell; the task digest is the optimized trace's digest (the CI
  determinism gate compares it across ``--jobs`` values);
* ``selftest``    — a tiny pure-scheduler simulation (used by the engine's
  own tests and crash drills; costs milliseconds).

Control parameters (never part of the task key or metrics):

* ``trace_dir``  — write this task's trace to ``<trace_dir>/<slug>.db``
  instead of ``:memory:``;
* ``crash``      — ``"once"`` kills the worker process the first time the
  task runs (a sentinel in ``crash_dir`` makes the retry succeed);
  ``"always"`` kills it every time, exercising the bounded-retry
  ``sweep:worker-lost`` path;
* ``crash_dir``  — sentinel directory for ``crash="once"``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.digest import sha256_hex

# Parameters consumed by the engine/wrapper, not by the workload runners.
CONTROL_PARAMS = ("trace_dir", "crash", "crash_dir")


@dataclass(frozen=True)
class SweepTask:
    """One cell of a sweep grid.

    ``index`` is the task's position in the expanded grid — the canonical
    merge order.  ``key`` is the human-readable task key built from the
    payload parameters only, identical across worker counts.
    """

    index: int
    kind: str
    params: tuple  # sorted ((name, value), ...) pairs; hashable + picklable

    @property
    def key(self) -> str:
        """Canonical task key, e.g. ``campaign seed=7 loss_probability=0.02``."""
        payload = [(k, v) for k, v in self.params if k not in CONTROL_PARAMS]
        return " ".join([self.kind] + [f"{k}={v}" for k, v in payload])

    @property
    def slug(self) -> str:
        """Filesystem-safe unique name for per-task artifacts."""
        digest = hashlib.sha256(self.key.encode()).hexdigest()[:12]
        return f"task-{self.index:04d}-{digest}"

    def param(self, name: str, default: Any = None) -> Any:
        """Look up one parameter by name."""
        for k, v in self.params:
            if k == name:
                return v
        return default

    def payload(self) -> dict:
        """The parameters the workload runner consumes, as a dict."""
        return {k: v for k, v in self.params if k not in CONTROL_PARAMS}


@dataclass
class TaskResult:
    """Compact record a worker returns for one task.

    ``attempts`` and ``wall_seconds`` are execution facts, deliberately
    excluded from the deterministic manifest — a task retried after an
    unrelated worker crash still merges byte-identically.
    """

    index: int
    key: str
    status: str  # "ok" | "failed" | engine.WORKER_LOST
    digest: str = ""
    metrics: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    error: str = ""
    attempts: int = 1
    wall_seconds: float = 0.0


class UnknownTaskKind(ValueError):
    """The grid named a task kind no runner exists for."""


def _campaign_plan(params: dict):
    """The campaign fault plan, with per-family grid overrides applied."""
    from repro.faults.campaign import default_plan
    from repro.faults.plan import EnclaveLossPlan, FaultPlan, OcallFaultPlan, TransientEpcPlan

    if not params.get("faults", True):
        return FaultPlan.disabled()
    plan = default_plan()
    if "loss_probability" in params:
        plan = replace(
            plan, enclave_loss=EnclaveLossPlan(probability=float(params["loss_probability"]))
        )
    if "epc_probability" in params:
        plan = replace(plan, epc=TransientEpcPlan(probability=float(params["epc_probability"])))
    if "ocall_error_probability" in params or "ocall_delay_probability" in params:
        base = plan.ocall or OcallFaultPlan()
        plan = replace(
            plan,
            ocall=replace(
                base,
                error_probability=float(
                    params.get("ocall_error_probability", base.error_probability)
                ),
                delay_probability=float(
                    params.get("ocall_delay_probability", base.delay_probability)
                ),
            ),
        )
    return plan


def _run_campaign_task(params: dict, db_path: str) -> tuple[str, dict, dict]:
    from repro.faults.campaign import run_campaign

    plan = _campaign_plan(params)
    result = run_campaign(
        int(params.get("seed", 0)),
        db_path=db_path,
        workers=int(params.get("workers", 3)),
        calls_per_worker=int(params.get("calls", 40)),
        plan=plan,
        use_injector=bool(params.get("faults", True)),
    )
    metrics = {
        "completed": result.completed_calls,
        "failed": result.failed_calls,
        "duration_ns": result.duration_ns,
        "recreates": result.recreates,
        "retries": result.recovery.get("retry", 0),
    }
    return result.digest, metrics, dict(result.injected)


def _netcampaign_plan(params: dict):
    """The serving chaos plan, with per-knob grid overrides applied."""
    from repro.faults.netcampaign import default_chaos_plan
    from repro.faults.plan import FaultPlan

    if not params.get("chaos", True):
        return FaultPlan.disabled()
    plan = default_chaos_plan()
    net = plan.network
    overrides = {}
    for param, attr in (
        ("reset_probability", "reset_probability"),
        ("delay_probability", "delay_probability"),
        ("delay_ns", "delay_ns"),
        ("short_write_probability", "short_write_probability"),
    ):
        if param in params:
            overrides[attr] = type(getattr(net, attr))(params[param])
    if overrides:
        plan = replace(plan, network=replace(net, **overrides))
    return plan


def _run_netcampaign_task(params: dict, db_path: str) -> tuple[str, dict, dict]:
    from repro.faults.netcampaign import run_netcampaign

    result = run_netcampaign(
        str(params.get("workload", "talos")),
        int(params.get("seed", 0)),
        db_path=db_path,
        requests=int(params.get("requests", 120)),
        clients=int(params.get("clients", 4)),
        operations_per_client=int(params.get("ops", 20)),
        plan=_netcampaign_plan(params),
    )
    metrics = dict(result.availability)
    metrics["duration_ns"] = result.duration_ns
    metrics["watchdog_detections"] = result.watchdog_detections
    return result.digest, metrics, dict(result.injected)


def _run_clusternode_task(params: dict, db_path: str) -> tuple[str, dict, dict]:
    from repro.cluster.node import run_clusternode

    return run_clusternode(params, db_path)


def _run_stressor_task(params: dict, db_path: str) -> tuple[str, dict, dict]:
    from repro.workloads.stressors.runner import run_stressor_task

    return run_stressor_task(params, db_path)


def _run_optimizer_task(params: dict, db_path: str) -> tuple[str, dict, dict]:
    """One analyze→optimize→rerun A/B cell (the §5.2.2 loop, automated).

    The task digest is the *optimized* trace's digest — the CI determinism
    gate compares it across ``--jobs`` values.  With a ``trace_dir`` the
    baseline and optimized traces are kept next to the task's ``db_path``.
    """
    import shutil
    import tempfile

    from repro.optimizer.rerun import run_rerun

    if db_path == ":memory:":
        workdir = tempfile.mkdtemp(prefix="sgxperf-optimize-")
    else:
        workdir = db_path[: -len(".db")] if db_path.endswith(".db") else db_path
        os.makedirs(workdir, exist_ok=True)
    report = run_rerun(
        str(params.get("workload", "sqlite")),
        seed=int(params.get("seed", 0)),
        requests=int(params.get("requests", 200)),
        workdir=workdir,
    )
    if db_path == ":memory:":
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {
        "speedup_x1000": int(report.speedup * 1000),
        "transition_cut_x1000": int(report.transition_reduction * 1000),
        "baseline_transitions": report.baseline.transitions,
        "optimized_transitions": report.optimized.transitions,
        "fused": len(report.plan.fused),
        "switchless": len(report.plan.switchless),
        "batched": len(report.plan.batched),
        "fixed_findings": len(report.fixed_findings),
        "remaining_findings": len(report.remaining_findings),
    }
    return report.optimized.digest, metrics, {}


def _run_selftest_task(params: dict, db_path: str) -> tuple[str, dict, dict]:
    """A tiny deterministic scheduler workload — the engine's own drill."""
    from repro.sim.kernel import Simulation

    sim = Simulation(seed=int(params.get("seed", 0)))
    log: list[tuple[int, int]] = []

    def worker(i: int) -> None:
        for _ in range(int(params.get("rounds", 5))):
            sim.compute(sim.rng.jitter_ns(f"selftest-{i}", 1_000))
            log.append((i, sim.now_ns))

    for i in range(int(params.get("threads", 3))):
        sim.spawn(worker, i)
    sim.run()
    return sha256_hex(repr(log)), {"events": len(log), "duration_ns": sim.now_ns}, {}


_RUNNERS = {
    "campaign": _run_campaign_task,
    "clusternode": _run_clusternode_task,
    "netcampaign": _run_netcampaign_task,
    "optimizer": _run_optimizer_task,
    "selftest": _run_selftest_task,
    "stressor": _run_stressor_task,
}

TASK_KINDS = tuple(sorted(_RUNNERS))


def check_kind(kind: str) -> None:
    """Raise :class:`UnknownTaskKind` unless a runner exists for ``kind``."""
    if kind not in _RUNNERS:
        raise UnknownTaskKind(
            f"unknown sweep task kind {kind!r}; known: {', '.join(TASK_KINDS)}"
        )


def _maybe_crash(task: SweepTask) -> None:
    """Honour the test-only ``crash`` control parameter.

    ``os._exit`` (not an exception) so the worker dies exactly the way a
    segfaulting or OOM-killed worker would — the pool sees a lost process,
    not a pickled traceback.
    """
    mode = task.param("crash")
    if not mode:
        return
    if mode == "always":
        os._exit(113)
    if mode == "once":
        crash_dir = task.param("crash_dir")
        if crash_dir is None:
            raise ValueError("crash='once' requires a crash_dir parameter")
        sentinel = os.path.join(crash_dir, f"{task.slug}.crashed")
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as f:
                f.write("crashed once\n")
            os._exit(113)


def run_task(task: SweepTask) -> TaskResult:
    """Execute one task in this process and return its compact result.

    Workload exceptions are captured into a ``status="failed"`` record —
    deterministic failures merge deterministically instead of killing the
    sweep.  Only a lost worker process is handled above, by the engine.
    """
    import time

    check_kind(task.kind)
    runner = _RUNNERS[task.kind]
    _maybe_crash(task)
    trace_dir: Optional[str] = task.param("trace_dir")
    db_path = os.path.join(trace_dir, f"{task.slug}.db") if trace_dir else ":memory:"
    begin = time.perf_counter()
    try:
        digest, metrics, faults = runner(task.payload(), db_path)
    except Exception as exc:  # noqa: BLE001 - reported in the merged manifest
        return TaskResult(
            index=task.index,
            key=task.key,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
            wall_seconds=time.perf_counter() - begin,
        )
    return TaskResult(
        index=task.index,
        key=task.key,
        status="ok",
        digest=digest,
        metrics=metrics,
        faults=faults,
        wall_seconds=time.perf_counter() - begin,
    )
