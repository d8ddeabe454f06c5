"""The shared-nothing sweep executor and deterministic merger.

Execution model:

* every task runs in a **spawn-context** worker process — no inherited
  simulation state, no inherited SQLite connections (see the
  ``TraceDatabase`` pid guard), nothing shared but the task tuple;
* the parent merges results in **task-index order**, never completion
  order, so the merged manifest — and its digest — is byte-identical for
  ``jobs=1`` and ``jobs=8`` (the CI gate compares exactly this);
* a lost worker (crash, OOM-kill) breaks the pool for every in-flight
  future; the engine finishes what completed, then retries each lost task
  **in its own single-worker pool** so a reliably-crashing task cannot
  take innocent neighbours down with it.  After ``retries`` bounded
  retries a task is recorded as a ``sweep:worker-lost`` failure row
  instead of aborting the sweep.

Execution facts that legitimately vary between runs (attempt counts,
wall-clock) live on the report object and never enter the manifest.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Optional, Union

from repro.digest import canonical_json, sha256_hex
from repro.sweep.grid import expand_grid
from repro.sweep.tasks import SweepTask, TaskResult, run_task

WORKER_LOST = "sweep:worker-lost"

MANIFEST_HEADER = "# sgxperf-sweep-manifest v1"


class SweepError(RuntimeError):
    """The sweep engine could not run the grid at all."""


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit value, else ``SGXPERF_JOBS``, else cpu_count.

    ``0`` selects inline execution (tasks run serially in this process —
    no isolation, but no spawn cost; crash drills must not use it).
    """
    if jobs is None:
        env = os.environ.get("SGXPERF_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise SweepError(f"SGXPERF_JOBS must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 0:
        raise SweepError(f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclass
class SweepReport:
    """Everything one sweep produced, merged in task order."""

    tasks: list[SweepTask]
    results: list[TaskResult]  # task-index order, one per task
    jobs: int
    wall_seconds: float = 0.0

    @property
    def ok(self) -> int:
        """Tasks that completed and produced a digest."""
        return sum(1 for r in self.results if r.status == "ok")

    @property
    def failed(self) -> int:
        """Tasks whose workload raised (deterministic failures)."""
        return sum(1 for r in self.results if r.status == "failed")

    @property
    def lost(self) -> int:
        """Tasks recorded as ``sweep:worker-lost`` after bounded retries."""
        return sum(1 for r in self.results if r.status == WORKER_LOST)

    @property
    def manifest(self) -> str:
        """The deterministic merged manifest: byte-identical per grid spec.

        One row per task in index order — key, status, trace digest and the
        sorted-JSON metrics/fault-count record.  Worker count, attempt
        counts and wall-clock never appear here.
        """
        lines = [MANIFEST_HEADER, f"# tasks={len(self.results)}"]
        for result in self.results:
            record = canonical_json(
                {"metrics": result.metrics, "faults": result.faults, "error": result.error}
            )
            lines.append(
                "\t".join([result.key, result.status, result.digest or "-", record])
            )
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        """SHA-256 over the merged manifest."""
        return sha256_hex(self.manifest)

    def render_report(self) -> str:
        """Deterministic human-readable summary (no timing, no attempts)."""
        lines = [
            f"sweep: {len(self.results)} task(s) — "
            f"{self.ok} ok, {self.failed} failed, {self.lost} worker-lost"
        ]
        for result in self.results:
            line = f"  {result.key}: {result.status}"
            if result.status == "ok":
                line += f" digest={result.digest[:12]}"
                shown = {
                    k: result.metrics[k]
                    for k in sorted(result.metrics)
                    if k in ("completed", "failed", "success_rate", "duration_ns")
                }
                if shown:
                    line += " " + " ".join(f"{k}={v}" for k, v in shown.items())
            elif result.error:
                line += f" ({result.error})"
            lines.append(line)
        lines.append(f"manifest digest: {self.digest}")
        return "\n".join(lines)


def _pool_round(
    tasks: list[SweepTask], jobs: int
) -> tuple[dict[int, TaskResult], list[SweepTask]]:
    """Run one pool round; returns (completed results, tasks lost to crashes)."""
    completed: dict[int, TaskResult] = {}
    lost: list[SweepTask] = []
    with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("spawn")) as pool:
        futures = []
        for task in tasks:
            try:
                futures.append((task, pool.submit(run_task, task)))
            except BrokenProcessPool:
                lost.append(task)
        for task, future in futures:
            try:
                completed[task.index] = future.result()
            except BrokenProcessPool:
                lost.append(task)
    lost.sort(key=lambda t: t.index)
    return completed, lost


def run_sweep(
    spec: Optional[Union[dict, list]] = None,
    tasks: Optional[list[SweepTask]] = None,
    jobs: Optional[int] = None,
    retries: int = 1,
) -> SweepReport:
    """Fan a grid across the worker pool and merge in task order.

    Pass either a declarative ``spec`` mapping (see
    :func:`repro.sweep.grid.expand_grid`) or a pre-expanded ``tasks`` list.
    ``retries`` bounds how many isolated re-runs a crashed-worker task gets
    before it is recorded as a ``sweep:worker-lost`` row.
    """
    if (spec is None) == (tasks is None):
        raise SweepError("pass exactly one of spec= or tasks=")
    if tasks is None:
        tasks = expand_grid(spec) if isinstance(spec, dict) else list(spec)
    if sorted(t.index for t in tasks) != list(range(len(tasks))):
        raise SweepError("task indexes must be exactly 0..n-1 (the merge order)")
    jobs = resolve_jobs(jobs)
    begin = time.perf_counter()
    ordered = sorted(tasks, key=lambda t: t.index)

    if jobs == 0:
        results = {task.index: run_task(task) for task in ordered}
        return SweepReport(
            tasks=ordered,
            results=[results[i] for i in range(len(ordered))],
            jobs=jobs,
            wall_seconds=time.perf_counter() - begin,
        )

    results, lost = _pool_round(ordered, jobs)
    # Bounded, isolated retries: one fresh single-worker pool per attempt,
    # so a reliably-crashing task cannot break innocent neighbours again.
    for task in lost:
        attempts = 1
        while attempts <= retries:
            attempts += 1
            retried, lost_again = _pool_round([task], 1)
            if not lost_again:
                result = retried[task.index]
                result.attempts = attempts
                results[task.index] = result
                break
        else:
            results[task.index] = TaskResult(
                index=task.index,
                key=task.key,
                status=WORKER_LOST,
                error=f"worker process lost {attempts} time(s)",
                attempts=attempts,
            )
    return SweepReport(
        tasks=ordered,
        results=[results[i] for i in range(len(ordered))],
        jobs=jobs,
        wall_seconds=time.perf_counter() - begin,
    )
