"""The shared-nothing sweep executor and deterministic merger.

Execution model:

* every task runs in a worker process and builds its own simulation
  (device, logger, trace store); nothing passes between the caller and a
  worker but the task tuple and its result;
* a caller on Linux that runs exactly one OS thread **forks** the
  workers: they inherit its imported modules and warm caches
  copy-on-write, so a worker starts its task within milliseconds.  Any
  other caller **spawns** them, each a fresh interpreter that imports
  what its task needs: a fork from a process with a second thread (such
  as the thread pool NumPy's OpenBLAS starts on import) can deadlock the
  child on a lock that thread held, and Python 3.12+ warns about it.  A
  forked worker never uses an inherited SQLite connection (see the
  ``TraceDatabase`` pid guard) and never finalises the caller's garbage
  (the fork runs under ``gc.freeze``);
* the parent merges results in **task-index order**, never completion
  order, so the merged manifest — and its digest — is byte-identical for
  ``jobs=1`` and ``jobs=8``, forked or spawned (the CI gate compares
  exactly this);
* a lost worker (crash, OOM-kill) breaks the pool for every in-flight
  future; the engine finishes what completed, then retries each lost task
  once **in its own single-worker pool** so a reliably-crashing task
  cannot take innocent neighbours down with it.  A task lost again is
  recorded as a ``sweep:worker-lost`` failure row instead of aborting the
  sweep.

Execution facts that legitimately vary between runs (attempt counts,
wall-clock) live on the report object; neither they nor the start
method enter the manifest.
"""

from __future__ import annotations

import gc
import os
import sys
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

# How long a pool start waits for finished threads to leave the kernel
# (measured: under 1 ms after an inline simulation or a pool round on
# 2 vCPUs), and how often it looks.  A caller with a live second thread
# pays the whole wait once per pool round, then spawns.
_THREAD_EXIT_WAIT_S = 0.01
_THREAD_EXIT_POLL_S = 0.0005


class SweepError(RuntimeError):
    """The sweep engine could not run the grid at all."""


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit value, else cpu_count.

    ``0`` selects inline execution (tasks run serially in this process —
    no isolation, but no worker start-up; crash drills must not use it).
    """
    if jobs is None:
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
        """Tasks recorded as ``sweep:worker-lost`` after their retry."""
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


def _start_method() -> str:
    """``fork`` if this process runs exactly one OS thread on Linux, else ``spawn``.

    The threads are counted in ``/proc/self/task`` (spawn if it cannot be
    read).  A Python thread that has just finished — an inline
    simulation's, or the previous pool's manager thread — stays in that
    count until it has left the kernel a moment later, so a higher count
    is read again for up to ``_THREAD_EXIT_WAIT_S`` before the caller
    counts as threaded.
    """
    if not sys.platform.startswith("linux"):
        return "spawn"
    deadline = time.monotonic() + _THREAD_EXIT_WAIT_S
    while True:
        try:
            threads = len(os.listdir("/proc/self/task"))
        except OSError:
            return "spawn"
        if threads == 1:
            return "fork"
        if time.monotonic() >= deadline:
            return "spawn"
        time.sleep(_THREAD_EXIT_POLL_S)


def _pool_round(
    tasks: list[SweepTask], jobs: int
) -> tuple[dict[int, TaskResult], list[SweepTask]]:
    """Run one pool round; returns (completed results, tasks lost to crashes)."""
    completed: dict[int, TaskResult] = {}
    lost: list[SweepTask] = []
    method = _start_method()
    # A forking pool starts all its workers at the first submit.
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)), mp_context=get_context(method)
    ) as pool:
        futures = []
        if method == "fork":
            # Out of the workers' collector's reach: no worker finalises an
            # object the caller left for its own collector (an unreferenced
            # sqlite3 connection would close there, and could checkpoint
            # into the caller's trace).
            gc.freeze()
        try:
            for task in tasks:
                try:
                    futures.append((task, pool.submit(run_task, task)))
                except BrokenProcessPool:
                    lost.append(task)
        finally:
            if method == "fork":
                gc.unfreeze()
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
) -> SweepReport:
    """Fan a grid across the worker pool and merge in task order.

    Pass either a declarative ``spec`` mapping (see
    :func:`repro.sweep.grid.expand_grid`) or a pre-expanded ``tasks`` list.
    A crashed-worker task is re-run once, isolated, before it is recorded
    as a ``sweep:worker-lost`` row.
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

    if jobs == 0 or not ordered:
        results = {task.index: run_task(task) for task in ordered}
        return SweepReport(
            tasks=ordered,
            results=[results[i] for i in range(len(ordered))],
            jobs=jobs,
            wall_seconds=time.perf_counter() - begin,
        )

    results, lost = _pool_round(ordered, jobs)
    # One isolated retry in a fresh single-worker pool, so a
    # reliably-crashing task cannot break innocent neighbours again.
    for task in lost:
        retried, lost_again = _pool_round([task], 1)
        if lost_again:
            results[task.index] = TaskResult(
                index=task.index,
                key=task.key,
                status=WORKER_LOST,
                error="worker process lost 2 time(s)",
                attempts=2,
            )
        else:
            results[task.index] = retried[task.index]
            results[task.index].attempts = 2
    return SweepReport(
        tasks=ordered,
        results=[results[i] for i in range(len(ordered))],
        jobs=jobs,
        wall_seconds=time.perf_counter() - begin,
    )
