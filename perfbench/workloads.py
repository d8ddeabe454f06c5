"""The three benchmark workloads, driven through ``repro``'s public entry points.

Each workload receives only generated program inputs (simulation seed,
sign count, trace path, cluster spec) -- never the benchmark seed -- and
exposes:

* ``setup()``: everything before the measured phase (imports, enclave
  build by a small warm-up run, and for ``analyze-glamdring`` the input
  trace, recorded in a separate process);
* ``iteration()``: one unit of measured work, returning the wall time
  of the work alone;
* ``check(outcome)``: the output digest, the work-item count and any
  failed items, computed after the timed region.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@dataclass
class Outcome:
    """One measured iteration."""

    wall_s: float
    items: int = 0  # work items: trace events, call rows or client requests
    failed: int = 0  # items that failed (digest mismatch, exception, shed)
    digest: str = ""
    extra: dict = field(default_factory=dict)
    result: object = None  # the program's own result, dropped after check()
    scale: float = 1.0  # reference speed / machine speed while it ran


def remove_trace(path: str) -> None:
    """Delete a trace database and its SQLite side files."""
    for suffix in ("", "-wal", "-shm", "-journal"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def trace_digest_and_rows(path: str) -> tuple[str, int]:
    """Pinned trace digest and total persisted rows of a finalized trace."""
    from repro.faults.campaign import trace_digest
    from repro.perf.database import TraceDatabase

    with TraceDatabase(path, readonly=True) as db:
        return trace_digest(db), sum(db.table_counts().values())


class RecordGlamdring:
    """``sgxperf record glamdring`` into a fresh trace file, inline."""

    name = "record-glamdring"
    pool_children = False

    def __init__(self, inputs: dict, workdir: str) -> None:
        self.sim_seed = int(inputs["sim_seed"])
        self.signs = int(inputs["signs"])
        self.workdir = workdir
        self._n = 0

    def _path(self) -> str:
        self._n += 1
        return os.path.join(self.workdir, f"record-{self._n}.db")

    def setup(self) -> None:
        from repro.workloads.recorders import record_glamdring

        path = self._path()
        record_glamdring(path, self.sim_seed, signs=1)
        remove_trace(path)

    def iteration(self) -> Outcome:
        from repro.workloads.recorders import record_glamdring

        path = self._path()
        begin = time.perf_counter()
        record_glamdring(path, self.sim_seed, signs=self.signs)
        return Outcome(wall_s=time.perf_counter() - begin, result=path)

    def check(self, outcome: Outcome) -> None:
        outcome.digest, outcome.items = trace_digest_and_rows(outcome.result)
        remove_trace(outcome.result)


class AnalyzeGlamdring:
    """``sgxperf analyze TRACE`` with default flags, over one recorded trace."""

    name = "analyze-glamdring"
    pool_children = False  # the only child records the input trace

    def __init__(self, inputs: dict, workdir: str) -> None:
        self.sim_seed = int(inputs["sim_seed"])
        self.signs = int(inputs["signs"])
        self.path = os.path.join(workdir, "analyze-input.db")
        self.rows = 20  # the CLI's default --rows

    def setup(self) -> None:
        # Recorded in its own process: ru_maxrss is a per-process
        # high-water mark, and recording must not mask analysis memory.
        remove_trace(self.path)
        subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from repro.workloads.recorders import record_glamdring; "
                "record_glamdring(sys.argv[1], int(sys.argv[2]), signs=int(sys.argv[3]))",
                self.path,
                str(self.sim_seed),
                str(self.signs),
            ],
            check=True,
            stdout=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        from repro.perf.analysis import Analyzer  # noqa: F401 - import is set-up
        from repro.perf.database import TraceDatabase

        with TraceDatabase(self.path, readonly=True) as db:
            db.table_counts()

    def iteration(self) -> Outcome:
        from repro.perf.analysis import Analyzer
        from repro.perf.database import TraceDatabase

        begin = time.perf_counter()
        # readonly: a missing input fails loudly instead of being created empty
        with TraceDatabase(self.path, readonly=True) as db:
            rows = db.table_counts()["calls"]
            text = Analyzer(db).run().render_text(max_stats_rows=self.rows)
        return Outcome(wall_s=time.perf_counter() - begin, items=rows, result=text)

    def check(self, outcome: Outcome) -> None:
        outcome.digest = hashlib.sha256(outcome.result.encode()).hexdigest()


class ClusterSecureKeeper:
    """``sgxperf cluster`` for a 2-node SecureKeeper cluster, default chaos."""

    name = "cluster-securekeeper"
    pool_children = True  # spawn-pool shard workers count towards peak memory

    def __init__(self, inputs: dict, workdir: str) -> None:
        from repro.cluster.spec import ClusterSpec

        self.spec = ClusterSpec.from_dict(inputs["spec"])
        self.jobs = int(inputs["jobs"])

    def setup(self) -> None:
        from repro.cluster.runner import run_cluster
        from repro.cluster.spec import with_overrides

        run_cluster(with_overrides(self.spec, clients=8), jobs=0)

    def iteration(self) -> Outcome:
        from repro.cluster.runner import run_cluster

        begin = time.perf_counter()
        report = run_cluster(self.spec, jobs=self.jobs)
        return Outcome(wall_s=time.perf_counter() - begin, result=report)

    def check(self, outcome: Outcome) -> None:
        report = outcome.result
        slo = report.cluster_slo
        outcome.digest = report.digest
        outcome.items = slo.attempted
        outcome.failed = slo.failed + slo.shed + report.sweep.failed + report.sweep.lost
        sweep = report.sweep
        outcome.extra = {
            "requests": slo.attempted,
            "succeeded": slo.succeeded,
            "retries": slo.retries,
            "shed": slo.shed,
            "failovers": report.routing.failovers,
            "tasks": len(sweep.results),
            "attempts": sum(r.attempts for r in sweep.results),
            # pool start, pickling and merge: the sweep's wall time minus
            # its slowest shard
            "dispatch_s": sweep.wall_seconds - max(r.wall_seconds for r in sweep.results),
        }


WORKLOADS = {w.name: w for w in (RecordGlamdring, AnalyzeGlamdring, ClusterSecureKeeper)}
