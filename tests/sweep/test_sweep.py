"""The shared-nothing parallel sweep engine.

The contract under test: for the same grid spec, the merged manifest (and
its digest) is byte-identical whatever the worker count, and whether the
workers were forked or spawned — including when a worker crashes and the
engine's bounded retry path runs.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import Future

import pytest

import repro
import repro.sweep.engine as engine
from repro.sweep.engine import WORKER_LOST, SweepError, resolve_jobs, run_sweep
from repro.sweep.grid import GridError, expand_grid, parse_seeds
from repro.sweep.tasks import SweepTask, UnknownTaskKind, run_task

# A 12-task pure-scheduler grid: costs milliseconds per task, so the
# determinism matrix (jobs 0/1/4, plus crash drills) stays fast.
SELFTEST_SPEC = {"kind": "selftest", "seeds": "0-5", "grid": {"threads": [2, 4]}}


class TestGrid:
    def test_parse_seeds_forms(self):
        assert parse_seeds(7) == [7]
        assert parse_seeds([3, 1]) == [3, 1]
        assert parse_seeds("4") == [4]
        assert parse_seeds("-3") == [-3]
        assert parse_seeds("2-5") == [2, 3, 4, 5]
        assert parse_seeds("7,21,1337") == [7, 21, 1337]

    def test_parse_seeds_empty_range_rejected(self):
        with pytest.raises(GridError):
            parse_seeds("5-2")

    def test_expand_is_deterministic_and_indexed(self):
        tasks = expand_grid(
            {
                "kind": "campaign",
                "seeds": "0-1",
                "params": {"workers": 2},
                "grid": {"loss_probability": [0.0, 0.05], "calls": [4]},
            }
        )
        assert [t.index for t in tasks] == [0, 1, 2, 3]
        # Axes iterate in sorted-name order, seed innermost.
        assert tasks[0].key == "campaign calls=4 loss_probability=0.0 seed=0 workers=2"
        assert tasks[1].key == "campaign calls=4 loss_probability=0.0 seed=1 workers=2"
        assert tasks[2].key == "campaign calls=4 loss_probability=0.05 seed=0 workers=2"
        assert expand_grid(
            {
                "kind": "campaign",
                "seeds": "0-1",
                "params": {"workers": 2},
                "grid": {"calls": [4], "loss_probability": [0.0, 0.05]},
            }
        ) == tasks  # axis declaration order is irrelevant

    def test_missing_kind_rejected(self):
        with pytest.raises(GridError):
            expand_grid({"seeds": "0-3"})

    def test_empty_axis_rejected(self):
        with pytest.raises(GridError):
            expand_grid({"kind": "selftest", "grid": {"threads": []}})

    def test_control_params_stay_out_of_key(self):
        task = SweepTask(
            index=0, kind="selftest", params=(("seed", 0), ("trace_dir", "/tmp/x"))
        )
        assert task.key == "selftest seed=0"


class TestEngine:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == 0
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        with pytest.raises(SweepError):
            resolve_jobs(-1)

    def test_spec_xor_tasks_required(self):
        with pytest.raises(SweepError):
            run_sweep()
        with pytest.raises(SweepError):
            run_sweep(spec=SELFTEST_SPEC, tasks=[])

    def test_bad_task_indexes_rejected(self):
        tasks = [SweepTask(index=5, kind="selftest", params=(("seed", 0),))]
        with pytest.raises(SweepError):
            run_sweep(tasks=tasks, jobs=0)

    def test_unknown_kind_raises_inline(self):
        with pytest.raises(UnknownTaskKind, match="unknown sweep task kind"):
            run_sweep(spec={"kind": "nope", "seeds": "0"}, jobs=0)

    def test_manifest_identical_across_worker_counts(self):
        reports = {jobs: run_sweep(spec=SELFTEST_SPEC, jobs=jobs) for jobs in (0, 1, 4)}
        assert all(len(r.results) == 12 and r.ok == 12 for r in reports.values())
        manifests = {r.manifest for r in reports.values()}
        assert len(manifests) == 1
        digests = {r.digest for r in reports.values()}
        assert len(digests) == 1
        # Per-task digests line up pairwise too, in index order.
        for a, b in zip(reports[0].results, reports[4].results):
            assert (a.index, a.key, a.digest) == (b.index, b.key, b.digest)

    def test_failed_task_recorded_not_raised(self):
        spec = {"kind": "selftest", "seeds": "0", "grid": {"threads": [2, "bogus"]}}
        report = run_sweep(spec=spec, jobs=0)
        assert report.ok == 1 and report.failed == 1
        bad = [r for r in report.results if r.status == "failed"][0]
        assert "ValueError" in bad.error
        assert bad.key in report.manifest

    def test_deterministic_report_excludes_timing(self):
        report = run_sweep(spec=SELFTEST_SPEC, jobs=0)
        rendered = report.render_report()
        assert "wall" not in rendered and "attempt" not in rendered
        assert report.manifest.count("\n") == 14  # header + count + 12 rows


class TestCrashRecovery:
    def test_crash_once_retried_with_identical_manifest(self, tmp_path):
        # Task 5 kills its worker on first run (taking in-flight neighbours'
        # futures down with it); its bounded isolated retry succeeds.
        tasks = expand_grid(SELFTEST_SPEC)
        sick = tasks[5]
        tasks[5] = SweepTask(
            index=sick.index,
            kind=sick.kind,
            params=tuple(
                sorted(sick.params + (("crash", "once"), ("crash_dir", str(tmp_path))))
            ),
        )
        clean = run_sweep(spec=SELFTEST_SPEC, jobs=1)
        report = run_sweep(tasks=tasks, jobs=4)
        assert report.ok == 12 and report.lost == 0
        # The merged manifest is still byte-identical to the crash-free run
        # (control params never enter keys; attempts never enter rows).
        assert report.manifest == clean.manifest
        assert report.digest == clean.digest
        assert report.results[5].attempts >= 2

    def test_crash_always_becomes_worker_lost_row(self):
        spec = {
            "kind": "selftest",
            "seeds": "0-2",
            "params": {"crash": "always"},
        }
        report = run_sweep(spec=spec, jobs=2)
        assert report.lost == 3 and report.ok == 0
        for result in report.results:
            assert result.status == WORKER_LOST
            assert result.attempts == 2
            assert "worker process lost" in result.error
        # Lost rows are part of the deterministic manifest.
        assert report.manifest.count(WORKER_LOST) == 3

    def test_worker_lost_rows_merge_deterministically(self):
        # One reliably-crashing task among healthy neighbours: the healthy
        # results must be byte-identical to an all-healthy run's rows.
        tasks = expand_grid(SELFTEST_SPEC)
        sick = SweepTask(
            index=len(tasks),
            kind="selftest",
            params=(("crash", "always"), ("seed", 99)),
        )
        report = run_sweep(tasks=tasks + [sick], jobs=4)
        assert report.ok == 12 and report.lost == 1
        clean = run_sweep(spec=SELFTEST_SPEC, jobs=1)
        assert report.manifest.splitlines()[2:-1] == clean.manifest.splitlines()[2:]


class TestTaskArtifacts:
    def test_trace_dir_writes_per_task_databases(self, tmp_path):
        spec = {
            "kind": "campaign",
            "seeds": "0-1",
            "params": {"workers": 2, "calls": 4, "trace_dir": str(tmp_path)},
        }
        report = run_sweep(spec=spec, jobs=2)
        assert report.ok == 2
        traces = sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".db"))
        assert len(traces) == 2
        for task in report.tasks:
            assert f"{task.slug}.db" in traces

    def test_run_task_inline_matches_worker_digest(self):
        task = expand_grid({"kind": "selftest", "seeds": "3"})[0]
        inline = run_task(task)
        pooled = run_sweep(tasks=[task], jobs=1).results[0]
        assert inline.digest == pooled.digest


# Runs in a fresh interpreter, which has not imported NumPy: the selftest
# grid and a 16-client 2-node SecureKeeper cluster at jobs 1 and 2, then
# inline, then the two crash drills.  It records the start method of
# every pool round and whether any child process outlived the sweeps.
# With "threaded" as its argument a second thread stays alive throughout.
START_PATHS = """
import json, os, sys, tempfile, threading

import repro.sweep.engine as engine
from repro.cluster.runner import run_cluster
from repro.cluster.spec import ClusterSpec
from repro.sweep.engine import run_sweep
from repro.sweep.grid import expand_grid
from repro.sweep.tasks import SweepTask

methods = []
get_context = engine.get_context
engine.get_context = lambda method: methods.append(method) or get_context(method)

stop = threading.Event()
if sys.argv[1] == "threaded":
    threading.Thread(target=stop.wait, daemon=True).start()

grid = {"kind": "selftest", "seeds": "0-5", "grid": {"threads": [2, 4]}}
spec = ClusterSpec(variant="securekeeper", nodes=2, clients=16)
digests = {}
for jobs in (1, 2, 0):
    digests[f"selftest jobs={jobs}"] = run_sweep(spec=grid, jobs=jobs).digest
    digests[f"cluster jobs={jobs}"] = run_cluster(spec, jobs=jobs).digest

tasks = expand_grid(grid)
sick = tasks[5]
with tempfile.TemporaryDirectory() as crash_dir:
    tasks[5] = SweepTask(
        index=sick.index,
        kind=sick.kind,
        params=tuple(sorted(sick.params + (("crash", "once"), ("crash_dir", crash_dir)))),
    )
    digests["crash once"] = run_sweep(tasks=tasks, jobs=2).digest
always = {"kind": "selftest", "seeds": "0-2", "params": {"crash": "always"}}
digests["crash always"] = run_sweep(spec=always, jobs=2).digest
stop.set()

try:
    os.waitpid(-1, os.WNOHANG)
    children_left = True
except ChildProcessError:
    children_left = False
print(json.dumps({
    "methods": sorted(set(methods)),
    "digests": digests,
    "children_left": children_left,
    "numpy": "numpy" in sys.modules,
}))
"""

# The crash-always drill's three sweep:worker-lost rows, as spawned
# workers have always produced them.
CRASH_ALWAYS_DIGEST = "e0109133fee0eacd7d8704e490d7583327a788382414d46c903e9d9b72ed1893"


def _start_paths(mode):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", "-c", START_PATHS, mode],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # Python 3.12+ warns when a process with a second thread forks.
    assert "use of fork()" not in proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestStartMethod:
    def test_pool_never_larger_than_the_task_list(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Runs each task as it is submitted; records the size asked for."""

            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
        report = run_sweep(spec={"kind": "selftest", "seeds": "0-2"}, jobs=8)
        assert sizes == [3]
        assert report.ok == 3
        # An empty task list opens no pool at all.
        assert run_sweep(tasks=[], jobs=8).results == []
        assert sizes == [3]

    def test_other_platforms_and_unreadable_proc_spawn(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert engine._start_method() == "spawn"
        monkeypatch.setattr(sys, "platform", "linux")

        def unreadable(path):
            raise PermissionError(path)

        monkeypatch.setattr(os, "listdir", unreadable)
        assert engine._start_method() == "spawn"

    @pytest.fixture(scope="class")
    def forked(self):
        return _start_paths("single")

    def test_single_threaded_caller_forks(self, forked):
        if not sys.platform.startswith("linux"):
            pytest.skip("workers fork only on Linux")
        assert not forked["numpy"]
        assert forked["methods"] == ["fork"]

    def test_forked_manifests_equal_inline_and_drills(self, forked):
        digests = forked["digests"]
        for kind in ("selftest", "cluster"):
            assert digests[f"{kind} jobs=1"] == digests[f"{kind} jobs=0"]
            assert digests[f"{kind} jobs=2"] == digests[f"{kind} jobs=0"]
        assert digests["crash once"] == digests["selftest jobs=0"]
        assert digests["crash always"] == CRASH_ALWAYS_DIGEST

    def test_no_worker_or_resource_tracker_outlives_a_forked_sweep(self, forked):
        if not sys.platform.startswith("linux"):
            pytest.skip("workers fork only on Linux")
        assert not forked["children_left"]

    def test_second_thread_spawns_with_identical_digests(self, forked):
        threaded = _start_paths("threaded")
        assert threaded["methods"] == ["spawn"]
        assert threaded["digests"] == forked["digests"]
