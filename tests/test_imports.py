"""Import weight of the recording path and the command line.

A node shard imports what it needs in its worker: a spawned worker (a
caller with a second thread, such as any process that loaded NumPy)
starts from a fresh interpreter, and a forked one inherits only what its
caller had loaded, which for ``sgxperf cluster`` is not the shard stack.
Either way that import is paid again per node per run.  An untraced
shard records nothing it analyses: it must not load the analysis package
or NumPy, nor the trace stack (logger, store, ``sqlite3``).  No package
``__init__`` imports anything (one test holds them to that), so importing
one module loads only what that module imports; these tests fail as soon
as a top-level import pulls either stack back onto that path.

The other way round, the analysis package reads traces and loads none of
the simulator that recorded them (SDK, SGX model, ``repro.sim``): it names
those types in annotations only.

``sgxperf`` imports the analysis package only inside the commands that
analyse, and nothing in the package loads networkx (NumPy is the one
runtime dependency).  The constants and exception types the command line
reads to parse its arguments load neither serving stack, nor the SDK
runtime, the SGX model, the simulator or the event logger.  The
``test_cli_*`` and ``test_record_analyze_dot_*`` tests hold the CLI to
all of this.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

import repro

HEAVY = ("numpy", "networkx", "repro.perf.analysis")

# The cluster runner and the fault injectors, none of which the command
# line needs before a subcommand runs.
SERVING_STACK = (
    "repro.cluster.runner",
    "repro.cluster.router",
    "repro.cluster.brownout",
    "repro.cluster.detector",
    "repro.cluster.slo",
    "repro.cluster.loadgen",
    "repro.faults.injector",
    "repro.faults.pressure",
    "repro.faults.watchdog",
)

# Runs in a fresh interpreter, with the HEAVY module names as arguments:
# one securekeeper node shard, as a spawned worker runs it, then the
# logger import a traced shard adds.
PROBE = """
import json, sys

from repro.cluster.spec import ClusterSpec
from repro.sweep.grid import expand_grid
from repro.sweep.tasks import run_task

spec = ClusterSpec(variant="securekeeper", nodes=2, clients=8)
task = expand_grid({
    "kind": "clusternode",
    "seeds": [spec.seed],
    "params": spec.to_params(),
    "grid": {"node": list(range(spec.nodes))},
})[0]
result = run_task(task)
import repro.perf.logger

loaded = [name for name in sys.argv[1:] if name in sys.modules]
print(json.dumps({
    "status": result.status,
    "error": result.error,
    "loaded": loaded,
}))
"""


TRACE_STACK = ("repro.perf.logger", "repro.perf.database", "sqlite3")

# One untraced node shard of the given variant, in a fresh interpreter.
UNTRACED_SHARD = """
import json, sys

from repro.cluster.node import run_clusternode
from repro.cluster.spec import ClusterSpec

spec = ClusterSpec(variant=sys.argv[1], nodes=2, clients=8)
run_clusternode(dict(spec.to_params(), node=0, seed=spec.seed))
print(json.dumps([name for name in sys.argv[2:] if name in sys.modules]))
"""


SIMULATOR = ("repro.sdk", "repro.sgx", "repro.sim")

# What recording needs and parsing ``sgxperf``'s arguments does not.
RECORDING_STACK = ("repro.sdk.urts", "repro.sgx", "repro.sim", "repro.perf.logger")

# A bare import of the module named in argv[1] (``sgxperf`` starts with
# ``import repro.perf.cli``); prints the loaded modules that are, or sit
# under, one of the names in the rest of argv.
BARE_IMPORT = """
import importlib, json, sys

importlib.import_module(sys.argv[1])

print(json.dumps(sorted(
    name for name in sys.modules
    if any(name == p or name.startswith(p + ".") for p in sys.argv[2:])
)))
"""

# Record glamdring (the Glamdring partitioner builds its interface), then
# analyse the trace and emit its DOT call graph through ``sgxperf``.
RECORD_ANALYZE_DOT = """
import contextlib, io, json, os, sys

from repro.perf.cli import main
from repro.workloads.recorders import record_glamdring

path = os.path.join(sys.argv[1], "glamdring.db")
record_glamdring(path, seed=0, signs=1)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [main(["analyze", path]), main(["dot", path])]
print(json.dumps({
    "codes": codes,
    "digraph": "digraph enclave_calls {" in out.getvalue(),
    "loaded": [name for name in sys.argv[2:] if name in sys.modules],
}))
"""


def _probe(script, *argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("variant", ["securekeeper", "talos"])
def test_untraced_cluster_shard_loads_no_trace_stack(variant):
    assert _probe(UNTRACED_SHARD, variant, *TRACE_STACK) == []


def test_untraced_cluster_shard_loads_no_analysis_stack():
    report = _probe(PROBE, *HEAVY)
    assert (report["status"], report["error"]) == ("ok", "")
    assert report["loaded"] == []


def test_analysis_import_loads_no_simulator():
    assert _probe(BARE_IMPORT, "repro.perf.analysis", *SIMULATOR) == []


def test_cli_import_loads_no_analysis_stack():
    assert _probe(BARE_IMPORT, "repro.perf.cli", *HEAVY) == []


def test_cli_import_loads_no_cluster_or_fault_stack():
    assert _probe(BARE_IMPORT, "repro.perf.cli", *SERVING_STACK) == []


def test_cli_import_loads_no_recording_stack():
    assert _probe(BARE_IMPORT, "repro.perf.cli", *RECORDING_STACK) == []


def test_package_inits_hold_only_their_docstrings():
    """One import path per name, the defining module's: no package
    ``__init__`` imports or re-exports anything, so importing a module
    never runs a sibling's imports."""
    root = os.path.dirname(os.path.abspath(repro.__file__))
    extra = []
    for init in sorted(glob.glob(os.path.join(root, "**", "__init__.py"), recursive=True)):
        with open(init) as f:
            body = ast.parse(f.read()).body
        extra += [
            (os.path.relpath(init, root), ast.unparse(node))
            for node in body
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
        ]
    assert extra == [
        ("__init__.py", f"__version__ = {repro.__version__!r}"),
        # The benchmark harness imports Analyzer from the package path.
        ("perf/analysis/__init__.py", "from repro.perf.analysis.report import Analyzer"),
    ]


def test_record_analyze_dot_never_load_networkx(tmp_path):
    report = _probe(RECORD_ANALYZE_DOT, str(tmp_path), *HEAVY)
    assert report["codes"] == [0, 0]
    assert report["digraph"]
    # The analysis stack did run; networkx is no part of it.
    assert report["loaded"] == ["numpy", "repro.perf.analysis"]
