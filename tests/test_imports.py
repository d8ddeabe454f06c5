"""Import weight of the recording path and the command line.

Every ``run_cluster`` call runs each node shard in a fresh spawn worker,
so whatever a shard imports is paid again per node per run.  An untraced
shard records nothing it analyses: it must not load the analysis package
or NumPy, nor the trace stack (logger, store, ``sqlite3``).
``repro.perf`` re-exports resolve on first use, which keeps ``import
repro.perf.logger`` lean; these tests fail as soon as a top-level import
pulls either stack back onto that path.

``sgxperf`` imports the analysis package only inside the commands that
analyse, and nothing in the package loads networkx (NumPy is the one
runtime dependency): the last two tests hold the CLI to both.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

HEAVY = ("numpy", "networkx", "repro.perf.analysis")

# Runs in a fresh interpreter, with the HEAVY module names as arguments:
# one securekeeper node shard, as a spawn worker runs it, then the logger
# import a traced shard adds.
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
import repro.perf

unresolved = []
for name in repro.perf.__all__:
    try:
        getattr(repro.perf, name)
    except AttributeError:
        unresolved.append(name)
print(json.dumps({
    "status": result.status,
    "error": result.error,
    "loaded": loaded,
    "unresolved": unresolved,
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


# A bare ``import repro.perf.cli``, as every ``sgxperf`` command starts.
CLI_IMPORT = """
import json, sys

import repro.perf.cli

print(json.dumps([name for name in sys.argv[1:] if name in sys.modules]))
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
    assert report["unresolved"] == []


def test_cli_import_loads_no_analysis_stack():
    assert _probe(CLI_IMPORT, *HEAVY) == []


def test_record_analyze_dot_never_load_networkx(tmp_path):
    report = _probe(RECORD_ANALYZE_DOT, str(tmp_path), *HEAVY)
    assert report["codes"] == [0, 0]
    assert report["digraph"]
    # The analysis stack did run; networkx is no part of it.
    assert report["loaded"] == ["numpy", "repro.perf.analysis"]
