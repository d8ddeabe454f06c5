"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q

Each test runs ``run.py`` the way the benchmark is run, at ``--scale
tiny`` so that a whole run takes seconds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
with open(os.path.join(HERE, "layers.json")) as _f:
    LAYERS = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace, cwd=ROOT, pins=None):
    """Run one tiny benchmark run; returns (process, parsed last line or None)."""
    cmd = [
        sys.executable,
        os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload,
        "--seed", "0",
        "--seconds", "1",
        "--trace", str(trace),
        "--scale", "tiny",
    ]
    if pins:
        cmd += ["--pins", pins]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def metric_values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_layer_table_covers_every_per_layer_metric():
    from tracer import BUCKETS

    assert {m["name"] for m in BENCH["per_layer"]} == set(LAYERS["metrics"])
    assert LAYERS["partition"] == list(BUCKETS)
    assert set(LAYERS["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc, result = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert value > 0 and math.isfinite(value), name
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in proc.stdout.splitlines()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_partitions_its_wall_time(workload):
    proc, result = run_bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = metric_values(result)
    wall = values["trace.wall_s"]
    assert wall > 0
    assert sum(values[name] for name in LAYERS["partition"]) == pytest.approx(wall, rel=1e-9)
    assert values["unattributed_s"] < 0.05 * wall
    assert math.isfinite(values["trace.overhead_frac"])

    # The bypass predictions recorded in layers.json.
    if workload == "cluster-securekeeper":
        assert values["logger.events"] == 0
        assert values["store.rows_written"] == 0
        assert values["analysis.rows"] == 0
        assert values["crypto.bytes"] > 0 and values["sim.turn_wait_s"] > 0
    if workload == "record-glamdring":
        assert values["sim.turn_wait_s"] < 0.01 * wall
        assert values["sim.futex_waits"] == 0
        # one SHA-256 of each ~300-byte certificate, nothing else
        assert values["crypto.bytes"] < 1024
        assert values["crypto.self_s"] < 0.01 * wall
        assert values["logger.events"] > 0 and values["store.rows_written"] > 0
    if workload == "analyze-glamdring":
        assert values["store.rows_written"] == 0
        assert values["store.rows_read"] >= values["analysis.rows"] > 0
        assert values["sdk.ecalls"] == 0 and values["logger.events"] == 0


def test_wrong_pinned_digest_is_reported_as_failure(tmp_path):
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    for entry in pins["tiny"]["record-glamdring"]:
        entry["digest"] = "0" * 64
    wrong = tmp_path / "pins.json"
    wrong.write_text(json.dumps(pins))
    proc, result = run_bench("record-glamdring", trace=0, pins=str(wrong))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "MISMATCH" in proc.stdout


def test_without_the_repository_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("record-glamdring", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert result is None
