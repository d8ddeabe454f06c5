"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (it finds ``src/`` next to its own
directory).  The seed picks one of the pinned program inputs of the
workload (``pins.json``); the program only ever sees those inputs.

``--trace 0`` sets the workload up three times, each in a fresh process,
measures it for ``--seconds`` in the last one and prints the end-to-end
metrics.  ``--trace 1`` sets up once, spends part of ``--seconds``
untraced and the rest with every layer boundary wrapped in spans, and
prints the per-layer metrics (see ``layers.json``); the span table is
kept under ``.perfbench/spans/``.

Every run checks each iteration's output against the pinned digest.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when the outputs were correct, 1 when they were not, and 2 when the
repository is not there to be measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")

SETUPS = 3  # set-ups per untraced run; setup_s is their median
BUDGET_S = 170.0  # the whole run, set-ups included

# Program inputs per workload and scale.  "tiny" is for the smoke tests.
SIZES = {
    "full": {
        "record-glamdring": {"signs": 5},
        "analyze-glamdring": {"signs": 10},
        "cluster-securekeeper": {"clients": 250},
    },
    "tiny": {
        "record-glamdring": {"signs": 1},
        "analyze-glamdring": {"signs": 1},
        "cluster-securekeeper": {"clients": 16},
    },
}

# The workload's own name and unit for throughput_per_s.
THROUGHPUT = {
    "record-glamdring": ("record_events_per_s", "events/s"),
    "analyze-glamdring": ("analyze_rows_per_s", "rows/s"),
    "cluster-securekeeper": ("cluster_requests_per_s", "req/s"),
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def program_inputs(workload: str, input_seed: int, scale: str = "full") -> dict:
    """The inputs the program receives for one pinned input seed."""
    size = SIZES[scale][workload]
    if workload == "cluster-securekeeper":
        spec = {"variant": "securekeeper", "nodes": 2, "clients": size["clients"]}
        spec["seed"] = input_seed
        return {"spec": spec, "jobs": min(2, os.cpu_count() or 1)}
    return {"sim_seed": input_seed, "signs": size["signs"]}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def run_worker(args: list, deadline: float) -> dict:
    """Run one worker process to completion; its last stdout line is JSON."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        start_new_session=True,  # one process group: pool workers die with it
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker exceeded the run's time budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def finite(value):
    """JSON-safe number: NaN becomes null."""
    return None if isinstance(value, float) and math.isnan(value) else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sgx-perf reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--pins", default=PINS, help="pinned digests (JSON)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    with open(args.pins) as f:
        entries = json.load(f)[args.scale][args.workload]
    entry = entries[args.seed % len(entries)]
    inputs = program_inputs(args.workload, entry["input_seed"], args.scale)
    inputs.update(digest=entry["digest"], items=entry["items"])

    state = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(state, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    spans = os.path.join(state, "spans", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(workdir)
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    base = ["--workload", args.workload, "--inputs", json.dumps(inputs), "--workdir", workdir]
    setups, setups_unscaled = [], []
    try:
        n_setups = 1 if args.trace else SETUPS
        for k in range(n_setups):
            extra = []
            if k == n_setups - 1:
                extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
                extra += ["--spans", spans] if args.trace else []
            result = run_worker(base + extra, deadline)
            setups.append(result["setup_s"])
            setups_unscaled.append(result["setup_unscaled_s"])
    except RuntimeError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = result["metrics"]
        metrics = {name: (values[name], unit_of(name)) for name in values}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{args.workload} seed={args.seed} input_seed={entry['input_seed']} "
        f"trace={args.trace} iterations={result['iterations']} setups={len(setups)}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value!r:>24} {unit}")
    if not args.trace:
        name, unit = THROUGHPUT[args.workload]
        print(f"  {name:<24} {values['throughput_per_s']!r:>24} {unit}")
        for name in ("wall_unscaled_s", "wall_median_unscaled_s"):
            print(f"  {name:<24} {values[name]!r:>24} s")
        print(f"  {'setup_unscaled_s':<24} {statistics.median(setups_unscaled)!r:>24} s")
    print(f"  {'failed_frac':<24} {failed / max(1, attempted)!r:>24} ratio")
    print(f"  {'digest':<24} {'ok' if result['correct'] else 'MISMATCH':>24}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": finite(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
