"""Regenerate ``pins.json``: the pinned output digest of every workload input.

    PYTHONPATH=src python3 perfbench/pin.py [--scale full|tiny] [--count 16]

For each workload this runs the program on input seeds 0, 1, 2, ... and
keeps the first ``--count`` seeds on which no operation fails, with the
digest and work-item count of their output.  Run it only when a change
is meant to alter the outputs; the pins are the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import PINS, SIZES, program_inputs  # noqa: E402
from workloads import SRC, WORKLOADS  # noqa: E402

sys.path.insert(0, SRC)


def pin(workload: str, input_seed: int, scale: str) -> dict:
    """Digest and item count of one input, or ``None`` if any item failed."""
    state = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(state, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=state)
    try:
        runner = WORKLOADS[workload](program_inputs(workload, input_seed, scale), workdir)
        runner.setup()
        outcome = runner.iteration()
        runner.check(outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.failed:
        return None
    return {"input_seed": input_seed, "digest": outcome.digest, "items": outcome.items}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--count", type=int, default=16)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)

    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as f:
            pins = json.load(f)
    table = pins.setdefault(args.scale, {})
    for workload in args.workload or sorted(WORKLOADS):
        entries = []
        input_seed = 0
        while len(entries) < args.count:
            entry = pin(workload, input_seed, args.scale)
            print(f"{workload} input_seed={input_seed}: {entry}", file=sys.stderr)
            if entry is not None:
                entries.append(entry)
            input_seed += 1
        table[workload] = entries
        with open(PINS, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
