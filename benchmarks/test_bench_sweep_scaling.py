"""Sweep engine: determinism across worker counts, and parallel scaling.

The sweep engine's contract is *shared-nothing determinism*: the merged
manifest is byte-identical for ``--jobs 1`` and ``--jobs 4`` (the first
test, which runs everywhere).  The second test measures the point of the
exercise — near-linear wall-clock scaling on a 16-seed fault-campaign
grid — and therefore skips on machines with fewer than 4 CPUs (the
GitHub CI runners have 4).
"""

from __future__ import annotations

import os

import pytest

from conftest import run_once

from repro.sweep.engine import run_sweep

SEEDS = "0-15"  # 16 single-seed campaign tasks
MIN_SPEEDUP = 2.0


def _grid(workers: int, calls: int) -> dict:
    return {
        "kind": "campaign",
        "seeds": SEEDS,
        "params": {"workers": workers, "calls": calls},
    }


def test_bench_sweep_digest_equality(benchmark):
    """jobs=1 and jobs=4 must merge to byte-identical manifests."""
    spec = _grid(workers=2, calls=8)
    serial = run_sweep(spec=spec, jobs=1)
    fanned = run_once(benchmark, run_sweep, spec=spec, jobs=4)
    assert serial.ok == fanned.ok == 16
    assert serial.manifest == fanned.manifest
    assert serial.digest == fanned.digest


def test_bench_sweep_parallel_speedup(benchmark):
    """4 workers must finish the 16-seed grid >= 2x faster than 1."""
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"needs >= 4 CPUs for a meaningful scaling run (have {cores})")
    spec = _grid(workers=3, calls=40)
    serial = run_sweep(spec=spec, jobs=1)
    fanned = run_once(benchmark, run_sweep, spec=spec, jobs=4)
    assert serial.digest == fanned.digest
    speedup = serial.wall_seconds / fanned.wall_seconds
    print(
        f"\nsweep scaling (16 campaign tasks): jobs=1 {serial.wall_seconds:.2f}s, "
        f"jobs=4 {fanned.wall_seconds:.2f}s, speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"4-worker sweep only {speedup:.2f}x faster than serial (need >= {MIN_SPEEDUP}x)"
    )
