"""§2.3.1 — enclave transition cost per mitigation level.

Paper: one EENTER+EEXIT round-trip costs ≈2,130 ns unpatched, ≈3,850 ns
with the Spectre fixes (≈1.74×) and ≈4,890 ns with the L1TF microcode
(≈2.24×).
"""

from conftest import run_once

from repro.bench.transitions import run_switchless_microbench, run_transition_experiment
from repro.sgx.constants import PatchLevel


def test_switchless_vs_eenter(benchmark):
    """The optimizer's switchless runtime vs the regular ecall path."""
    result = run_once(benchmark, run_switchless_microbench, calls=500)
    print()
    print(result.render())
    by_mode = {row.mode: row for row in result.rows}
    # Regular path: ~4.2 us per empty ecall plus the logger's per-call
    # recording overhead (both runs pay it), one EENTER/EEXIT pair per call.
    assert 4_500 < by_mode["eenter"].per_call_ns < 7_000
    assert by_mode["eenter"].ecalls >= 600  # warm-up + measured calls
    # Switchless: the worker's single service ecall instead of one per
    # call, and well under half the per-call cost.
    assert by_mode["switchless"].ecalls <= 5
    assert by_mode["switchless"].transitions < by_mode["eenter"].transitions / 20
    assert result.speedup > 2.0


def test_transition_costs(benchmark):
    result = run_once(benchmark, run_transition_experiment, calls=500)
    print()
    print(result.render())
    by_level = {row.patch_level: row for row in result.rows}
    assert by_level[PatchLevel.BASELINE].round_trip_ns == 2_130
    assert by_level[PatchLevel.SPECTRE].round_trip_ns == 3_850
    assert by_level[PatchLevel.L1TF].round_trip_ns == 4_890
    # The paper's ratios: 1.74x and 2.24x over baseline.
    assert abs(by_level[PatchLevel.SPECTRE].vs_baseline - 1.81) < 0.15
    assert abs(by_level[PatchLevel.L1TF].vs_baseline - 2.30) < 0.15
    # Empty-ecall cost grows strictly with the mitigation level.
    ecall_costs = [by_level[level].empty_ecall_ns for level in PatchLevel]
    assert ecall_costs == sorted(ecall_costs)
