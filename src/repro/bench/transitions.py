"""§2.3.1: enclave transition cost across mitigation levels.

The paper measured the time between EENTER and EEXIT for one round-trip:
≈5,850 cycles (≈2,130 ns) unpatched, ≈10,170 cycles (≈3,850 ns) with the
Spectre fixes, ≈13,100 cycles (≈4,890 ns) with the Foreshadow microcode —
1.74× and 2.24× the baseline.

This runner measures the same three numbers on the model: the raw
round-trip (excluding URTS/TRTS dispatch, as the paper did) and, for
context, the full measured cost of an empty ecall.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sdk.edger8r import build_enclave
from repro.sdk.urts import Urts
from repro.sgx.constants import PatchLevel
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig
from repro.sim.process import SimProcess

_EDL = """
enclave {
    trusted { public int ecall_empty(void); };
    untrusted { void ocall_empty(void); };
};
"""

# The paper's cycle/ns pairs (5,850 cy <-> 2,130 ns) imply an effective
# ~2.75 GHz conversion, not the nominal 3.4 GHz — consistent with RDTSC
# cycle counting against a down-clocked core.  We report cycles with the
# paper's implied conversion so both columns are comparable.
PAPER_CYCLES_PER_NS = 5_850 / 2_130


@dataclass
class TransitionRow:
    """One mitigation level's transition costs."""

    patch_level: PatchLevel
    round_trip_ns: int
    round_trip_cycles: int
    empty_ecall_ns: float
    vs_baseline: float


@dataclass
class TransitionResult:
    """All three mitigation levels."""

    rows: list[TransitionRow]

    def render(self) -> str:
        lines = [
            "Transition cost per mitigation level (paper SS2.3.1:",
            "  baseline ~5,850 cy / 2,130 ns; +Spectre ~10,170 cy / 3,850 ns (1.74x);",
            "  +L1TF ~13,100 cy / 4,890 ns (2.24x))",
            f"{'level':10} {'round-trip ns':>14} {'cycles':>8} {'empty ecall ns':>15} {'vs base':>8}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.patch_level.value:10} {row.round_trip_ns:>14} "
                f"{row.round_trip_cycles:>8} {row.empty_ecall_ns:>15.0f} "
                f"{row.vs_baseline:>7.2f}x"
            )
        return "\n".join(lines)


@dataclass
class SwitchlessBenchRow:
    """One serving mode's cost for the same hot empty ecall."""

    mode: str  # eenter | switchless
    per_call_ns: float
    ecalls: int
    ocalls: int
    transitions: int


@dataclass
class SwitchlessBenchResult:
    """Regular vs switchless serving of the same call stream."""

    rows: list[SwitchlessBenchRow]

    @property
    def speedup(self) -> float:
        by_mode = {row.mode: row for row in self.rows}
        return by_mode["eenter"].per_call_ns / by_mode["switchless"].per_call_ns

    def render(self) -> str:
        lines = [
            "Switchless vs EENTER for a hot empty ecall (the SISC mitigation,",
            "  optimizer runtime: in-enclave worker polling a futexed queue)",
            f"{'mode':12} {'per-call ns':>12} {'ecalls':>8} {'ocalls':>8} {'transitions':>12}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.mode:12} {row.per_call_ns:>12.0f} {row.ecalls:>8} "
                f"{row.ocalls:>8} {row.transitions:>12}"
            )
        lines.append(f"speedup: {self.speedup:.2f}x")
        return "\n".join(lines)


def run_switchless_microbench(
    calls: int = 500, seed: int = 0
) -> SwitchlessBenchResult:
    """Serve the same empty-ecall stream through EENTER and switchless.

    Both runs are recorded under the event logger, so the transition
    counts are measured from the trace, not derived: the regular mode pays
    one EENTER/EEXIT pair per call, the switchless mode only the worker's
    single service ecall (plus its idle-sleep sync ocalls).
    """
    import os
    import tempfile

    from repro.optimizer import OptimizationPlan, SwitchlessCall
    from repro.perf.database import TraceDatabase
    from repro.perf.logger import AexMode, EventLogger

    workdir = tempfile.mkdtemp(prefix="sgxperf-swl-bench-")
    rows: list[SwitchlessBenchRow] = []
    for mode in ("eenter", "switchless"):
        process = SimProcess(seed=seed)
        device = SgxDevice(process.sim)
        urts = Urts(process, device)
        plan = None
        if mode == "switchless":
            plan = OptimizationPlan(
                switchless=[
                    SwitchlessCall(call="ecall_empty", count=calls, short_fraction=1.0)
                ]
            )
        handle = build_enclave(
            urts,
            _EDL,
            {"ecall_empty": lambda ctx: 0},
            {"ocall_empty": lambda uctx: None},
            interface_plan=plan,
            config=EnclaveConfig(heap_bytes=64 * 1024, tcs_count=2),
        )
        path = os.path.join(workdir, f"{mode}.db")
        elapsed = {}
        with EventLogger(process, urts, database=path, aex_mode=AexMode.COUNT):

            def load() -> None:
                for _ in range(100):  # warm-up
                    handle.ecall("ecall_empty")
                start = process.sim.now_ns
                for _ in range(calls):
                    handle.ecall("ecall_empty")
                elapsed["ns"] = process.sim.now_ns - start
                handle.destroy()

            process.sim.spawn(load, name="bench")
            process.sim.run()
        with TraceDatabase(path, readonly=True) as db:
            ecalls = len(db.calls(kind="ecall"))
            ocalls = len(db.calls(kind="ocall"))
        rows.append(
            SwitchlessBenchRow(
                mode=mode,
                per_call_ns=elapsed["ns"] / calls,
                ecalls=ecalls,
                ocalls=ocalls,
                transitions=2 * (ecalls + ocalls),
            )
        )
    return SwitchlessBenchResult(rows=rows)


def run_transition_experiment(calls: int = 2_000, seed: int = 0) -> TransitionResult:
    """Measure empty-ecall cost at each patch level."""
    rows: list[TransitionRow] = []
    baseline_ns = None
    for level in PatchLevel:
        process = SimProcess(seed=seed)
        device = SgxDevice(process.sim, patch_level=level)
        urts = Urts(process, device)
        handle = build_enclave(
            urts,
            _EDL,
            {"ecall_empty": lambda ctx: 0},
            {"ocall_empty": lambda uctx: None},
            config=EnclaveConfig(heap_bytes=64 * 1024),
        )
        # Warm-up, as in the paper's methodology.
        for _ in range(100):
            handle.ecall("ecall_empty")
        start = process.sim.now_ns
        for _ in range(calls):
            handle.ecall("ecall_empty")
        mean_ecall = (process.sim.now_ns - start) / calls
        round_trip = device.cpu.transition_round_trip_ns
        if baseline_ns is None:
            baseline_ns = round_trip
        rows.append(
            TransitionRow(
                patch_level=level,
                round_trip_ns=round_trip,
                round_trip_cycles=int(round(round_trip * PAPER_CYCLES_PER_NS)),
                empty_ecall_ns=mean_ecall,
                vs_baseline=round_trip / baseline_ns,
            )
        )
    return TransitionResult(rows=rows)
