"""Standalone stressor runs — seeded, digestible, sweep-composable.

``run_stressor`` builds a fully isolated machine (its own process, device
and optional trace), hammers it with one profile at one intensity, and
returns a deterministic digest plus pressure metrics.  The ``stressor``
sweep task kind dispatches here, which is what makes
``sgxperf sweep stressor --axis stressor=... --axis intensity=...``
span the EPC-pressure scenario matrix.

Run one from the command line for one-off characterisation::

    sgxperf stressor --stressor epc-thrash --seed 7
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.digest import canonical_json, sha256_hex, trace_digest
from repro.perf.logger import AexMode, EventLogger
from repro.sgx.device import SgxDevice
from repro.sgx.epc import Epc
from repro.sim.process import SimProcess
from repro.workloads.stressors.app import StressorApp
from repro.workloads.stressors.profiles import get_profile

# Default EPC for standalone runs: small enough that an epc-thrash
# footprint (1.25x) stays tractable while behaving exactly like the
# full-size pool under pressure.
DEFAULT_EPC_PAGES = 2_048


@dataclass
class StressorResult:
    """Everything one stressor run produced."""

    digest: str
    metrics: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)


def run_stressor(
    stressor: str,
    seed: int = 0,
    *,
    intensity: float = 1.0,
    ops: int = 30,
    epc_pages: int = DEFAULT_EPC_PAGES,
    db_path: str = ":memory:",
) -> StressorResult:
    """Run one profile at one intensity on an isolated machine."""
    profile = get_profile(stressor, intensity)
    process = SimProcess(seed=seed)
    epc = Epc(epc_pages) if epc_pages else Epc()
    device = SgxDevice(process.sim, epc=epc)
    app = StressorApp(process, device, profile, label=f"stress-{stressor}")
    traced = db_path != ":memory:"
    with EventLogger(process, app.urts, database=db_path, aex_mode=AexMode.COUNT) as logger:
        app.spawn_workers(ops)
        process.sim.run()
        app.close()
        live = logger.live_counts()
    db = logger.db
    stats = device.driver.stats
    metrics = {
        "ops": app.ops_done,
        "duration_ns": process.sim.now_ns,
        "ecalls": live["ecalls"],
        "ocalls": live["ocalls"],
        "aex": live["aex"],
        "page_in": stats["page_in"],
        "page_out": stats["page_out"],
        "page_faults": stats["faults"],
        "footprint_pages": app.footprint_pages,
        "epc_capacity": device.epc.capacity_pages,
        "epc_high_water": device.epc.high_water_pages,
    }
    if traced:
        digest = trace_digest(db)
    else:
        digest = sha256_hex(canonical_json(metrics))
    return StressorResult(digest=digest, metrics=metrics, faults={})


def run_stressor_task(params: dict, db_path: str) -> tuple[str, dict, dict]:
    """The ``stressor`` sweep task runner (``repro.sweep.tasks`` contract)."""
    result = run_stressor(
        str(params.get("stressor", "epc-thrash")),
        int(params.get("seed", 0)),
        intensity=float(params.get("intensity", 1.0)),
        ops=int(params.get("ops", 30)),
        epc_pages=int(params.get("epc_pages", DEFAULT_EPC_PAGES)),
        db_path=db_path,
    )
    return result.digest, result.metrics, result.faults
