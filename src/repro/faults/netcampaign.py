"""Network-chaos campaigns over the paper's networked workloads.

Drives TaLoS+nginx and SecureKeeper (§5.2) end to end under a seeded
chaos plan — socket resets, delay spikes, short writes, timed partitions,
plus a sprinkle of enclave loss — with the full serving-path resilience
stack armed: client reconnect/replay, circuit breaker + shedding,
:class:`~repro.sdk.resilience.ResilientEnclave` recovery, and the
virtual-time hang watchdog.  The run is traced by the event logger and
digested; same seed → same chaos → same retries → same trace, byte for
byte.  The CI gate runs each seed twice and compares digests.

From the command line::

    sgxperf netcampaign --workload talos --seed 7 --digest-only

"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.digest import trace_digest
from repro.faultrows import INJECT_PREFIX, WATCHDOG_PREFIX
from repro.faults.plan import FaultPlan, NetworkChaosPlan

WORKLOADS = ("talos", "securekeeper")


def default_chaos_plan() -> FaultPlan:
    """The standard serving-path campaign: seeded network chaos.

    Tuned so both workloads stay ≥ 99% available with retries: per-packet
    probabilities are small but, over hundreds of request round-trips,
    fire dozens of times per run.  Enclave-loss plans (PR 3) stay off here:
    both proxies hold per-session trusted state that a mid-request loss
    would orphan; loss recovery has its own campaign in
    :mod:`repro.faults.campaign`.
    """
    return FaultPlan(
        network=NetworkChaosPlan(
            reset_probability=0.003,
            delay_probability=0.01,
            delay_ns=400_000,
            short_write_probability=0.005,
            partitions=((5_000_000, 5_500_000),),
        ),
    )


@dataclass
class NetCampaignResult:
    """What one network-chaos campaign run produced."""

    workload: str
    seed: int
    availability: dict
    injected: dict[str, int]
    watchdog_detections: int
    duration_ns: int
    digest: str = ""
    details: dict = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        """End-to-end request success rate (retries allowed)."""
        return self.availability.get("success_rate", 0.0)


def run_netcampaign(
    workload: str,
    seed: int,
    db_path: str = ":memory:",
    requests: int = 120,
    clients: int = 4,
    operations_per_client: int = 20,
    plan: FaultPlan | None = None,
    watchdog: bool = True,
) -> NetCampaignResult:
    """Run one workload under chaos with tracing; returns result + digest.

    ``plan=None`` arms :func:`default_chaos_plan`;
    ``plan=FaultPlan.disabled()`` runs the chaos-off baseline (still byte-
    deterministic, and byte-identical to a run without any chaos hooks).
    """
    from repro.perf.logger import AexMode, EventLogger
    from repro.sgx.device import SgxDevice
    from repro.sim.process import SimProcess

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    if plan is None:
        plan = default_chaos_plan()
    process = SimProcess(seed=seed)
    device = SgxDevice(process.sim)

    if workload == "talos":
        from repro.workloads.talos.app import TalosApp
        from repro.workloads.talos.workload import run_talos_chaos

        app = TalosApp(process, device)
        logger = EventLogger(process, app.urts, database=db_path, aex_mode=AexMode.COUNT)
        logger.install()
        outcome = run_talos_chaos(
            requests=requests,
            process=process,
            device=device,
            app=app,
            plan=plan,
            logger=logger,
            watchdog=watchdog,
        )
        availability = outcome.availability
        details = {
            "server": outcome.server,
            "client": outcome.client,
            "virtual_seconds": outcome.virtual_seconds,
        }
    else:
        from repro.workloads.securekeeper.loadgen import run_securekeeper_netload
        from repro.workloads.securekeeper.proxy import SecureKeeperProxy

        proxy = SecureKeeperProxy(process, device, tcs_count=max(4, clients * 2))
        logger = EventLogger(process, proxy.urts, database=db_path, aex_mode=AexMode.COUNT)
        logger.install()
        result, availability = run_securekeeper_netload(
            clients=clients,
            operations_per_client=operations_per_client,
            seed=seed,
            process=process,
            device=device,
            proxy=proxy,
            plan=plan,
            logger=logger,
            watchdog=watchdog,
        )
        details = {"load": result}

    logger.uninstall()
    db = logger.finalize()
    fault_rows = db.execute(
        "SELECT kind, COUNT(*) FROM faults GROUP BY kind ORDER BY kind"
    )
    injected_by_kind = {kind: count for kind, count in fault_rows}
    watchdog_hits = sum(
        count for kind, count in injected_by_kind.items() if kind.startswith(WATCHDOG_PREFIX)
    )
    result = NetCampaignResult(
        workload=workload,
        seed=seed,
        availability=availability,
        injected={
            k: v for k, v in injected_by_kind.items() if k.startswith(INJECT_PREFIX)
        },
        watchdog_detections=watchdog_hits,
        duration_ns=process.sim.now_ns,
        digest=trace_digest(db),
        details=details,
    )
    db.close()
    return result
