"""Network-chaos campaigns over the paper's networked workloads.

Drives TaLoS+nginx and SecureKeeper (§5.2) end to end under a seeded
chaos plan — socket resets, delay spikes, short writes, timed partitions,
plus a sprinkle of enclave loss — with the full serving-path resilience
stack armed: client reconnect/replay, circuit breaker + shedding,
:class:`~repro.sdk.resilience.ResilientEnclave` recovery, and the
virtual-time hang watchdog.  The run is traced by the event logger and
digested; same seed → same chaos → same retries → same trace, byte for
byte.  The CI gate runs each seed twice and compares digests.

Run directly::

    python -m repro.faults.netcampaign --workload talos --seed 7 --digest-only

"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from repro.digest import trace_digest
from repro.faults.plan import FaultPlan, NetworkChaosPlan
from repro.perf.logger import AexMode, EventLogger
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess

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
        count for kind, count in injected_by_kind.items() if kind.startswith("watchdog:")
    )
    result = NetCampaignResult(
        workload=workload,
        seed=seed,
        availability=availability,
        injected={
            k: v for k, v in injected_by_kind.items() if k.startswith("inject:")
        },
        watchdog_detections=watchdog_hits,
        duration_ns=process.sim.now_ns,
        digest=trace_digest(db),
        details=details,
    )
    db.close()
    return result


def main(argv: list[str] | None = None) -> int:
    """Entry point: ``python -m repro.faults.netcampaign``."""
    parser = argparse.ArgumentParser(
        prog="repro.faults.netcampaign",
        description="Run a networked workload under deterministic chaos",
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOADS + ("both",),
        default="both",
        help="which serving workload to drive",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--seeds",
        default=None,
        help="multi-seed sweep via the parallel engine: '0-15', '0,3,7' or a single seed",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="sweep worker processes (default: SGXPERF_JOBS, else cpu count; 0 = inline)",
    )
    parser.add_argument("--output", default=":memory:", help="trace database path")
    parser.add_argument("--requests", type=int, default=120, help="TaLoS GETs")
    parser.add_argument("--clients", type=int, default=4, help="SecureKeeper clients")
    parser.add_argument(
        "--ops", type=int, default=20, help="SecureKeeper operations per client"
    )
    parser.add_argument(
        "--no-chaos", action="store_true", help="run the chaos-off baseline"
    )
    parser.add_argument(
        "--digest-only",
        action="store_true",
        help="print only '<workload>:<digest>' lines (the CI determinism gate)",
    )
    args = parser.parse_args(argv)
    plan = FaultPlan.disabled() if args.no_chaos else None
    workloads = WORKLOADS if args.workload == "both" else (args.workload,)
    if args.seeds is not None:
        from repro.sweep import run_sweep

        params = {
            "requests": args.requests,
            "clients": args.clients,
            "ops": args.ops,
            "chaos": not args.no_chaos,
        }
        if args.output != ":memory:":
            # In sweep mode --output names a directory of per-task traces.
            os.makedirs(args.output, exist_ok=True)
            params["trace_dir"] = args.output
        report = run_sweep(
            spec={
                "kind": "netcampaign",
                "seeds": args.seeds,
                "params": params,
                "grid": {"workload": list(workloads)},
            },
            jobs=args.jobs,
        )
        if args.digest_only:
            print(report.digest)
        else:
            print(report.render_report())
            print(f"wall-clock: {report.wall_seconds:.2f}s with jobs={report.jobs}")
        degraded = any(
            r.status != "ok" or r.metrics.get("success_rate", 0.0) < 0.99
            for r in report.results
        )
        return 1 if degraded else 0
    exit_code = 0
    for workload in workloads:
        db_path = args.output
        if db_path != ":memory:" and len(workloads) > 1:
            # One trace file per workload — call ids are per-database.
            root, dot, ext = db_path.rpartition(".")
            db_path = f"{root}.{workload}.{ext}" if dot else f"{db_path}.{workload}"
        result = run_netcampaign(
            workload,
            args.seed,
            db_path=db_path,
            requests=args.requests,
            clients=args.clients,
            operations_per_client=args.ops,
            plan=plan,
        )
        if args.digest_only:
            print(f"{workload}:{result.digest}")
            continue
        a = result.availability
        print(
            f"{workload} seed {args.seed}: success rate {result.success_rate:.4f} "
            f"({a['succeeded']}/{a['attempted']}), {a['retries']} retries, "
            f"{a['shed']} shed, {a['failed']} failed"
        )
        print(
            f"  latency p50 {a['p50_ns']} ns, p99 {a['p99_ns']} ns, "
            f"p999 {a['p999_ns']} ns; "
            f"injected {result.injected or '{}'}; "
            f"watchdog detections {result.watchdog_detections}"
        )
        print(f"  digest: {result.digest}")
        if result.success_rate < 0.99:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
