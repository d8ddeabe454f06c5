"""End-to-end TaLoS+nginx benchmark run (paper §5.2.1, Figure 5)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sgx.device import SgxDevice
from repro.sim.net import Listener
from repro.sim.process import SimProcess
from repro.workloads.talos.app import TalosApp
from repro.workloads.talos.client import ClientStats, TalosCurlClient
from repro.workloads.talos.server import ServerStats, TalosNginx


@dataclass
class TalosRunResult:
    """Outcome of one TaLoS+nginx run."""

    requests: int
    virtual_seconds: float
    requests_per_second: float
    server: ServerStats
    client: ClientStats


def run_talos_nginx(
    requests: int = 1000,
    seed: int = 0,
    process: Optional[SimProcess] = None,
    device: Optional[SgxDevice] = None,
    app: Optional[TalosApp] = None,
) -> TalosRunResult:
    """Serve ``requests`` sequential HTTPS GETs through the TaLoS enclave.

    Pass a pre-built :class:`TalosApp` (with a logger already installed on
    its process) to trace the run.
    """
    process = process or SimProcess(seed=seed)
    device = device or SgxDevice(process.sim)
    sim = process.sim
    app = app or TalosApp(process, device)
    listener = Listener(sim, "nginx:443")
    server = TalosNginx(app, listener)
    client = TalosCurlClient(sim, listener)

    start = sim.now_ns
    process.pthread_create(server.serve, requests, name="nginx-worker")
    process.pthread_create(client.run, requests, name="curl")
    sim.run()
    elapsed = sim.now_ns - start
    seconds = elapsed / 1e9
    return TalosRunResult(
        requests=server.stats.requests,
        virtual_seconds=seconds,
        requests_per_second=server.stats.requests / seconds if seconds else 0.0,
        server=server.stats,
        client=client.stats,
    )


@dataclass
class TalosChaosResult:
    """Outcome of one TaLoS+nginx run under a chaos plan."""

    availability: dict
    server: ServerStats
    client: ClientStats
    injected: int
    virtual_seconds: float


def run_talos_chaos(
    requests: int = 200,
    seed: int = 0,
    plan=None,
    process: Optional[SimProcess] = None,
    device: Optional[SgxDevice] = None,
    app: Optional[TalosApp] = None,
    logger=None,
    # Tighter than the watchdog's 50 ms ecall deadline: a wedged exchange
    # (e.g. a truncated handshake frame) must resolve via client timeout
    # and retry before the watchdog declares the server ecall hung.
    client_timeout_ns: int = 20_000_000,
    watchdog: bool = False,
) -> TalosChaosResult:
    """Serve HTTPS GETs through TaLoS under a network/fault chaos ``plan``.

    The full serving-path resilience stack is armed: seeded socket chaos
    via the fault injector, client reconnect-and-retry with read
    deadlines, a circuit breaker + load shedding around the server loop,
    and enclave-loss recovery through :class:`ResilientEnclave`.  With
    ``watchdog=True`` a virtual-time hang watchdog guards the run.
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.faults.watchdog import HangWatchdog
    from repro.workloads.serving import CircuitBreaker, RetryPolicy, ServingStats

    process = process or SimProcess(seed=seed)
    device = device or SgxDevice(process.sim)
    sim = process.sim
    app = app or TalosApp(process, device)
    app.make_resilient(logger=logger)
    injector = FaultInjector(plan or FaultPlan.disabled(), sim, logger=logger)
    injector.attach(app.urts)
    listener = Listener(sim, "nginx:443")
    injector.attach_network(listener)
    serving = ServingStats("talos", logger=logger)
    server = TalosNginx(app, listener, breaker=CircuitBreaker(sim), serving=serving)
    client = TalosCurlClient(
        sim,
        listener,
        retry=RetryPolicy(),
        serving=serving,
        timeout_ns=client_timeout_ns,
    )
    if watchdog:
        # Gray-failure-aware deadlines: the chaos plan's slow windows
        # stretch socket ops, so the watchdog must forgive the overlap.
        net = getattr(plan, "network", None) if plan is not None else None
        HangWatchdog(
            sim,
            app.urts,
            logger=logger,
            slow_windows=net.slow_windows if net is not None else (),
            slow_extra_ns=net.slow_extra_ns if net is not None else 0,
        ).arm()

    def client_main() -> None:
        client.run(requests)
        listener.close()  # completion signal for serve_until_closed

    start = sim.now_ns
    process.pthread_create(server.serve_until_closed, name="nginx-worker")
    process.pthread_create(client_main, name="curl")
    sim.run()
    return TalosChaosResult(
        availability=serving.summary(),
        server=server.stats,
        client=client.stats,
        injected=injector.total_injected,
        virtual_seconds=(sim.now_ns - start) / 1e9,
    )
