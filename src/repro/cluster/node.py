"""One cluster node as an isolated, deterministic simulation shard.

``run_clusternode`` is a :mod:`repro.sweep` task runner: the parent
expands a ``node`` grid axis over the cluster spec and every worker
process rebuilds — purely from scalar parameters — the full arrival
schedule and routing table, selects its own node's slice, and simulates
that node end to end: enclave-backed serving stack, gateway mux, chaos
plan, and (opt-in) event-logger tracing.  Nothing is shared between
shards, and every derived quantity is a pure function of the spec, so
the merged cluster manifest is byte-identical at any ``--jobs``.

Node loss composes with the existing network chaos rather than being a
special mechanism: the killed node's shard gets its down pulses appended
to the chaos plan's partition list (its link is down — in-flight requests
stall and retry), while the router — acting only on the heartbeat
detector's suspicion timeline, never on this ground truth — has failed
arrivals over to replicas and scheduled hinted handoffs for recovery.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.brownout import BrownoutController, PressureSignal
from repro.cluster.loadgen import generate_arrivals
from repro.cluster.proxy import (
    ClusterMux,
    MuxStats,
    SecureKeeperClusterBackend,
    TalosClusterBackend,
)
from repro.cluster.router import (
    OP_FILL,
    ROLE_CLIENT,
    ROLE_HANDOFF,
    ROLE_REPLICA,
    requests_for_node,
    route_requests,
)
from repro.cluster.slo import LatencyHistogram
from repro.cluster.spec import ClusterSpec
from repro.digest import canonical_json, sha256_hex, trace_digest
from repro.sgx.device import SgxDevice
from repro.sim.net import Listener
from repro.sim.process import SimProcess


def node_chaos_plan(spec: ClusterSpec, node: int):
    """The chaos plan one shard arms, from the spec's ground-truth schedule.

    A killed node gets its down pulses appended to the partition list
    (flapping splits the kill window into several pulses); with
    ``spec.asym`` the pulses land on the *asymmetric* partition list
    instead — requests still arrive, replies stall, and only the failure
    detector can tell the node is effectively gone.  Slow (gray-failure)
    nodes get their drag window and surcharge.  The router never reads
    any of this — it acts purely on heartbeat suspicion.
    """
    from repro.faults.netcampaign import default_chaos_plan
    from repro.faults.plan import FaultPlan

    if not spec.chaos:
        return FaultPlan.disabled()
    plan = default_chaos_plan()
    net = plan.network
    pulses = spec.down_windows().get(node, ())
    if pulses:
        if spec.asym:
            net = replace(net, asym_partitions=net.asym_partitions + tuple(pulses))
        else:
            net = replace(net, partitions=net.partitions + tuple(pulses))
    slow = spec.slow_windows().get(node, ())
    if slow:
        net = replace(
            net,
            slow_windows=net.slow_windows + tuple(slow),
            slow_extra_ns=spec.slow_extra_ns,
        )
    if net is not plan.network:
        plan = replace(plan, network=net)
    return plan


def node_pressure_plan(spec: ClusterSpec, node: int):
    """The resource-pressure plan one shard arms (§3.5 made injectable).

    Every node gets the same noisy neighbour — in a real deployment the
    co-tenant lands on each machine of the fleet it is scheduled onto —
    hammering the shard's EPC for the spec's stressor window.  The salt
    keeps per-node tenant RNG streams independent of the serving stack's.
    """
    from repro.faults.pressure import PressurePlan, StressorTenantPlan

    if not spec.stressor:
        return PressurePlan.disabled()
    start_ns, end_ns = spec.stressor_window_ns()
    return PressurePlan(
        tenants=(
            StressorTenantPlan(
                stressor=spec.stressor,
                intensity=spec.stressor_intensity,
                start_ns=start_ns,
                end_ns=end_ns,
            ),
        ),
        stream_salt=f"pressure-node{node}",
    )


def _shard_logger(process: SimProcess, urts, db_path: str):
    """The installed event logger of a traced shard; ``None`` untraced.

    An untraced shard never imports the trace stack (logger, store,
    ``sqlite3``): every node of every run pays for what its worker
    imports, unless it was forked from a caller that had it loaded.
    """
    if db_path == ":memory:":
        return None
    from repro.perf.logger import AexMode, EventLogger

    logger = EventLogger(process, urts, database=db_path, aex_mode=AexMode.COUNT)
    logger.install()
    return logger


def run_clusternode(params: dict, db_path: str = ":memory:") -> tuple[str, dict, dict]:
    """Simulate one node shard; returns ``(digest, metrics, faults)``.

    ``params`` is the flattened :class:`ClusterSpec` plus the ``node``
    grid axis and the seed.  With a file-backed ``db_path`` the shard is
    traced by the event logger and the digest is the trace digest; the
    untraced default digests the canonical metrics instead (tracing tens
    of thousands of requests is opt-in, not the price of every sweep).
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.pressure import PressureInjector
    from repro.workloads.serving import CircuitBreaker, RetryPolicy, ServingStats

    spec = ClusterSpec.from_params(params)
    node = int(params["node"])
    if not 0 <= node < spec.nodes:
        raise ValueError(f"node {node} out of range for {spec.nodes} node(s)")

    # Pure reconstruction of the cluster-wide schedule, then this shard's slice.
    arrivals = generate_arrivals(spec)
    routed, _info = route_requests(spec, arrivals)
    mine = requests_for_node(routed, node)

    process = SimProcess(seed=spec.node_seed(node))
    if spec.epc_pages > 0:
        from repro.sgx.epc import Epc

        device = SgxDevice(process.sim, epc=Epc(spec.epc_pages))
    else:
        device = SgxDevice(process.sim)
    sim = process.sim
    plan = node_chaos_plan(spec, node)
    listener = Listener(sim, f"cluster:node{node}")

    serving = ServingStats(f"{spec.variant}:node{node:02d}")
    retry = RetryPolicy()
    mux_stats = MuxStats()

    if spec.variant == "securekeeper":
        from repro.workloads.securekeeper.proxy import (
            SecureKeeperNetServer,
            SecureKeeperProxy,
        )
        from repro.workloads.securekeeper.zookeeper import ZkServer

        proxy = SecureKeeperProxy(
            process, device, tcs_count=max(8, 2 * spec.mux_connections)
        )
        logger = _shard_logger(process, proxy.urts, db_path)
        serving.logger = logger
        proxy.make_resilient(logger=logger)
        injector = FaultInjector(plan, sim, logger=logger)
        injector.attach(proxy.urts)
        injector.attach_network(listener)
        server = SecureKeeperNetServer(
            proxy,
            listener,
            ZkServer(sim),
            breaker=CircuitBreaker(sim),
            serving=serving,
        )
        backend = SecureKeeperClusterBackend(
            spec, listener, proxy.trusted.master_key, stats=mux_stats, serving=serving
        )
        process.pthread_create(server.serve_until_closed, name=f"node{node}-acceptor")
        host_urts = proxy.urts
    else:
        from repro.workloads.talos.app import TalosApp
        from repro.workloads.talos.server import TalosNginx

        app = TalosApp(process, device)
        logger = _shard_logger(process, app.urts, db_path)
        serving.logger = logger
        app.make_resilient(logger=logger)
        injector = FaultInjector(plan, sim, logger=logger)
        injector.attach(app.urts)
        injector.attach_network(listener)
        server = TalosNginx(
            app, listener, breaker=CircuitBreaker(sim), serving=serving
        )
        backend = TalosClusterBackend(spec, listener, sim)
        process.pthread_create(server.serve_until_closed, name=f"node{node}-nginx")
        host_urts = app.urts

    # Resource pressure: the spec's noisy neighbour shares this shard's
    # device, and (when enabled) the brownout controller reads the paging
    # rate straight off the driver's counters.
    pressure = PressureInjector(
        node_pressure_plan(spec, node), process, device, logger=logger, urts=host_urts
    )
    pressure.arm()
    brownout = None
    if spec.brownout:
        brownout = BrownoutController(
            PressureSignal(device.driver.stats),
            congestion_backlog=spec.admission_limit // 4,
            record=serving.record_event,
        )

    mux = ClusterMux(
        spec,
        node,
        requests=mine,
        backend=backend,
        serving=serving,
        retry=retry,
        process=process,
        listener=listener,
        stats=mux_stats,
        brownout=brownout,
    )
    mux.start()
    sim.run()

    histogram = LatencyHistogram()
    for latency in serving.latencies_ns:
        histogram.add(latency)
    metrics = serving.summary()
    del metrics["workload"]  # already in the task key via variant/node
    metrics["latency_hist"] = histogram.as_dict()
    metrics["routed"] = len(mine)
    metrics["client_requests"] = sum(1 for r in mine if r.role == ROLE_CLIENT)
    metrics["replica_writes"] = sum(1 for r in mine if r.role == ROLE_REPLICA)
    metrics["handoffs"] = sum(1 for r in mine if r.role == ROLE_HANDOFF)
    metrics["fills"] = sum(
        1 for r in mine if r.op == OP_FILL and r.role == ROLE_CLIENT
    )
    metrics["failovers"] = sum(
        1 for r in mine if r.failover and r.role == ROLE_CLIENT
    )
    metrics["duration_ns"] = sim.now_ns
    metrics.update(mux.stats.as_dict())
    metrics["page_in"] = device.driver.stats.get("page_in", 0)
    metrics["page_out"] = device.driver.stats.get("page_out", 0)
    metrics["epc_capacity"] = device.epc.capacity_pages
    metrics["epc_high_water"] = device.epc.high_water_pages
    metrics["tenant_ops"] = pressure.tenant_ops
    if brownout is not None:
        metrics.update(brownout.summary())
    else:
        metrics.update(
            {
                "brownout_transitions": 0,
                "brownout_deep_transitions": 0,
                "pressure_peak_pps": 0.0,
            }
        )
    combined = dict(injector.stats)
    for kind, count in pressure.stats.items():
        combined[kind] = combined.get(kind, 0) + count
    faults = dict(sorted(combined.items()))

    if logger is not None:
        logger.uninstall()
        db = logger.finalize()
        digest = trace_digest(db)
        db.close()
    else:
        digest = sha256_hex(canonical_json(metrics))
    return digest, metrics, faults
