"""Cluster orchestration: fan node shards over the sweep engine, merge SLOs.

``run_cluster`` turns a :class:`~repro.cluster.spec.ClusterSpec` into a
one-axis sweep grid (``node = 0..N-1``) and runs it on
:func:`repro.sweep.run_sweep` — every node is a shared-nothing worker
process with its own simulation kernel, and the engine's task-index-order
merge makes the cluster manifest byte-identical at any ``--jobs``.  The
parent then reassembles per-node :class:`~repro.cluster.slo.SloSummary`
records from the shard metrics and rolls them up into the cluster-wide
availability + p50/p99/p999 report.

Run directly::

    python -m repro.cluster.runner --nodes 4 --clients 10000 --jobs 4

"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from repro.cluster.detector import build_detector
from repro.cluster.loadgen import generate_arrivals
from repro.cluster.router import RoutingInfo, route_requests
from repro.cluster.slo import SloSummary, render_slo_table, rollup
from repro.cluster.spec import ClusterSpec, ClusterSpecError
from repro.digest import canonical_json, sha256_hex
from repro.sweep import SweepReport, run_sweep

# Shard-metric keys aggregated into the cluster replication health line.
_REPLICATION_KEYS = (
    "replica_ok",
    "replica_failed",
    "replica_shed",
    "handoff_ok",
    "handoff_failed",
)

# Shard-metric keys summed into the cluster brownout/pressure line.
_BROWNOUT_SUM_KEYS = (
    "write_ok",
    "write_failed",
    "read_ok",
    "read_failed",
    "shed_write",
    "shed_read",
    "shed_background",
    "brownout_transitions",
    "brownout_deep_transitions",
    "page_in",
    "page_out",
    "tenant_ops",
)


def _availability(ok: int, failed: int) -> float:
    """Per-class availability under the repo-wide convention (no samples = 1)."""
    attempted = ok + failed
    return ok / attempted if attempted else 1.0


@dataclass
class ClusterReport:
    """One cluster run: the sweep beneath it plus the merged SLO view."""

    spec: ClusterSpec
    sweep: SweepReport
    routing: RoutingInfo
    node_slos: list[SloSummary]
    cluster_slo: SloSummary
    detector: dict
    replication: dict
    brownout: dict

    @property
    def availability(self) -> float:
        """Cluster-wide end-to-end success rate."""
        return self.cluster_slo.success_rate

    @property
    def lost_writes(self) -> int:
        """Acknowledged writes no live replica held at read time."""
        return self.routing.lost_writes

    @property
    def write_availability(self) -> float:
        """High-priority (client write) availability across the cluster."""
        return _availability(
            self.brownout["write_ok"], self.brownout["write_failed"]
        )

    @property
    def read_availability(self) -> float:
        """Client read availability across the cluster."""
        return _availability(self.brownout["read_ok"], self.brownout["read_failed"])

    @property
    def degraded(self) -> bool:
        """Whether any shard failed to run at all."""
        return self.sweep.failed > 0 or self.sweep.lost > 0

    @property
    def manifest(self) -> str:
        """Deterministic cluster manifest: the sweep manifest plus rollup.

        Everything appended below the sweep manifest is a pure function of
        the shard metrics, so the whole document — and its digest — stays
        byte-identical across worker counts.  Wall-clock and attempt
        counts never appear here.
        """
        cluster = self.cluster_slo.as_dict()
        lines = [
            self.sweep.manifest.rstrip("\n"),
            "# cluster " + self.spec.canonical_json(),
            "# routing " + canonical_json(self.routing.as_dict()),
            "# detector " + canonical_json(self.detector),
            "# replication " + canonical_json(self.replication),
            "# brownout " + canonical_json(self.brownout),
            "# slo " + canonical_json(cluster),
        ]
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        """SHA-256 over the cluster manifest (the CI determinism gate)."""
        return sha256_hex(self.manifest)

    def render(self) -> str:
        """Human-readable cluster report (deterministic)."""
        det = self.detector
        rep = self.replication
        bo = self.brownout
        lines = [
            f"cluster: {self.spec.describe()}",
            f"routing: policy={self.routing.policy} "
            f"assigned={self.routing.assigned} "
            f"failovers={self.routing.failovers} fills={self.routing.fills} "
            f"all-down-shed={self.routing.all_down_shed}",
            f"detector: {det['probes']} probes every {det['heartbeat_ns']} ns "
            f"({det['ok']} ok / {det['late']} late / {det['lost']} lost), "
            f"{det['suspicions']} suspicion(s) — detected {det['detected']}/"
            f"{det['pulses']} down pulse(s), mean lag {det['mean_lag_ns']} ns, "
            f"{det['gray_detections']} gray, {det['false_suspicions']} false",
            f"replication: R={self.spec.effective_replication} "
            f"writes={self.routing.replica_writes} "
            f"(ok {rep['replica_ok']} / failed {rep['replica_failed']} / "
            f"shed {rep['replica_shed']}), "
            f"handoffs={self.routing.handoffs} "
            f"(ok {rep['handoff_ok']} / failed {rep['handoff_failed']}), "
            f"acknowledged writes lost: {self.lost_writes}",
            f"pressure: paging {bo['page_in']}+{bo['page_out']} pages "
            f"(peak {bo['pressure_peak_pps']:.0f}/s), tenant ops {bo['tenant_ops']}, "
            f"{bo['brownout_transitions']} brownout "
            f"({bo['brownout_deep_transitions']} deep) — shed "
            f"bg {bo['shed_background']} / read {bo['shed_read']} / "
            f"write {bo['shed_write']}; availability "
            f"write {self.write_availability:.4%} / read {self.read_availability:.4%}",
            "",
            render_slo_table(self.node_slos + [self.cluster_slo]),
            "",
            f"cluster availability: {self.availability:.4%} "
            f"({self.cluster_slo.succeeded}/{self.cluster_slo.attempted})",
        ]
        if self.degraded:
            lines.append(
                f"DEGRADED: {self.sweep.failed} shard(s) failed, "
                f"{self.sweep.lost} worker-lost"
            )
            for result in self.sweep.results:
                if result.status != "ok":
                    lines.append(f"  {result.key}: {result.status} {result.error}")
        lines.append(f"manifest digest: {self.digest}")
        return "\n".join(lines)


def run_cluster(
    spec: ClusterSpec,
    jobs: Optional[int] = None,
    trace_dir: Optional[str] = None,
) -> ClusterReport:
    """Run every node shard of ``spec`` and merge the cluster report."""
    params = spec.to_params()
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        params["trace_dir"] = trace_dir
    sweep = run_sweep(
        spec={
            "kind": "clusternode",
            "seeds": [spec.seed],
            "params": params,
            # Sorted-axis expansion with one axis and one seed: task index
            # == node index == merge order.
            "grid": {"node": list(range(spec.nodes))},
        },
        jobs=jobs,
    )
    # The routing table and detector timeline are pure functions of the
    # spec — recompute them here for the report rather than shipping them
    # back from the shards.
    detector = build_detector(spec)
    _, routing = route_requests(spec, generate_arrivals(spec), detector=detector)
    node_slos = []
    replication = {key: 0 for key in _REPLICATION_KEYS}
    brownout = {key: 0 for key in _BROWNOUT_SUM_KEYS}
    brownout["pressure_peak_pps"] = 0.0
    for node, result in enumerate(sweep.results):
        scope = f"{spec.variant}:node{node:02d}"
        if result.status == "ok":
            node_slos.append(SloSummary.from_metrics(scope, result.metrics))
            for key in _REPLICATION_KEYS:
                replication[key] += int(result.metrics.get(key, 0))
            for key in _BROWNOUT_SUM_KEYS:
                brownout[key] += int(result.metrics.get(key, 0))
            brownout["pressure_peak_pps"] = max(
                brownout["pressure_peak_pps"],
                float(result.metrics.get("pressure_peak_pps", 0.0)),
            )
        else:
            node_slos.append(SloSummary(scope=scope))
    brownout["write_availability"] = _availability(
        brownout["write_ok"], brownout["write_failed"]
    )
    brownout["read_availability"] = _availability(
        brownout["read_ok"], brownout["read_failed"]
    )
    return ClusterReport(
        spec=spec,
        sweep=sweep,
        routing=routing,
        node_slos=node_slos,
        cluster_slo=rollup(node_slos),
        detector=detector.summary(),
        replication=replication,
        brownout=brownout,
    )


def spec_from_args(args: argparse.Namespace) -> ClusterSpec:
    """Build the spec from ``--spec`` JSON or inline flags."""
    if args.spec:
        if args.spec == "-":
            mapping = json.load(sys.stdin)
        else:
            with open(args.spec) as f:
                mapping = json.load(f)
        return ClusterSpec.from_dict(mapping)
    return ClusterSpec(
        variant=args.variant,
        nodes=args.nodes,
        clients=args.clients,
        ops_per_client=args.ops,
        policy=args.policy,
        seed=args.seed,
        rate_rps=args.rate,
        mux_connections=args.mux,
        batch_size=args.batch,
        chaos=not args.no_chaos,
        kill_node=args.kill_node,
        kill_count=args.kill_count,
        flaps=args.flaps,
        asym=args.asym,
        slow_nodes=args.slow_nodes,
        replication=args.replication,
        stressor=args.stressor,
        stressor_intensity=args.stressor_intensity,
        epc_pages=args.epc_pages,
        brownout=not args.no_brownout,
    )


def add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``sgxperf cluster`` / ``python -m repro.cluster.runner`` flags."""
    parser.add_argument("--spec", help="JSON cluster spec file ('-' reads stdin)")
    parser.add_argument(
        "--variant",
        choices=("securekeeper", "talos"),
        default="securekeeper",
        help="enclave serving stack each node runs",
    )
    parser.add_argument("--nodes", type=int, default=4, help="node count")
    parser.add_argument(
        "--clients", type=int, default=10_000, help="simulated open-loop clients"
    )
    parser.add_argument("--ops", type=int, default=2, help="operations per client")
    parser.add_argument(
        "--policy",
        choices=("hash", "least-loaded"),
        default="hash",
        help="router policy",
    )
    parser.add_argument("--seed", type=int, default=0, help="cluster seed")
    parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="cluster-wide arrival rate in requests/s (0 = per-variant default)",
    )
    parser.add_argument(
        "--mux", type=int, default=4, help="gateway connections per node"
    )
    parser.add_argument(
        "--batch", type=int, default=8, help="max requests per batched send"
    )
    parser.add_argument(
        "--no-chaos", action="store_true", help="run the chaos-off baseline"
    )
    parser.add_argument(
        "--kill-node",
        type=int,
        default=-1,
        help="node lost mid-run under chaos (-1 = last node; needs >= 2 nodes)",
    )
    parser.add_argument(
        "--kill-count",
        type=int,
        default=1,
        help="correlated kill: lose this many nodes in the same window",
    )
    parser.add_argument(
        "--flaps",
        type=int,
        default=0,
        help="split the kill window into N down pulses (flapping node)",
    )
    parser.add_argument(
        "--asym",
        action="store_true",
        help="asymmetric kill: requests reach the node but replies stall",
    )
    parser.add_argument(
        "--slow-nodes",
        type=int,
        default=0,
        help="gray failure: this many nodes drag through their slow window",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=2,
        help="replication factor R: copies of every write across the ring",
    )
    parser.add_argument(
        "--stressor",
        default="",
        help="noisy-neighbour stressor profile every node hosts "
        "(cpu-spin, epc-thrash, ocall-storm, futex-hammer, mixed; '' = none)",
    )
    parser.add_argument(
        "--stressor-intensity",
        type=float,
        default=1.0,
        help="stressor scaling factor (footprint, op mix, threads)",
    )
    parser.add_argument(
        "--epc-pages",
        type=int,
        default=0,
        help="scaled-down per-node EPC in pages (0 = the full hardware pool)",
    )
    parser.add_argument(
        "--no-brownout",
        action="store_true",
        help="ablation: disable the gateway brownout controller "
        "(cliff-edge admission only)",
    )
    parser.add_argument(
        "--write-slo",
        type=float,
        default=None,
        help="high-priority gate: exit 1 if client-write availability "
        "falls below this floor",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard worker processes (default: SGXPERF_JOBS, else cpu count; 0 = inline)",
    )
    parser.add_argument(
        "--trace-dir", help="keep per-node trace databases in this directory"
    )
    parser.add_argument("--manifest", help="write the cluster manifest to this path")
    parser.add_argument(
        "--digest-only",
        action="store_true",
        help="print only the manifest digest (the CI determinism gate)",
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=0.99,
        help="availability floor: exit 1 below this success rate (default 0.99)",
    )
    parser.add_argument(
        "--max-lost",
        type=int,
        default=None,
        metavar="N",
        help="durability gate: exit 1 if more than N acknowledged writes "
        "were lost (the CI zero-loss gate passes 0)",
    )


def run_cluster_command(args: argparse.Namespace) -> int:
    """Shared implementation behind ``sgxperf cluster`` and ``__main__``."""
    try:
        spec = spec_from_args(args)
    except ClusterSpecError as exc:
        print(f"cluster: {exc}", file=sys.stderr)
        return 2
    report = run_cluster(spec, jobs=args.jobs, trace_dir=args.trace_dir)
    if args.manifest:
        with open(args.manifest, "w") as f:
            f.write(report.manifest)
    if args.digest_only:
        print(report.digest)
    else:
        print(report.render())
        print(
            f"wall-clock: {report.sweep.wall_seconds:.2f}s "
            f"with jobs={report.sweep.jobs}"
        )
    if report.degraded:
        return 1
    if args.max_lost is not None and report.lost_writes > args.max_lost:
        print(
            f"cluster: {report.lost_writes} acknowledged write(s) lost "
            f"(gate allows {args.max_lost})",
            file=sys.stderr,
        )
        return 1
    if args.write_slo is not None and report.write_availability < args.write_slo:
        print(
            f"cluster: write availability {report.write_availability:.4%} "
            f"below the {args.write_slo:.4%} floor",
            file=sys.stderr,
        )
        return 1
    return 0 if report.availability >= args.slo else 1


def main(argv: Optional[list] = None) -> int:
    """Entry point: ``python -m repro.cluster.runner``."""
    parser = argparse.ArgumentParser(
        prog="repro.cluster.runner",
        description="Run a sharded multi-enclave serving cluster",
    )
    add_cluster_arguments(parser)
    return run_cluster_command(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
