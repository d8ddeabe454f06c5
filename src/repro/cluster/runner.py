"""Cluster orchestration: fan node shards over the sweep engine, merge SLOs.

``run_cluster`` turns a :class:`~repro.cluster.spec.ClusterSpec` into a
one-axis sweep grid (``node = 0..N-1``) and runs it on
:func:`repro.sweep.run_sweep` — every node is a shared-nothing worker
process with its own simulation kernel, and the engine's task-index-order
merge makes the cluster manifest byte-identical at any ``--jobs``.  The
parent then reassembles per-node :class:`~repro.cluster.slo.SloSummary`
records from the shard metrics and rolls them up into the cluster-wide
availability + p50/p99/p999 report.

From the command line::

    sgxperf cluster --nodes 4 --clients 10000 --jobs 4

"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.cluster.detector import build_detector
from repro.cluster.loadgen import generate_arrivals
from repro.cluster.router import RoutingInfo, route_requests
from repro.cluster.slo import SloSummary, render_slo_table, rollup
from repro.cluster.spec import ClusterSpec
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
