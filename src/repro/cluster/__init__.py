"""Sharded multi-enclave serving cluster (routing, batching, cluster SLOs).

N enclave-backed server nodes — SecureKeeper or TaLoS serving stacks —
behind a deterministic router (consistent-hash or sticky least-loaded),
driven open loop by tens of thousands of simulated clients with seeded
Poisson arrivals.  Each node is an isolated simulation shard fanned over
the :mod:`repro.sweep` process pool; per-shard latency histograms merge
into cluster-wide p50/p99/p999 + availability SLO reports, byte-identical
at any worker count.
"""

from repro.cluster.brownout import (
    BrownoutController,
    ClusterOverloaded,
    PressureSignal,
    priority_class,
)
from repro.cluster.loadgen import Arrival, generate_arrivals
from repro.cluster.router import ConsistentHashRing, route_requests
from repro.cluster.runner import ClusterReport, run_cluster
from repro.cluster.slo import LatencyHistogram, SloSummary, rollup
from repro.cluster.spec import ClusterSpec, ClusterSpecError

__all__ = [
    "Arrival",
    "BrownoutController",
    "ClusterOverloaded",
    "ClusterReport",
    "ClusterSpec",
    "ClusterSpecError",
    "ConsistentHashRing",
    "PressureSignal",
    "priority_class",
    "LatencyHistogram",
    "SloSummary",
    "generate_arrivals",
    "rollup",
    "route_requests",
    "run_cluster",
]
