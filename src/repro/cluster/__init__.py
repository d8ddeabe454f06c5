"""Sharded multi-enclave serving cluster (routing, batching, cluster SLOs).

N enclave-backed server nodes — SecureKeeper or TaLoS serving stacks —
behind a deterministic router (consistent-hash or sticky least-loaded),
driven open loop by tens of thousands of simulated clients with seeded
Poisson arrivals.  Each node is an isolated simulation shard fanned over
the :mod:`repro.sweep` process pool; per-shard latency histograms merge
into cluster-wide p50/p99/p999 + availability SLO reports, byte-identical
at any worker count.

The re-exports below resolve on first use (PEP 562), so importing
``repro.cluster.spec`` for its constants loads neither the runner nor
the router, detector, brownout controller or SDK.
"""

from __future__ import annotations

import importlib

# Public name -> the module that defines it.
_EXPORTS = {
    "Arrival": "repro.cluster.loadgen",
    "BrownoutController": "repro.cluster.brownout",
    "ClusterOverloaded": "repro.cluster.brownout",
    "ClusterReport": "repro.cluster.runner",
    "ClusterSpec": "repro.cluster.spec",
    "ClusterSpecError": "repro.cluster.spec",
    "ConsistentHashRing": "repro.cluster.router",
    "LatencyHistogram": "repro.cluster.slo",
    "PressureSignal": "repro.cluster.brownout",
    "SloSummary": "repro.cluster.slo",
    "generate_arrivals": "repro.cluster.loadgen",
    "priority_class": "repro.cluster.brownout",
    "rollup": "repro.cluster.slo",
    "route_requests": "repro.cluster.router",
    "run_cluster": "repro.cluster.runner",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value
