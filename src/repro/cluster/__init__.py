"""Sharded multi-enclave serving cluster (routing, batching, cluster SLOs).

N enclave-backed server nodes — SecureKeeper or TaLoS serving stacks —
behind a deterministic router (consistent-hash or sticky least-loaded),
driven open loop by tens of thousands of simulated clients with seeded
Poisson arrivals.  Each node is an isolated simulation shard fanned over
the :mod:`repro.sweep` process pool; per-shard latency histograms merge
into cluster-wide p50/p99/p999 + availability SLO reports, byte-identical
at any worker count.
"""
