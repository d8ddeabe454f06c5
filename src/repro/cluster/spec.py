"""Declarative description of one sharded serving cluster run.

A :class:`ClusterSpec` is plain frozen data — everything a run needs is a
scalar, so the spec flattens losslessly into :mod:`repro.sweep` task
parameters and back.  Every derived quantity (arrival horizon, per-node
seeds, the node-loss window) is a pure function of the spec, which is what
makes the whole cluster deterministic: any worker process, at any
``--jobs``, reconstructs the identical schedule, routing table and chaos
plan from the same few numbers.

The default chaos model composes the serving-path network chaos of
:func:`repro.faults.netcampaign.default_chaos_plan` (per-node resets,
delay spikes, short writes, a brief cluster-wide partition blip) with a
**node-loss window**: one node's network is partitioned for a slice of the
run, and the router fails arrivals over to the surviving nodes
(§6 of the paper scales SecureKeeper workers; we additionally take one
away mid-run and ask the cluster to hold its SLO).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.digest import canonical_json as _canonical_json

VARIANTS = ("securekeeper", "talos")
POLICIES = ("hash", "least-loaded")

# Per-node open-loop arrival rates (requests per virtual second) used when
# the spec does not pin one.  SecureKeeper requests cost two short ecalls;
# a TaLoS request is a full TLS handshake served by a single worker, so its
# sustainable rate is far lower.
DEFAULT_NODE_RATE_RPS = {"securekeeper": 25_000.0, "talos": 700.0}


class ClusterSpecError(ValueError):
    """The spec cannot describe a runnable cluster."""


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster scenario: topology, load, routing and chaos knobs."""

    variant: str = "securekeeper"
    nodes: int = 4
    clients: int = 10_000
    ops_per_client: int = 2
    policy: str = "hash"
    seed: int = 0
    # Cluster-wide open-loop arrival rate (requests / virtual second);
    # ``0`` selects the per-variant default scaled by the node count.
    rate_rps: float = 0.0
    # Router/mux shape: upstream connections per node and the batch the
    # mux coalesces into one multiplexed send.
    mux_connections: int = 4
    batch_size: int = 8
    # Admission control: queued requests per node beyond this are shed.
    admission_limit: int = 512
    payload_bytes: int = 128
    client_timeout_ns: int = 20_000_000
    # Replication factor: every write lands on ``replication`` distinct
    # ring nodes (primary + R-1 replicas), so reads can fail over while the
    # primary is suspected.  Clamped to the node count.
    replication: int = 2
    # Chaos: per-node network chaos plus one or more nodes partitioned
    # ("killed") for the window [kill_start_frac, kill_end_frac) of the
    # horizon.  ``kill_count > 1`` kills that many nodes in the *same*
    # window (a correlated failure — rack loss, AZ outage); ``flaps > 0``
    # splits the window into that many down pulses separated by equal up
    # gaps (a flapping node, the failure detector's hardest customer).
    chaos: bool = True
    kill_node: int = -1  # -1: pick the last node (when chaos and nodes > 1)
    kill_count: int = 1
    kill_start_frac: float = 0.45
    kill_end_frac: float = 0.60
    flaps: int = 0
    # Asymmetric kill: requests still reach the killed node(s) but replies
    # stall — the node looks dead from outside while processing inside.
    asym: bool = False
    # Gray failure: the first ``slow_nodes`` nodes serve every socket op
    # ``slow_extra_ns`` slower inside [slow_start_frac, slow_end_frac).
    slow_nodes: int = 0
    slow_start_frac: float = 0.10
    slow_end_frac: float = 0.35
    slow_extra_ns: int = 300_000
    # Heartbeat failure detector: the gateway probes every node each
    # interval (0 = auto: horizon/200) and suspects a node after
    # ``suspect_after`` consecutive lost probes (or 2x that many
    # consecutive *late* probes — gray failures), un-suspecting it after
    # ``recover_after`` consecutive healthy probes.
    heartbeat_interval_ns: int = 0
    suspect_after: int = 3
    recover_after: int = 2
    # Resource pressure: a Stress-SGX-style noisy neighbour sharing every
    # node's EPC for [stressor_start_frac, stressor_end_frac) of the
    # horizon ("" = none), and an optional scaled-down EPC (0 = the full
    # hardware pool) so paging pressure is reachable at test scale.
    stressor: str = ""
    stressor_intensity: float = 1.0
    stressor_start_frac: float = 0.20
    stressor_end_frac: float = 0.80
    epc_pages: int = 0
    # Graceful degradation: the gateway brownout controller (priority-
    # classed admission + pressure-proportional batching).  ``False`` is
    # the ablation: same pressure, cliff-edge admission only.
    brownout: bool = True

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ClusterSpecError(
                f"unknown variant {self.variant!r}; pick from {VARIANTS}"
            )
        if self.policy not in POLICIES:
            raise ClusterSpecError(
                f"unknown policy {self.policy!r}; pick from {POLICIES}"
            )
        if self.nodes < 1:
            raise ClusterSpecError(f"need at least one node, got {self.nodes}")
        if self.clients < 1 or self.ops_per_client < 1:
            raise ClusterSpecError("need at least one client and one op per client")
        if self.replication < 1:
            raise ClusterSpecError(
                f"replication factor must be >= 1, got {self.replication}"
            )
        if self.kill_node >= self.nodes:
            raise ClusterSpecError(
                f"kill_node {self.kill_node} out of range for {self.nodes} node(s)"
            )
        if not 1 <= self.kill_count <= self.nodes:
            raise ClusterSpecError(
                f"kill_count {self.kill_count} out of range for {self.nodes} node(s)"
            )
        if self.flaps < 0:
            raise ClusterSpecError(f"flaps must be >= 0, got {self.flaps}")
        if not 0 <= self.slow_nodes <= self.nodes:
            raise ClusterSpecError(
                f"slow_nodes {self.slow_nodes} out of range for {self.nodes} node(s)"
            )
        if not 0.0 <= self.kill_start_frac < self.kill_end_frac <= 1.0:
            raise ClusterSpecError(
                "kill window fractions must satisfy 0 <= start < end <= 1"
            )
        if not 0.0 <= self.slow_start_frac < self.slow_end_frac <= 1.0:
            raise ClusterSpecError(
                "slow window fractions must satisfy 0 <= start < end <= 1"
            )
        if self.suspect_after < 1 or self.recover_after < 1:
            raise ClusterSpecError(
                "detector thresholds suspect_after/recover_after must be >= 1"
            )
        if self.stressor:
            from repro.workloads.stressors import STRESSOR_NAMES

            if self.stressor not in STRESSOR_NAMES:
                raise ClusterSpecError(
                    f"unknown stressor {self.stressor!r}; "
                    f"pick from {STRESSOR_NAMES}"
                )
            if self.stressor_intensity <= 0.0:
                raise ClusterSpecError(
                    f"stressor intensity must be > 0, got {self.stressor_intensity}"
                )
            if not 0.0 <= self.stressor_start_frac < self.stressor_end_frac <= 1.0:
                raise ClusterSpecError(
                    "stressor window fractions must satisfy 0 <= start < end <= 1"
                )
        if self.epc_pages < 0:
            raise ClusterSpecError(
                f"epc_pages must be >= 0 (0 = full pool), got {self.epc_pages}"
            )

    # -- derived quantities (all pure) --------------------------------------

    @property
    def total_requests(self) -> int:
        """Requests the load generator schedules across the cluster."""
        return self.clients * self.ops_per_client

    @property
    def write_amplification(self) -> float:
        """Shard ops per client op, once replica writes are counted.

        Half the SecureKeeper ops are creates and each create fans out to
        ``R - 1`` replicas, so R=2 turns 1.0 client op into 1.25 shard
        ops.  TaLoS is stateless — nothing to replicate.
        """
        if self.variant == "talos":
            return 1.0
        return 1.0 + (self.effective_replication - 1) / 2.0

    @property
    def provisioned_nodes(self) -> int:
        """Node count the default rate is provisioned against.

        A self-healing cluster must carry its load on the nodes that
        survive the failure domain it claims to tolerate — during a kill
        window the survivors absorb the victims' share, so provisioning
        for all N nodes means running the survivors past saturation
        exactly when they are busiest.  Chaos-off clusters (and layouts
        too small to kill anything) provision for every node.
        """
        if not self.killed_nodes:
            return self.nodes
        return max(1, self.nodes - len(self.killed_nodes))

    @property
    def arrival_rate_rps(self) -> float:
        """Effective cluster-wide open-loop arrival rate.

        The per-variant default is a *per-shard* capacity, so the default
        rate deflates by the replication write amplification and scales
        with :attr:`provisioned_nodes` (N - kill_count under chaos) — a
        cluster provisioned for R=2 with one expendable node runs its
        shards at survivable utilisation, just like real capacity
        planning does.  An explicit ``rate_rps`` is always respected
        as-is.
        """
        if self.rate_rps > 0.0:
            return float(self.rate_rps)
        return (
            DEFAULT_NODE_RATE_RPS[self.variant]
            * self.provisioned_nodes
            / self.write_amplification
        )

    @property
    def horizon_ns(self) -> int:
        """Expected span of the arrival schedule in virtual nanoseconds."""
        return int(self.total_requests / self.arrival_rate_rps * 1e9)

    @property
    def effective_replication(self) -> int:
        """Replication factor actually usable on this topology."""
        return min(self.replication, self.nodes)

    @property
    def killed_node(self) -> Optional[int]:
        """Index of the first node lost mid-run, or ``None`` when none is."""
        nodes = self.killed_nodes
        return nodes[0] if nodes else None

    @property
    def killed_nodes(self) -> tuple[int, ...]:
        """Indices of the nodes lost in the kill window (correlated kill).

        ``kill_count`` consecutive nodes starting at ``kill_node`` (or, by
        default, ending at the last node) go down together.  At least one
        node always survives: kills only happen with two or more nodes, and
        validation caps ``kill_count`` at ``nodes`` — the all-nodes case is
        the :class:`ClusterUnavailable` path the router must survive.
        """
        if not self.chaos or self.nodes < 2:
            return ()
        first = self.kill_node if self.kill_node >= 0 else self.nodes - self.kill_count
        first = max(0, first)
        return tuple(
            sorted((first + i) % self.nodes for i in range(self.kill_count))
        )

    @property
    def kill_window_ns(self) -> Optional[tuple[int, int]]:
        """Virtual-time window during which the killed node(s) are gone."""
        if not self.killed_nodes:
            return None
        return (
            int(self.horizon_ns * self.kill_start_frac),
            int(self.horizon_ns * self.kill_end_frac),
        )

    def _pulses(self, window: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        """Split ``window`` into ``flaps`` down pulses with equal up gaps."""
        if self.flaps <= 0:
            return (window,)
        start, end = window
        # n pulses + (n-1) equal gaps; a flapping node is down for the
        # pulses and back up in between, re-triggering detection each time.
        span = end - start
        slot = span // (2 * self.flaps - 1)
        pulses = []
        for i in range(self.flaps):
            p_start = start + 2 * i * slot
            p_end = min(end, p_start + slot)
            if p_end > p_start:
                pulses.append((p_start, p_end))
        return tuple(pulses)

    def down_windows(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """node index → down windows (ground truth, for chaos injection).

        This is the *chaos schedule*, not routing state: node shards use it
        to drive partition windows, and tests compare the failure
        detector's suspicion intervals against it.  The router never reads
        it — routing runs purely on heartbeat-detected suspicion.
        """
        window = self.kill_window_ns
        if window is None:
            return {}
        pulses = self._pulses(window)
        return {node: pulses for node in self.killed_nodes}

    def slow_nodes_set(self) -> tuple[int, ...]:
        """Indices of the gray-failure (slow, not dead) nodes."""
        if not self.chaos or self.slow_nodes <= 0:
            return ()
        return tuple(range(min(self.slow_nodes, self.nodes)))

    def slow_window_ns(self) -> Optional[tuple[int, int]]:
        """Virtual-time window during which slow nodes drag, if any."""
        if not self.slow_nodes_set():
            return None
        return (
            int(self.horizon_ns * self.slow_start_frac),
            int(self.horizon_ns * self.slow_end_frac),
        )

    def slow_windows(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """node index → gray-failure slow windows (ground truth)."""
        window = self.slow_window_ns()
        if window is None:
            return {}
        return {node: (window,) for node in self.slow_nodes_set()}

    # Auto heartbeat cap: detection lag must stay absolute, not scale with
    # the horizon — at a long horizon a 1/200 interval would trap hundreds
    # of requests on a dead shard before suspicion triggers.
    HEARTBEAT_CAP_NS = 500_000

    @property
    def heartbeat_ns(self) -> int:
        """Effective probe interval (auto: horizon/200, capped at 500 µs)."""
        if self.heartbeat_interval_ns > 0:
            return self.heartbeat_interval_ns
        return max(1, min(self.horizon_ns // 200, self.HEARTBEAT_CAP_NS))

    def stressor_window_ns(self) -> Optional[tuple[int, int]]:
        """Virtual-time window the noisy neighbour hammers, if any."""
        if not self.stressor:
            return None
        return (
            int(self.horizon_ns * self.stressor_start_frac),
            int(self.horizon_ns * self.stressor_end_frac),
        )

    def node_seed(self, node_index: int) -> int:
        """Independent simulation seed for one node's isolated kernel."""
        digest = hashlib.sha256(
            f"cluster:{self.seed}:node:{node_index}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") % (2**31)

    # -- (de)serialisation ---------------------------------------------------

    def to_params(self) -> dict:
        """Flatten into scalar sweep parameters (seed travels separately)."""
        params = {f.name: getattr(self, f.name) for f in fields(self)}
        del params["seed"]  # the sweep grid owns the seed axis
        return params

    @classmethod
    def from_params(cls, params: dict) -> "ClusterSpec":
        """Build the spec from flat parameters, ignoring non-field keys.

        The parameters are a worker's sweep task parameters or the parsed
        ``sgxperf cluster`` flags.
        """
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in params.items() if k in names})

    @classmethod
    def from_dict(cls, mapping: dict) -> "ClusterSpec":
        """Build from a JSON-style mapping (unknown keys are an error)."""
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - names)
        if unknown:
            raise ClusterSpecError(f"unknown spec key(s): {', '.join(unknown)}")
        return cls(**mapping)

    def describe(self) -> str:
        """One-line human summary."""
        parts = [
            f"{self.variant} × {self.nodes} node(s), policy={self.policy}",
            f"{self.clients} clients × {self.ops_per_client} op(s)",
            f"rate {self.arrival_rate_rps:.0f}/s over {self.horizon_ns / 1e6:.1f} ms",
        ]
        if self.killed_nodes:
            start, end = self.kill_window_ns
            names = ",".join(str(n) for n in self.killed_nodes)
            flavor = " (asym)" if self.asym else ""
            flapping = f" × {self.flaps} flaps" if self.flaps else ""
            parts.append(
                f"node(s) {names} down {start / 1e6:.1f}-{end / 1e6:.1f} ms"
                f"{flapping}{flavor}"
            )
        if self.slow_nodes_set():
            start, end = self.slow_window_ns()
            names = ",".join(str(n) for n in self.slow_nodes_set())
            parts.append(
                f"node(s) {names} slow {start / 1e6:.1f}-{end / 1e6:.1f} ms"
            )
        if self.stressor:
            start, end = self.stressor_window_ns()
            epc = f", EPC {self.epc_pages}p" if self.epc_pages else ""
            brownout = "on" if self.brownout else "OFF"
            parts.append(
                f"stressor {self.stressor} x{self.stressor_intensity:g} "
                f"{start / 1e6:.1f}-{end / 1e6:.1f} ms{epc}, brownout {brownout}"
            )
        parts.append(f"R={self.effective_replication}")
        return ", ".join(parts)

    def canonical_json(self) -> str:
        """Stable JSON form (used in manifests and digests)."""
        return _canonical_json({f.name: getattr(self, f.name) for f in fields(self)})


def with_overrides(spec: ClusterSpec, **overrides) -> ClusterSpec:
    """A copy of ``spec`` with the given fields replaced (re-validated)."""
    return replace(spec, **overrides)
