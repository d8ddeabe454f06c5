"""Deterministic fault campaigns: one command, one reproducible run.

A campaign runs a small multi-threaded enclave workload under the event
logger with a :class:`~repro.faults.injector.FaultInjector` attached and a
:class:`~repro.sdk.resilience.ResilientEnclave` doing the surviving, then
digests the resulting trace.  Same seed → same faults → same retries →
same trace, byte for byte; the CI gate runs each seed twice and compares
digests.

From the command line::

    sgxperf campaign --seed 7 --digest-only

"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.digest import trace_digest
from repro.faults.injector import INJECT_LOSS, FaultInjector
from repro.faults.plan import (
    EnclaveLossPlan,
    FaultPlan,
    OcallFaultPlan,
    TcsExhaustionPlan,
    TransientEpcPlan,
)
from repro.perf.logger import AexMode, EventLogger
from repro.sdk.edger8r import build_enclave
from repro.sdk.errors import EnclaveLostError, SgxError
from repro.sdk.resilience import RECOVER_RECREATE, ResilientEnclave
from repro.sdk.urts import Urts
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig
from repro.sim.process import SimProcess

CAMPAIGN_EDL = """
enclave {
    trusted {
        public int ecall_work(int a, int b);
        public int ecall_io(int n);
    };
    untrusted {
        int ocall_store([in, string] char* msg);
    };
};
"""

def default_plan() -> FaultPlan:
    """The standard campaign: every fault family armed."""
    return FaultPlan(
        enclave_loss=EnclaveLossPlan(probability=0.02),
        epc=TransientEpcPlan(probability=0.05),
        ocall=OcallFaultPlan(
            error_probability=0.03, delay_probability=0.05, delay_ns=40_000
        ),
        tcs=TcsExhaustionPlan(windows=((2_000_000, 2_400_000),)),
    )


def _campaign_impls():
    def ecall_work(ctx, a, b):
        ctx.compute(3_000)
        return a + b

    def ecall_io(ctx, n):
        ctx.ocall("ocall_store", f"item-{n}")
        return n

    def ocall_store(uctx, msg):
        uctx.compute(2_000)
        return len(msg)

    trusted = {"ecall_work": ecall_work, "ecall_io": ecall_io}
    untrusted = {"ocall_store": ocall_store}
    return trusted, untrusted


@dataclass
class CampaignResult:
    """What one campaign run produced."""

    seed: int
    completed_calls: int
    failed_calls: int
    duration_ns: int
    injected: dict[str, int]
    recovery: dict[str, int]
    recreates: int
    recovery_latencies_ns: list[int] = field(default_factory=list)
    digest: str = ""

    @property
    def total_injected(self) -> int:
        """Faults the injector fired, across all families."""
        return sum(self.injected.values())

    @property
    def mean_recovery_latency_ns(self) -> float:
        """Mean virtual time from enclave loss to completed re-create."""
        if not self.recovery_latencies_ns:
            return 0.0
        return sum(self.recovery_latencies_ns) / len(self.recovery_latencies_ns)


def run_campaign(
    seed: int,
    db_path: str = ":memory:",
    workers: int = 3,
    calls_per_worker: int = 40,
    plan: Optional[FaultPlan] = None,
    use_injector: bool = True,
) -> CampaignResult:
    """Run one deterministic fault campaign; returns the result + digest.

    ``plan=None`` arms the :func:`default_plan`.  ``use_injector=False``
    skips attaching an injector entirely — the pure baseline the
    zero-overhead guarantee is measured against.
    """
    if plan is None:
        plan = default_plan()
    process = SimProcess(seed=seed)
    sim = process.sim
    device = SgxDevice(sim)
    urts = Urts(process, device)
    trusted, untrusted = _campaign_impls()

    def factory():
        return build_enclave(
            urts,
            CAMPAIGN_EDL,
            trusted,
            untrusted,
            config=EnclaveConfig(
                name="campaign", heap_bytes=128 * 1024, tcs_count=max(4, workers)
            ),
        )

    logger = EventLogger(process, urts, database=db_path, aex_mode=AexMode.COUNT)
    injector = FaultInjector(plan, sim, logger=logger)
    counters = {"completed": 0, "failed": 0}

    logger.install()
    if use_injector:
        injector.attach(urts)
    resilient = ResilientEnclave(
        factory, max_attempts=6, backoff_ns=100_000, logger=logger
    )

    def worker(wid: int) -> None:
        for i in range(calls_per_worker):
            try:
                if i % 3 == 2:
                    resilient.ecall("ecall_io", wid * 1_000 + i)
                else:
                    resilient.ecall("ecall_work", wid, i)
                counters["completed"] += 1
            except (EnclaveLostError, SgxError):
                counters["failed"] += 1

    for wid in range(workers):
        process.pthread_create(worker, wid, name=f"worker-{wid}")
    sim.run()

    injector.detach()
    logger.uninstall()
    db = logger.finalize()

    # Loss → re-create latency: pair each injected loss with the first
    # completed re-create at or after it.
    losses = [f.timestamp_ns for f in injector.injected if f.kind == INJECT_LOSS]
    recreates = [e.timestamp_ns for e in resilient.events if e.kind == RECOVER_RECREATE]
    latencies: list[int] = []
    for loss_ts in losses:
        match = next((ts for ts in recreates if ts >= loss_ts), None)
        if match is not None:
            latencies.append(match - loss_ts)
            recreates.remove(match)

    result = CampaignResult(
        seed=seed,
        completed_calls=counters["completed"],
        failed_calls=counters["failed"],
        duration_ns=sim.now_ns,
        injected=dict(injector.stats),
        recovery=dict(resilient.stats),
        recreates=resilient.generation,
        recovery_latencies_ns=latencies,
        digest=trace_digest(db),
    )
    db.close()
    return result
