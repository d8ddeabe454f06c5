"""ResilientEnclave: the destroy/re-create/replay loop, under injection."""

from __future__ import annotations

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import EnclaveLossPlan, FaultPlan, TcsExhaustionPlan
from repro.sdk.edger8r import build_enclave
from repro.sdk.errors import EnclaveLostError, SgxError, SgxStatus
from repro.sdk.resilience import (
    RECOVER_GIVEUP,
    RECOVER_RECREATE,
    RECOVER_RETRY,
    ResilientEnclave,
)
from repro.sgx.enclave import EnclaveConfig

from tests.conftest import SIMPLE_EDL, make_simple_impls


def make_factory(urts):
    trusted, untrusted = make_simple_impls()

    def factory():
        return build_enclave(
            urts,
            SIMPLE_EDL,
            trusted,
            untrusted,
            config=EnclaveConfig(heap_bytes=128 * 1024, tcs_count=4),
        )

    return factory


class TestResilientEnclave:
    def test_survives_mid_workload_loss(self, urts):
        # Schedule a loss to land in the middle of a 10-call workload.
        plan = FaultPlan(enclave_loss=EnclaveLossPlan(at_ns=(200_000,)))
        FaultInjector(plan, urts.sim).attach(urts)
        resilient = ResilientEnclave(make_factory(urts))
        first_id = resilient.enclave_id
        for i in range(10):
            assert resilient.ecall("ecall_add", i, i) == 2 * i
            urts.sim.compute(50_000)
        assert resilient.generation == 1
        assert resilient.enclave_id != first_id
        assert resilient.stats[RECOVER_RECREATE] == 1
        assert resilient.stats[RECOVER_RETRY] >= 1
        kinds = [e.kind for e in resilient.events]
        assert RECOVER_GIVEUP not in kinds

    def test_exhausted_retries_raise_enclave_lost(self, urts):
        # Probability 1.0: every fresh enclave is lost again on next entry.
        plan = FaultPlan(enclave_loss=EnclaveLossPlan(probability=1.0))
        FaultInjector(plan, urts.sim).attach(urts)
        resilient = ResilientEnclave(make_factory(urts), max_attempts=3)
        with pytest.raises(EnclaveLostError):
            resilient.ecall("ecall_add", 1, 2)
        assert resilient.stats[RECOVER_GIVEUP] == 1
        # Each non-final attempt recovered: max_attempts - 1 re-creates.
        assert resilient.generation == 2

    def test_transient_tcs_retries_without_recreate(self, urts):
        # A short burst starting now; the first backoff escapes the window.
        resilient = ResilientEnclave(make_factory(urts), backoff_ns=100_000)
        now = urts.sim.now_ns
        plan = FaultPlan(tcs=TcsExhaustionPlan(windows=((now, now + 50_000),)))
        FaultInjector(plan, urts.sim).attach(urts)
        assert resilient.ecall("ecall_add", 3, 4) == 7
        assert resilient.generation == 0
        assert resilient.stats[RECOVER_RETRY] == 1
        assert resilient.events[0].status is SgxStatus.SGX_ERROR_OUT_OF_TCS

    def test_non_retryable_status_raises_immediately(self, urts):
        resilient = ResilientEnclave(make_factory(urts))
        with pytest.raises(SgxError) as exc_info:
            resilient.ecall("ecall_private")
        assert exc_info.value.status is SgxStatus.SGX_ERROR_ECALL_NOT_ALLOWED
        assert resilient.events == []

    def test_concurrent_threads_share_one_recreate(self, urts):
        plan = FaultPlan(enclave_loss=EnclaveLossPlan(at_ns=(150_000,)))
        FaultInjector(plan, urts.sim).attach(urts)
        resilient = ResilientEnclave(make_factory(urts))
        done = {"calls": 0}

        def worker():
            for i in range(10):
                assert resilient.ecall("ecall_compute", 20_000) == 0
                done["calls"] += 1

        for i in range(3):
            urts.sim.spawn(worker, name=f"w{i}")
        urts.sim.run()
        assert done["calls"] == 30
        # One loss, observed by up to three threads, recovered exactly once.
        assert resilient.generation == 1
        assert resilient.stats[RECOVER_RECREATE] == 1

    def test_max_attempts_must_be_positive(self, urts):
        with pytest.raises(ValueError):
            ResilientEnclave(make_factory(urts), max_attempts=0)


class TestEpcDegradation:
    """Sustained EpcFull is degradation, not loss: back off, never rebuild."""

    class _StarvedHandle:
        """A handle whose entries hit a starved EPC ``failures`` times."""

        def __init__(self, urts, failures):
            from repro.sgx.epc import EpcFull

            self.urts = urts
            self.enclave_id = 99
            self._failures = failures
            self._error = EpcFull(
                "no evictable frame",
                requested_pages=1,
                resident_pages=10,
                capacity_pages=10,
                effective_capacity=4,
                squeezed_pages=6,
            )
            self.destroyed = False

        def try_ecall(self, name, *args):
            if self._failures > 0:
                self._failures -= 1
                raise self._error
            return SgxStatus.SGX_SUCCESS, "ok"

        def destroy(self):
            self.destroyed = True

    def test_epc_full_backs_off_without_recreating(self, urts):
        from repro.sdk.resilience import RECOVER_EPC_WAIT

        handle = self._StarvedHandle(urts, failures=2)
        resilient = ResilientEnclave(lambda: handle, backoff_ns=100_000)
        start = urts.sim.now_ns
        assert resilient.ecall("ecall_add") == "ok"
        assert resilient.generation == 0  # never re-created
        assert resilient.stats[RECOVER_EPC_WAIT] == 2
        assert RECOVER_RECREATE not in resilient.stats
        # Two waits with exponential backoff: at least 100k + 200k ns.
        assert urts.sim.now_ns - start >= 300_000
        assert not handle.destroyed

    def test_sustained_starvation_raises_the_typed_error(self, urts):
        from repro.sdk.resilience import RECOVER_EPC_WAIT
        from repro.sgx.epc import EpcFull

        handle = self._StarvedHandle(urts, failures=10)
        resilient = ResilientEnclave(lambda: handle, max_attempts=3)
        with pytest.raises(EpcFull) as excinfo:
            resilient.ecall("ecall_add")
        # The typed error surfaces with its occupancy context intact.
        assert excinfo.value.squeezed_pages == 6
        assert resilient.stats[RECOVER_EPC_WAIT] == 2
        assert resilient.stats[RECOVER_GIVEUP] == 1
        assert resilient.generation == 0
