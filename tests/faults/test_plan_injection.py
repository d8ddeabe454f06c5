"""Fault plans and the injector's four injection families."""

from __future__ import annotations

import pytest

from repro.faultrows import (
    INJECT_EPC,
    INJECT_LOSS,
    INJECT_OCALL_DELAY,
    INJECT_OCALL_ERROR,
    INJECT_TCS,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    EnclaveLossPlan,
    FaultPlan,
    OcallFaultPlan,
    TcsExhaustionPlan,
    TransientEpcPlan,
)
from repro.sdk.edger8r import SYNC_OCALL_NAMES
from repro.sdk.errors import SgxError, SgxStatus


class TestPlans:
    def test_disabled_plan_is_inactive(self):
        plan = FaultPlan.disabled()
        assert not plan.enabled

    def test_plan_with_any_active_family_is_enabled(self):
        assert FaultPlan(enclave_loss=EnclaveLossPlan(at_ns=(100,))).enabled
        assert FaultPlan(epc=TransientEpcPlan(probability=0.5)).enabled
        assert FaultPlan(ocall=OcallFaultPlan(error_probability=0.1)).enabled
        assert FaultPlan(tcs=TcsExhaustionPlan(windows=((0, 10),))).enabled

    def test_zero_probability_families_are_inactive(self):
        plan = FaultPlan(
            enclave_loss=EnclaveLossPlan(),
            epc=TransientEpcPlan(probability=0.0),
            ocall=OcallFaultPlan(),
            tcs=TcsExhaustionPlan(),
        )
        assert not plan.enabled

    def test_tcs_windows_are_half_open(self):
        plan = TcsExhaustionPlan(windows=((100, 200),))
        assert not plan.exhausted_at(99)
        assert plan.exhausted_at(100)
        assert plan.exhausted_at(199)
        assert not plan.exhausted_at(200)


class TestInjection:
    def test_scheduled_loss_fails_next_eenter(self, urts, simple_enclave):
        plan = FaultPlan(enclave_loss=EnclaveLossPlan(at_ns=(0,)))
        injector = FaultInjector(plan, urts.sim).attach(urts)
        status, result = simple_enclave.try_ecall("ecall_add", 1, 2)
        assert status is SgxStatus.SGX_ERROR_ENCLAVE_LOST
        assert result is None
        assert simple_enclave.enclave.lost
        assert [f.kind for f in injector.injected] == [INJECT_LOSS]
        # The scheduled entry is consumed: no second loss record.
        status, _ = simple_enclave.try_ecall("ecall_add", 1, 2)
        assert status is SgxStatus.SGX_ERROR_ENCLAVE_LOST
        assert injector.total_injected == 1

    def test_loss_releases_epc_frames(self, urts, simple_enclave):
        resident_before = sum(1 for p in simple_enclave.enclave.pages if p.resident)
        assert resident_before > 0
        plan = FaultPlan(enclave_loss=EnclaveLossPlan(at_ns=(0,)))
        FaultInjector(plan, urts.sim).attach(urts)
        simple_enclave.try_ecall("ecall_add", 1, 2)
        assert all(not p.resident for p in simple_enclave.enclave.pages)

    def test_tcs_exhaustion_window(self, urts, simple_enclave):
        plan = FaultPlan(tcs=TcsExhaustionPlan(windows=((0, 10**15),)))
        injector = FaultInjector(plan, urts.sim).attach(urts)
        status, _ = simple_enclave.try_ecall("ecall_add", 1, 2)
        assert status is SgxStatus.SGX_ERROR_OUT_OF_TCS
        assert [f.kind for f in injector.injected] == [INJECT_TCS]

    def test_tcs_window_in_the_past_is_harmless(self, urts, simple_enclave):
        urts.sim.compute(1_000)
        plan = FaultPlan(tcs=TcsExhaustionPlan(windows=((0, 500),)))
        FaultInjector(plan, urts.sim).attach(urts)
        assert simple_enclave.ecall("ecall_add", 1, 2) == 3

    def test_ocall_error_unwinds_as_sgx_error(self, urts, simple_enclave):
        plan = FaultPlan(ocall=OcallFaultPlan(error_probability=1.0))
        injector = FaultInjector(plan, urts.sim).attach(urts)
        with pytest.raises(SgxError) as exc_info:
            simple_enclave.ecall("ecall_with_ocall")
        assert exc_info.value.status is SgxStatus.SGX_ERROR_UNEXPECTED
        assert [f.kind for f in injector.injected] == [INJECT_OCALL_ERROR]
        assert injector.injected[0].call == "ocall_log"

    def test_ocall_delay_charges_virtual_time(self, urts, simple_enclave):
        baseline_start = urts.sim.now_ns
        simple_enclave.ecall("ecall_with_ocall")
        baseline = urts.sim.now_ns - baseline_start

        delay_ns = 250_000
        plan = FaultPlan(ocall=OcallFaultPlan(delay_probability=1.0, delay_ns=delay_ns))
        injector = FaultInjector(plan, urts.sim).attach(urts)
        start = urts.sim.now_ns
        simple_enclave.ecall("ecall_with_ocall")
        assert urts.sim.now_ns - start >= baseline + delay_ns
        assert [f.kind for f in injector.injected] == [INJECT_OCALL_DELAY]

    def test_sync_ocalls_are_exempt_by_default(self, urts, simple_enclave):
        plan = FaultPlan(ocall=OcallFaultPlan(error_probability=1.0))
        injector = FaultInjector(plan, urts.sim).attach(urts)
        runtime = urts.runtime(simple_enclave.enclave_id)
        # Dispatch the hook directly with a sync-ocall name: no injection.
        injector.on_ocall_dispatch(runtime, 0, SYNC_OCALL_NAMES[0])
        assert injector.total_injected == 0

    def test_epc_transient_charges_retry(self, urts, simple_enclave):
        plan = FaultPlan(epc=TransientEpcPlan(probability=1.0, retry_cost_ns=1_400))
        injector = FaultInjector(plan, urts.sim).attach(urts)
        before = urts.sim.now_ns
        injector.on_page_crossing("page_in")
        assert urts.sim.now_ns - before == 1_400
        assert [f.kind for f in injector.injected] == [INJECT_EPC]

    def test_detach_restores_clean_behaviour(self, urts, simple_enclave):
        plan = FaultPlan(ocall=OcallFaultPlan(error_probability=1.0))
        injector = FaultInjector(plan, urts.sim).attach(urts)
        injector.detach()
        assert urts._fault_hook is None
        assert urts.device.driver._fault_hook is None
        assert simple_enclave.ecall("ecall_with_ocall") == 0

    def test_injector_is_a_context_manager(self, urts, simple_enclave):
        plan = FaultPlan(ocall=OcallFaultPlan(error_probability=1.0))
        with FaultInjector(plan, urts.sim).attach(urts):
            with pytest.raises(SgxError):
                simple_enclave.ecall("ecall_with_ocall")
        assert urts._fault_hook is None
        assert simple_enclave.ecall("ecall_with_ocall") == 0

    def test_disabled_plan_injects_nothing(self, urts, simple_enclave):
        injector = FaultInjector(FaultPlan.disabled(), urts.sim).attach(urts)
        for _ in range(20):
            assert simple_enclave.ecall("ecall_with_ocall") == 0
        assert injector.total_injected == 0
        assert injector.stats == {}
