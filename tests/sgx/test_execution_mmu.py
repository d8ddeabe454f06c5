"""In-enclave execution (AEX slicing) and the MMU permission layer."""

import pytest

from repro.sgx.constants import PatchLevel
from repro.sgx.cpu import SgxCpu
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig, PageType, Permission
from repro.sgx.events import AexReason, PageFaultInfo
from repro.sgx.execution import EnclaveExecution
from repro.sgx.mmu import Mmu, SgxPermissionError
from repro.sim.process import SIGSEGV, SignalFault, SimProcess


@pytest.fixture
def setup():
    process = SimProcess(seed=3)
    device = SgxDevice(process.sim, timer_period_ns=100_000)
    enclave = device.driver.create_enclave(EnclaveConfig(debug=True))
    execution = EnclaveExecution(
        sim=process.sim,
        cpu=device.cpu,
        timer=device.timer,
        driver=device.driver,
        enclave=enclave,
        tcs_slot=0,
    )
    return process, device, enclave, execution


class TestCpu:
    def test_round_trips_match_paper(self):
        assert SgxCpu(PatchLevel.BASELINE).transition_round_trip_ns == 2_130
        assert SgxCpu(PatchLevel.SPECTRE).transition_round_trip_ns == 3_850
        assert SgxCpu(PatchLevel.L1TF).transition_round_trip_ns == 4_890

    def test_eresume_costs_more_than_eenter(self):
        for level in PatchLevel:
            cpu = SgxCpu(level)
            assert cpu.eresume_ns > cpu.eenter_ns

    def test_copy_cost_scales(self):
        cpu = SgxCpu()
        assert cpu.copy_cost_ns(10_000) > cpu.copy_cost_ns(100) > 0

    def test_rejects_non_patchlevel(self):
        with pytest.raises(TypeError):
            SgxCpu("baseline")


class TestAexSlicing:
    def test_short_compute_no_aex(self, setup):
        process, device, enclave, execution = setup
        execution.compute(1_000)
        assert execution.aex_count == 0

    def test_long_compute_gets_interrupted(self, setup):
        process, device, enclave, execution = setup
        execution.compute(1_050_000)  # ~10.5 timer periods
        assert 9 <= execution.aex_count <= 12

    @staticmethod
    def _to_next_tick(process, device):
        now = process.sim.now_ns
        return next(device.timer.ticks_in(now, now + device.timer.period_ns)) - now

    def test_slice_ending_on_a_tick_takes_no_aex(self, setup):
        process, device, enclave, execution = setup
        execution.compute(self._to_next_tick(process, device))
        assert execution.aex_count == 0

    def test_slice_one_ns_past_a_tick_takes_one_aex(self, setup):
        process, device, enclave, execution = setup
        execution.compute(self._to_next_tick(process, device) + 1)
        assert execution.aex_count == 1

    def test_aex_cost_inflates_duration(self, setup):
        process, device, enclave, execution = setup
        start = process.sim.now_ns
        execution.compute(1_000_000)
        elapsed = process.sim.now_ns - start
        assert elapsed > 1_000_000  # AEX handling takes time on top

    def test_aep_hook_called_per_aex(self, setup):
        process, device, enclave, execution = setup
        infos = []
        execution.aep_hook = infos.append
        execution.compute(500_000)
        assert len(infos) == execution.aex_count > 0
        assert all(i.enclave_id == enclave.enclave_id for i in infos)

    def test_debug_enclave_exposes_reason(self, setup):
        process, device, enclave, execution = setup
        execution.expose_aex_reasons = True and enclave.config.debug
        infos = []
        execution.aep_hook = infos.append
        execution.compute(300_000)
        assert all(i.reason is AexReason.INTERRUPT for i in infos)

    def test_production_enclave_hides_reason(self):
        process = SimProcess(seed=3)
        device = SgxDevice(process.sim, timer_period_ns=50_000)
        enclave = device.driver.create_enclave(EnclaveConfig(debug=False))
        execution = EnclaveExecution(
            sim=process.sim,
            cpu=device.cpu,
            timer=device.timer,
            driver=device.driver,
            enclave=enclave,
            tcs_slot=0,
            expose_aex_reasons=True,  # requested but not a debug enclave
        )
        infos = []
        execution.aep_hook = infos.append
        execution.compute(200_000)
        assert infos and all(i.reason is None for i in infos)

    def test_touch_nonresident_page_faults(self, setup):
        process, device, enclave, execution = setup
        victim = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        device.driver.epc.remove(victim)
        before = execution.aex_count
        execution.touch(victim)
        assert victim.resident
        assert execution.aex_count == before + 1


class TestMmu:
    def test_access_allowed_page(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        mmu.access(enclave, heap, write=True, execution=execution)
        assert heap.accessed

    def test_write_to_readonly_sgx_page_rejected(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        code = next(p for p in enclave.pages if p.page_type is PageType.CODE)
        # Grant MMU write so the (immutable) SGX permission check is the one
        # that fires — it comes second, after the page tables.
        code.os_perms = Permission.RW
        with pytest.raises(SgxPermissionError):
            mmu.access(enclave, code, write=True, execution=execution)

    def test_stripped_page_faults_to_handler(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        faults = []

        def handler(signum, info):
            assert signum == SIGSEGV
            assert isinstance(info, PageFaultInfo)
            faults.append(info)
            heap.os_perms = Permission.RW
            return True

        process.register_signal_handler(SIGSEGV, handler)
        heap.os_perms = Permission.NONE
        mmu.access(enclave, heap, write=True, execution=execution)
        assert len(faults) == 1
        assert faults[0].write

    def test_unhandled_fault_kills(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        heap.os_perms = Permission.NONE
        with pytest.raises(SignalFault):
            mmu.access(enclave, heap, execution=execution)

    def test_handler_that_never_fixes_loops_bounded(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        heap.os_perms = Permission.NONE
        process.register_signal_handler(SIGSEGV, lambda s, i: True)  # lies
        with pytest.raises(SgxPermissionError, match="fault loop"):
            mmu.access(enclave, heap, execution=execution)

    def test_protect_counts_extents(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = [p for p in enclave.pages if p.page_type is PageType.HEAP]
        # Two contiguous runs: pages [0,1,2] and [5,6].
        selected = heap[0:3] + heap[5:7]
        extents = mmu.protect(selected, Permission.NONE, charge=False)
        assert extents == 2
        assert all(p.os_perms == Permission.NONE for p in selected)

    def test_untrusted_access_to_nonresident_rejected(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        device.driver.epc.remove(heap)
        with pytest.raises(SgxPermissionError):
            mmu.access(enclave, heap)  # no execution context
