"""In-enclave execution context.

While a simulated thread executes inside an enclave it does so through an
:class:`EnclaveExecution`: compute time consumed here is sliced at timer
ticks, each tick triggering an Asynchronous Enclave Exit (context save,
interrupt handler outside, ERESUME back in — paper §2.1).  Page faults on
non-resident EPC pages likewise exit asynchronously and run the driver's
fault path.

The AEP — the user-space location that decides how to resume after an AEX —
is modelled as the ``aep_hook`` callable.  The SDK's URTS points it at plain
ERESUME; sgx-perf's logger *patches* it to count or trace AEXs first
(paper §4.1.4).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sgx import constants as c
from repro.sgx.cpu import SgxCpu
from repro.sgx.enclave import Enclave, Page
from repro.sgx.events import AexInfo, AexReason
from repro.sgx.paging import SgxDriver
from repro.sim.interrupts import TimerInterruptSource
from repro.sim.kernel import Simulation

AepHook = Callable[[AexInfo], None]


class EnclaveExecution:
    """Execution state of one thread currently inside an enclave."""

    def __init__(
        self,
        sim: Simulation,
        cpu: SgxCpu,
        timer: TimerInterruptSource,
        driver: SgxDriver,
        enclave: Enclave,
        tcs_slot: int,
        aep_hook: Optional[AepHook] = None,
        expose_aex_reasons: bool = False,
    ) -> None:
        self.sim = sim
        self.cpu = cpu
        # Timer ticks fall at phase + k * period; both are fixed per timer.
        self._tick_phase_ns = timer.phase_ns
        self._tick_period_ns = timer.period_ns
        self.driver = driver
        self.enclave = enclave
        self.tcs_slot = tcs_slot
        self.aep_hook = aep_hook
        # SGX v2 + debug enclave: the exit reason is recorded in the enclave
        # state and readable by tooling (paper §4.1.4, "SGX v2 will enable
        # this").  Off by default, like the v1 hardware the paper targets.
        self.expose_aex_reasons = expose_aex_reasons and enclave.config.debug
        self.aex_count = 0

    # -- transitions (charged by the SDK runtimes) ---------------------------

    def eenter(self) -> None:
        """Synchronous entry (EENTER)."""
        self.sim.compute(self.cpu.eenter_ns)

    def eexit(self) -> None:
        """Synchronous exit (EEXIT)."""
        self.sim.compute(self.cpu.eexit_ns)

    # -- in-enclave activity ---------------------------------------------------

    def compute(self, duration_ns: int) -> None:
        """Execute for ``duration_ns`` inside the enclave.

        The slice is interrupted by every timer tick it spans; each tick
        causes a full AEX round (save, handler, AEP, ERESUME).  Time spent
        handling an AEX happens *outside* the enclave and therefore cannot
        itself be interrupted — only remaining enclave work can.  A slice
        that ends exactly on a tick is not interrupted by it.
        """
        remaining = int(duration_ns)
        sim = self.sim
        clock = sim.clock
        period = self._tick_period_ns
        phase = self._tick_phase_ns
        while remaining > 0:
            # Time to the first tick strictly after now: in [1, period].
            to_tick = period - (clock.now_ns - phase) % period
            if remaining <= to_tick:
                sim.compute(remaining)
                return
            sim.compute(to_tick)
            remaining -= to_tick
            self._aex(AexReason.INTERRUPT, c.INTERRUPT_HANDLER_NS)

    def touch(self, page: Page, write: bool = False) -> None:
        """Access one enclave page, faulting it in if it was evicted.

        MMU-permission checks (the working set estimator's lever) happen in
        :class:`repro.sgx.mmu.Mmu`; this is the EPC-residency layer.
        """
        if not page.resident:
            self._aex(
                AexReason.PAGE_FAULT,
                c.PAGE_FAULT_KERNEL_NS,
                fault_work=lambda: self.driver.load_page(page),
            )
        page.accessed = True

    # -- the AEX machinery -------------------------------------------------------

    def _aex(
        self,
        reason: AexReason,
        handler_ns: int,
        fault_work: Optional[Callable[[], None]] = None,
    ) -> None:
        self.aex_count += 1
        self.sim.compute(self.cpu.aex_save_ns)
        self.sim.compute(self.sim.rng.jitter_ns("sgx:aex-handler", handler_ns))
        if fault_work is not None:
            fault_work()
        info = AexInfo(
            timestamp_ns=self.sim.now_ns,
            enclave_id=self.enclave.enclave_id,
            tcs_index=self.tcs_slot,
            reason=reason if self.expose_aex_reasons else None,
        )
        if self.aep_hook is not None:
            self.aep_hook(info)
        self.sim.compute(self.cpu.eresume_ns)
