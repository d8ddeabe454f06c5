"""The machine's SGX facility: CPU cost model, EPC, driver, timer.

One :class:`SgxDevice` per simulated machine.  Several processes (a
multi-tenant cloud host) share the same device and therefore compete for
the same EPC — the scenario §3.5 warns about.
"""

from __future__ import annotations

from typing import Optional

from repro.sgx.constants import PatchLevel
from repro.sgx.cpu import SgxCpu
from repro.sgx.epc import Epc
from repro.sgx.paging import SgxDriver
from repro.sim.interrupts import TimerInterruptSource
from repro.sim.kernel import Simulation


class SgxDevice:
    """Everything SGX-related that belongs to the machine, not a process."""

    def __init__(
        self,
        sim: Simulation,
        patch_level: PatchLevel = PatchLevel.BASELINE,
        epc: Optional[Epc] = None,
        timer_period_ns: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.cpu = SgxCpu(patch_level)
        self.epc = epc or Epc()
        self.driver = SgxDriver(sim, self.cpu, self.epc)
        if timer_period_ns is None:
            self.timer = TimerInterruptSource(sim.rng)
        else:
            self.timer = TimerInterruptSource(sim.rng, timer_period_ns)

    def __repr__(self) -> str:
        return f"SgxDevice(patch={self.cpu.patch_level.value}, epc={self.epc!r})"
