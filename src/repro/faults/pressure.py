"""Resource-pressure plans: stressor co-tenants and EPC-squeeze windows.

The fault families in :mod:`repro.faults.plan` inject *failures*; real SGX
deployments more often degrade through *exhaustion* — another enclave on
the machine claims EPC frames and suddenly every page load evicts (§3.5,
§5.3).  A :class:`PressurePlan` makes that regime injectable:

* **stressor tenants** — windows during which a seeded
  :class:`~repro.workloads.stressors.app.StressorApp` co-tenant (its own
  enclave, built at window start on the *shared* device) hammers the
  machine with one profile from the Stress-SGX-style catalogue;
* **EPC squeezes** — windows during which ``pages`` frames of the shared
  EPC are reserved outright (:meth:`repro.sgx.epc.Epc.squeeze`), the
  moral equivalent of the kernel reclaiming EPC for another VM.

Everything is scheduled on the virtual clock from frozen plan data and
seeded RNG streams, so a pressured run replays byte-identically — and a
disabled plan arms nothing at all, keeping unpressured traces untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro import faultrows
from repro.faults.injector import InjectionLog
from repro.sim.process import SimProcess


@dataclass(frozen=True)
class StressorTenantPlan:
    """One noisy-neighbour window: a stressor profile sharing the device."""

    stressor: str = "epc-thrash"
    intensity: float = 1.0
    start_ns: int = 0
    end_ns: int = 0

    @property
    def active(self) -> bool:
        """Whether the window has any extent."""
        return self.end_ns > self.start_ns and self.intensity > 0.0


@dataclass(frozen=True)
class EpcSqueezeWindow:
    """A window during which ``pages`` EPC frames are reserved."""

    start_ns: int = 0
    end_ns: int = 0
    pages: int = 0

    @property
    def active(self) -> bool:
        """Whether the window has any extent and squeezes anything."""
        return self.end_ns > self.start_ns and self.pages > 0


@dataclass(frozen=True)
class PressurePlan:
    """A complete resource-pressure schedule for one shared device."""

    tenants: tuple[StressorTenantPlan, ...] = ()
    squeezes: tuple[EpcSqueezeWindow, ...] = ()
    # Salt mixed into RNG stream names and tenant labels, so two pressure
    # injectors in one simulation draw independently.
    stream_salt: str = field(default="pressure")

    def __post_init__(self) -> None:
        ordered = sorted(self.squeezes, key=lambda w: w.start_ns)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start_ns < earlier.end_ns:
                raise ValueError(
                    "EPC squeeze windows overlap: "
                    f"[{earlier.start_ns}, {earlier.end_ns}) and "
                    f"[{later.start_ns}, {later.end_ns})"
                )

    @property
    def enabled(self) -> bool:
        """Whether any window can ever fire."""
        return any(t.active for t in self.tenants) or any(
            s.active for s in self.squeezes
        )

    @property
    def horizon_ns(self) -> int:
        """Virtual time at which the last window has ended."""
        ends = [t.end_ns for t in self.tenants if t.active]
        ends += [s.end_ns for s in self.squeezes if s.active]
        return max(ends) if ends else 0

    @classmethod
    def disabled(cls) -> "PressurePlan":
        """A plan that schedules nothing (the zero-overhead baseline)."""
        return cls()


class PressureInjector(InjectionLog):
    """Arms a :class:`PressurePlan` on a process's shared device.

    Every window runs on its own daemon simulation thread: the injector
    never extends the run — when the real workload finishes, pending
    pressure dies with it.
    """

    def __init__(
        self,
        plan: PressurePlan,
        process: SimProcess,
        device: Any,
        logger: Optional[Any] = None,
        urts: Optional[Any] = None,
    ) -> None:
        super().__init__(process.sim, logger)
        self.plan = plan
        self.process = process
        self.device = device
        # The host's URTS, when one exists: tenant enclaves must share it
        # (one process owns one ``sgx_ecall`` symbol).
        self.urts = urts
        self._tenant_apps: list[Any] = []
        self._armed = False

    @property
    def tenant_ops(self) -> int:
        """Ops completed by every tenant so far (live — the host run may
        end mid-window, taking the daemon hammers with it)."""
        return sum(app.ops_done for app in self._tenant_apps)

    # -- bookkeeping --------------------------------------------------------

    def _sleep_until(self, when_ns: int) -> None:
        delay = when_ns - self.sim.now_ns
        if delay > 0:
            self.sim.compute(delay)

    # -- lifecycle ----------------------------------------------------------

    def arm(self) -> "PressureInjector":
        """Spawn the plan's pressure timelines (no-op when disabled)."""
        if self._armed:
            raise RuntimeError("pressure injector already armed")
        self._armed = True
        if not self.plan.enabled:
            return self
        if self.logger is not None:
            self.logger.enable_fault_recording()
        squeezes = tuple(
            sorted((s for s in self.plan.squeezes if s.active), key=lambda w: w.start_ns)
        )
        if squeezes:
            self.sim.spawn(
                self._squeeze_timeline,
                squeezes,
                name=f"{self.plan.stream_salt}-squeeze",
                daemon=True,
            )
        for index, tenant in enumerate(self.plan.tenants):
            if not tenant.active:
                continue
            self.sim.spawn(
                self._tenant_timeline,
                index,
                tenant,
                name=f"{self.plan.stream_salt}-tenant{index}",
                daemon=True,
            )
        return self

    # -- timelines ----------------------------------------------------------

    def _squeeze_timeline(self, windows: tuple[EpcSqueezeWindow, ...]) -> None:
        epc = self.device.epc
        for window in windows:
            self._sleep_until(window.start_ns)
            epc.squeeze(window.pages)
            self._record(
                faultrows.INJECT_EPC_SQUEEZE,
                0,
                "epc",
                f"-{window.pages} pages until {window.end_ns} ns "
                f"(usable {epc.effective_capacity}/{epc.capacity_pages})",
            )
            self._sleep_until(window.end_ns)
            epc.release_squeeze()
            self._record(faultrows.INJECT_EPC_RELEASE, 0, "epc", f"+{window.pages} pages")

    def _tenant_timeline(self, index: int, tenant: StressorTenantPlan) -> None:
        from repro.workloads.stressors.app import StressorApp
        from repro.workloads.stressors.profiles import get_profile

        self._sleep_until(tenant.start_ns)
        profile = get_profile(tenant.stressor, tenant.intensity)
        label = f"{self.plan.stream_salt}:tenant{index}"
        # Built at window start on the shared device: enclave creation
        # itself competes for EPC frames, exactly as §3.5 warns.
        app = StressorApp(
            self.process, self.device, profile, label=label, urts=self.urts
        )
        self._tenant_apps.append(app)
        self._record(
            faultrows.INJECT_STRESSOR_START,
            app.handle.enclave_id,
            tenant.stressor,
            f"x{tenant.intensity:g} footprint={app.footprint_pages}p "
            f"threads={profile.threads} until {tenant.end_ns} ns",
        )
        threads = app.spawn_tenants(tenant.end_ns)
        self._sleep_until(tenant.end_ns)
        # Hammer threads quit at their next op boundary; wait them out
        # before tearing the tenant enclave down under them.
        while any(thread.is_alive for thread in threads):
            self.sim.compute(1_000)
        app.close()
        self._record(
            faultrows.INJECT_STRESSOR_STOP,
            app.handle.enclave_id,
            tenant.stressor,
            f"ops={app.ops_done}",
        )
