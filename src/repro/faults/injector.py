"""The fault injector: carries a :class:`FaultPlan` into the model.

One injector serves one process: :meth:`FaultInjector.attach` installs it
as the URTS's fault hook (ecall entry, ocall dispatch) and as the SGX
driver's paging hook.  Every injection is drawn from named, seeded RNG
streams and stamped with virtual time, so campaigns are fully
deterministic; every injection is also recorded — in the injector's own
``injected`` log always, and in the trace's ``faults`` table when an
:class:`~repro.perf.logger.EventLogger` is wired in.

With a disabled plan (or no injector attached at all) the instrumented
paths consume no virtual time and draw no random numbers: traces are
byte-identical to the fault-free runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro import faultrows
from repro.faults.plan import FaultPlan
from repro.sdk.edger8r import SYNC_OCALL_NAMES
from repro.sdk.errors import SgxError, SgxStatus
from repro.sim.kernel import Simulation
from repro.sim.net import SocketClosed


@dataclass(frozen=True)
class InjectedFault:
    """One fault the injector actually fired."""

    kind: str
    timestamp_ns: int
    enclave_id: int
    call: str
    detail: str


class InjectionLog:
    """What an injector fired: ``injected`` in order, per-kind ``stats``,
    and one ``faults`` row each when a logger is wired in."""

    def __init__(self, sim: Simulation, logger: Optional[Any]) -> None:
        self.sim = sim
        self.logger = logger
        self.injected: list[InjectedFault] = []
        self.stats: dict[str, int] = {}

    def _record(self, kind: str, enclave_id: int, call: str, detail: str) -> None:
        self.injected.append(InjectedFault(kind, self.sim.now_ns, enclave_id, call, detail))
        self.stats[kind] = self.stats.get(kind, 0) + 1
        if self.logger is not None:
            self.logger.record_fault(kind, enclave_id=enclave_id, call=call, detail=detail)


class FaultInjector(InjectionLog):
    """Wires a :class:`FaultPlan` into a URTS, its driver and its logger."""

    def __init__(
        self,
        plan: FaultPlan,
        sim: Simulation,
        logger: Optional[Any] = None,
    ) -> None:
        super().__init__(sim, logger)
        self.plan = plan
        loss = plan.enclave_loss
        self._loss_due: list[int] = sorted(loss.at_ns) if loss else []
        self._attached: list[Any] = []
        self._listeners: list[Any] = []

    # -- lifecycle ----------------------------------------------------------

    def attach(self, urts: Any) -> "FaultInjector":
        """Install the injector into ``urts`` and its device driver."""
        urts.set_fault_hook(self)
        urts.device.driver.set_fault_hook(self.on_page_crossing)
        self._attached.append(urts)
        # A disabled plan must leave the trace byte-identical, so status
        # observation stays off too — the injector is then fully inert.
        if self.logger is not None and self.plan.enabled:
            self.logger.enable_fault_recording()
        return self

    def attach_network(self, listener: Any) -> "FaultInjector":
        """Install the injector as the chaos hook on ``listener``.

        The hook propagates to every connection the listener establishes.
        Like :meth:`attach`, a disabled plan keeps the injector inert and
        fault recording off, so chaos-off traces stay byte-identical.
        """
        listener.set_chaos(self)
        self._listeners.append(listener)
        if self.logger is not None and self.plan.enabled:
            self.logger.enable_fault_recording()
        return self

    def detach(self) -> None:
        """Remove the injector from everything it was attached to."""
        for urts in self._attached:
            urts.set_fault_hook(None)
            urts.device.driver.set_fault_hook(None)
        self._attached.clear()
        for listener in self._listeners:
            listener.set_chaos(None)
        self._listeners.clear()

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # -- bookkeeping --------------------------------------------------------

    def _stream(self, name: str):
        return self.sim.rng.stream(f"{self.plan.stream_salt}:{name}")

    # -- hook: ecall entry (called by Urts._sgx_ecall) ----------------------

    def on_ecall_entry(self, runtime: Any) -> Optional[SgxStatus]:
        """May invalidate the enclave or force an entry failure.

        Returns a status to short-circuit ``sgx_ecall`` with, or ``None``
        to let the entry proceed (including proceeding into the URTS's own
        enclave-lost check, if this call just invalidated the enclave).
        """
        now = self.sim.now_ns
        plan = self.plan
        loss = plan.enclave_loss
        if loss is not None and loss.active and not runtime.enclave.lost:
            due = False
            while self._loss_due and self._loss_due[0] <= now:
                self._loss_due.pop(0)
                due = True
            if not due and loss.probability > 0.0:
                due = self._stream("loss").random() < loss.probability
            if due:
                runtime.urts.device.driver.invalidate_enclave(runtime.enclave)
                self._record(
                    faultrows.INJECT_LOSS,
                    runtime.enclave_id,
                    "",
                    f"power transition: enclave {runtime.enclave_id} invalidated",
                )
        tcs = plan.tcs
        if tcs is not None and tcs.active and tcs.exhausted_at(now):
            self._record(
                faultrows.INJECT_TCS,
                runtime.enclave_id,
                "",
                f"TCS exhaustion burst at {now} ns",
            )
            return SgxStatus.SGX_ERROR_OUT_OF_TCS
        return None

    # -- hook: ocall dispatch (called by Urts.dispatch_ocall) ---------------

    def on_ocall_dispatch(self, runtime: Any, index: int, name: str) -> None:
        """May stall the ocall body or make it throw."""
        plan = self.plan.ocall
        if plan is None or not plan.active:
            return
        if not plan.include_sync and name in SYNC_OCALL_NAMES:
            return
        if plan.delay_probability > 0.0 and (
            self._stream("ocall-delay").random() < plan.delay_probability
        ):
            self._record(
                faultrows.INJECT_OCALL_DELAY,
                runtime.enclave_id,
                name,
                f"+{plan.delay_ns} ns",
            )
            self.sim.compute(plan.delay_ns)
        if plan.error_probability > 0.0 and (
            self._stream("ocall-error").random() < plan.error_probability
        ):
            self._record(faultrows.INJECT_OCALL_ERROR, runtime.enclave_id, name, "raised")
            raise SgxError(
                SgxStatus.SGX_ERROR_UNEXPECTED, f"injected fault in ocall {name!r}"
            )

    # -- hook: EPC page crossings (called by SgxDriver) ---------------------

    def on_page_crossing(self, direction: str) -> None:
        """May charge a transient EWB/ELDU retry."""
        plan = self.plan.epc
        if plan is None or not plan.active:
            return
        if self._stream("epc").random() < plan.probability:
            self._record(faultrows.INJECT_EPC, 0, direction, f"retry +{plan.retry_cost_ns} ns")
            self.sim.compute(plan.retry_cost_ns)

    # -- hooks: network chaos (called by sim.net SimSocket/Listener) --------

    def _net_stall_for_partition(self, where: str) -> None:
        """If a partition window covers *now*, stall until it ends."""
        plan = self.plan.network
        if plan is None:
            return
        end = plan.partitioned_until(self.sim.now_ns)
        if end is not None:
            stall = end - self.sim.now_ns
            self._record(
                faultrows.INJECT_NET_PARTITION, 0, where, f"link down, stalled {stall} ns"
            )
            self.sim.compute(stall)

    def _net_slow_surcharge(self, where: str) -> None:
        """Gray failure: every socket op inside a slow window pays extra."""
        plan = self.plan.network
        if plan is None or not plan.slow_windows:
            return
        if plan.slowed_at(self.sim.now_ns):
            self._record(faultrows.INJECT_NET_SLOW, 0, where, f"+{plan.slow_extra_ns} ns")
            self.sim.compute(plan.slow_extra_ns)

    def on_net_send(self, sock: Any, nbytes: int) -> int:
        """May stall, reset or truncate a send; returns the allowed length.

        Draw order per call is fixed (partition, asymmetric partition, slow
        surcharge, reset, delay, short write) so seeded campaigns replay
        identically.  Asymmetric partitions stall only the *reply*
        direction — sends from server-side endpoints — so requests keep
        reaching the node while its answers go dark.
        """
        plan = self.plan.network
        if plan is None or not plan.active:
            return nbytes
        self._net_stall_for_partition(sock.name)
        if plan.asym_partitions and sock.name.endswith(":server"):
            end = plan.asym_partitioned_until(self.sim.now_ns)
            if end is not None:
                stall = end - self.sim.now_ns
                self._record(
                    faultrows.INJECT_NET_ASYM, 0, sock.name, f"reply path down, stalled {stall} ns"
                )
                self.sim.compute(stall)
        self._net_slow_surcharge(sock.name)
        if plan.reset_probability > 0.0 and (
            self._stream("net-reset").random() < plan.reset_probability
        ):
            self._record(faultrows.INJECT_NET_RESET, 0, sock.name, "connection reset on send")
            sock.reset()
            raise SocketClosed(
                f"{sock.name}: connection reset by chaos injector",
                endpoint=sock.name,
                peer=sock.peer_name,
            )
        if plan.delay_probability > 0.0 and (
            self._stream("net-delay").random() < plan.delay_probability
        ):
            self._record(faultrows.INJECT_NET_DELAY, 0, sock.name, f"send +{plan.delay_ns} ns")
            self.sim.compute(plan.delay_ns)
        if (
            nbytes > 1
            and plan.short_write_probability > 0.0
            and self._stream("net-short").random() < plan.short_write_probability
        ):
            allowed = 1 + int(self._stream("net-short").random() * (nbytes - 1))
            self._record(
                faultrows.INJECT_NET_SHORT_WRITE,
                0,
                sock.name,
                f"{allowed}/{nbytes} bytes",
            )
            return allowed
        return nbytes

    def on_net_recv(self, sock: Any) -> None:
        """May stall or reset a receive that is about to deliver data."""
        plan = self.plan.network
        if plan is None or not plan.active:
            return
        self._net_stall_for_partition(sock.name)
        self._net_slow_surcharge(sock.name)
        if plan.reset_probability > 0.0 and (
            self._stream("net-reset").random() < plan.reset_probability
        ):
            self._record(faultrows.INJECT_NET_RESET, 0, sock.name, "connection reset on recv")
            sock.reset()
            return
        if plan.delay_probability > 0.0 and (
            self._stream("net-delay").random() < plan.delay_probability
        ):
            self._record(faultrows.INJECT_NET_DELAY, 0, sock.name, f"recv +{plan.delay_ns} ns")
            self.sim.compute(plan.delay_ns)

    def on_net_connect(self, listener: Any) -> None:
        """Connects stall through partitions but otherwise succeed."""
        plan = self.plan.network
        if plan is None or not plan.active:
            return
        self._net_stall_for_partition(listener.name)

    # -- introspection ------------------------------------------------------

    @property
    def total_injected(self) -> int:
        """How many faults have fired so far."""
        return len(self.injected)
