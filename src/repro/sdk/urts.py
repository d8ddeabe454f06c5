"""The Untrusted Runtime System.

The URTS is the application-side half of the SDK (``libsgx_urts.so``):
enclave creation/destruction, the common ``sgx_ecall`` entry point every
generated proxy funnels through (sgx-perf's primary interposition point,
paper §4.1.1), the saved ocall-table pointer used to dispatch ocalls, the
AEP (patchable by the logger, §4.1.4), and the untrusted event objects the
SDK's in-enclave synchronisation sleeps on (§2.3.2).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sdk import constants as sdkc
from repro.sdk.edl import EnclaveDefinition
from repro.sdk.errors import SgxError, SgxStatus
from repro.sdk.trts import EcallFrame, OcallFrame, ThreadState, TrustedBridge, TrustedContext
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import Enclave, EnclaveConfig
from repro.sgx.events import AexInfo
from repro.sgx.execution import EnclaveExecution
from repro.sgx.mmu import Mmu
from repro.sim.loader import Library
from repro.sim.process import SimProcess

AepHook = Callable[[AexInfo], None]


class EnclaveRuntime:
    """URTS bookkeeping for one created enclave."""

    def __init__(
        self,
        urts: "Urts",
        enclave: Enclave,
        definition: EnclaveDefinition,
        bridge: TrustedBridge,
    ) -> None:
        self.urts = urts
        self.enclave = enclave
        self.definition = definition
        self.bridge = bridge
        # Pointer to the ocall table passed with the *latest* sgx_ecall —
        # the mechanism that lets a preloaded logger substitute its own
        # stub table (paper §4.1.2).
        self.saved_ocall_table: Any = None
        # Interface runtime (repro.optimizer): consulted on every ocall and
        # at every ecall return when set.  ``None`` keeps both paths
        # byte-identical to the unoptimized runtime.
        self.interface: Any = None
        self._sync_objects: dict[tuple[str, str], Any] = {}
        # Per TCS slot: the execution context every entry through the slot
        # reuses, the slot's TCS page and its stack-top page.
        device = urts.device
        self.slots = []
        for slot in range(enclave.config.tcs_count):
            stack = enclave.stack_pages(slot)
            execution = EnclaveExecution(
                sim=urts.sim,
                cpu=device.cpu,
                timer=device.timer,
                driver=device.driver,
                enclave=enclave,
                tcs_slot=slot,
                expose_aex_reasons=True,
            )
            self.slots.append((execution, enclave.tcs_page(slot), stack[-1] if stack else None))

    @property
    def enclave_id(self) -> int:
        """The enclave's identifier."""
        return self.enclave.enclave_id

    def mutex(self, name: str):
        """Get or create the named in-enclave mutex."""
        from repro.sdk.sync import SdkMutex

        key = ("mutex", name)
        obj = self._sync_objects.get(key)
        if obj is None:
            obj = SdkMutex(self, name)
            self._sync_objects[key] = obj
        return obj

    def condvar(self, name: str):
        """Get or create the named in-enclave condition variable."""
        from repro.sdk.sync import SdkCondVar

        key = ("cond", name)
        obj = self._sync_objects.get(key)
        if obj is None:
            obj = SdkCondVar(self, name)
            self._sync_objects[key] = obj
        return obj

    def sync_objects(self) -> dict:
        """All live mutexes/condvars, keyed ``("mutex"|"cond", name)``.

        The hang watchdog walks this to build its wait-for graph — treat
        the mapping as read-only.
        """
        return self._sync_objects


class Urts:
    """Application-side SGX runtime bound to one process and one device."""

    def __init__(self, process: SimProcess, device: SgxDevice) -> None:
        self.process = process
        self.device = device
        self.sim = process.sim
        self.mmu = Mmu(process)
        self._runtimes: dict[int, EnclaveRuntime] = {}
        self._thread_states: dict[Optional[int], ThreadState] = {}
        self._aep_hook: Optional[AepHook] = None
        self._event_pending: dict[Any, int] = {}
        # Fault-injection hook (repro.faults): consulted at ecall entry and
        # ocall dispatch when set.  ``None`` keeps both paths byte-identical
        # to the fault-free runtime.
        self._fault_hook: Optional[Any] = None
        rng = self.sim.rng
        self._ecall_dispatch_ns = rng.bind_jitter(
            "urts:ecall-dispatch", sdkc.URTS_ECALL_DISPATCH_NS
        )
        self._ecall_return_ns = rng.bind_jitter("urts:ecall-return", sdkc.URTS_ECALL_RETURN_NS)
        self._ocall_lookup_ns = rng.bind_jitter("urts:ocall-lookup", sdkc.URTS_OCALL_LOOKUP_NS)
        self.library = Library("libsgx_urts.so", {"sgx_ecall": self._sgx_ecall})
        process.loader.load(self.library)
        # Reclaim per-thread call-stack and pending-event state when a
        # simulated thread finishes; long-running processes would otherwise
        # leak one ThreadState per short-lived worker.
        self.sim.on_thread_exit(self._reclaim_thread_state)

    # -- enclave lifecycle ---------------------------------------------------

    def create_enclave(
        self,
        definition: EnclaveDefinition,
        trusted_impls: dict[str, Callable[..., Any]],
        config: Optional[EnclaveConfig] = None,
        code_identity: bytes = b"",
    ) -> int:
        """Create an enclave; returns its id.

        Mirrors ``sgx_create_enclave``: the driver builds and measures the
        enclave, the URTS registers the trusted bridge for dispatch.
        """
        definition.validate()
        enclave = self.device.driver.create_enclave(
            config or EnclaveConfig(), code_identity
        )
        bridge = TrustedBridge(definition, trusted_impls, enclave, self)
        runtime = EnclaveRuntime(self, enclave, definition, bridge)
        self._runtimes[enclave.enclave_id] = runtime
        self.process.enclaves[enclave.enclave_id] = enclave
        return enclave.enclave_id

    def destroy_enclave(self, enclave_id: int) -> None:
        """Destroy an enclave and release its EPC frames."""
        runtime = self._runtimes.pop(enclave_id, None)
        if runtime is None:
            raise SgxError(SgxStatus.SGX_ERROR_INVALID_ENCLAVE_ID, str(enclave_id))
        self.device.driver.destroy_enclave(runtime.enclave)
        self.process.enclaves.pop(enclave_id, None)

    def runtimes(self) -> dict[int, EnclaveRuntime]:
        """All live enclave runtimes, keyed by enclave id.

        The returned mapping is the URTS's own bookkeeping — treat it as
        read-only.
        """
        return self._runtimes

    def runtime(self, enclave_id: int) -> EnclaveRuntime:
        """The runtime bookkeeping for ``enclave_id``."""
        try:
            return self._runtimes[enclave_id]
        except KeyError:
            raise SgxError(SgxStatus.SGX_ERROR_INVALID_ENCLAVE_ID, str(enclave_id)) from None

    # -- AEP ----------------------------------------------------------------------

    def patch_aep(self, hook: Optional[AepHook]) -> None:
        """Replace the AEP's pre-ERESUME behaviour (the logger's AEX hook)."""
        self._aep_hook = hook

    # -- fault injection -----------------------------------------------------

    def set_fault_hook(self, hook: Optional[Any]) -> None:
        """Install (or clear) the fault-injection hook.

        The hook (a :class:`repro.faults.FaultInjector`) is consulted on
        every ecall entry (may invalidate the enclave or force
        ``SGX_ERROR_OUT_OF_TCS``) and on every ocall dispatch (may delay or
        raise).  With no hook installed these paths cost nothing extra.
        """
        self._fault_hook = hook

    # -- per-thread call state -------------------------------------------------------

    def thread_states(self) -> dict:
        """Per-thread SGX call stacks, keyed by simulated thread id.

        Read by the hang watchdog to find long-open ecalls — treat the
        mapping as read-only.
        """
        return self._thread_states

    def thread_state(self) -> ThreadState:
        """SGX call stack of the current simulated thread."""
        thread = self.sim.current_thread
        key = thread.tid if thread is not None else None
        state = self._thread_states.get(key)
        if state is None:
            state = ThreadState()
            self._thread_states[key] = state
        return state

    def _reclaim_thread_state(self, thread: Any) -> None:
        """Drop per-thread state when a simulated thread exits.

        A wake raced against a dying thread leaves an ``_event_pending``
        credit nobody will ever consume; dropping it with the thread is the
        same as the OS discarding a futex wake for a dead task.
        """
        self._thread_states.pop(thread.tid, None)
        self._event_pending.pop(thread.tid, None)

    # -- the sgx_ecall entry point -----------------------------------------------------

    def _sgx_ecall(
        self, enclave_id: int, index: int, ocall_table: Any, args: tuple
    ) -> tuple[SgxStatus, Any]:
        """``sgx_ecall``: enter the enclave and dispatch ecall ``index``.

        Returns ``(status, return value)``.  This is the exact symbol the
        sgx-perf logger shadows; everything it should measure (URTS
        dispatch, EENTER, trusted work, EEXIT, return path) happens inside.
        """
        sim = self.sim
        sim.compute(self._ecall_dispatch_ns())
        runtime = self._runtimes.get(enclave_id)
        if runtime is None:
            return SgxStatus.SGX_ERROR_INVALID_ENCLAVE_ID, None
        hook = self._fault_hook
        if hook is not None:
            injected = hook.on_ecall_entry(runtime)
            if injected is not None:
                return injected, None
        enclave = runtime.enclave
        if enclave.lost:
            # The enclave did not survive a power transition; the driver
            # rejects the EENTER.  Only destroy + re-create recovers.
            return SgxStatus.SGX_ERROR_ENCLAVE_LOST, None
        ecalls = runtime.definition.ecalls
        if not 0 <= index < len(ecalls):
            return SgxStatus.SGX_ERROR_INVALID_FUNCTION, None
        decl = ecalls[index]

        state = self.thread_state()
        frames = state.frames
        top = frames[-1] if frames else None
        nested = isinstance(top, OcallFrame) and top.runtime is runtime
        if nested:
            # Re-entrant ecall during an ocall: only those listed in the
            # ocall's allow() clause may run (checked against the generated
            # dynamic entry table, paper §3.6).
            if decl.name not in top.decl.allowed_ecalls:
                return SgxStatus.SGX_ERROR_ECALL_NOT_ALLOWED, None
        elif decl.private:
            # Private ecalls are only reachable during an allowing ocall.
            return SgxStatus.SGX_ERROR_ECALL_NOT_ALLOWED, None

        if nested:
            outer = state.innermost_ecall(runtime)
            tcs_slot = outer.tcs_slot if outer is not None else None
        else:
            tcs_slot = None
        if tcs_slot is None:
            tcs_slot = enclave.acquire_tcs()
            owns_tcs = True
            if tcs_slot is None:
                return SgxStatus.SGX_ERROR_OUT_OF_TCS, None
        else:
            owns_tcs = False

        runtime.saved_ocall_table = ocall_table
        execution, tcs_page, stack_top = runtime.slots[tcs_slot]
        # The AEP may have been patched (the logger's install) since the
        # slot was last entered.
        execution.aep_hook = self._aep_hook
        execution.eenter()
        access = self.mmu.access
        access(enclave, tcs_page, write=True, execution=execution)
        if stack_top is not None:
            access(enclave, stack_top, write=True, execution=execution)
        frames.append(EcallFrame(runtime, decl, execution, tcs_slot, nested))
        ctx = TrustedContext(self, runtime, execution, state)
        try:
            result = runtime.bridge.dispatch(ctx, index, args)
            interface = runtime.interface
            if interface is not None:
                # A deferred fused-pair parent must not outlive its ecall:
                # flush it while the enclave context is still open, so the
                # observable ocall order is preserved across the boundary.
                interface.on_ecall_return(ctx)
        finally:
            frames.pop()
            execution.eexit()
            sim.compute(self._ecall_return_ns())
            if owns_tcs:
                enclave.release_tcs(tcs_slot)
        return SgxStatus.SGX_SUCCESS, result

    # -- ocall dispatch (called from the TRTS after EEXIT) ------------------------------

    def dispatch_ocall(self, runtime: EnclaveRuntime, index: int, args: tuple) -> Any:
        """Look up ocall ``index`` in the saved table and invoke it."""
        self.sim.compute(self._ocall_lookup_ns())
        table = runtime.saved_ocall_table
        if table is None:
            raise SgxError(
                SgxStatus.SGX_ERROR_OCALL_NOT_ALLOWED,
                "no ocall table saved (enclave entered without one)",
            )
        if not 0 <= index < len(table):
            # Same boundary discipline as the ecall side: a bad identifier
            # is an SDK status, not a raw IndexError out of the table.
            raise SgxError(
                SgxStatus.SGX_ERROR_INVALID_FUNCTION,
                f"ocall index {index} out of range (table has {len(table)})",
            )
        hook = self._fault_hook
        if hook is not None:
            hook.on_ocall_dispatch(runtime, index, table.names[index])
        entry = table.entry(index)
        return entry(*args)

    # -- untrusted events backing the SDK sync primitives -------------------------------

    def current_thread_token(self) -> Any:
        """Identity of the calling thread used as its sleep-event token."""
        thread = self.sim.current_thread
        return thread.tid if thread is not None else 0

    def wait_untrusted_event(self, token: Any) -> None:
        """Block the calling thread on its event (the *sleep* ocall body)."""
        pending = self._event_pending.get(token, 0)
        if pending > 0:
            # The wake raced ahead of the sleep: consume it without blocking.
            self._event_pending[token] = pending - 1
            return
        self.sim.futex_wait(("sgx-event", token))

    def set_untrusted_event(self, token: Any) -> None:
        """Wake the thread sleeping on ``token`` (the *wake-up* ocall body)."""
        if self.sim.futex_wake(("sgx-event", token)) == 0:
            self._event_pending[token] = self._event_pending.get(token, 0) + 1

    def set_multiple_untrusted_events(self, tokens: tuple) -> None:
        """Wake several sleeping threads (*wake up multiple*)."""
        for token in tokens:
            self.set_untrusted_event(token)

    def setwait_untrusted_events(self, set_token: Any, wait_token: Any) -> None:
        """Wake one thread then sleep (*wake up one and sleep*, one ocall)."""
        self.set_untrusted_event(set_token)
        self.wait_untrusted_event(wait_token)
