"""The Trusted Runtime System.

The TRTS is the in-enclave half of the SDK: the generic entry trampoline
that resolves ecall identifiers to functions, the parameter marshalling for
``[in]``/``[out]`` buffers, and ``sgx_ocall`` — the common exit path that
looks up the ocall function pointer in the table the application passed to
``sgx_ecall`` (which is precisely the hook sgx-perf's logger swaps out,
paper §4.1.2).

Trusted application code receives a :class:`TrustedContext`: its window on
the world.  Through it the code consumes in-enclave compute time (sliced by
AEXs), allocates enclave heap, touches pages (driving EPC paging and the
working set estimator) and issues ocalls.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sdk import constants as sdkc
from repro.sdk.edl import (
    BYTES_LIKE,
    Direction,
    EcallDecl,
    EdlError,
    EnclaveDefinition,
    OcallDecl,
    Param,
)
from repro.sdk.errors import SgxError, SgxStatus
from repro.sgx.enclave import Enclave, HeapAllocation
from repro.sgx.execution import EnclaveExecution


class EcallFrame:
    """One open ecall on a thread's SGX call stack."""

    __slots__ = ("runtime", "decl", "execution", "tcs_slot", "nested")

    def __init__(
        self,
        runtime: Any,  # EnclaveRuntime (duck-typed to avoid a module cycle)
        decl: EcallDecl,
        execution: EnclaveExecution,
        tcs_slot: int,
        nested: bool,
    ) -> None:
        self.runtime = runtime
        self.decl = decl
        self.execution = execution
        self.tcs_slot = tcs_slot
        self.nested = nested


class OcallFrame:
    """One open ocall on a thread's SGX call stack."""

    __slots__ = ("runtime", "decl")

    def __init__(self, runtime: Any, decl: OcallDecl) -> None:
        self.runtime = runtime
        self.decl = decl


class ThreadState:
    """Per-application-thread SGX call stack (ecall/ocall nesting)."""

    def __init__(self) -> None:
        self.frames: list[Any] = []

    def innermost_ecall(self, runtime: Any) -> Optional[EcallFrame]:
        """Deepest open ecall frame belonging to ``runtime``."""
        for frame in reversed(self.frames):
            if isinstance(frame, EcallFrame) and frame.runtime is runtime:
                return frame
        return None


class TrustedBuffer:
    """A buffer living on the enclave heap.

    Unlike raw :class:`HeapAllocation`, a ``TrustedBuffer`` can be touched
    (read/written) through a context, which drives both EPC paging and the
    working set estimator.
    """

    def __init__(self, enclave: Enclave, allocation: HeapAllocation) -> None:
        self.enclave = enclave
        self.allocation = allocation

    def pages(self) -> list:
        """Heap pages this buffer spans."""
        return self.enclave.heap_pages_for(self.allocation)


class TrustedContext:
    """Execution context handed to trusted (in-enclave) functions."""

    __slots__ = ("urts", "runtime", "execution", "thread_state", "sim")

    def __init__(
        self,
        urts: Any,
        runtime: Any,
        execution: EnclaveExecution,
        thread_state: ThreadState,
    ) -> None:
        self.urts = urts
        self.runtime = runtime
        self.execution = execution
        self.thread_state = thread_state
        self.sim = execution.sim

    # -- compute -------------------------------------------------------------

    @property
    def enclave(self) -> Enclave:
        """The enclave this context executes in."""
        return self.execution.enclave

    def compute(self, duration_ns: int) -> None:
        """Consume in-enclave compute time (interruptible by AEXs)."""
        self.execution.compute(duration_ns)

    def compute_jittered(self, stream: str, mean_ns: float, rel_sigma: float = 0.08) -> None:
        """Consume a jittered amount of in-enclave compute time."""
        self.execution.compute(self.sim.rng.jitter_ns(stream, mean_ns, rel_sigma))

    # -- memory ----------------------------------------------------------------

    def malloc(self, nbytes: int) -> TrustedBuffer:
        """Allocate from the enclave heap and touch its pages.

        On an SGX v2 (EDMM) enclave, heap exhaustion grows the heap
        on demand — EAUG in the driver, EACCEPT charged in-enclave — as
        §2.3.3 describes; on SGX v1 it raises, as the paper warns.
        """
        from repro.sgx.enclave import EnclaveOutOfMemory

        self.compute(sdkc.MALLOC_NS)
        try:
            allocation = self.enclave.malloc(nbytes)
        except EnclaveOutOfMemory:
            if not self.enclave.config.sgx2_edmm:
                raise
            npages = -(-nbytes // 4096) + 1
            self.urts.device.driver.augment_heap(self.enclave, npages)
            # EACCEPT each fresh page from inside the enclave.
            self.execution.compute(npages * sdkc.EACCEPT_NS)
            allocation = self.enclave.malloc(nbytes)
        buffer = TrustedBuffer(self.enclave, allocation)
        self.touch(buffer, write=True)
        return buffer

    def free(self, buffer: TrustedBuffer) -> None:
        """Release an enclave heap buffer."""
        self.compute(sdkc.FREE_NS)
        self.enclave.free(buffer.allocation)

    def touch(self, buffer: TrustedBuffer, write: bool = False) -> None:
        """Access every page of ``buffer`` (faulting evicted pages back in)."""
        mmu = self.urts.mmu
        for page in buffer.pages():
            mmu.access(self.enclave, page, write, self.execution)

    def touch_heap_bytes(self, offset: int, nbytes: int, write: bool = False) -> None:
        """Access an ad-hoc heap byte range (page-granular)."""
        execution = self.execution
        enclave = execution.enclave
        access = self.urts.mmu.access
        for page in enclave.heap_pages(offset, nbytes if nbytes > 1 else 1):
            access(enclave, page, write, execution)

    # -- ocalls ------------------------------------------------------------------

    def ocall(self, name: str, *args: Any) -> Any:
        """Issue an ocall by name: the TRTS ``sgx_ocall`` path.

        When an interface runtime (:mod:`repro.optimizer`) is installed on
        the enclave, it gets first refusal — it may defer the call into a
        fused pair, buffer it into a batch, or pass.  Without one, this is
        exactly :meth:`ocall_raw`, at zero extra cost.
        """
        interface = getattr(self.runtime, "interface", None)
        if interface is not None:
            handled, result = interface.intercept_ocall(self, name, args)
            if handled:
                return result
        return self.ocall_raw(name, *args)

    def ocall_raw(self, name: str, *args: Any) -> Any:
        """The uninterposed ocall path.

        Marshals ``[in]`` parameters out, EEXITs, lets the URTS look the
        function pointer up in the *saved* ocall table, runs it, re-enters
        and marshals ``[out]`` parameters back.
        """
        runtime = self.runtime
        bridge = runtime.bridge
        entry = bridge.ocalls.get(name)
        if entry is None:
            raise EdlError(f"unknown ocall {name!r}")
        index, decl, copy_in, copy_out = entry
        execution = self.execution
        copy_cost_ns = bridge.copy_cost_ns
        execution.compute(bridge.ocall_prep_ns())
        if copy_in is not None:
            execution.compute(copy_cost_ns(copy_in(args)))
        execution.eexit()
        frames = self.thread_state.frames
        frames.append(OcallFrame(runtime, decl))
        try:
            result = self.urts.dispatch_ocall(runtime, index, args)
        finally:
            frames.pop()
            execution.eenter()
        execution.compute(bridge.ocall_resume_ns())
        if copy_out is not None:
            execution.compute(copy_cost_ns(copy_out(args)))
        return result

    # -- synchronisation -----------------------------------------------------------

    def mutex(self, name: str):
        """Get (or lazily create) a named SDK mutex for this enclave."""
        return self.runtime.mutex(name)


def copy_sizer(
    params: tuple[Param, ...], direction: Direction
) -> Optional[Callable[[tuple], int]]:
    """Compile the bytes ``params`` copy across the boundary in ``direction``.

    ``None`` when no parameter is marshalled that way.  Otherwise a
    function of one call's argument tuple: the sum of
    :meth:`Param.resolve_size` over the matching (``direction`` or
    ``INOUT``) parameters the tuple reaches, with each ``size=``/``count=``
    name resolved to the argument position a by-name lookup would read
    (the last parameter of that name).  A tuple shorter than ``params``
    reaches fewer parameters and may not reach a named position; it is
    sized through :meth:`Param.resolve_size` itself.
    """
    names = tuple(param.name for param in params)
    matching = tuple(
        (position, param)
        for position, param in enumerate(params)
        if param.direction is direction or param.direction is Direction.INOUT
    )
    if not matching:
        return None
    declared = len(params)
    # Per term: the value's position, then the size and the count, each
    # as (constant, argument position or -1).
    terms = tuple(
        (position,) + _operand(names, param.size) + _operand(names, param.count)
        for position, param in matching
    )

    def copy_bytes(args: tuple) -> int:
        if len(args) < declared:
            by_name = dict(zip(names, args))
            supplied = len(args)
            return sum(
                param.resolve_size(by_name, args[position])
                for position, param in matching
                if position < supplied
            )
        total = 0
        for position, size, size_at, count, count_at in terms:
            if size_at >= 0:
                size = args[size_at]
            if isinstance(size, int):
                if count_at >= 0:
                    count = args[count_at]
                if isinstance(count, int):
                    size *= count
                if size > 0:
                    total += size
            else:
                value = args[position]
                total += len(value) if isinstance(value, BYTES_LIKE) else 8
        return total

    return copy_bytes


def _operand(names: tuple[str, ...], ref: Any) -> tuple[Any, int]:
    """A ``size=``/``count=`` value as (constant, argument position or -1)."""
    if not isinstance(ref, str):
        return ref, -1
    positions = [position for position, name in enumerate(names) if name == ref]
    return (None, positions[-1]) if positions else (None, -1)


class TrustedBridge:
    """The generated trusted half (``enclave_t.c``): trampoline + dispatch.

    Built when the enclave is created, as edger8r output is compiled
    with it: one entry per ecall (the code page hosting the
    implementation, compiled ``[in]``/``[out]`` copy sizes) and one per
    ocall (identifier, declaration, copy sizes), plus the trampoline's
    jitter draws bound to their streams.
    """

    def __init__(
        self,
        definition: EnclaveDefinition,
        implementations: dict[str, Callable[..., Any]],
        enclave: Enclave,
        urts: Any,
    ) -> None:
        missing = [e.name for e in definition.ecalls if e.name not in implementations]
        if missing:
            raise SgxError(
                SgxStatus.SGX_ERROR_INVALID_FUNCTION,
                "no implementation for ecalls: " + ", ".join(missing),
            )
        self.definition = definition
        self._impls = [implementations[e.name] for e in definition.ecalls]
        # Compile each distinct parameter list once: a generated interface
        # shares one among thousands of declarations, and a closure apiece
        # would cost megabytes.
        compiled: dict[tuple[Param, ...], tuple] = {}

        def copy_sizes(params: tuple[Param, ...]) -> tuple:
            sizes = compiled.get(params)
            if sizes is None:
                sizes = compiled[params] = (
                    copy_sizer(params, Direction.IN),
                    copy_sizer(params, Direction.OUT),
                )
            return sizes

        code_pages = enclave.code_pages
        self.ecalls = [
            (code_pages[index % len(code_pages)] if code_pages else None,)
            + copy_sizes(decl.params)
            for index, decl in enumerate(definition.ecalls)
        ]
        self.ocalls = {
            decl.name: (index, decl) + copy_sizes(decl.params)
            for index, decl in enumerate(definition.ocalls)
        }
        self.copy_cost_ns = urts.device.cpu.copy_cost_ns
        self._mmu = urts.mmu
        rng = urts.sim.rng
        self._dispatch_ns = rng.bind_jitter("trts:dispatch", sdkc.TRTS_ECALL_DISPATCH_NS)
        self._local_dispatch_ns = rng.bind_jitter(
            "trts:switchless-dispatch", sdkc.SWITCHLESS_DISPATCH_NS
        )
        self.ocall_prep_ns = rng.bind_jitter("trts:ocall-prep", sdkc.TRTS_OCALL_PREP_NS)
        self.ocall_resume_ns = rng.bind_jitter(
            "trts:ocall-resume", sdkc.TRTS_OCALL_RESUME_NS
        )

    def dispatch(self, ctx: TrustedContext, index: int, args: tuple) -> Any:
        """Resolve an ecall identifier and run the implementation.

        Charges the trampoline cost, touches the code page hosting the
        implementation and marshals declared buffers both ways.
        """
        return self._run(ctx, index, args, self._dispatch_ns)

    def invoke_local(self, ctx: TrustedContext, index: int, args: tuple) -> Any:
        """Run ecall ``index`` *inside an already-open enclave context*.

        The switchless worker's dispatch path: the worker thread is
        already in the enclave, so there is no EENTER/EEXIT and no entry
        trampoline — just a queue-pop dispatch, the code-page touch and
        the declared parameter copies (data still crosses the boundary
        through the shared request area).
        """
        return self._run(ctx, index, args, self._local_dispatch_ns)

    def _run(
        self, ctx: TrustedContext, index: int, args: tuple, dispatch_ns: Callable[[], int]
    ) -> Any:
        if not 0 <= index < len(self.ecalls):
            raise SgxError(SgxStatus.SGX_ERROR_INVALID_FUNCTION, f"ecall index {index}")
        code_page, copy_in, copy_out = self.ecalls[index]
        execution = ctx.execution
        execution.compute(dispatch_ns())
        if code_page is not None:
            self._mmu.access(execution.enclave, code_page, False, execution)
        if copy_in is not None:
            execution.compute(self.copy_cost_ns(copy_in(args)))
        # Read per call: the implementation table is patchable after build.
        result = self._impls[index](ctx, *args)
        if copy_out is not None:
            execution.compute(self.copy_cost_ns(copy_out(args)))
        return result
