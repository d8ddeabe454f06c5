"""The ``sgx_edger8r`` analogue: generated interface glue.

From an :class:`~repro.sdk.edl.EnclaveDefinition` this module produces what
the SDK's source-to-source generator emits as ``enclave_u.c`` and
``enclave_t.c``:

* *untrusted proxies* — a wrapper per ecall, called by name, that funnels
  through the ``sgx_ecall`` symbol (resolved through the dynamic loader
  again whenever the loader's libraries changed, so a preloaded logger
  shadows it from the next call on, without recompilation);
* the *ocall table* — numeric identifier → untrusted function pointer,
  passed along with every ``sgx_ecall`` and saved by the URTS, which is how
  sgx-perf injects its stub table (paper §4.1.2);
* the trusted dispatch bridge (:class:`~repro.sdk.trts.TrustedBridge`),
  compiled per declaration when the URTS creates the enclave.

It also appends the SDK runtime's four synchronisation ocalls (sleep, wake
one, wake multiple, wake-one-and-sleep — §2.3.2) to the interface, exactly
like importing ``sgx_tstdc.edl`` does in the real SDK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.sdk.edl import EnclaveDefinition, OcallDecl, Param, parse_edl
from repro.sdk.errors import SgxError, SgxStatus
from repro.sdk.urts import Urts
from repro.sgx.enclave import EnclaveConfig
from repro.sim.loader import Loader

SYNC_OCALL_WAIT = "sgx_thread_wait_untrusted_event_ocall"
SYNC_OCALL_SET = "sgx_thread_set_untrusted_event_ocall"
SYNC_OCALL_SET_MULTIPLE = "sgx_thread_set_multiple_untrusted_events_ocall"
SYNC_OCALL_SETWAIT = "sgx_thread_setwait_untrusted_events_ocall"

SYNC_OCALL_NAMES = (
    SYNC_OCALL_WAIT,
    SYNC_OCALL_SET,
    SYNC_OCALL_SET_MULTIPLE,
    SYNC_OCALL_SETWAIT,
)


def add_sdk_sync_ocalls(definition: EnclaveDefinition) -> None:
    """Append the SDK's synchronisation ocalls to ``definition`` if absent."""
    specs = {
        SYNC_OCALL_WAIT: (Param("self", "void*", size=8),),
        SYNC_OCALL_SET: (Param("waiter", "void*", size=8),),
        SYNC_OCALL_SET_MULTIPLE: (Param("waiters", "void**", size=8),),
        SYNC_OCALL_SETWAIT: (
            Param("waiter", "void*", size=8),
            Param("self", "void*", size=8),
        ),
    }
    for name in SYNC_OCALL_NAMES:
        if not definition.has_ocall(name):
            definition.add_ocall(
                OcallDecl(name=name, return_type="int", params=specs[name])
            )


class OcallTable:
    """Identifier → untrusted function pointer, as passed to ``sgx_ecall``."""

    def __init__(self, definition: EnclaveDefinition, entries: list[Callable]) -> None:
        if len(entries) != len(definition.ocalls):
            raise SgxError(
                SgxStatus.SGX_ERROR_INVALID_PARAMETER,
                f"table has {len(entries)} entries for {len(definition.ocalls)} ocalls",
            )
        self.definition = definition
        self.names = [decl.name for decl in definition.ocalls]
        self._entries = list(entries)

    def entry(self, index: int) -> Callable:
        """The function pointer at ``index``."""
        try:
            return self._entries[index]
        except IndexError:
            raise SgxError(
                SgxStatus.SGX_ERROR_OCALL_NOT_ALLOWED, f"ocall index {index}"
            ) from None

    def __len__(self) -> int:
        return len(self._entries)


class UntrustedContext:
    """What generated untrusted ocall bridges hand to their implementations."""

    def __init__(self, urts: Urts) -> None:
        self.urts = urts
        self.process = urts.process
        self.sim = urts.sim
        self.os = urts.process.os
        self.proxies: Optional["UntrustedProxies"] = None
        self.enclave_id: Optional[int] = None

    def compute(self, duration_ns: int) -> None:
        """Consume untrusted compute time."""
        self.sim.compute(duration_ns)

    def compute_jittered(self, stream: str, mean_ns: float, rel_sigma: float = 0.08) -> None:
        """Consume jittered untrusted compute time."""
        self.sim.compute(self.sim.rng.jitter_ns(stream, mean_ns, rel_sigma))

    def ecall(self, name: str, *args: Any) -> Any:
        """Issue a (nested) ecall from inside an ocall implementation."""
        if self.proxies is None or self.enclave_id is None:
            raise SgxError(
                SgxStatus.SGX_ERROR_INVALID_PARAMETER,
                "untrusted context not bound to an enclave",
            )
        return self.proxies.call(name, self.enclave_id, *args)


class UntrustedProxies:
    """The generated per-ecall wrappers (``enclave_u.c``), called by name.

    Every call goes through the ``sgx_ecall`` symbol as the process loader
    resolves it — the model of lazy PLT binding that makes LD_PRELOAD
    interposition work — and passes the generated numeric identifier plus
    the ocall table.  The resolved symbol is kept until the loader's
    :attr:`~repro.sim.loader.Loader.generation` moves (a library loaded,
    preloaded, unloaded or given a new definition), so a logger installed
    or removed between two ecalls catches the next one.
    """

    def __init__(
        self,
        definition: EnclaveDefinition,
        process_loader: Loader,
        ocall_table: OcallTable,
    ) -> None:
        self._definition = definition
        self._loader = process_loader
        self._ocall_table = ocall_table
        # ``sgx_ecall`` as resolved at loader generation
        # ``_resolved_generation`` (generations start at 0, so the first
        # call resolves).
        self._sgx_ecall: Optional[Callable] = None
        self._resolved_generation = -1
        # Switchless runtime (repro.optimizer): consulted per call when
        # set.  ``None`` keeps the proxy path byte-identical.
        self._switchless: Any = None

    def call(self, name: str, enclave_id: int, *args: Any) -> Any:
        """Invoke ecall ``name``; raises :class:`SgxError` on failure."""
        switchless = self._switchless
        if switchless is not None and switchless.wants(name):
            handled, result = switchless.submit(name, args)
            if handled:
                return result
        index = self._definition.ecall_index(name)
        sgx_ecall = self._resolved_sgx_ecall()
        status, result = sgx_ecall(enclave_id, index, self._ocall_table, args)
        if status is not SgxStatus.SGX_SUCCESS:
            raise SgxError(status, name)
        return result

    def try_call(self, name: str, enclave_id: int, *args: Any) -> tuple[SgxStatus, Any]:
        """Invoke ecall ``name`` returning ``(status, result)`` instead of raising."""
        index = self._definition.ecall_index(name)
        sgx_ecall = self._resolved_sgx_ecall()
        return sgx_ecall(enclave_id, index, self._ocall_table, args)

    def _resolved_sgx_ecall(self) -> Callable:
        """``sgx_ecall`` as the loader resolves it, looked up again only
        after the loader changed."""
        loader = self._loader
        if self._resolved_generation != loader.generation:
            self._sgx_ecall = loader.resolve("sgx_ecall")
            self._resolved_generation = loader.generation
        return self._sgx_ecall


def generate_untrusted(
    urts: Urts,
    definition: EnclaveDefinition,
    untrusted_impls: dict[str, Callable[..., Any]],
) -> tuple[UntrustedProxies, OcallTable, UntrustedContext]:
    """Build the untrusted glue: proxies, ocall table, untrusted context.

    Implementations for the SDK sync ocalls are filled in automatically
    from the URTS's untrusted event objects; every other declared ocall
    must be given an implementation.
    """
    uctx = UntrustedContext(urts)
    sync_impls: dict[str, Callable[..., Any]] = {
        SYNC_OCALL_WAIT: lambda ctx, token: ctx.urts.wait_untrusted_event(token),
        SYNC_OCALL_SET: lambda ctx, token: ctx.urts.set_untrusted_event(token),
        SYNC_OCALL_SET_MULTIPLE: lambda ctx, tokens: (
            ctx.urts.set_multiple_untrusted_events(tokens)
        ),
        SYNC_OCALL_SETWAIT: lambda ctx, set_token, wait_token: (
            ctx.urts.setwait_untrusted_events(set_token, wait_token)
        ),
    }
    entries: list[Callable] = []
    for decl in definition.ocalls:
        impl = untrusted_impls.get(decl.name) or sync_impls.get(decl.name)
        if impl is None:
            raise SgxError(
                SgxStatus.SGX_ERROR_INVALID_FUNCTION,
                f"no implementation for ocall {decl.name!r}",
            )
        entries.append(_make_ocall_bridge(uctx, impl))
    table = OcallTable(definition, entries)
    proxies = UntrustedProxies(definition, urts.process.loader, table)
    uctx.proxies = proxies
    return proxies, table, uctx


def _make_ocall_bridge(uctx: UntrustedContext, impl: Callable[..., Any]) -> Callable:
    def bridge(*args: Any) -> Any:
        return impl(uctx, *args)

    bridge.__name__ = getattr(impl, "__name__", "ocall_bridge")
    return bridge


@dataclass
class EnclaveHandle:
    """Everything an application needs to use one built enclave."""

    enclave_id: int
    urts: Urts
    definition: EnclaveDefinition
    proxies: UntrustedProxies
    ocall_table: OcallTable
    uctx: UntrustedContext
    # Interface runtime (repro.optimizer) when built with a plan.
    interface: Any = None

    def ecall(self, name: str, *args: Any) -> Any:
        """Call an ecall by name on this enclave."""
        return self.proxies.call(name, self.enclave_id, *args)

    def try_ecall(self, name: str, *args: Any) -> tuple[SgxStatus, Any]:
        """Call an ecall, returning ``(status, result)`` without raising."""
        return self.proxies.try_call(name, self.enclave_id, *args)

    @property
    def enclave(self):
        """The underlying hardware enclave object."""
        return self.urts.runtime(self.enclave_id).enclave

    def destroy(self) -> None:
        """Destroy the enclave (draining any installed interface runtime)."""
        if self.interface is not None:
            # Stop the switchless worker and flush residual ocall batches
            # while the enclave can still be entered.
            self.interface.before_destroy(self)
        self.urts.destroy_enclave(self.enclave_id)


def build_enclave(
    urts: Urts,
    definition: Union[EnclaveDefinition, str],
    trusted_impls: dict[str, Callable[..., Any]],
    untrusted_impls: Optional[dict[str, Callable[..., Any]]] = None,
    config: Optional[EnclaveConfig] = None,
    include_sync_ocalls: bool = True,
    code_identity: bytes = b"",
    interface_plan: Any = None,
) -> EnclaveHandle:
    """One-stop enclave build: parse/validate EDL, generate glue, create.

    ``definition`` may be EDL source text or an already-built definition.
    With ``interface_plan`` (an :class:`repro.optimizer.plan.OptimizationPlan`)
    the interface is regenerated before creation — fused/batched ocall
    declarations and service ecalls appended, their implementations
    synthesised — and the optimizer runtimes are bound to the handle.
    Generated declarations append after the SDK sync ocalls, so every
    identifier of the unoptimized interface is preserved.
    """
    if isinstance(definition, str):
        definition = parse_edl(definition)
    if include_sync_ocalls:
        add_sdk_sync_ocalls(definition)
    rewriter = None
    if interface_plan is not None and not interface_plan.empty:
        from repro.optimizer.rewrite import InterfaceRewriter

        rewriter = InterfaceRewriter(interface_plan)
        rewriter.rewrite_definition(definition)
        trusted_impls = rewriter.extend_trusted(trusted_impls)
        untrusted_impls = rewriter.extend_untrusted(definition, untrusted_impls or {})
    enclave_id = urts.create_enclave(
        definition, trusted_impls, config=config, code_identity=code_identity
    )
    proxies, table, uctx = generate_untrusted(urts, definition, untrusted_impls or {})
    uctx.enclave_id = enclave_id
    handle = EnclaveHandle(
        enclave_id=enclave_id,
        urts=urts,
        definition=definition,
        proxies=proxies,
        ocall_table=table,
        uctx=uctx,
    )
    if rewriter is not None:
        rewriter.bind(handle)
    return handle
