"""Enclave-loss recovery: the destroy/re-create/replay contract, packaged.

The SDK documents exactly one recovery path for ``SGX_ERROR_ENCLAVE_LOST``
(a power transition wiped the EPC): destroy the enclave, create a fresh
one, and re-issue the work.  Real applications get this wrong in
well-known ways — retrying without re-creating, re-creating once per
*thread* instead of once per *loss*, retrying forever.
:class:`ResilientEnclave` packages the correct loop:

* **bounded retries** with virtual-time exponential backoff;
* **one re-create per loss**, deduplicated across threads by a generation
  counter (the thread that observed the loss first rebuilds; concurrent
  observers of the *same* generation just wait and retry);
* **replay-or-fail** — the failed ecall is re-issued against the fresh
  enclave; enclave state does not survive, so only replayable
  (idempotent or externally checkpointed) workloads should retry.

Transient entry failures (``SGX_ERROR_OUT_OF_TCS`` bursts, injected
``SGX_ERROR_UNEXPECTED`` ocall faults) are retried *without* re-creating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.faultrows import RECOVER_EPC_WAIT, RECOVER_GIVEUP, RECOVER_RECREATE, RECOVER_RETRY
from repro.sdk.edger8r import EnclaveHandle
from repro.sdk.errors import EnclaveLostError, SgxError, SgxStatus
from repro.sgx.epc import EpcFull

# Entry failures worth retrying.  Everything else (bad parameters, missing
# functions, crashed enclaves) is a programming error and surfaces raw.
# INVALID_ENCLAVE_ID is retryable because a racing recovery may destroy the
# handle another thread already captured — the retry picks up the fresh one.
RETRYABLE_STATUSES = frozenset(
    {
        SgxStatus.SGX_ERROR_ENCLAVE_LOST,
        SgxStatus.SGX_ERROR_OUT_OF_TCS,
        SgxStatus.SGX_ERROR_UNEXPECTED,
        SgxStatus.SGX_ERROR_INVALID_ENCLAVE_ID,
    }
)


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action the wrapper took."""

    kind: str
    timestamp_ns: int
    call: str
    status: SgxStatus
    attempt: int


class ResilientEnclave:
    """An enclave handle that survives enclave loss.

    ``factory`` builds (and re-builds) the underlying
    :class:`~repro.sdk.edger8r.EnclaveHandle` — typically a closure over
    :func:`~repro.sdk.edger8r.build_enclave`.  It is invoked once at
    construction and once per recovered loss.
    """

    def __init__(
        self,
        factory: Callable[[], EnclaveHandle],
        max_attempts: int = 5,
        backoff_ns: int = 100_000,
        logger: Optional[Any] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self._factory = factory
        self.max_attempts = max_attempts
        self.backoff_ns = backoff_ns
        self.logger = logger
        self._handle = factory()
        self.sim = self._handle.urts.sim
        # Bumped on every successful re-create.  A thread that observed a
        # failure at generation g only rebuilds if the wrapper is *still*
        # at g — otherwise some other thread already recovered this loss.
        self._generation = 0
        self._recovering = False
        self._inflight = 0
        self.events: list[RecoveryEvent] = []
        self.stats: dict[str, int] = {}

    # -- introspection ------------------------------------------------------

    @property
    def enclave_id(self) -> int:
        """The current enclave id (changes across re-creates)."""
        return self._handle.enclave_id

    @property
    def generation(self) -> int:
        """How many times the enclave has been re-created."""
        return self._generation

    def _note(self, kind: str, call: str, status: SgxStatus, attempt: int) -> None:
        self.events.append(
            RecoveryEvent(
                kind=kind,
                timestamp_ns=self.sim.now_ns,
                call=call,
                status=status,
                attempt=attempt,
            )
        )
        self.stats[kind] = self.stats.get(kind, 0) + 1
        if self.logger is not None:
            self.logger.record_fault(
                kind,
                enclave_id=self._handle.enclave_id,
                call=call,
                detail=f"{status.name} attempt {attempt}",
            )

    # -- recovery -----------------------------------------------------------

    def _recover(self, observed_generation: int, call: str, attempt: int) -> None:
        """Destroy and re-create the enclave, once per observed loss."""
        while self._recovering:
            # Another thread is mid-rebuild; wait it out in virtual time.
            self.sim.compute(self.backoff_ns)
        if self._generation != observed_generation:
            return  # someone else already recovered this loss
        self._recovering = True
        try:
            # Calls already inside the lost enclave run to completion (the
            # model only blocks new entries); destroying under them would
            # pull the pages out from under their feet.
            while self._inflight > 0:
                self.sim.compute(self.backoff_ns)
            try:
                self._handle.destroy()
            except SgxError:
                pass  # a racing destroy already removed it
            self._handle = self._factory()
            self._generation += 1
            self._note(
                RECOVER_RECREATE, call, SgxStatus.SGX_ERROR_ENCLAVE_LOST, attempt
            )
        finally:
            self._recovering = False

    # -- the resilient call path -------------------------------------------

    def ecall(self, name: str, *args: Any) -> Any:
        """Call an ecall, retrying (and re-creating) through failures.

        Raises :class:`EnclaveLostError` when retries are exhausted on a
        loss, or the underlying :class:`SgxError` for non-retryable
        failures and exhausted transient faults.
        """
        backoff = self.backoff_ns
        last_status = SgxStatus.SGX_SUCCESS
        last_epc_full: Optional[EpcFull] = None
        for attempt in range(1, self.max_attempts + 1):
            generation = self._generation
            self._inflight += 1
            epc_full: Optional[EpcFull] = None
            try:
                status, result = self._handle.try_ecall(name, *args)
            except EpcFull as exc:
                # Sustained EPC exhaustion (every frame pinned or squeezed
                # away) is *degradation*, not loss: the enclave is intact,
                # it just cannot get a frame right now.  Back off and let
                # the squeeze window pass or the co-tenant's frames rotate
                # out — re-creating would only add an enclave build to the
                # thrash.
                status, result = SgxStatus.SGX_ERROR_OUT_OF_MEMORY, None
                epc_full = exc
            except SgxError as exc:
                # A fault thrown *inside* the call (e.g. an injected ocall
                # failure) unwinds through sgx_ecall like a crashed
                # untrusted runtime would.
                status, result = exc.status, None
                if status not in RETRYABLE_STATUSES:
                    raise
            finally:
                self._inflight -= 1
            if status is SgxStatus.SGX_SUCCESS:
                return result
            if epc_full is None and status not in RETRYABLE_STATUSES:
                raise SgxError(status, name)
            last_status = status
            last_epc_full = epc_full
            if attempt == self.max_attempts:
                break
            if epc_full is not None:
                self._note(RECOVER_EPC_WAIT, name, status, attempt)
            else:
                self._note(RECOVER_RETRY, name, status, attempt)
                if status is SgxStatus.SGX_ERROR_ENCLAVE_LOST:
                    self._recover(generation, name, attempt)
            self.sim.compute(backoff)
            backoff *= 2
        self._note(RECOVER_GIVEUP, name, last_status, self.max_attempts)
        if last_epc_full is not None:
            raise last_epc_full
        if last_status is SgxStatus.SGX_ERROR_ENCLAVE_LOST:
            raise EnclaveLostError(
                f"{name}: enclave lost, {self.max_attempts} attempts exhausted"
            )
        raise SgxError(last_status, f"{name}: {self.max_attempts} attempts exhausted")

    def destroy(self) -> None:
        """Destroy the current underlying enclave."""
        self._handle.destroy()
