"""In-enclave synchronisation primitives.

Sleeping is impossible inside an enclave, so the SDK's mutexes and condition
variables sleep *outside*, via ocalls (paper §2.3.2):

* locking an uncontended mutex succeeds entirely in-enclave;
* locking a contended mutex enqueues the thread and issues the *sleep*
  ocall (``sgx_thread_wait_untrusted_event_ocall``);
* unlocking with waiters issues the *wake-up* ocall
  (``sgx_thread_set_untrusted_event_ocall``) — typically <10 µs, i.e. pure
  transition cost, which is what the analyser's SSC detector keys on (§3.4).

:class:`HybridMutex` implements the paper's proposed mitigation: spin
in-enclave a bounded number of times before sleeping.
"""

from __future__ import annotations

from typing import Any

from repro.sdk import constants as sdkc
from repro.sdk.errors import SdkSyncError
from repro.sdk.trts import TrustedContext

# Ocall names (kept in sync with repro.sdk.edger8r, re-declared here to
# avoid an import cycle; covered by a unit test).
_WAIT = "sgx_thread_wait_untrusted_event_ocall"
_SET = "sgx_thread_set_untrusted_event_ocall"
_SET_MULTIPLE = "sgx_thread_set_multiple_untrusted_events_ocall"

# In-enclave cost of the atomic fast path (lock cmpxchg on one cache line).
_FAST_PATH_NS = 60


class SdkMutex:
    """The SDK's in-enclave mutex (``sgx_thread_mutex_t``)."""

    def __init__(self, runtime: Any, name: str) -> None:
        self.runtime = runtime
        self.name = name
        self._owner: Any = None
        self._queue: list[Any] = []
        self.stats = {"lock_fast": 0, "lock_slept": 0, "wake_ocalls": 0}

    @property
    def owner_token(self) -> Any:
        """Thread token of the current holder (``None`` if free).

        Read by the hang watchdog to build its wait-for graph.
        """
        return self._owner

    def queued_tokens(self) -> tuple:
        """Tokens currently sleeping in the mutex's wait queue."""
        return tuple(self._queue)

    def lock(self, ctx: TrustedContext) -> None:
        """Acquire the mutex, sleeping via ocall under contention."""
        token = ctx.urts.current_thread_token()
        ctx.compute(_FAST_PATH_NS)
        if self._owner is None:
            self._owner = token
            self.stats["lock_fast"] += 1
            return
        if self._owner == token:
            raise SdkSyncError(f"mutex {self.name!r}: relock by owner {token}")
        while self._owner is not None:
            self._queue.append(token)
            self.stats["lock_slept"] += 1
            ctx.ocall(_WAIT, token)
            if token in self._queue:
                # Spurious wake while still queued: drop the stale entry.
                self._queue.remove(token)
            ctx.compute(_FAST_PATH_NS)
        self._owner = token

    def try_lock(self, ctx: TrustedContext) -> bool:
        """Acquire the mutex if free; never sleeps."""
        ctx.compute(_FAST_PATH_NS)
        if self._owner is None:
            self._owner = ctx.urts.current_thread_token()
            self.stats["lock_fast"] += 1
            return True
        return False

    def unlock(self, ctx: TrustedContext) -> None:
        """Release the mutex, waking the first queued sleeper via ocall."""
        token = ctx.urts.current_thread_token()
        if self._owner != token:
            raise SdkSyncError(
                f"mutex {self.name!r}: unlock by {token}, owner is {self._owner}"
            )
        ctx.compute(_FAST_PATH_NS)
        self._owner = None
        if self._queue:
            waiter = self._queue.pop(0)
            self.stats["wake_ocalls"] += 1
            ctx.ocall(_SET, waiter)


class HybridMutex(SdkMutex):
    """Spin-then-sleep mutex — the paper's §3.4 recommendation.

    Under short critical sections the in-enclave spin usually observes the
    release before the spin budget runs out, avoiding both the sleep *and*
    the wake ocall (the waker only issues a wake when someone is queued).
    """

    def __init__(self, runtime: Any, name: str, spin_iterations: int = 64) -> None:
        super().__init__(runtime, name)
        self.spin_iterations = spin_iterations
        self.stats["lock_spun"] = 0

    def lock(self, ctx: TrustedContext) -> None:
        token = ctx.urts.current_thread_token()
        ctx.compute(_FAST_PATH_NS)
        if self._owner is None:
            self._owner = token
            self.stats["lock_fast"] += 1
            return
        for _ in range(self.spin_iterations):
            ctx.compute(sdkc.SPIN_ITERATION_NS)
            if self._owner is None:
                self._owner = token
                self.stats["lock_spun"] += 1
                return
        super().lock(ctx)


class SdkCondVar:
    """The SDK's in-enclave condition variable (``sgx_thread_cond_t``)."""

    def __init__(self, runtime: Any, name: str) -> None:
        self.runtime = runtime
        self.name = name
        self._queue: list[Any] = []
        self.stats = {"waits": 0, "signals": 0, "broadcasts": 0}

    def wait(self, ctx: TrustedContext, mutex: SdkMutex) -> None:
        """Atomically release ``mutex`` and sleep; relock before returning."""
        token = ctx.urts.current_thread_token()
        self._queue.append(token)
        self.stats["waits"] += 1
        mutex.unlock(ctx)
        ctx.ocall(_WAIT, token)
        mutex.lock(ctx)

    def signal(self, ctx: TrustedContext) -> None:
        """Wake one waiter (a short wake ocall), if any."""
        ctx.compute(_FAST_PATH_NS)
        if self._queue:
            waiter = self._queue.pop(0)
            self.stats["signals"] += 1
            ctx.ocall(_SET, waiter)

    def broadcast(self, ctx: TrustedContext) -> None:
        """Wake all waiters with the *wake multiple* ocall."""
        ctx.compute(_FAST_PATH_NS)
        if self._queue:
            waiters = tuple(self._queue)
            self._queue.clear()
            self.stats["broadcasts"] += 1
            ctx.ocall(_SET_MULTIPLE, waiters)

    @property
    def waiting(self) -> int:
        """Number of queued waiters."""
        return len(self._queue)

    def queued_tokens(self) -> tuple:
        """Tokens currently sleeping on the condition variable."""
        return tuple(self._queue)
