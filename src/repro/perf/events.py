"""Trace event model.

Everything sgx-perf records (paper §4): ecall/ocall executions with
timestamps and thread attribution, AEXs (counted or traced), EPC paging
events from the driver tracepoints, synchronisation sleep/wake events, and
thread creations.

Durations follow the paper's §4.1.2 convention: timestamps are taken
*outside* the enclave, so an **ecall** duration includes the transition
round-trip while an **ocall** duration does not.  The analyser compensates
when comparing against the transition cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

ECALL = "ecall"
OCALL = "ocall"


@dataclass
class CallEvent:
    """One completed ecall or ocall execution."""

    event_id: int
    kind: str  # ECALL or OCALL
    name: str
    call_index: int
    enclave_id: int
    thread_id: int
    start_ns: int
    end_ns: int = 0
    aex_count: int = 0
    parent_id: Optional[int] = None  # direct parent event (paper §4.3.2)
    is_sync: bool = False  # one of the SDK's four sync ocalls

    @property
    def duration_ns(self) -> int:
        """Wall (virtual) duration as the logger measured it."""
        return self.end_ns - self.start_ns

    def to_row(self) -> tuple:
        """Flat tuple in ``calls`` table schema order (the writer format)."""
        return (
            self.event_id,
            self.kind,
            self.name,
            self.call_index,
            self.enclave_id,
            self.thread_id,
            self.start_ns,
            self.end_ns,
            self.aex_count,
            self.parent_id,
            1 if self.is_sync else 0,
        )

    @classmethod
    def from_row(cls, row: tuple) -> "CallEvent":
        """Inflate one ``calls`` table row (the reader direction)."""
        return cls(
            event_id=row[0],
            kind=row[1],
            name=row[2],
            call_index=row[3],
            enclave_id=row[4],
            thread_id=row[5],
            start_ns=row[6],
            end_ns=row[7],
            aex_count=row[8],
            parent_id=row[9],
            is_sync=bool(row[10]),
        )


class SyncKind(enum.Enum):
    """The two event types the four SDK sync ocalls reduce to (§4.1.3)."""

    SLEEP = "sleep"
    WAKE = "wake"


@dataclass(frozen=True)
class SyncEvent:
    """A thread going to sleep or waking other threads via a sync ocall."""

    event_id: int
    timestamp_ns: int
    thread_id: int
    kind: SyncKind
    call_id: int  # the ocall CallEvent this happened in
    # For WAKE: tokens (thread identities) being woken.  For SLEEP: the
    # sleeper's own token.  Lets the analyser track who wakes whom.
    targets: tuple = ()


@dataclass(frozen=True)
class AexEvent:
    """One traced asynchronous enclave exit (aex_mode='trace' only)."""

    event_id: int
    timestamp_ns: int
    enclave_id: int
    thread_id: int
    call_id: Optional[int]  # the open ecall it interrupted, if any


@dataclass(frozen=True)
class PagingRecord:
    """One EPC page crossing, captured from a driver kprobe (§4.1.5)."""

    event_id: int
    timestamp_ns: int
    enclave_id: int
    vaddr: int
    direction: str  # "page_in" | "page_out"


@dataclass(frozen=True)
class FaultRecord:
    """One row of the ``faults`` table (injected faults, recoveries, ...).

    :mod:`repro.faultrows` declares every ``kind`` and the format of each
    ``detail`` that a reader parses back.
    """

    event_id: int
    timestamp_ns: int
    enclave_id: int
    thread_id: int
    kind: str
    call: str = ""
    detail: str = ""


@dataclass(frozen=True)
class ThreadRecord:
    """A thread observed by the logger (via pthread_create shadowing)."""

    thread_id: int
    name: str
    created_ns: int


@dataclass(frozen=True)
class EnclaveRecord:
    """Static facts about an enclave, for offline analysis."""

    enclave_id: int
    name: str
    size_pages: int
    tcs_count: int
    base_vaddr: int
