"""The ``faults`` table's row vocabulary: every kind, spelled once.

The trace's ``faults`` table is its second event stream, next to the
calls.  It holds injected faults, recovery actions, non-success ecall
statuses, request outcomes, gateway session markers, brownout evidence,
watchdog detections and calls closed at a trace horizon.  Each row has a
``kind``, the ``call`` it concerns and a free-text ``detail``.  This
module declares every kind the program writes, and the encoder/decoder
pair of each detail that a reader parses back:

* ``serve:request`` — ``ok +N ns``, the request's latency;
* ``brownout:level`` — ``A -> B at R pages/s``, a level change;
* ``brownout:shed`` — ``class=C level=L reason=R backlog=N``;
* ``session:*`` — ``gateway N: note``.

Every other detail is free text for humans.  A trace is input from
outside the program, so a decoder returns ``None`` on a detail it cannot
parse instead of raising.

The module imports nothing from ``repro``: the logger, the injectors,
the gateway and the analysers share it without loading one another.
"""

from __future__ import annotations

import re
from typing import Optional

# Injected faults (repro.faults.injector, repro.faults.pressure).
INJECT_PREFIX = "inject:"
INJECT_LOSS = "inject:loss"
INJECT_TCS = "inject:tcs"
INJECT_OCALL_ERROR = "inject:ocall-error"
INJECT_OCALL_DELAY = "inject:ocall-delay"
INJECT_EPC = "inject:epc"
INJECT_NET_RESET = "inject:net-reset"
INJECT_NET_DELAY = "inject:net-delay"
INJECT_NET_SHORT_WRITE = "inject:net-short-write"
INJECT_NET_PARTITION = "inject:net-partition"
INJECT_NET_SLOW = "inject:net-slow"
INJECT_NET_ASYM = "inject:net-asym-partition"
INJECT_EPC_SQUEEZE = "inject:epc-squeeze"
INJECT_EPC_RELEASE = "inject:epc-squeeze-release"
INJECT_STRESSOR_START = "inject:stressor-start"
INJECT_STRESSOR_STOP = "inject:stressor-stop"

# Enclave-loss recovery (repro.sdk.resilience); epc-wait backs off for want of an EPC frame.
RECOVER_RETRY = "recover:retry"
RECOVER_RECREATE = "recover:recreate"
RECOVER_GIVEUP = "recover:giveup"
RECOVER_EPC_WAIT = "recover:epc-wait"

# Hang detections (repro.faults.watchdog).
WATCHDOG_PREFIX = "watchdog:"
WATCHDOG_DEADLOCK = "watchdog:deadlock"
WATCHDOG_LOST_WAKEUP = "watchdog:lost-wakeup"
WATCHDOG_ECALL_TIMEOUT = "watchdog:ecall-timeout"

# Request outcomes (repro.workloads.serving.ServingStats); ``call`` holds the workload.
SERVE_REQUEST = "serve:request"
SERVE_RETRY = "serve:retry"
SERVE_SHED = "serve:shed"
SERVE_FAILED = "serve:failed"
SERVE_KINDS = frozenset((SERVE_REQUEST, SERVE_RETRY, SERVE_SHED, SERVE_FAILED))

# Gateway session lifecycle (repro.cluster.proxy).
SESSION_CONNECT = "session:connect"
SESSION_BATCH = "session:batch"
SESSION_CLOSE = "session:close"
SESSION_KINDS = frozenset((SESSION_CONNECT, SESSION_BATCH, SESSION_CLOSE))

# Brownout evidence (repro.cluster.brownout); a level is its index in BROWNOUT_LEVELS.
BROWNOUT_LEVEL = "brownout:level"
BROWNOUT_SHED = "brownout:shed"
BROWNOUT_LEVELS = ("normal", "brownout", "deep")

# A call closed at the trace horizon by an abort or a salvage, not by returning.
TRUNCATED = "truncated"

# Non-success ecall statuses the logger saw; an ecall that raised is ``status:EXCEPTION``.
STATUS_EXCEPTION = "status:EXCEPTION"


def status_kind(name: str) -> str:
    """The kind of a row for the ``SgxStatus`` member called ``name``."""
    return "status:" + name


# -- details that readers parse -----------------------------------------------

_SERVE_REQUEST = re.compile(r"ok \+([0-9]+) ns")
_LEVEL = "(" + "|".join(BROWNOUT_LEVELS) + ")"
_BROWNOUT_LEVEL = re.compile(_LEVEL + r" -> " + _LEVEL + r" at ([0-9]+) pages/s")
_BROWNOUT_SHED = re.compile(r"class=(\S+) level=" + _LEVEL + r" reason=(\S+) backlog=([0-9]+)")
_SESSION = re.compile(r"gateway ([0-9]+): (.*)", re.DOTALL)


def encode_serve_request(latency_ns: int) -> str:
    """``serve:request``: a request that completed after ``latency_ns``."""
    return f"ok +{latency_ns} ns"


def decode_serve_request(detail: str) -> Optional[int]:
    """The latency of a ``serve:request`` detail."""
    match = _SERVE_REQUEST.fullmatch(detail)
    return int(match[1]) if match else None


def encode_brownout_level(previous: int, level: int, rate_pps: float) -> str:
    """``brownout:level``: the controller moved at a paging rate."""
    return f"{BROWNOUT_LEVELS[previous]} -> {BROWNOUT_LEVELS[level]} at {rate_pps:.0f} pages/s"


def decode_brownout_level(detail: str) -> Optional[tuple[int, int, int]]:
    """``(previous, level, rate_pps)`` of a ``brownout:level`` detail."""
    match = _BROWNOUT_LEVEL.fullmatch(detail)
    if match is None:
        return None
    return BROWNOUT_LEVELS.index(match[1]), BROWNOUT_LEVELS.index(match[2]), int(match[3])


def encode_brownout_shed(priority: str, level: int, reason: str, backlog: int) -> str:
    """``brownout:shed``: a refused request's class, level, reason, backlog."""
    return f"class={priority} level={BROWNOUT_LEVELS[level]} reason={reason} backlog={backlog}"


def decode_brownout_shed(detail: str) -> Optional[tuple[str, int, str, int]]:
    """``(priority, level, reason, backlog)`` of a ``brownout:shed`` detail."""
    match = _BROWNOUT_SHED.fullmatch(detail)
    if match is None:
        return None
    return match[1], BROWNOUT_LEVELS.index(match[2]), match[3], int(match[4])


def encode_session(gateway_id: int, note: str) -> str:
    """``session:*``: a lifecycle step of one gateway identity's session."""
    return f"gateway {gateway_id}: {note}"


def decode_session(detail: str) -> Optional[tuple[int, str]]:
    """``(gateway_id, note)`` of a ``session:*`` detail."""
    match = _SESSION.fullmatch(detail)
    return (int(match[1]), match[2]) if match else None
