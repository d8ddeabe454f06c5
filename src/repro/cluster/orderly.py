"""Guardian-style session-orderliness validation over cluster traces.

Guardian (PAPERS.md) checks that an enclave's *interface* is used in
protocol order — calls arrive in the states that allow them.  The cluster
gateway has exactly such a protocol: each upstream connection owns one
enclave session that must be registered with ``MSG_CONNECT`` **exactly
once** (re-registering leaks a 40 KiB in-enclave queue per offence), must
not carry request batches before it is registered, and must not send
anything after the gateway closed it.

The recovery machinery is precisely where such bugs hide — reconnect
paths that re-send ``MSG_CONNECT``, retry loops that race shutdown — so
the gateway mirrors its session lifecycle into the trace's fault table
(``session:connect`` / ``session:batch`` / ``session:close`` rows, see
:mod:`repro.cluster.proxy`; :mod:`repro.faultrows` decodes them) and this
module folds those rows, per trace and per gateway identity, into a
verdict.  Violations surface as
analyser findings in ``sgxperf analyze --cluster``.

The fold is deterministic and streaming-friendly: rows are consumed in
trace order (the ``faults`` table is time-ordered) and the per-session
state is just three booleans and counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import faultrows

# Violation kinds (stable vocabulary for findings and tests).
DUPLICATE_CONNECT = "duplicate-connect"
BATCH_BEFORE_CONNECT = "batch-before-connect"
BATCH_AFTER_CLOSE = "batch-after-close"
DUPLICATE_CLOSE = "duplicate-close"
NEVER_CONNECTED = "never-connected"


@dataclass(frozen=True)
class OrderlinessViolation:
    """One session-protocol violation observed in a trace."""

    trace: str
    gateway_id: int
    kind: str
    timestamp_ns: int
    detail: str

    def describe(self) -> str:
        """One-line finding text."""
        return (
            f"{self.kind}: gateway {self.gateway_id} at {self.timestamp_ns} ns"
            f" ({self.trace}): {self.detail}"
        )


@dataclass
class _SessionState:
    connects: int = 0
    batches: int = 0
    closed: bool = False


@dataclass
class SessionAudit:
    """Fold state + results for one trace's session rows."""

    trace: str = ""
    sessions: dict[int, _SessionState] = field(default_factory=dict)
    violations: list[OrderlinessViolation] = field(default_factory=list)
    rows: int = 0

    def _flag(self, gateway_id: int, kind: str, ts_ns: int, detail: str) -> None:
        self.violations.append(OrderlinessViolation(self.trace, gateway_id, kind, ts_ns, detail))

    def add(self, fault) -> None:
        """Fold one fault row in (other rows, and session rows that name
        no gateway, are ignored)."""
        if fault.kind not in faultrows.SESSION_KINDS:
            return
        session = faultrows.decode_session(fault.detail)
        if session is None:
            return
        self.rows += 1
        gateway_id = session[0]
        state = self.sessions.setdefault(gateway_id, _SessionState())
        ts = fault.timestamp_ns
        if fault.kind == faultrows.SESSION_CONNECT:
            state.connects += 1
            if state.connects > 1:
                self._flag(
                    gateway_id,
                    DUPLICATE_CONNECT,
                    ts,
                    f"MSG_CONNECT sent {state.connects} times "
                    "(each repeat leaks a 40 KiB in-enclave session queue)",
                )
        elif fault.kind == faultrows.SESSION_BATCH:
            state.batches += 1
            if state.connects == 0:
                self._flag(
                    gateway_id,
                    BATCH_BEFORE_CONNECT,
                    ts,
                    "request batch sent on an unregistered session",
                )
            if state.closed:
                self._flag(
                    gateway_id,
                    BATCH_AFTER_CLOSE,
                    ts,
                    "request batch sent after the gateway closed the session",
                )
        elif fault.kind == faultrows.SESSION_CLOSE:
            if state.closed:
                self._flag(
                    gateway_id, DUPLICATE_CLOSE, ts, "session closed twice"
                )
            state.closed = True

    def finish(self) -> None:
        """End-of-trace checks (batches on sessions that never connected)."""
        for gateway_id in sorted(self.sessions):
            state = self.sessions[gateway_id]
            if state.batches and state.connects == 0:
                self._flag(
                    gateway_id,
                    NEVER_CONNECTED,
                    0,
                    f"{state.batches} batch(es) but no MSG_CONNECT ever sent",
                )


def render_orderliness(audits: list[SessionAudit]) -> str:
    """Terminal rendering of per-trace audits for the analyzer's cluster mode."""
    violations = [v for audit in audits for v in audit.violations]
    lines = ["-- session orderliness (Guardian-style) " + "-" * 38]
    lines.append(
        f"{len(audits)} trace(s), "
        f"{sum(len(audit.sessions) for audit in audits)} gateway session(s), "
        f"{sum(audit.rows for audit in audits)} lifecycle row(s) audited"
    )
    if not violations:
        lines.append("no session-protocol violations")
        return "\n".join(lines)
    for violation in violations:
        lines.append(f"VIOLATION {violation.describe()}")
    return "\n".join(lines)
