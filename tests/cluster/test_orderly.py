"""Session-orderliness validator: protocol violations in gateway traces."""

from dataclasses import dataclass

from repro.cluster.orderly import (
    BATCH_AFTER_CLOSE,
    BATCH_BEFORE_CONNECT,
    DUPLICATE_CLOSE,
    DUPLICATE_CONNECT,
    NEVER_CONNECTED,
    SessionAudit,
    render_orderliness,
)
from repro.faultrows import SESSION_BATCH, SESSION_CLOSE, SESSION_CONNECT


@dataclass(frozen=True)
class _Row:
    """Minimal stand-in for a trace fault row."""

    kind: str
    detail: str
    timestamp_ns: int = 0


def _connect(gw, ts=0):
    return _Row(SESSION_CONNECT, f"gateway {gw}: conn 0 registered", ts)


def _batch(gw, ts=0):
    return _Row(SESSION_BATCH, f"gateway {gw}: 4 request(s) sent", ts)


def _close(gw, ts=0):
    return _Row(SESSION_CLOSE, f"gateway {gw}: session closed", ts)


def _audit(rows, trace=""):
    """Fold ``rows`` (in time order) into one trace's audit, as
    ``analyze --cluster`` folds each shard trace."""
    audit = SessionAudit(trace=trace)
    for row in rows:
        audit.add(row)
    audit.finish()
    return audit


class TestValidator:
    def test_clean_lifecycle_passes(self):
        rows = [_connect(1, 10), _batch(1, 20), _batch(1, 30), _close(1, 40)]
        audit = _audit(rows, trace="t.db")
        assert audit.violations == []
        assert audit.trace == "t.db"
        assert list(audit.sessions) == [1]
        assert audit.rows == 4

    def test_duplicate_connect_flagged(self):
        rows = [_connect(1, 10), _connect(1, 20)]
        audit = _audit(rows)
        assert [v.kind for v in audit.violations] == [DUPLICATE_CONNECT]
        assert audit.violations[0].timestamp_ns == 20
        # The finding names the cost: the leaked in-enclave queue.
        assert "40 KiB" in audit.violations[0].detail

    def test_batch_before_connect_flagged(self):
        audit = _audit([_batch(2, 5), _connect(2, 6)])
        kinds = [v.kind for v in audit.violations]
        assert BATCH_BEFORE_CONNECT in kinds
        # Connect arrived eventually, so never-connected must NOT fire too.
        assert NEVER_CONNECTED not in kinds

    def test_batch_after_close_flagged(self):
        rows = [_connect(3, 1), _close(3, 2), _batch(3, 3)]
        audit = _audit(rows)
        assert [v.kind for v in audit.violations] == [BATCH_AFTER_CLOSE]

    def test_duplicate_close_flagged(self):
        rows = [_connect(4, 1), _close(4, 2), _close(4, 3)]
        audit = _audit(rows)
        assert [v.kind for v in audit.violations] == [DUPLICATE_CLOSE]

    def test_never_connected_flagged_at_finish(self):
        audit = _audit([_batch(5, 9)])
        kinds = [v.kind for v in audit.violations]
        assert BATCH_BEFORE_CONNECT in kinds
        assert NEVER_CONNECTED in kinds

    def test_sessions_are_independent(self):
        rows = [_connect(1, 1), _connect(2, 2), _batch(1, 3), _batch(2, 4),
                _close(1, 5), _close(2, 6), _batch(2, 7)]
        audit = _audit(rows)
        assert [(v.gateway_id, v.kind) for v in audit.violations] == [
            (2, BATCH_AFTER_CLOSE)
        ]

    def test_non_session_rows_ignored(self):
        rows = [
            _Row("serve:request", "ok +100 ns", 1),
            _Row(SESSION_CONNECT, "no gateway prefix here", 2),
            _connect(1, 3),
        ]
        audit = _audit(rows)
        assert audit.rows == 1
        assert audit.violations == []


class TestRendering:
    def test_clean_render(self):
        audit = _audit([_connect(1), _close(1)], trace="a.db")
        text = render_orderliness([audit])
        assert "1 trace(s), 1 gateway session(s), 2 lifecycle row(s) audited" in text
        assert "no session-protocol violations" in text

    def test_violation_render_names_kind_and_gateway(self):
        audit = _audit([_connect(7, 1), _connect(7, 2)])
        text = render_orderliness([audit])
        assert "VIOLATION" in text
        assert DUPLICATE_CONNECT in text
        assert "gateway 7" in text
