"""The one digest format behind every determinism gate.

A run is "the same" when its digest is: sha256 hex over a canonical byte
form.  Structured records (manifest lines, the metrics of untraced runs)
take their canonical form from :func:`canonical_json`; traces are hashed
table by table by :func:`trace_digest`.  Seed derivations (node seeds, ring
positions, rng streams) hash too, but they are not digests and do not use
this module.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.perf.database import TraceDatabase

# Every table a trace can contain, with a deterministic dump order.
_TRACE_TABLES = (
    ("meta", "key"),
    ("calls", "id"),
    ("aex", "id"),
    ("paging", "id"),
    ("sync", "id"),
    ("faults", "id"),
    ("threads", "thread_id"),
    ("enclaves", "enclave_id"),
)


def canonical_json(value: Any) -> str:
    """Sorted keys, no whitespace: equal values give equal bytes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    """SHA-256 hex digest of ``text`` (UTF-8)."""
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(db: "TraceDatabase") -> str:
    """SHA-256 over every table's full contents, in deterministic order."""
    h = hashlib.sha256()
    for table, order in _TRACE_TABLES:
        h.update(table.encode())
        for row in db.execute(f"SELECT * FROM {table} ORDER BY {order}"):
            h.update(repr(row).encode())
    return h.hexdigest()
