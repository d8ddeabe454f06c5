"""Direct parents from interval containment (paper §4.3.2, Figure 4).

*Direct* parents are logged by the event logger: an ecall E is the direct
parent of an ocall O iff O was issued during E (and vice versa for ecalls
during ocalls).  The analyser's call fold also derives the *indirect*
parents of Figure 4 from them (see :mod:`repro.perf.analysis.streaming`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.perf.events import CallEvent


def recompute_direct_parents(calls: Sequence[CallEvent]) -> dict[int, Optional[int]]:
    """Derive direct parents from interval containment alone.

    The logger records direct parents as it goes; this recomputation from
    timestamps (per thread: the innermost call whose interval encloses the
    child's) exists to cross-check the logger and to support traces
    produced by other tools.
    """
    by_thread: dict[int, list[CallEvent]] = {}
    for call in calls:
        by_thread.setdefault(call.thread_id, []).append(call)
    result: dict[int, Optional[int]] = {}
    for thread_calls in by_thread.values():
        thread_calls.sort(key=lambda c: (c.start_ns, -c.end_ns, c.event_id))
        stack: list[CallEvent] = []
        for call in thread_calls:
            while stack and stack[-1].end_ns <= call.start_ns:
                stack.pop()
            result[call.event_id] = stack[-1].event_id if stack else None
            stack.append(call)
    return result
