"""Golden analysis digests: the analyser's outputs are pinned, not twinned.

The contract under test: for ANY ``chunk_events`` setting, the analyser's
report text (with its availability and pressure sections), its ``--json``
findings export and its DOT call graph hash to the sha256 digests
committed in ``analysis_golden.json`` — on seeded traces from all four
bundled workloads, on the talos trace with an EDL, on a salvaged
fault/serving trace, and on an empty trace.

The digests were pinned from the in-memory analyser that the chunked fold
replaced, so they also hold the fold to that analyser's exact output.
Regenerate them (only for an intended output change) with::

    PYTHONPATH=src python tests/perf/test_streaming_analysis.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
import tracemalloc
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.analysis.callgraph import DIRECT, INDIRECT
from repro.perf.analysis.detectors import AnalyzerWeights
from repro.perf.analysis.export import report_to_json
from repro.perf.analysis.report import Analyzer
from repro.perf.analysis.stats import compute_statistics
from repro.perf.analysis.streaming import CallFold
from repro.perf.cli import main as cli_main
from repro.perf.database import DEFAULT_CHUNK_EVENTS, TraceDatabase, TraceError
from repro.perf.events import ECALL, OCALL, CallEvent
from repro.sdk.edl import parse_edl

from tests.perf.test_columns import _rows

WORKLOADS = ["talos", "sqlite", "glamdring", "securekeeper"]
# None = the default chunk; UNBOUNDED = one chunk holds the whole trace.
UNBOUNDED = 2**31 - 1  # the largest batch SQLite cursors accept
CHUNKS = [1, 7, 1000, None, UNBOUNDED]
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "analysis_golden.json")
REGENERATE = "PYTHONPATH=src python tests/perf/test_streaming_analysis.py"

EDL_TEXT = """
enclave {
    trusted {
        public void ecall_handshake([user_check] void *ctx);
        void ecall_request(void);
    };
    untrusted {
        void ocall_read(void) allow(ecall_request, ecall_handshake);
    };
};
"""


def _record(name: str, path: str, seed: int = 5) -> None:
    from repro.workloads import recorders

    sized = {
        # Small but representative loads: every detector family fires.
        "talos": lambda: recorders.record_talos(path, seed, requests=60),
        "sqlite": lambda: recorders.record_sqlite(path, seed, requests=80),
        "glamdring": lambda: recorders.record_glamdring(path, seed, signs=2),
        "securekeeper": lambda: recorders.record_securekeeper(path, seed, operations=10),
    }
    sized[name]()


def _add_fault_rows(path: str) -> None:
    """Serving, watchdog and loss/recovery rows, then mark the trace salvaged."""
    with TraceDatabase(path) as db:
        rows = []
        ts = 1_000
        for i in range(6):
            rows.append((10_000 + i, ts + i, 1, 1, "serve:request", "kvstore", f"ok +{90 + i} ns"))
        rows.append((10_006, ts + 6, 1, 1, "serve:retry", "kvstore", ""))
        rows.append((10_007, ts + 7, 1, 1, "serve:shed", "kvstore", ""))
        rows.append((10_008, ts + 8, 1, 2, "serve:failed", "kvstore", ""))
        rows.append((10_009, ts + 9, 1, 2, "watchdog:deadlock", "", "cycle"))
        rows.append((10_010, ts + 10, 1, 2, "inject:loss", "", ""))
        rows.append((10_011, ts + 11, 1, 2, "recover:recreate", "", ""))
        rows.append((10_012, ts + 12, 1, 2, "recover:retry", "ecall_sign", ""))
        db.add_fault_rows(rows)
        db.set_meta("trace_state", "salvaged")
        db.flush()


def build_traces(root: str) -> dict[str, str]:
    """Record every pinned trace under ``root``; name → trace path."""
    paths = {}
    for name in WORKLOADS:
        paths[name] = os.path.join(root, f"{name}.db")
        _record(name, paths[name])
    paths["faulty"] = os.path.join(root, "faulty.db")
    _record("glamdring", paths["faulty"])
    _add_fault_rows(paths["faulty"])
    paths["empty"] = os.path.join(root, "empty.db")
    with TraceDatabase(paths["empty"]) as db:
        db.flush()
    return paths


def digests(path: str, edl: Optional[str] = None, **options) -> dict[str, str]:
    """sha256 of the report text, the ``--json`` export and the DOT graph."""
    definition = parse_edl(edl) if edl else None
    with TraceDatabase(path) as db:
        analyzer = Analyzer(db, definition=definition, **options)
        report = analyzer.run()
        outputs = {
            "text": "\n".join(
                (report.render_text(), report.render_availability(), report.render_pressure())
            ),
            "json": report_to_json(report),
            "dot": analyzer.call_graph_dot(),
        }
    return {key: hashlib.sha256(text.encode()).hexdigest() for key, text in outputs.items()}


def pin_digests(root: str) -> dict[str, dict[str, str]]:
    """Digests of every pinned trace at the analyser's default settings."""
    paths = build_traces(root)
    golden = {name: digests(path) for name, path in paths.items()}
    golden["talos+edl"] = digests(paths["talos"], EDL_TEXT)
    return dict(sorted(golden.items()))


def _load_golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN_PATH) as f:
        return json.load(f)["digests"]


GOLDEN = _load_golden() if os.path.exists(GOLDEN_PATH) else {}


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict:
    return build_traces(str(tmp_path_factory.mktemp("golden-traces")))


@pytest.mark.parametrize(
    "chunk", CHUNKS, ids=lambda c: f"chunk={'inf' if c == UNBOUNDED else c or 'default'}"
)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_streaming_byte_identical(traces, workload, chunk):
    assert digests(traces[workload], chunk_events=chunk) == GOLDEN[workload]


def test_streaming_with_edl_identical(traces):
    for chunk in (7, 1000, None):
        got = digests(traces["talos"], EDL_TEXT, chunk_events=chunk)
        assert got == GOLDEN["talos+edl"], chunk


def test_fault_and_serving_sections_identical(traces):
    """Fault counts, availability and notes of a salvaged trace stay pinned."""
    for chunk in (7, 1000, None):
        assert digests(traces["faulty"], chunk_events=chunk) == GOLDEN["faulty"], chunk


def test_empty_trace_identical(traces):
    for chunk in (7, 1000, None):
        assert digests(traces["empty"], chunk_events=chunk) == GOLDEN["empty"], chunk


# -- satellite: count fast paths ------------------------------------------


def test_count_fast_paths(traces):
    with TraceDatabase(traces["glamdring"]) as db:
        cols = db.call_columns()
        assert db.calls_count() == len(cols)
        assert db.calls_count(kind="ecall") == sum(
            1 for k in cols.kind.tolist() if k == "ecall"
        )
        counts = db.table_counts()
        assert counts["calls"] == len(cols)
        assert db.event_count() == sum(counts.values())
        threads = dict(db.thread_row_counts())
        assert sum(threads.values()) == len(cols)


# -- the fold's statistics against one call site's read ----------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fold_statistics_equal_filtered_reads(traces, workload):
    """The fold re-sorts each site's thread-major durations to the ``calls``
    view's ``(start_ns, id)`` order; one filtered read must give the same
    statistics to the last bit (the mean and deviation depend on order)."""
    with TraceDatabase(traces[workload], readonly=True) as db:
        statistics = Analyzer(db).run().statistics
        assert statistics
        for stat in statistics:
            durations = db.call_columns(kind=stat.kind, name=stat.name).duration_ns()
            assert compute_statistics(stat.kind, stat.name, durations) == stat
        if workload == "securekeeper":  # client threads interleave their calls
            assert len(db.thread_row_counts()) >= 8


@pytest.mark.parametrize("workload", WORKLOADS)
def test_filtered_call_columns_equal_calls(traces, workload):
    """``call_columns`` masks its rows out of the decoded column blocks and
    orders them itself; for every call site and every enclave they must be
    the ``calls`` view's rows, in its ``(start_ns, id)`` order across threads."""
    with TraceDatabase(traces[workload], readonly=True) as db:
        sites = db.execute("SELECT kind, name FROM sites ORDER BY site_id")
        assert sites
        for kind, name in [(None, None), *sites]:
            got = _rows(db.call_columns(kind=kind, name=name))
            assert got == [call.to_row() for call in db.calls(kind=kind, name=name)], name
        for (enclave_id,) in db.execute("SELECT DISTINCT enclave_id FROM call_rows"):
            got = _rows(db.call_columns(enclave_id=enclave_id))
            assert got == [call.to_row() for call in db.calls(enclave_id=enclave_id)]
        if workload == "securekeeper":  # client threads interleave their calls
            assert len(db.thread_row_counts()) >= 8


# -- the fold's site-pair tables against a per-row loop ----------------------


def _tally(table: dict, key: tuple, hits: list) -> None:
    counts = table.setdefault(key, [0] * len(hits))
    for slot, hit in enumerate(hits):
        counts[slot] += hit


def reference_tables(calls) -> dict[str, dict]:
    """The fold's four site-pair tables, recomputed one call at a time.

    Each thread's calls are walked in ``(start_ns, id)`` order.  A call's
    direct parent is the call of that thread its ``parent_id`` names; its
    Figure 4 chain predecessor is the thread's previous call with the same
    ``(parent_id, kind)``.  ``direct`` and ``chained`` count every call by
    ``(parent key, child key)``; ``offsets`` (Equation 2, ``[total, s10,
    s20, e10, e20]``) and ``gaps`` (Equation 3, ``[pairs, n1, n5, n10,
    n20]``) count non-sync calls by ``(child key, parent key)``.
    """
    direct: dict = {}
    chained: dict = {}
    offsets: dict = {}
    gaps: dict = {}
    threads: dict[int, list] = {}
    for call in calls:
        threads.setdefault(call.thread_id, []).append(call)
    for rows in threads.values():
        rows.sort(key=lambda c: (c.start_ns, c.event_id))
        by_id = {c.event_id: c for c in rows}
        last: dict = {}
        for c in rows:
            me = (c.kind, c.name)
            parent = by_id.get(c.parent_id)
            if parent is not None:
                up = (parent.kind, parent.name)
                direct[up, me] = direct.get((up, me), 0) + 1
                if not c.is_sync:
                    from_start = c.start_ns - parent.start_ns
                    from_end = parent.end_ns - c.end_ns
                    hits = [True, from_start <= 10_000, from_start <= 20_000]
                    hits += [from_end <= 10_000, from_end <= 20_000]
                    _tally(offsets, (me, up), hits)
            prev = last.get((c.parent_id, c.kind))
            if prev is not None:
                up = (prev.kind, prev.name)
                chained[up, me] = chained.get((up, me), 0) + 1
                if not c.is_sync:
                    gap = c.start_ns - prev.end_ns
                    hits = [True] + [gap <= limit for limit in (1_000, 5_000, 10_000, 20_000)]
                    _tally(gaps, (me, up), hits)
            last[c.parent_id, c.kind] = c
    return {"direct": direct, "chained": chained, "offsets": offsets, "gaps": gaps}


def fold_tables(db: TraceDatabase, chunk: int) -> dict[str, dict]:
    """The same four tables, as a :class:`CallFold` over ``chunk``-row batches finalises them."""
    fold = CallFold(0, AnalyzerWeights())
    for cols in db.call_columns_chunks(chunk):
        fold.fold(cols)
    graph = fold.call_graph()
    site = {key: (node["kind"], node["name"]) for key, node in graph.nodes.items()}
    edges: dict[str, dict] = {DIRECT: {}, INDIRECT: {}}
    for src, dst, relation, count in graph.edges:
        edges[relation][site[src], site[dst]] = count
    return {
        "direct": edges[DIRECT],
        "chained": edges[INDIRECT],
        "offsets": {(child, parent): counts for child, parent, counts in fold.offset_counts()},
        "gaps": {(child, pred): counts for child, pred, counts in fold.gap_counts()},
    }


@pytest.mark.parametrize("chunk", [1, 7, None], ids=lambda c: f"chunk={c or 'default'}")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fold_tables_equal_loop_reference(traces, workload, chunk):
    """The counts under the golden digests' thresholded findings."""
    with TraceDatabase(traces[workload], readonly=True) as db:
        expected = reference_tables(db.calls())
        got = fold_tables(db, chunk or DEFAULT_CHUNK_EVENTS)
    assert all(expected.values())
    assert got == expected


# Offsets and gaps land on and either side of the 1/5/10/20 us limits;
# a zero step ties start times.
STEPS = st.sampled_from(
    [0, 1, 999, 1_000, 1_001, 5_000, 5_001, 10_000, 10_001, 20_000, 20_001, 35_000]
)
LOST_PARENTS = [1_000_001, 1_000_002]  # parent ids no call has


def _nest(draw, rows: list, thread: int, kind: str, parent, start: int, depth: int) -> int:
    """Append one call and its nested calls; returns its end."""
    name = draw(st.sampled_from(["e0", "e1", "e2"] if kind == ECALL else ["o0", "o1", "sync"]))
    row = {"thread": thread, "kind": kind, "name": name, "start": start, "parent": parent}
    rows.append(row)
    clock = start + draw(STEPS)
    inner = OCALL if kind == ECALL else ECALL
    for _ in range(draw(st.integers(0, 2 if depth < 2 else 0))):
        clock = _nest(draw, rows, thread, inner, row, clock, depth + 1) + draw(STEPS)
    row["end"] = clock
    return clock


@st.composite
def thread_major_traces(draw) -> list[CallEvent]:
    """Nested calls on up to three threads, ids handed out in global entry order."""
    rows: list[dict] = []
    for thread in range(1, draw(st.integers(1, 3)) + 1):
        clock = draw(STEPS)
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from([ECALL, ECALL, OCALL]))
            parent = draw(st.sampled_from([None, None, *LOST_PARENTS]))
            clock = _nest(draw, rows, thread, kind, parent, clock, 0) + draw(STEPS)
    # Entry order: by start across threads, nesting order within a thread.
    entry = sorted(range(len(rows)), key=lambda i: (rows[i]["start"], rows[i]["thread"], i))
    for event_id, i in enumerate(entry, start=1):
        rows[i]["id"] = event_id
    return [
        CallEvent(
            event_id=row["id"],
            kind=row["kind"],
            name=row["name"],
            call_index=0,
            enclave_id=1,
            thread_id=row["thread"],
            start_ns=row["start"],
            end_ns=row["end"],
            parent_id=row["parent"]["id"] if isinstance(row["parent"], dict) else row["parent"],
            is_sync=row["name"] == "sync",
        )
        for row in rows
    ]


@settings(max_examples=60, deadline=None)
@given(thread_major_traces())
def test_fold_tables_equal_loop_reference_on_generated_traces(calls):
    db = TraceDatabase()
    db.add_call_rows([call.to_row() for call in calls])
    expected = reference_tables(calls)
    for chunk in (1, 7, DEFAULT_CHUNK_EVENTS):
        assert fold_tables(db, chunk) == expected, chunk


def test_fold_tables_hold_pairs_seen_not_site_squares():
    """2,000 call sites, 8,000 calls: a dense ``n_sites²`` table of 18 int64
    cells would take about 576 MB; the fold's tables grow with the pairs."""
    rng = random.Random(20)
    steps = [0, 1_000, 5_000, 10_000, 10_001, 20_000, 30_000]
    ocall_sites = list(range(1_000)) * 6  # each of 1,000 ocall sites six times
    rng.shuffle(ocall_sites)
    events = []
    clock = 0
    for i in range(2_000):  # 1,000 ecall sites, each the parent of three ocalls
        ecall_id, ecall_start = 4 * i + 1, clock
        for k in range(1, 4):
            start = clock + rng.choice(steps)
            clock = start + rng.choice(steps)
            name = f"ocall_{ocall_sites.pop()}"
            events.append(CallEvent(ecall_id + k, OCALL, name, 0, 1, 1, start, clock, 0, ecall_id))
        clock += rng.choice(steps)
        events.append(CallEvent(ecall_id, ECALL, f"ecall_{i % 1_000}", 0, 1, 1, ecall_start, clock))
        clock += rng.choice(steps)
    assert len({(event.kind, event.name) for event in events}) == 2_000
    db = TraceDatabase()
    db.add_call_rows([event.to_row() for event in events])
    expected = reference_tables(events)
    tracemalloc.start()
    try:
        got = fold_tables(db, DEFAULT_CHUNK_EVENTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 64 * 2**20


# -- read-only mode --------------------------------------------------------


def test_readonly_mode(traces):
    with pytest.raises(TraceError):
        TraceDatabase(":memory:", readonly=True)
    db = TraceDatabase(traces["glamdring"], readonly=True)
    try:
        assert db.calls_count() > 0
        assert len(db.call_columns()) == db.calls_count()
    finally:
        db.close()


# -- live top ---------------------------------------------------------------


def _run_top(seed: int, with_breaker: bool = False):
    from repro.perf.top import LiveTop
    from repro.workloads import recorders

    tops = []

    def attach(logger):
        breaker = None
        if with_breaker:
            from repro.workloads.serving import CircuitBreaker

            breaker = CircuitBreaker(logger.sim)
        top = LiveTop(logger, interval_ns=50_000, breaker=breaker)
        tops.append(top.attach())

    recorders.record_securekeeper(":memory:", seed, operations=5, attach=attach)
    return tops[0]


def test_live_top_deterministic():
    first = _run_top(seed=2)
    second = _run_top(seed=2)
    assert len(first.samples) > 2
    assert first.samples == second.samples
    # Counts only grow, and rates reflect the deltas.
    ecalls = [s.ecalls for s in first.samples]
    assert ecalls == sorted(ecalls)
    assert any(s.ecall_rate > 0 for s in first.samples)
    assert "samples over" in first.render_summary()


def test_live_top_breaker_and_render():
    top = _run_top(seed=2, with_breaker=True)
    sample = top.samples[-1]
    assert sample.breaker_state == "closed"
    assert "breaker closed" in sample.render()
    assert "ecalls" in sample.render()


def test_live_top_samples_inline_workloads():
    """Loads that run inline are driven under the scheduler when observed.

    Without that, ``sim.compute`` from the schedulerless context only
    advances the clock and the sampler daemon never gets a turn.
    """
    from repro.perf.top import LiveTop
    from repro.workloads import recorders

    tops = []

    def attach(logger):
        tops.append(LiveTop(logger, interval_ns=50_000).attach())

    recorders.record_sqlite(":memory:", seed=2, requests=30, attach=attach)
    assert len(tops[0].samples) > 0
    assert tops[0].samples[-1].ocalls > 0


def test_live_top_counters_match_trace(tmp_path):
    from repro.perf.top import LiveTop
    from repro.workloads import recorders

    path = str(tmp_path / "top.db")
    tops = []

    def attach(logger):
        tops.append(LiveTop(logger, interval_ns=50_000).attach())

    recorders.record_securekeeper(path, seed=2, operations=5, attach=attach)
    with TraceDatabase(path) as db:
        ecalls = db.calls_count(kind="ecall")
        ocalls = db.calls_count(kind="ocall")
    last = tops[0].samples[-1]
    # The sampler's last tick may precede the final calls of the run.
    assert 0 < last.ecalls <= ecalls
    assert last.ocalls <= ocalls


# -- CLI ---------------------------------------------------------------------


def test_cli_streaming_flags_match(traces, capsys):
    path = traces["securekeeper"]
    assert cli_main(["analyze", path]) == 0
    default = capsys.readouterr()
    assert cli_main(["analyze", path, "--chunk-events", "11"]) == 0
    chunked = capsys.readouterr()
    assert chunked.out == default.out
    # Pre-analysis sizing line goes to stderr, report to stdout.
    assert "calls" in default.err and "total), chunk-events=4096" in default.err
    assert "total), chunk-events=11" in chunked.err
    # One analysis path: there is no --jobs to shard it.
    with pytest.raises(SystemExit) as exc:
        cli_main(["analyze", path, "--jobs", "2"])
    assert exc.value.code == 2


def test_cli_top(capsys):
    assert cli_main(["top", "securekeeper", "--interval-us", "100", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "top" in out
    assert "ecalls" in out
    assert "samples over" in out


def main() -> int:
    """Re-pin ``analysis_golden.json`` from the current analyser."""
    with tempfile.TemporaryDirectory() as root:
        golden = pin_digests(root)
    with open(GOLDEN_PATH, "w") as f:
        json.dump({"regenerate": REGENERATE, "digests": golden}, f, indent=2)
        f.write("\n")
    print(f"pinned {len(golden)} traces to {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
