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
import sys
import tempfile
from typing import Optional

import pytest

from repro.perf.analysis.export import report_to_json
from repro.perf.analysis.report import Analyzer
from repro.perf.cli import main as cli_main
from repro.perf.database import TraceDatabase, TraceError
from repro.sdk.edl import parse_edl

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
