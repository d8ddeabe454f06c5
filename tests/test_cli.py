"""The ``sgxperf`` record, campaign, netcampaign and stressor subcommands,
trace refusal on re-runs, analysis that leaves its input trace untouched,
traces it refuses to read, and bad input.

The campaign, netcampaign and stressor digests were printed at 7238102 by
the standalone mains these subcommands replace (``python -m
repro.faults.campaign``, ``repro.faults.netcampaign``,
``repro.workloads.stressors`` and the campaign main's ``--seeds`` sweep
mode); the record digests at e5fbb6d, before the ecall round trip was
compiled per declaration.
"""

import gc
import hashlib
import sqlite3
from contextlib import closing

import pytest

from repro.digest import trace_digest
from repro.perf.cli import main
from repro.perf.database import TraceDatabase

from tests.perf.test_call_blocks import record_crash_snapshot
from tests.perf.test_columns import OLD_CALLS_DDL, PRE_BLOCKS_DDL

CAMPAIGN_DIGESTS = {
    7: "437c6b98534379f4fe2d2e000db649cd2e38f7d172ed89ef499dfbddb34de310",
    21: "4b1d5c0dfd87e2ae5eea27385a06585c4afa50a5a98776339944f55d472577ee",
    1337: "0e02ebe764d8070192da4cfb1426ff98d054c44aa2510660e6f5f3aa7beae326",
}
STRESSOR_TRACE_DIGEST = "74434d09c46d4edffadef1e563c5bf3617118c6b349d6efc31830e8801384a72"

# ``sgxperf record WORKLOAD --seed 3``: glamdring drives the short-ecall
# path, talos and securekeeper the ocall and sync paths, sqlite nested
# ecalls.  Every virtual-time charge of the SDK bridge and the sgx model
# lands in these digests.
RECORD_DIGESTS = {
    "glamdring": "2d37140185adb78636944aadb5d127d7ab9996ece2dd359a8f92d833f6ab4a6d",
    "talos": "cb4ff3babfcc5c27642fc7befa21743f4f93c03a3b44c54c65aa6a0f69163c65",
    "sqlite": "23727f442415838fa616fce7b858c2e0846f5349ad09e6d2c3c184b4df9eafff",
    "securekeeper": "d3bafe5e332effa9329e6d22f9ecd76e23ba51812133ec51edb46a880132d6cb",
}


def printed_lines(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("workload", sorted(RECORD_DIGESTS))
def test_record_digests_unchanged(capsys, tmp_path, workload):
    path = str(tmp_path / "trace.db")
    assert main(["record", workload, "--seed", "3", "-o", path]) == 0
    with TraceDatabase(path, readonly=True) as db:
        assert trace_digest(db) == RECORD_DIGESTS[workload]


@pytest.mark.parametrize("seed", sorted(CAMPAIGN_DIGESTS))
def test_campaign_digest_unchanged(capsys, seed):
    argv = ["campaign", "--seed", str(seed), "--digest-only"]
    assert printed_lines(capsys, argv) == [CAMPAIGN_DIGESTS[seed]]


def test_netcampaign_digests_unchanged(capsys):
    argv = ["netcampaign", "--workload", "both", "--seed", "7", "--digest-only"]
    assert printed_lines(capsys, argv) == [
        "talos:82a19cd118177a571602340f018fb4130959d85d28065e3dd33f2cf4acfcf229",
        "securekeeper:b5f31b7e7341fa43c7616b532824c71a6f7646e226eb96f04138fecec9518324",
    ]


def test_stressor_digests_unchanged(capsys, tmp_path):
    argv = ["stressor", "--stressor", "epc-thrash", "--seed", "2", "--digest-only"]
    assert printed_lines(capsys, argv) == [
        "c79a760d877bb000dc9b67fccdf8c1e1d63864af1f9ce1af5c1ac89e59ff626c"
    ]
    path = str(tmp_path / "pressure.db")
    assert printed_lines(capsys, [*argv, "-o", path]) == [STRESSOR_TRACE_DIGEST]
    with TraceDatabase(path, readonly=True) as db:
        assert trace_digest(db) == STRESSOR_TRACE_DIGEST


def test_sweep_reproduces_the_campaign_seeds_mode(capsys):
    argv = [
        "sweep", "campaign", "--seeds", "7,21,1337", "--set", "workers=3",
        "--set", "calls=40", "--set", "faults=true", "--jobs", "0", "--digest-only",
    ]
    assert printed_lines(capsys, argv) == [
        "afb82e301916c6861f9df818c91e97f24467e67aac4b8b997c33a4329e81228f"
    ]


@pytest.mark.parametrize(
    "output, talos, securekeeper",
    [
        ("run.v2/chaos", "run.v2/chaos.talos", "run.v2/chaos.securekeeper"),
        ("chaos.db", "chaos.talos.db", "chaos.securekeeper.db"),
    ],
)
def test_netcampaign_writes_one_trace_per_workload(
    tmp_path, capsys, output, talos, securekeeper
):
    (tmp_path / "run.v2").mkdir()
    argv = [
        "netcampaign", "--seed", "7", "--requests", "20", "--clients", "2",
        "--ops", "5", "--digest-only", "-o", str(tmp_path / output),
    ]
    assert main(argv) == 0
    assert (tmp_path / talos).exists() and (tmp_path / securekeeper).exists()
    assert not (tmp_path / output).exists()
    # Both paths are checked before the first workload runs.
    (tmp_path / talos).unlink()
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"sgxperf: trace already exists: {tmp_path / securekeeper}\n"
    )
    assert not (tmp_path / talos).exists()


def test_sweep_rerun_into_the_same_trace_dir_runs_no_workload(
    tmp_path, capsys, monkeypatch
):
    from repro.faults import campaign

    trace_dir = tmp_path / "traces"
    argv = [
        "sweep", "campaign", "--seeds", "0-1", "--set", "workers=2",
        "--set", "calls=4", "--jobs", "0", "--trace-dir", str(trace_dir),
    ]
    assert main(argv) == 0
    traces = {path: path.read_bytes() for path in trace_dir.iterdir()}
    assert len(traces) == 2

    def must_not_run(*args, **kwargs):
        raise AssertionError("the workload started")

    monkeypatch.setattr(campaign, "FaultInjector", must_not_run)
    capsys.readouterr()
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "0 ok, 2 failed" in out
    for path in traces:
        assert f"failed (TraceError: trace already exists: {path})" in out
    assert {path: path.read_bytes() for path in trace_dir.iterdir()} == traces


BAD_INPUT = [
    ["sweep", "--spec", "missing.json"],
    ["sweep", "--spec", "malformed.json"],
    ["sweep", "--spec", "unknown-kind.json"],
    ["sweep", "selftest", "--seeds", "5-3"],
    ["sweep", "selftest", "--seeds", "x"],
    ["sweep", "selftest", "--jobs", "-1"],
    ["sweep", "selftest", "--set", "x"],
    ["cluster", "--spec", "missing.json"],
    ["cluster", "--spec", "malformed.json"],
    ["analyze", "empty.db"],
    ["analyze", "t.db", "--edl", "missing.edl"],
    ["analyze", "t.db", "--edl", "malformed.edl"],
    ["optimize", "t.db", "--edl", "missing.edl"],
    ["optimize", "t.db", "--edl", "malformed.edl"],
    ["SGXPERF_JOBS=abc", "sweep", "selftest"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "malformed.json").write_text("{not json")
    (tmp_path / "unknown-kind.json").write_text('{"kind": "nope", "seeds": "0"}')
    (tmp_path / "malformed.edl").write_text("enclave { trusted {")
    TraceDatabase("t.db").close()
    (tmp_path / "empty.db").write_bytes(b"")
    if "=" in argv[0]:
        name, _, value = argv[0].partition("=")
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"sgxperf {argv[0]}: ")
    assert captured.err.count("\n") == 1


def _trace_hashes(path) -> tuple[str, str]:
    """sha256 of the trace file and of its WAL (an absent WAL hashes as empty)."""
    wal = path.with_name(path.name + "-wal")
    return tuple(
        hashlib.sha256(p.read_bytes() if p.exists() else b"").hexdigest() for p in (path, wal)
    )


def test_analysis_commands_leave_the_trace_unchanged(tmp_path, capsys):
    path = tmp_path / "trace.db"
    assert main(["record", "sqlite", "-o", str(path)]) == 0
    before = _trace_hashes(path)
    for argv in (
        ["analyze", str(path)],
        ["stats", str(path), "ocall", "ocall_lseek"],
        ["dot", str(path)],
        ["optimize", str(path)],
    ):
        assert main(argv) == 0, argv
        assert _trace_hashes(path) == before, argv


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_recorded_trace_is_one_finished_file(tmp_path, capsys):
    """The recording seals and closes its trace: a garbage-collected
    connection has nothing left to checkpoint into it, and analysis
    leaves no side files next to it."""
    path = tmp_path / "trace.db"
    assert main(["record", "sqlite", "-o", str(path)]) == 0
    before = _sha256(path)
    gc.collect()
    assert _sha256(path) == before
    assert [p.name for p in tmp_path.iterdir()] == ["trace.db"]
    for argv in (
        ["analyze", str(path)],
        ["stats", str(path), "ocall", "ocall_lseek"],
        ["dot", str(path)],
        ["optimize", str(path)],
    ):
        assert main(argv) == 0, argv
        assert [p.name for p in tmp_path.iterdir()] == ["trace.db"], argv
    assert _sha256(path) == before


def test_trace_before_interned_sites_exits_2_untouched(tmp_path, capsys):
    path = tmp_path / "old.db"
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript(OLD_CALLS_DDL)
    before = path.read_bytes()
    for argv in (
        ["analyze", str(path)],
        ["stats", str(path), "ecall", "ecall_a"],
        ["dot", str(path)],
        ["optimize", str(path)],
        ["salvage", str(path)],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == (
            f"sgxperf {argv[0]}: {path}: trace predates interned call sites; re-record it\n"
        )
    assert path.read_bytes() == before


def test_trace_before_column_blocks_exits_2_untouched(tmp_path, capsys):
    path = tmp_path / "pre-blocks.db"
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript(PRE_BLOCKS_DDL)
    before = path.read_bytes()
    for argv in (
        ["analyze", str(path)],
        ["stats", str(path), "ecall", "ecall_a"],
        ["dot", str(path)],
        ["optimize", str(path)],
        ["salvage", str(path)],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == (
            f"sgxperf {argv[0]}: {path}: trace predates column blocks; re-record it\n"
        )
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pre-blocks.db"]


def test_crashed_trace_exits_2_untouched_until_salvaged(process, urts, tmp_path, capsys):
    path = tmp_path / "crash.db"
    record_crash_snapshot(process, urts, path)
    before = path.read_bytes()
    for argv in (
        ["analyze", str(path)],
        ["stats", str(path), "ocall", "ocall_step"],
        ["dot", str(path)],
        ["optimize", str(path)],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == (
            f"sgxperf {argv[0]}: {path}: trace never finalized; run sgxperf salvage TRACE\n"
        )
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["crash.db"]
    assert main(["salvage", str(path)]) == 0
    assert main(["analyze", str(path)]) == 0
