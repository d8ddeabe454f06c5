"""End-to-end integration: the tool finds the paper's findings.

These tests close the loop: run a workload under the logger, feed the
trace to the analyser, and check that the *recommendations the paper acted
on* come out — merging lseek+write for SQLite (§5.2.2), batching/moving
``bn_sub_part_words`` for Glamdring (§5.2.3), and a clean bill of health
for SecureKeeper's narrow interface (§5.2.4).
"""

import pytest

from repro.perf.analysis.detectors import Problem, Recommendation
from repro.perf.analysis.report import Analyzer
from repro.perf.logger import AexMode, EventLogger
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess


def trace_sqlite(requests=120):
    from repro.workloads.minisql.enclavised import EnclavedSqlApp, SqlBuild
    from repro.workloads.minisql.workload import (
        CREATE_SQL,
        SQLITE_SYSCALL_COSTS,
        _insert_sql,
        commit_stream,
    )

    process = SimProcess(seed=0, syscall_costs=SQLITE_SYSCALL_COSTS)
    device = SgxDevice(process.sim)
    app = EnclavedSqlApp(process, device, SqlBuild.ENCLAVE)
    logger = EventLogger(process, app.urts, aex_mode=AexMode.OFF, trace_paging=False)
    logger.install()
    app.open("bench.db")
    app.execute(CREATE_SQL)
    for index, (sha, author, message) in enumerate(commit_stream(requests, 0)):
        app.execute(_insert_sql(sha, author, message, index))
    app.close()
    logger.uninstall()
    return logger.finalize(), app


class TestSqliteFindings:
    def test_lseek_write_merge_recommended(self):
        db, app = trace_sqlite()
        report = Analyzer(db, definition=app.handle.definition).run()
        merge = [
            f
            for f in report.findings
            if Recommendation.MERGE in f.recommendations
            and f.call == "ocall_write"
            and f.evidence.get("indirect_parent") == "ocall_lseek"
        ]
        assert merge, "the paper's lseek+write merge opportunity must be found"

    def test_lseek_is_short_and_write_longer(self):
        db, app = trace_sqlite()
        lseek = db.calls(kind="ocall", name="ocall_lseek")
        write = db.calls(kind="ocall", name="ocall_write")
        mean = lambda events: sum(c.duration_ns for c in events) / len(events)  # noqa: E731
        assert 2_500 < mean(lseek) < 6_500  # paper: ~4 us
        assert mean(write) > mean(lseek)

    def test_io_ocall_counts_per_insert(self):
        db, app = trace_sqlite(requests=100)
        lseek = len(db.calls(kind="ocall", name="ocall_lseek"))
        write = len(db.calls(kind="ocall", name="ocall_write"))
        fsync = len(db.calls(kind="ocall", name="ocall_fsync"))
        # SQLite's journalled insert: ~2 lseek+write pairs and ~1-2 fsyncs.
        # (Reads also seek, so a handful of extra lseeks are expected.)
        assert write <= lseek <= write + 8
        assert 1.5 <= lseek / 100 <= 3.0
        assert 0.8 <= fsync / 100 <= 2.5


class TestGlamdringFindings:
    def make_trace(self):
        from repro.workloads.glamdring.signer import GlamdringSigner, SignerBuild, make_certificate

        process = SimProcess(seed=0)
        device = SgxDevice(process.sim)
        signer = GlamdringSigner(process, device, SignerBuild.PARTITIONED, exponent_bits=96)
        logger = EventLogger(process, signer.urts, aex_mode=AexMode.OFF, trace_paging=False)
        logger.install()
        signer.sign(make_certificate(0))
        signer.sign(make_certificate(1))
        logger.uninstall()
        signer.close()
        return logger.finalize(), signer

    def test_sub_part_words_flagged_for_batching(self):
        db, signer = self.make_trace()
        report = Analyzer(db).run()
        batch = [
            f
            for f in report.findings
            if f.call == "ecall_bn_sub_part_words"
            and (
                Recommendation.BATCH in f.recommendations
                or Recommendation.MOVE_OUT in f.recommendations
            )
        ]
        assert batch, "the paper's SISC finding on bn_sub_part_words must fire"

    def test_allowlist_narrowing_fires_on_glamdring_interface(self):
        db, signer = self.make_trace()
        report = Analyzer(db, definition=signer.partition.definition).run()
        narrowing = [
            f for f in report.findings
            if Recommendation.NARROW_ALLOWLIST in f.recommendations
        ]
        # Glamdring allows every ecall from every ocall; the workload uses
        # almost none of them.
        assert narrowing


class TestSecureKeeperFindings:
    def test_no_performance_findings_on_narrow_interface(self):
        from repro.workloads.securekeeper.loadgen import run_securekeeper_load
        from repro.workloads.securekeeper.proxy import SecureKeeperProxy

        process = SimProcess(seed=0)
        device = SgxDevice(process.sim)
        proxy = SecureKeeperProxy(process, device, tcs_count=8)
        logger = EventLogger(process, proxy.urts, aex_mode=AexMode.OFF, trace_paging=False)
        logger.install()
        run_securekeeper_load(
            clients=4, operations_per_client=20,
            process=process, device=device, proxy=proxy,
        )
        logger.uninstall()
        db = logger.finalize()
        report = Analyzer(db).run()
        perf_findings = [
            f
            for f in report.findings
            if f.problem in (Problem.SISC, Problem.SDSC, Problem.SNC)
            and f.kind == "ecall"
        ]
        # Paper §5.2.4: "We were not able to spot any performance
        # optimisation possibilities" — no short-call findings on the two
        # data-path ecalls.
        assert perf_findings == []


class TestRecorders:
    @pytest.mark.parametrize("name", ["sqlite", "glamdring", "securekeeper", "talos"])
    def test_recorder_produces_trace(self, tmp_path, name):
        from repro.workloads import recorders

        path = str(tmp_path / f"{name}.db")
        small = {"sqlite": 30, "glamdring": 1, "securekeeper": 4, "talos": 5}
        recorders.REGISTRY[name](path, 0, small[name])
        from repro.perf.database import TraceDatabase

        with TraceDatabase(path) as db:
            assert len(db.calls()) > 0
            assert db.get_meta("patch_level") == "baseline"

    def test_cli_record_then_analyze(self, tmp_path, capsys):
        from repro.perf.cli import main

        path = str(tmp_path / "trace.db")
        assert main(["record", "glamdring", "-o", path]) == 0
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "sgx-perf analysis report" in out
        assert "bn_sub_part_words" in out
