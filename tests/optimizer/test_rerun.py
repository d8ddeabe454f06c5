"""The analyze→optimize→rerun loop end to end (§5.2.2 automated)."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.optimizer.rerun import run_rerun

REQUESTS = 100


@pytest.fixture(scope="module")
def sqlite_report(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("optimize")
    return run_rerun("sqlite", seed=0, requests=REQUESTS, workdir=str(workdir))


class TestSqliteRerun:
    def test_applies_fused_and_switchless_transforms(self, sqlite_report):
        # The acceptance bar: ≥1 fused + ≥1 switchless, no human edits.
        assert len(sqlite_report.plan.fused) >= 1
        assert len(sqlite_report.plan.switchless) >= 1
        parents = {f.parent for f in sqlite_report.plan.fused}
        assert "ocall_lseek" in parents  # the paper's lseek+write merge

    def test_speedup_meets_the_paper_bar(self, sqlite_report):
        assert sqlite_report.speedup >= 1.2
        assert sqlite_report.optimized.throughput_rps > sqlite_report.baseline.throughput_rps

    def test_transitions_reduced(self, sqlite_report):
        assert sqlite_report.optimized.transitions < sqlite_report.baseline.transitions
        assert sqlite_report.transition_reduction > 0.2

    def test_latency_percentiles_improve(self, sqlite_report):
        assert sqlite_report.optimized.p50_ns < sqlite_report.baseline.p50_ns
        assert sqlite_report.optimized.p99_ns < sqlite_report.baseline.p99_ns

    def test_transforms_visible_in_optimized_trace(self, sqlite_report):
        applied = sqlite_report.applied
        for pair in sqlite_report.plan.fused:
            assert applied[f"fused:{pair.name}"] > 0
        assert applied["switchless:worker_ecalls"] >= 1
        for call in sqlite_report.plan.switchless:
            # Steady state: no plan'd ecall fell back to the regular path.
            assert applied[f"switchless:{call.call}_residual_ecalls"] == 0

    def test_fixed_findings_no_longer_reported(self, sqlite_report):
        assert sqlite_report.fixed_findings
        assert not sqlite_report.remaining_findings
        fixed = " ".join(sqlite_report.fixed_findings)
        assert "SISC" in fixed and "SDSC" in fixed

    def test_rerun_is_deterministic(self, sqlite_report, tmp_path):
        again = run_rerun("sqlite", seed=0, requests=REQUESTS, workdir=str(tmp_path))
        assert again.baseline.digest == sqlite_report.baseline.digest
        assert again.optimized.digest == sqlite_report.optimized.digest

    def test_report_json_round_trips(self, sqlite_report):
        document = json.loads(sqlite_report.to_json())
        assert document["schema"] == "sgxperf-rerun/1"
        assert document["speedup"] >= 1.2
        assert document["plan"]["schema"] == "sgxperf-plan/1"

    def test_render_text_has_the_before_after_table(self, sqlite_report):
        text = sqlite_report.render_text()
        assert "baseline" in text and "optimized" in text
        assert "speedup" in text


class TestSecurekeeperRerun:
    def test_only_print_batching_applies(self, tmp_path):
        report = run_rerun("securekeeper", seed=0, requests=20, workdir=str(tmp_path))
        # 14-18 us ecalls are not switchless material; no fusable pairs.
        assert not report.plan.switchless
        assert not report.plan.fused
        assert [b.call for b in report.plan.batched] == ["ocall_print"]
        assert report.optimized.ocalls < report.baseline.ocalls


def test_rerun_leaves_its_recorded_traces_unchanged(tmp_path, monkeypatch):
    """Analysing the baseline and the optimized run only reads their
    traces: a writable open would re-seal a trace and change its bytes."""
    import repro.workloads.recorders as recorders

    real_record_sqlite = recorders.record_sqlite
    recorded = {}

    def record_and_hash(path, *args, **kwargs):
        real_record_sqlite(path, *args, **kwargs)
        recorded[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()

    monkeypatch.setattr(recorders, "record_sqlite", record_and_hash)
    report = run_rerun("sqlite", seed=0, requests=20, workdir=str(tmp_path))
    assert sorted(recorded) == sorted([report.baseline_trace, report.optimized_trace])
    for path, digest in recorded.items():
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest, path


class TestSweepIntegration:
    def test_optimizer_task_digest_stable_across_jobs(self):
        from repro.sweep.engine import run_sweep

        spec = {
            "kind": "optimizer",
            "seeds": "0",
            "params": {"workload": "sqlite", "requests": 60},
            "grid": {},
        }
        inline = run_sweep(spec=spec, jobs=0)
        pooled = run_sweep(spec=spec, jobs=2)
        assert inline.failed == 0 and pooled.failed == 0
        assert inline.digest == pooled.digest
        (result,) = inline.results
        assert result.metrics["speedup_x1000"] >= 1200
        assert result.metrics["fused"] >= 1 and result.metrics["switchless"] >= 1
        assert result.metrics["remaining_findings"] == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            run_rerun("talos")
