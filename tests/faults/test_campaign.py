"""Campaign determinism and the zero-overhead guarantee."""

from __future__ import annotations

from repro.faults.campaign import default_plan, run_campaign
from repro.faults.plan import FaultPlan
from repro.perf.analysis.report import Analyzer
from repro.perf.database import TraceDatabase


class TestDeterminism:
    def test_same_seed_same_trace(self):
        first = run_campaign(7, workers=2, calls_per_worker=12)
        second = run_campaign(7, workers=2, calls_per_worker=12)
        assert first.digest == second.digest
        assert first.injected == second.injected
        assert first.recovery == second.recovery
        assert first.duration_ns == second.duration_ns

    def test_different_seeds_different_traces(self):
        first = run_campaign(7, workers=2, calls_per_worker=12)
        second = run_campaign(8, workers=2, calls_per_worker=12)
        assert first.digest != second.digest


class TestZeroOverhead:
    def test_disabled_plan_is_byte_identical_to_no_injector(self):
        baseline = run_campaign(
            5,
            workers=2,
            calls_per_worker=10,
            plan=FaultPlan.disabled(),
            use_injector=False,
        )
        attached = run_campaign(
            5,
            workers=2,
            calls_per_worker=10,
            plan=FaultPlan.disabled(),
            use_injector=True,
        )
        assert baseline.digest == attached.digest
        assert attached.total_injected == 0

    def test_fault_free_report_has_no_fault_section(self, tmp_path):
        path = str(tmp_path / "clean.sqlite")
        run_campaign(5, db_path=path, workers=2, calls_per_worker=10,
                     plan=FaultPlan.disabled(), use_injector=True)
        db = TraceDatabase(path)
        report = Analyzer(db).run()
        assert "faults & recovery" not in report.render_text()
        assert report.trace_state is None
        db.close()


class TestFaultCampaign:
    def test_workload_survives_default_plan(self, tmp_path):
        path = str(tmp_path / "campaign.sqlite")
        result = run_campaign(1337, db_path=path)
        assert result.completed_calls == 3 * 40
        assert result.failed_calls == 0
        assert result.total_injected > 0
        assert result.recreates >= 1
        assert result.mean_recovery_latency_ns > 0

        db = TraceDatabase(path)
        report = Analyzer(db).run()
        text = report.render_text()
        assert "faults & recovery" in text
        kinds = dict(report.fault_counts)
        assert any(k.startswith("inject:") for k in kinds)
        assert any(k.startswith("recover:") for k in kinds)
        assert any("enclave" in n and "lost" in n for n in report.notes)
        db.close()

    def test_default_plan_arms_every_family(self):
        plan = default_plan()
        assert plan.enabled
        assert plan.enclave_loss.active
        assert plan.epc.active
        assert plan.ocall.active
        assert plan.tcs.active
