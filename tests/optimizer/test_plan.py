"""Plan model serialisation and the findings → transforms policy."""

import pytest

from repro.optimizer.plan import (
    CONST,
    ECHO,
    PLAN_SCHEMA,
    BatchedOcall,
    FusedPair,
    OptimizationPlan,
    SwitchlessCall,
)
from repro.optimizer.transforms import PlanKnobs, build_plan
from repro.sdk.edl import parse_edl


def _finding(problem, kind, call, **evidence):
    """A minimal export-schema findings row."""
    return {
        "problem": problem,
        "kind": kind,
        "call": call,
        "priority": 1,
        "recommendations": [],
        "message": "",
        "evidence": evidence,
    }


TOY_EDL = """
enclave {
    trusted { public int ecall_hot(int v); };
    untrusted {
        long ocall_lseek(int fd, long offset);
        int ocall_write(int fd, [in, size=n] uint8_t* buf, size_t n);
        void ocall_note([in, string] char* msg);
        int ocall_read(int fd, size_t n);
    };
};
"""


class TestPlanSerialisation:
    def _full_plan(self):
        return OptimizationPlan(
            source="trace.db",
            fused=[
                FusedPair(
                    parent="ocall_lseek",
                    child="ocall_write",
                    name="ocall_lseek__ocall_write",
                    result_model=ECHO,
                    result_arg=1,
                    pairs=800,
                    score=0.85,
                )
            ],
            switchless=[SwitchlessCall(call="ecall_hot", count=500, short_fraction=0.98)],
            batched=[BatchedOcall(call="ocall_note", name="ocall_note__batch", max_batch=16, count=40)],
        )

    def test_json_round_trip(self):
        plan = self._full_plan()
        restored = OptimizationPlan.from_json(plan.to_json())
        assert restored.to_json() == plan.to_json()
        assert restored.fused[0].result_model == ECHO
        assert restored.switchless[0].call == "ecall_hot"
        assert restored.batched[0].max_batch == 16

    def test_schema_marker(self):
        document = self._full_plan().to_dict()
        assert document["schema"] == PLAN_SCHEMA

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            OptimizationPlan.from_dict({"schema": "bogus/9", "transforms": {}})

    def test_transform_count(self):
        assert self._full_plan().transform_count() == 3
        assert OptimizationPlan().empty


class TestFusePolicy:
    def test_registry_echo_parent_fuses(self):
        plan = build_plan(
            [
                _finding(
                    "SDSC",
                    "ocall",
                    "ocall_write",
                    indirect_parent="ocall_lseek",
                    score=0.85,
                    pairs=800,
                )
            ]
        )
        assert [f.name for f in plan.fused] == ["ocall_lseek__ocall_write"]
        assert plan.fused[0].result_model == ECHO
        assert plan.fused[0].result_arg == 1

    def test_void_parent_fuses_with_definition(self):
        definition = parse_edl(TOY_EDL)
        plan = build_plan(
            [
                _finding(
                    "SDSC",
                    "ocall",
                    "ocall_read",
                    indirect_parent="ocall_note",
                    score=0.9,
                    pairs=100,
                )
            ],
            definition=definition,
        )
        assert plan.fused[0].result_model == CONST

    def test_unknown_parent_result_model_skipped(self):
        plan = build_plan(
            [
                _finding(
                    "SDSC",
                    "ocall",
                    "ocall_write",
                    indirect_parent="ocall_read",  # returns data: unpredictable
                    score=0.9,
                    pairs=100,
                )
            ],
            definition=parse_edl(TOY_EDL),
        )
        assert not plan.fused
        assert any("result model" in s.reason for s in plan.skipped)

    def test_below_thresholds_skipped(self):
        plan = build_plan(
            [
                _finding(
                    "SDSC",
                    "ocall",
                    "ocall_write",
                    indirect_parent="ocall_lseek",
                    score=0.2,
                    pairs=800,
                )
            ]
        )
        assert not plan.fused and any(s.transform == "fuse" for s in plan.skipped)

    def test_sync_ocall_never_fused(self):
        plan = build_plan(
            [
                _finding(
                    "SDSC",
                    "ocall",
                    "ocall_write",
                    indirect_parent="sgx_thread_wait_untrusted_event_ocall",
                    score=0.9,
                    pairs=500,
                )
            ]
        )
        assert not plan.fused
        assert any("sync" in s.reason for s in plan.skipped)

    def test_each_call_in_at_most_one_pair(self):
        rows = [
            _finding(
                "SDSC", "ocall", "ocall_write",
                indirect_parent="ocall_lseek", score=0.9, pairs=500,
            ),
            _finding(
                "SDSC", "ocall", "ocall_read",
                indirect_parent="ocall_lseek", score=0.8, pairs=500,
            ),
        ]
        plan = build_plan(rows)
        assert len(plan.fused) == 1
        assert plan.fused[0].child == "ocall_write"  # best score wins


class TestSwitchlessPolicy:
    def test_hot_short_ecall_selected(self):
        plan = build_plan(
            [_finding("SISC", "ecall", "ecall_hot", count=500, c1=0.8, c5=0.99, c10=1.0)]
        )
        assert [s.call for s in plan.switchless] == ["ecall_hot"]

    def test_cold_ecall_skipped(self):
        plan = build_plan(
            [_finding("SISC", "ecall", "ecall_hot", count=8, c1=0.8, c5=0.99, c10=1.0)]
        )
        assert not plan.switchless
        assert any(s.transform == "switchless" for s in plan.skipped)

    def test_long_ecall_skipped(self):
        plan = build_plan(
            [_finding("SISC", "ecall", "ecall_hot", count=500, c1=0.0, c5=0.1, c10=0.4)]
        )
        assert not plan.switchless

    def test_sisc_on_ocall_becomes_move_in_skip(self):
        plan = build_plan(
            [_finding("SISC", "ocall", "ocall_lseek", count=500, c1=0.8, c5=0.99, c10=1.0)]
        )
        assert not plan.switchless
        assert any(s.transform == "move-in" for s in plan.skipped)

    def test_knobs_override(self):
        knobs = PlanKnobs(min_switchless_calls=4)
        plan = build_plan(
            [_finding("SISC", "ecall", "ecall_hot", count=8, c1=0.8, c5=0.99, c10=1.0)],
            knobs=knobs,
        )
        assert plan.switchless


class TestBatchPolicy:
    def test_defer_safe_ocall_batched(self):
        plan = build_plan([_finding("SNC", "ocall", "ocall_print", count=40)])
        assert [b.name for b in plan.batched] == ["ocall_print__batch"]

    def test_fsync_never_batched(self):
        plan = build_plan([_finding("SNC", "ocall", "ocall_fsync", count=40)])
        assert not plan.batched
        assert any("defer-safe" in s.reason for s in plan.skipped)

    def test_fused_member_not_batched(self):
        rows = [
            _finding(
                "SDSC", "ocall", "ocall_write",
                indirect_parent="ocall_lseek", score=0.9, pairs=500,
            ),
            _finding("SNC", "ocall", "ocall_lseek", count=40),
        ]
        plan = build_plan(rows)
        assert not plan.batched
        assert any("fused pair" in s.reason for s in plan.skipped)

    def test_ssc_out_of_scope(self):
        plan = build_plan(
            [_finding("SSC", "ocall", "sgx_thread_wait_untrusted_event_ocall", wakes=3)]
        )
        assert plan.empty
        assert plan.skipped[0].transform == "hybrid-sync"


class TestFindingObjectInput:
    def test_accepts_live_finding_objects(self):
        from repro.perf.analysis.detectors import Finding, Problem, Recommendation

        finding = Finding(
            problem=Problem.SISC,
            kind="ecall",
            call="ecall_hot",
            recommendations=(Recommendation.MOVE_OUT,),
            message="hot",
            evidence={"count": 500, "c1": 0.9, "c5": 1.0, "c10": 1.0},
        )
        plan = build_plan([finding])
        assert plan.switchless[0].call == "ecall_hot"

    def test_accepts_export_document(self):
        from repro.perf.analysis.export import FINDINGS_SCHEMA

        document = {
            "schema": FINDINGS_SCHEMA,
            "findings": [
                _finding("SNC", "ocall", "ocall_print", count=40),
            ],
        }
        plan = build_plan(document)
        assert plan.batched
