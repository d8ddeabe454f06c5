"""The optimizer runtimes on a toy enclave: fusion, batching, switchless."""

import pytest

from repro.optimizer.plan import CONST, BatchedOcall, FusedPair, OptimizationPlan, SwitchlessCall
from repro.optimizer.rewrite import FLUSH_ECALL, InterfaceRewriter
from repro.optimizer.switchless import WORKER_ECALL
from repro.sdk.edger8r import build_enclave
from repro.sgx.enclave import EnclaveConfig

from tests.conftest import SIMPLE_EDL, make_simple_impls


def _switchless_plan():
    return OptimizationPlan(
        switchless=[SwitchlessCall(call="ecall_add", count=500, short_fraction=1.0)]
    )


def _fused_plan():
    # ocall_sleepy is void with no [out] params: CONST-predictable parent.
    return OptimizationPlan(
        fused=[
            FusedPair(
                parent="ocall_sleepy",
                child="ocall_log",
                name="ocall_sleepy__ocall_log",
                result_model=CONST,
                result_arg=None,
                pairs=100,
                score=0.9,
            )
        ]
    )


def _build(urts, plan, trusted_extra=None, tcs_count=4):
    trusted, untrusted = make_simple_impls()
    if trusted_extra:
        trusted.update(trusted_extra)
    return build_enclave(
        urts,
        SIMPLE_EDL,
        trusted,
        untrusted,
        interface_plan=plan,
        config=EnclaveConfig(heap_bytes=128 * 1024, tcs_count=tcs_count),
    )


class TestSwitchless:
    def test_calls_served_without_sgx_ecall(self, urts, process):
        handle = _build(urts, _switchless_plan())
        results = []

        def load():
            for i in range(50):
                results.append(handle.ecall("ecall_add", i, 1))
            handle.destroy()

        process.sim.spawn(load, name="load")
        process.sim.run()
        assert results == [i + 1 for i in range(50)]
        runtime = handle.interface.switchless
        assert runtime.stats["served"] == 50
        assert runtime.finished

    def test_inline_calls_fall_back_to_regular_ecall(self, urts):
        handle = _build(urts, _switchless_plan())
        # No scheduler thread: submit must decline and sgx_ecall serve it.
        assert handle.ecall("ecall_add", 2, 3) == 5
        assert handle.interface.switchless.stats["fallback"] == 1
        assert handle.interface.switchless.stats["served"] == 0

    def test_non_plan_ecalls_unaffected(self, urts, process):
        handle = _build(urts, _switchless_plan())
        results = []

        def load():
            results.append(handle.ecall("ecall_with_ocall"))
            results.append(handle.ecall("ecall_add", 1, 1))
            handle.destroy()

        process.sim.spawn(load, name="load")
        process.sim.run()
        assert results == [0, 2]

    def test_trusted_exception_propagates_to_caller(self, urts, process):
        def boom(ctx, ns):
            raise ValueError("trusted boom")

        handle = _build(
            urts,
            OptimizationPlan(
                switchless=[SwitchlessCall(call="ecall_compute", count=500, short_fraction=1.0)]
            ),
            trusted_extra={"ecall_compute": boom},
        )
        outcome = {}

        def load():
            with pytest.raises(ValueError, match="trusted boom"):
                handle.ecall("ecall_compute", 1)
            outcome["done"] = True
            handle.destroy()

        process.sim.spawn(load, name="load")
        process.sim.run()
        assert outcome["done"]

    def test_worker_sleeps_and_wakes(self, urts, process):
        handle = _build(urts, _switchless_plan())
        results = []

        def load():
            results.append(handle.ecall("ecall_add", 1, 1))
            # Idle long past the spin budget so the worker commits to sleep.
            process.sim.compute(200_000)
            results.append(handle.ecall("ecall_add", 2, 2))
            handle.destroy()

        process.sim.spawn(load, name="load")
        process.sim.run()
        assert results == [2, 4]
        assert handle.interface.switchless.stats["sleeps"] >= 1

    def test_worker_ecall_declared(self, urts):
        handle = _build(urts, _switchless_plan())
        assert handle.definition.has_ecall(WORKER_ECALL)


class TestFusedPairs:
    def test_pair_fuses_into_one_ocall(self, urts, process):
        def ecall_with_ocall(ctx):
            ctx.ocall("ocall_sleepy", 10)
            return ctx.ocall("ocall_log", "hi")

        handle = _build(
            urts, _fused_plan(), trusted_extra={"ecall_with_ocall": ecall_with_ocall}
        )
        assert handle.ecall("ecall_with_ocall") == 2  # child result, len("hi")
        assert handle.interface.stats["fused"] == 1
        assert handle.interface.stats["deferred_flushed"] == 0

    def test_unmatched_parent_flushed_at_ecall_return(self, urts):
        def ecall_with_ocall(ctx):
            ctx.ocall("ocall_sleepy", 10)  # parent parked, never followed
            return 7

        handle = _build(
            urts, _fused_plan(), trusted_extra={"ecall_with_ocall": ecall_with_ocall}
        )
        assert handle.ecall("ecall_with_ocall") == 7
        assert handle.interface.stats["fused"] == 0
        assert handle.interface.stats["deferred_flushed"] == 1

    def test_other_ocall_flushes_parent_first(self, urts):
        order = []
        trusted, untrusted = make_simple_impls()

        def ecall_with_ocall(ctx):
            ctx.ocall("ocall_sleepy", 10)
            ctx.ocall("ocall_sleepy", 20)  # same parent again: first flushes
            return 0

        def ocall_sleepy(uctx, ns):
            order.append(ns)

        trusted["ecall_with_ocall"] = ecall_with_ocall
        untrusted["ocall_sleepy"] = ocall_sleepy
        handle = build_enclave(
            urts,
            SIMPLE_EDL,
            trusted,
            untrusted,
            interface_plan=_fused_plan(),
            config=EnclaveConfig(heap_bytes=128 * 1024, tcs_count=4),
        )
        handle.ecall("ecall_with_ocall")
        handle.destroy()
        # First parent flushed when the second arrived; second flushed at
        # ecall return — untrusted side still sees them in order.
        assert order == [10, 20]


class TestBatching:
    def _batch_plan(self, max_batch=4):
        return OptimizationPlan(
            batched=[
                BatchedOcall(
                    call="ocall_sleepy",
                    name="ocall_sleepy__batch",
                    max_batch=max_batch,
                    count=40,
                )
            ]
        )

    def _build_batching(self, urts, calls, max_batch=4):
        seen = []
        trusted, untrusted = make_simple_impls()

        def ecall_with_ocall(ctx):
            for i in range(calls):
                ctx.ocall("ocall_sleepy", i)
            return 0

        def ocall_sleepy(uctx, ns):
            seen.append(ns)

        trusted["ecall_with_ocall"] = ecall_with_ocall
        untrusted["ocall_sleepy"] = ocall_sleepy
        handle = build_enclave(
            urts,
            SIMPLE_EDL,
            trusted,
            untrusted,
            interface_plan=self._batch_plan(max_batch),
            config=EnclaveConfig(heap_bytes=128 * 1024, tcs_count=4),
        )
        return handle, seen

    def test_full_batches_flush_in_order(self, urts):
        handle, seen = self._build_batching(urts, calls=8, max_batch=4)
        handle.ecall("ecall_with_ocall")
        assert seen == list(range(8))
        assert handle.interface.stats["flushes"] == 2

    def test_residual_buffer_flushed_on_destroy(self, urts):
        handle, seen = self._build_batching(urts, calls=3, max_batch=4)
        handle.ecall("ecall_with_ocall")
        assert seen == []  # still buffered in-enclave
        assert handle.interface.has_buffered()
        handle.destroy()
        assert seen == [0, 1, 2]
        assert not handle.interface.has_buffered()

    def test_flush_ecall_declared(self, urts):
        handle, _ = self._build_batching(urts, calls=1)
        assert handle.definition.has_ecall(FLUSH_ECALL)


class TestRewriterValidation:
    def test_unknown_ocall_in_plan_rejected(self):
        from repro.sdk.edl import EdlError, parse_edl

        plan = OptimizationPlan(
            fused=[
                FusedPair(
                    parent="ocall_ghost",
                    child="ocall_log",
                    name="x",
                    result_model=CONST,
                    result_arg=None,
                    pairs=1,
                    score=1.0,
                )
            ]
        )
        with pytest.raises(EdlError, match="ocall_ghost"):
            InterfaceRewriter(plan).rewrite_definition(parse_edl(SIMPLE_EDL))

    def test_unknown_switchless_ecall_rejected(self):
        from repro.sdk.edl import EdlError, parse_edl

        plan = OptimizationPlan(
            switchless=[SwitchlessCall(call="ecall_ghost", count=9, short_fraction=1.0)]
        )
        with pytest.raises(EdlError, match="ecall_ghost"):
            InterfaceRewriter(plan).rewrite_definition(parse_edl(SIMPLE_EDL))
