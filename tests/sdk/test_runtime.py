"""URTS/TRTS call semantics: dispatch, nesting rules, TCS, marshalling."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sdk.edger8r import SYNC_OCALL_NAMES, build_enclave
from repro.sdk.edl import Direction, Param
from repro.sdk.errors import SgxError, SgxStatus
from repro.sdk.trts import copy_sizer
from repro.sdk.urts import Urts
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig, Permission
from repro.sim.process import SignalFault, SimProcess

from tests.conftest import SIMPLE_EDL, make_simple_impls


class TestBasicDispatch:
    def test_ecall_returns_value(self, simple_enclave):
        assert simple_enclave.ecall("ecall_add", 2, 3) == 5

    def test_ecall_charges_calibrated_time(self, simple_enclave, process):
        # Warm up, then measure: an almost-empty ecall costs ~4.2 us + work.
        simple_enclave.ecall("ecall_add", 0, 0)
        start = process.sim.now_ns
        for _ in range(50):
            simple_enclave.ecall("ecall_add", 0, 0)
        mean = (process.sim.now_ns - start) / 50
        assert 4_000 < mean < 5_200

    def test_unknown_ecall_name_raises(self, simple_enclave):
        from repro.sdk.edl import EdlError

        with pytest.raises(EdlError):
            simple_enclave.ecall("ecall_ghost")

    def test_invalid_enclave_id_status(self, simple_enclave):
        status, _ = simple_enclave.proxies.try_call("ecall_add", 999, 1, 2)
        assert status is SgxStatus.SGX_ERROR_INVALID_ENCLAVE_ID

    def test_try_ecall_does_not_raise(self, simple_enclave):
        status, result = simple_enclave.try_ecall("ecall_add", 1, 1)
        assert status is SgxStatus.SGX_SUCCESS and result == 2

    def test_ocall_roundtrip(self, simple_enclave):
        assert simple_enclave.ecall("ecall_with_ocall") == 0

    def test_destroy_then_call(self, simple_enclave):
        simple_enclave.destroy()
        status, _ = simple_enclave.try_ecall("ecall_add", 1, 1)
        assert status is SgxStatus.SGX_ERROR_INVALID_ENCLAVE_ID

    def test_double_destroy_raises(self, simple_enclave):
        simple_enclave.destroy()
        with pytest.raises(SgxError):
            simple_enclave.destroy()


class TestPrivateEcalls:
    def test_private_ecall_from_outside_rejected(self, simple_enclave):
        status, _ = simple_enclave.try_ecall("ecall_private")
        assert status is SgxStatus.SGX_ERROR_ECALL_NOT_ALLOWED

    def test_private_ecall_from_allowing_ocall_succeeds(self, urts):
        trusted, untrusted = make_simple_impls()

        def ecall_with_ocall(ctx):
            return ctx.ocall("ocall_log", "nested")

        def ocall_log(uctx, msg):
            # Re-enter through the allowed private ecall.
            return uctx.ecall("ecall_private")

        trusted["ecall_with_ocall"] = ecall_with_ocall
        untrusted["ocall_log"] = ocall_log
        handle = build_enclave(urts, SIMPLE_EDL, trusted, untrusted)
        assert handle.ecall("ecall_with_ocall") == 42

    def test_nested_ecall_not_in_allow_list_rejected(self, urts):
        trusted, untrusted = make_simple_impls()
        outcome = {}

        def ecall_with_ocall(ctx):
            ctx.ocall("ocall_sleepy", 10)
            return 0

        def ocall_sleepy(uctx, ns):
            # ocall_sleepy's EDL allow list is empty: any nested ecall,
            # even a public one, must be refused (§3.6).
            outcome["status"], _ = uctx.proxies.try_call(
                "ecall_add", uctx.enclave_id, 1, 1
            )

        trusted["ecall_with_ocall"] = ecall_with_ocall
        untrusted["ocall_sleepy"] = ocall_sleepy
        handle = build_enclave(urts, SIMPLE_EDL, trusted, untrusted)
        handle.ecall("ecall_with_ocall")
        assert outcome["status"] is SgxStatus.SGX_ERROR_ECALL_NOT_ALLOWED


class TestTcs:
    def test_tcs_exhaustion_returns_status(self, process, device):
        urts = Urts(process, device)
        trusted, untrusted = make_simple_impls()
        observed = {}

        def hog(ctx, ns):
            # While inside, every TCS=1 slot is busy: a second top-level
            # ecall must fail with OUT_OF_TCS.
            observed["status"], _ = handle.try_ecall("ecall_add", 1, 1)
            return 0

        trusted["ecall_compute"] = hog
        handle = build_enclave(
            urts,
            SIMPLE_EDL,
            trusted,
            untrusted,
            config=EnclaveConfig(tcs_count=1, heap_bytes=64 * 1024),
        )
        handle.ecall("ecall_compute", 0)
        assert observed["status"] is SgxStatus.SGX_ERROR_OUT_OF_TCS

    def test_nested_ecall_reuses_tcs(self, urts):
        trusted, untrusted = make_simple_impls()

        def ecall_with_ocall(ctx):
            return ctx.ocall("ocall_log", "x")

        def ocall_log(uctx, msg):
            # Nested private ecall on the same thread reuses the TCS even
            # with tcs_count=1.
            return uctx.ecall("ecall_private")

        trusted["ecall_with_ocall"] = ecall_with_ocall
        untrusted["ocall_log"] = ocall_log
        handle = build_enclave(
            urts,
            SIMPLE_EDL,
            trusted,
            untrusted,
            config=EnclaveConfig(tcs_count=1, heap_bytes=64 * 1024),
        )
        assert handle.ecall("ecall_with_ocall") == 42

    def test_failed_entry_releases_its_tcs(self, urts):
        """An unhandled SIGSEGV on the TCS page while entering frees the
        slot the entry took: the next ecall finds it free."""
        trusted, untrusted = make_simple_impls()
        handle = build_enclave(
            urts,
            SIMPLE_EDL,
            trusted,
            untrusted,
            config=EnclaveConfig(tcs_count=1, heap_bytes=64 * 1024),
        )
        tcs = handle.enclave.tcs_page(0)
        perms = tcs.os_perms
        urts.mmu.protect([tcs], Permission.NONE, charge=False)
        with pytest.raises(SignalFault):
            handle.ecall("ecall_add", 1, 2)
        urts.mmu.protect([tcs], perms, charge=False)
        assert handle.try_ecall("ecall_add", 1, 2) == (SgxStatus.SGX_SUCCESS, 3)


class TestMarshalling:
    def test_in_buffer_copy_charged(self, urts):
        edl = """
        enclave {
            trusted { public int ecall_buf([in, size=n] uint8_t* buf, size_t n); };
            untrusted { };
        };
        """
        handle = build_enclave(
            urts, edl, {"ecall_buf": lambda ctx, buf, n: len(buf)}, {}
        )
        sim = urts.sim
        handle.ecall("ecall_buf", b"x" * 16, 16)
        start = sim.now_ns
        handle.ecall("ecall_buf", b"x" * 16, 16)
        small = sim.now_ns - start
        start = sim.now_ns
        handle.ecall("ecall_buf", b"x" * 262_144, 262_144)
        big = sim.now_ns - start
        assert big > small + 10_000  # ~0.08 ns/B over 256 KiB

    def test_sync_ocalls_auto_added(self, simple_enclave):
        for name in SYNC_OCALL_NAMES:
            assert simple_enclave.definition.has_ocall(name)

    def test_sync_ocalls_can_be_skipped(self, urts):
        handle = build_enclave(
            urts,
            "enclave { trusted { public void f(void); }; untrusted { }; };",
            {"f": lambda ctx: None},
            include_sync_ocalls=False,
        )
        assert len(handle.definition.ocalls) == 0

    def test_missing_trusted_impl_rejected(self, urts):
        with pytest.raises(SgxError, match="no implementation"):
            build_enclave(
                urts,
                "enclave { trusted { public void f(void); }; untrusted { }; };",
                {},
            )

    def test_missing_untrusted_impl_rejected(self, urts):
        with pytest.raises(SgxError, match="ocall"):
            build_enclave(
                urts,
                "enclave { trusted { public void f(void); }; "
                "untrusted { void o(void); }; };",
                {"f": lambda ctx: None},
            )

    def test_ocall_without_saved_table_rejected(self, urts, simple_enclave):
        runtime = urts.runtime(simple_enclave.enclave_id)
        runtime.saved_ocall_table = None
        with pytest.raises(SgxError, match="OCALL"):
            urts.dispatch_ocall(runtime, 0, ())


class TestEnclaveMemoryApi:
    def test_ctx_malloc_touches_pages(self, urts):
        edl = "enclave { trusted { public int f(void); }; untrusted { }; };"
        seen = {}

        def f(ctx):
            buf = ctx.malloc(3 * 4096)
            seen["pages"] = [p.accessed for p in buf.pages()]
            ctx.free(buf)
            return 0

        handle = build_enclave(urts, edl, {"f": f})
        handle.ecall("f")
        assert seen["pages"] == [True, True, True]

    def test_heap_exhaustion_surfaces(self, urts):
        edl = "enclave { trusted { public int f(void); }; untrusted { }; };"

        def f(ctx):
            ctx.malloc(10 * 1024 * 1024)

        handle = build_enclave(
            urts, edl, {"f": f}, config=EnclaveConfig(heap_bytes=64 * 1024)
        )
        from repro.sgx.enclave import EnclaveOutOfMemory

        with pytest.raises(EnclaveOutOfMemory):
            handle.ecall("f")


def _workload_definitions():
    """The four workloads' interfaces, plus sqlite's after an optimizer
    rewrite (fused, batched and switchless declarations appended)."""
    from repro.optimizer.plan import (
        CONST,
        BatchedOcall,
        FusedPair,
        OptimizationPlan,
        SwitchlessCall,
    )
    from repro.optimizer.rewrite import InterfaceRewriter
    from repro.sdk.edger8r import add_sdk_sync_ocalls
    from repro.sdk.edl import parse_edl
    from repro.workloads.glamdring.signer import SignerBuild, make_partition
    from repro.workloads.minisql.enclavised import sqlite_definition
    from repro.workloads.securekeeper import proxy
    from repro.workloads.talos.api import build_definition

    securekeeper = parse_edl(proxy._EDL)
    definitions = [
        make_partition(SignerBuild.PARTITIONED).definition,
        make_partition(SignerBuild.OPTIMIZED).definition,
        build_definition(),
        sqlite_definition(),
        securekeeper,
    ]
    rewritten = sqlite_definition()
    InterfaceRewriter(
        OptimizationPlan(
            fused=[
                FusedPair(
                    parent="ocall_lseek",
                    child="ocall_write",
                    name="ocall_lseek__ocall_write",
                    result_model=CONST,
                    result_arg=None,
                    pairs=10,
                    score=0.9,
                )
            ],
            switchless=[SwitchlessCall(call="ecall_step", count=10, short_fraction=1.0)],
            batched=[
                BatchedOcall(call="ocall_print", name="ocall_print__batch", max_batch=8, count=10)
            ],
        )
    ).rewrite_definition(rewritten)
    definitions.append(rewritten)
    for definition in definitions:
        add_sdk_sync_ocalls(definition)
    return definitions


@pytest.fixture(scope="module")
def compiled_bridges():
    """Each definition with the bridge its enclave creation compiled."""
    process = SimProcess(seed=0)
    urts = Urts(process, SgxDevice(process.sim))
    built = []
    for definition in _workload_definitions():
        impls = {decl.name: lambda ctx, *args: 0 for decl in definition.ecalls}
        enclave_id = urts.create_enclave(definition, impls)
        built.append((definition, urts.runtime(enclave_id).bridge))
    return built


_ARG = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-4, max_value=1 << 20),
    st.binary(max_size=40),
    st.text(max_size=12),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _resolved_bytes(params, args, direction):
    """The copy-size rule as written: ``Param.resolve_size`` summed over
    the parameters the argument tuple reaches."""
    by_name = {param.name: value for param, value in zip(params, args)}
    return sum(
        param.resolve_size(by_name, value)
        for param, value in zip(params, args)
        if param.direction in (direction, Direction.INOUT)
    )


def _assert_sizer_matches(sizer, params, args, direction):
    expected = _resolved_bytes(params, args, direction)
    if sizer is None:
        assert not any(p.direction in (direction, Direction.INOUT) for p in params)
        assert expected == 0
    else:
        assert sizer(args) == expected


# Few names, so generated declarations repeat them and name each other;
# small ints, so sizes and counts are often zero or negative.
_PARAM_NAME = st.sampled_from(["buf", "len", "n", "k"])
_SMALL_INT = st.integers(min_value=-3, max_value=3)
_PARAM = st.builds(
    Param,
    name=_PARAM_NAME,
    ctype=st.just("void*"),
    direction=st.sampled_from(list(Direction)),
    size=st.one_of(
        st.none(),
        _SMALL_INT,
        st.integers(min_value=-4, max_value=1 << 12),
        _PARAM_NAME,
        st.just("absent"),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    count=st.one_of(st.none(), _SMALL_INT, _PARAM_NAME, st.just("absent")),
)


class TestCompiledCopySizes:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_entries_match_resolve_size(self, compiled_bridges, data):
        definition, bridge = data.draw(st.sampled_from(compiled_bridges))
        if data.draw(st.booleans()) and definition.ecalls:
            index = data.draw(st.integers(0, len(definition.ecalls) - 1))
            decl = definition.ecalls[index]
            _page, copy_in, copy_out = bridge.ecalls[index]
        else:
            index = data.draw(st.integers(0, len(definition.ocalls) - 1))
            decl = definition.ocalls[index]
            entry_index, entry_decl, copy_in, copy_out = bridge.ocalls[decl.name]
            assert (entry_index, entry_decl) == (index, decl)
        # Short tuples (fewer arguments than parameters) included.
        args = tuple(data.draw(st.lists(_ARG, max_size=len(decl.params) + 1)))
        for direction, sizer in ((Direction.IN, copy_in), (Direction.OUT, copy_out)):
            _assert_sizer_matches(sizer, decl.params, args, direction)

    @settings(max_examples=500)
    @given(
        params=st.lists(_PARAM, max_size=5).map(tuple),
        args=st.lists(st.one_of(_ARG, _SMALL_INT), max_size=7).map(tuple),
        direction=st.sampled_from([Direction.IN, Direction.OUT]),
    )
    def test_generated_declarations_match_resolve_size(self, params, args, direction):
        """Any parameter list: repeated names, names no argument supplies,
        non-int sizes and counts, tuples shorter or longer than it."""
        _assert_sizer_matches(copy_sizer(params, direction), params, args, direction)
