"""The Glamdring partitioner and the signing workload."""

import random

import pytest

from repro.perf.events import ECALL, OCALL
from repro.perf.logger import OCALL_LOG_POST_NS, OCALL_LOG_PRE_NS, AexMode, EventLogger
from repro.sdk import constants as sdkc
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.glamdring.bignum import BigNum
from repro.workloads.glamdring.partitioner import FunctionSpec, Glamdring, PartitionError
from repro.workloads.glamdring.signer import (
    TEST_KEY,
    GlamdringSigner,
    SignerBuild,
    application_model,
    make_certificate,
    make_partition,
    run_signing_benchmark,
)


class TestGlamdringAnalysis:
    def make_model(self):
        return Glamdring(
            [
                FunctionSpec.make("main", calls=["handle"], entry_point=True),
                FunctionSpec.make(
                    "handle", reads=["request"], writes=["buffer"], calls=["seal"]
                ),
                FunctionSpec.make(
                    "seal", reads=["secret_key", "buffer"], writes=["sealed"],
                    calls=["log"],
                ),
                FunctionSpec.make("log", writes=["logfile"]),
                FunctionSpec.make("unrelated", reads=["config"]),
            ]
        )

    def test_unknown_callee_rejected(self):
        with pytest.raises(PartitionError):
            Glamdring([FunctionSpec.make("f", calls=["ghost"])])

    def test_taint_propagates_through_writes(self):
        model = self.make_model()
        tainted = model.propagate_sensitivity(["secret_key"])
        assert "sealed" in tainted  # seal reads secret_key, writes sealed
        assert "buffer" not in tainted  # handle never reads tainted data

    def test_taint_fixed_point_chain(self):
        model = Glamdring(
            [
                FunctionSpec.make("a", reads=["s"], writes=["x"]),
                FunctionSpec.make("b", reads=["x"], writes=["y"]),
                FunctionSpec.make("c", reads=["y"], writes=["z"]),
            ]
        )
        assert model.propagate_sensitivity(["s"]) == {"s", "x", "y", "z"}

    def test_backward_slice_selects_accessors(self):
        model = self.make_model()
        sliced = model.backward_slice(["secret_key"])
        assert sliced == {"seal"}

    def test_partition_cut_generates_interface(self):
        partition = self.make_model().partition(["secret_key"])
        assert partition.side_of("seal") == "trusted"
        assert partition.side_of("handle") == "untrusted"
        # handle (untrusted) calls seal (trusted) -> an ecall; seal calls
        # log (untrusted) -> an ocall.
        assert "seal" in partition.ecalls
        assert "log" in partition.ocalls
        assert partition.definition.has_ecall("ecall_seal")
        assert partition.definition.has_ocall("ocall_log")

    def test_force_trusted_moves_function(self):
        partition = self.make_model().partition(
            ["secret_key"], force_trusted=["handle"]
        )
        assert partition.side_of("handle") == "trusted"
        assert "handle" in partition.ecalls  # now the boundary moved up

    def test_generated_allow_lists_are_permissive(self):
        """Glamdring allows every ecall from every ocall — the §3.6
        anti-pattern the analyser flags."""
        partition = self.make_model().partition(["secret_key"])
        ocall = partition.definition.ocall("ocall_log")
        assert set(ocall.allowed_ecalls) == {
            e.name for e in partition.definition.ecalls
        }

    def test_call_graph_shape(self):
        edges = self.make_model().call_graph()
        assert ("handle", "seal") in edges
        assert ("seal", "log") in edges


class TestPaperPartition:
    def test_paper_cut_reproduced(self):
        partition = make_partition(SignerBuild.PARTITIONED)
        named = {f for f in partition.trusted if not f.startswith("bn_api")}
        assert named == {"bn_sub_part_words", "exp_window", "load_key", "rsa_pad"}
        assert "bn_mul_recursive" in partition.untrusted
        assert len(partition.definition.ecalls) == 171

    def test_optimized_cut_moves_multiplier_in(self):
        partition = make_partition(SignerBuild.OPTIMIZED)
        assert "bn_mul_recursive" in partition.trusted
        assert "ecall_bn_mul_recursive" in [e.name for e in partition.definition.ecalls]

    def test_interface_sizes_match_paper(self):
        partition = make_partition(SignerBuild.PARTITIONED)
        # +4 SDK sync ocalls are appended at enclave build time -> 3357.
        assert len(partition.definition.ocalls) + 4 == 3357

    def test_model_is_consistent(self):
        application_model()  # raises on unknown callees


class TestSigner:
    def test_key_is_valid_rsa(self):
        message = 0x1234567890ABCDEF
        signature = pow(message, TEST_KEY.d, TEST_KEY.n)
        assert pow(signature, TEST_KEY.e, TEST_KEY.n) == message

    def test_signature_verifies_across_builds(self):
        signatures = {}
        for build in SignerBuild:
            process = SimProcess(seed=1)
            device = SgxDevice(process.sim)
            signer = GlamdringSigner(
                process, device, build, exponent_bits=64
            )
            signatures[build] = signer.sign(make_certificate(7))
            signer.close()
        # All three builds compute the same signature bytes: the partition
        # changes *where* code runs, never *what* it computes.
        assert len(set(signatures.values())) == 1

    def test_partitioned_slower_than_native(self):
        native = run_signing_benchmark(SignerBuild.NATIVE, signs=2, exponent_bits=96)
        part = run_signing_benchmark(SignerBuild.PARTITIONED, signs=2, exponent_bits=96)
        assert part.signs_per_second < native.signs_per_second

    def test_optimized_between_native_and_partitioned(self):
        results = {
            build: run_signing_benchmark(build, signs=2, exponent_bits=96)
            for build in SignerBuild
        }
        assert (
            results[SignerBuild.PARTITIONED].signs_per_second
            < results[SignerBuild.OPTIMIZED].signs_per_second
            < results[SignerBuild.NATIVE].signs_per_second
        )

    def test_certificates_are_deterministic(self):
        assert make_certificate(3) == make_certificate(3)
        assert make_certificate(3) != make_certificate(4)


class _LibcCallingSigner(GlamdringSigner):
    """The signer with API-surface ecalls that each call one libc
    function: no signing path issues an ``ocall_libc_*``."""

    def _generic_ecall(self, ctx, *args):
        ctx.ocall("ocall_libc_3", b"\x00" * 32, 32)
        return super()._generic_ecall(ctx, *args)


class TestGenericInterfaceThroughLogger:
    """The ecalls and ocalls that pad the interface to the paper's size
    (``ecall_bn_api_*`` and ``ocall_libc_*``) run the generic
    implementations, and the logger records them with the time they
    charge."""

    @staticmethod
    def _logged(signer_class, ecall):
        """The ecall's and ocall rows of one logged ``ecall``, and the
        times predicted for them from the jitter streams beforehand."""
        process = SimProcess(seed=5)
        device = SgxDevice(process.sim)
        signer = signer_class(process, device, SignerBuild.PARTITIONED)
        logger = EventLogger(process, signer.urts, database=":memory:", aex_mode=AexMode.COUNT)
        logger.install()

        def draw(stream, mean_ns):
            # The stream's next draw, by the reference rule on a copy.
            copy = random.Random()
            copy.setstate(process.sim.rng.stream(stream).getstate())
            return max(1, int(mean_ns * max(copy.gauss(1.0, 0.08), 0.76)))

        cpu = device.cpu
        libc = draw("glamdring:libc", 350)
        predicted = {
            "ecall": draw("urts:ecall-dispatch", sdkc.URTS_ECALL_DISPATCH_NS)
            + cpu.eenter_ns
            + draw("trts:dispatch", sdkc.TRTS_ECALL_DISPATCH_NS)
            + 2 * cpu.copy_cost_ns(64)  # [in, out] data, size=len
            + 400  # the generic ecall's work
            + cpu.eexit_ns
            + draw("urts:ecall-return", sdkc.URTS_ECALL_RETURN_NS),
            "libc": libc,
            "ocall_round_trip": draw("trts:ocall-prep", sdkc.TRTS_OCALL_PREP_NS)
            + 2 * cpu.copy_cost_ns(32)
            + cpu.eexit_ns
            + draw("urts:ocall-lookup", sdkc.URTS_OCALL_LOOKUP_NS)
            + OCALL_LOG_PRE_NS
            + libc
            + OCALL_LOG_POST_NS
            + cpu.eenter_ns
            + draw("trts:ocall-resume", sdkc.TRTS_OCALL_RESUME_NS),
        }
        assert signer.handle.ecall(ecall, b"\x00" * 64, 64) == 0
        logger.uninstall()
        db = logger.finalize()
        return db.calls(kind=ECALL), db.calls(kind=OCALL), predicted

    def test_generic_ecall(self):
        ecalls, ocalls, predicted = self._logged(GlamdringSigner, "ecall_bn_api_7")
        assert ocalls == []
        [row] = ecalls
        assert (row.name, row.aex_count, row.parent_id) == ("ecall_bn_api_7", 0, None)
        assert row.end_ns - row.start_ns == predicted["ecall"]

    def test_generic_ocall(self):
        ecalls, ocalls, predicted = self._logged(_LibcCallingSigner, "ecall_bn_api_0")
        [parent] = ecalls
        [row] = ocalls
        assert (row.name, row.parent_id, row.is_sync) == ("ocall_libc_3", parent.event_id, False)
        # The stub times the untrusted function alone: the libc work.
        assert row.end_ns - row.start_ns == predicted["libc"]
        assert parent.aex_count == 0
        assert parent.end_ns - parent.start_ns == predicted["ecall"] + predicted["ocall_round_trip"]
