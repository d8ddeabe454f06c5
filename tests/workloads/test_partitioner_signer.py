"""The Glamdring partitioner and the signing workload."""

import pytest

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
