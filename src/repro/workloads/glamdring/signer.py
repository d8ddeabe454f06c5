"""Certificate signing over the Glamdring-partitioned bignum library.

Reproduces the §5.2.3 experiment: LibreSSL v2.4.2 partitioned with
Glamdring, running the paper's signing benchmark ("sign as many
certificates as possible").  Three builds:

* **native** — everything in one address space;
* **partitioned** — the Glamdring cut: ``bn_sub_part_words`` (and a few
  key-handling functions) inside the enclave, ``bn_mul_recursive`` outside,
  so every Karatsuba node issues the paper's *pair* of short successive
  ecalls;
* **optimized** — the paper's fix: ``bn_mul_recursive`` (and the functions
  it drags along) moved inside, eliminating the per-node ecall pairs and
  leaving one ecall per big-number multiplication.

The signature itself is a real RSA-style modular exponentiation over the
from-scratch bignum library; virtual compute costs are charged per
primitive so the native build lands near the paper's 145 signs/s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.crypto.sha256 import sha256
from repro.crypto.aes import sha256_cost_ns
from repro.sdk.edger8r import EnclaveHandle, build_enclave
from repro.sdk.trts import TrustedContext
from repro.sdk.urts import Urts
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig
from repro.sim.process import SimProcess
from repro.workloads.glamdring.bignum import (
    BigNum,
    BnEnv,
    bn_mul_normal,
    bn_mul_recursive,
    bn_sub_part_words,
)
from repro.workloads.glamdring.partitioner import FunctionSpec, Glamdring, Partition

# -- virtual compute costs per primitive (calibrated: native ≈ 145 signs/s) --
SUB_PART_WORDS_NS = 150
MUL_NORMAL_NS = 380
MOD_REDUCE_NS = 2_600
MUL_GLUE_NS = 950  # per bn_mul: argument prep, result copy
EXP_LOOP_NS = 320  # per exponent bit: loop control
PAD_NS = 900

# Trusted bn code occasionally allocates scratch through an ocall — the
# short BN_-family ocalls §5.2.3 observes (about one per 60 primitive calls).
OCALL_MALLOC_EVERY = 60

# The paper's Glamdring-generated interface sizes.
INTERFACE_ECALLS = 171
INTERFACE_OCALLS = 3357

_FIXED_EXPONENT_BITS = 512


class SignerBuild(enum.Enum):
    """Which §5.2.3 configuration to run."""

    NATIVE = "native"
    PARTITIONED = "partitioned"
    OPTIMIZED = "optimized"


@dataclass(frozen=True)
class RsaKey:
    """A fixed RSA-style key (512-bit modulus) for deterministic signing."""

    n: int
    e: int
    d: int

    @property
    def modulus(self) -> BigNum:
        """The modulus as a BigNum."""
        return BigNum.from_int(self.n)


# Two fixed 256-bit primes (deterministic; primality and the RSA identity
# are validated in the test suite).
_P = 0xE95E4A5F737059DC60DFC7AD95B3D8139515620F14D8D5D9C9DFD04F1B5281F3
_Q = 0xC7970CEEDCC3B0754490201A7AA613CD73911081C790F5F1A8726F463550BD1D
_N = _P * _Q
_E = 65537
_D = pow(_E, -1, (_P - 1) * (_Q - 1))

TEST_KEY = RsaKey(n=_N, e=_E, d=_D)


def make_certificate(serial: int) -> bytes:
    """A deterministic to-be-signed certificate blob."""
    return (
        b"cert-v3\x00"
        + serial.to_bytes(8, "big")
        + b"CN=reproduction.example;O=sgx-perf;serial="
        + str(serial).encode()
        + bytes((serial * 7 + i) % 256 for i in range(256))
    )


def application_model() -> Glamdring:
    """The signer's code model fed to the Glamdring analysis.

    Crafted so the automatic slice reproduces the paper's (imprecise but
    real) cut: ``bn_sub_part_words`` operates on key-derived limb buffers
    and lands inside; ``bn_mul_recursive`` only shuffles pointers/indices
    and stays outside.
    """
    return Glamdring(
        [
            FunctionSpec.make(
                "sign_certificate",
                reads=["cert_data"],
                writes=["digest"],
                calls=["sha256_digest", "rsa_pad", "mod_exp_loop"],
                entry_point=True,
            ),
            FunctionSpec.make(
                "sha256_digest", reads=["cert_data"], writes=["digest"]
            ),
            FunctionSpec.make(
                "load_key",
                reads=["rsa_private_key"],
                writes=["bn_operands"],
                entry_point=True,
            ),
            FunctionSpec.make(
                "rsa_pad", reads=["digest", "bn_operands"], writes=["bn_operands"]
            ),
            FunctionSpec.make(
                "exp_window", reads=["rsa_private_key"], writes=["exp_bits"]
            ),
            # NOTE: mod_exp_loop *branches* on exp_bits but the dataflow
            # model (like Glamdring's) only tracks data, not control
            # dependencies — this is exactly the imprecision that produced
            # the paper's odd cut (bn_sub_part_words inside,
            # bn_mul_recursive outside).
            FunctionSpec.make(
                "mod_exp_loop",
                reads=["bn_pointers"],
                writes=["bn_pointers"],
                calls=["exp_window", "bn_mul", "bn_mod"],
            ),
            FunctionSpec.make(
                "bn_mul",
                reads=["bn_pointers"],
                writes=["bn_pointers"],
                calls=["bn_mul_recursive"],
            ),
            FunctionSpec.make(
                "bn_mul_recursive",
                reads=["bn_pointers"],
                writes=["bn_pointers"],
                calls=["bn_sub_part_words", "bn_mul_normal", "bn_mul_recursive"],
            ),
            FunctionSpec.make(
                "bn_mul_normal", reads=["bn_pointers"], writes=["bn_pointers"]
            ),
            FunctionSpec.make(
                "bn_sub_part_words",
                reads=["bn_operands"],
                writes=["bn_operands"],
                calls=["bn_malloc", "bn_free"],
            ),
            FunctionSpec.make("bn_mod", reads=["bn_pointers"], writes=["bn_pointers"]),
            FunctionSpec.make("bn_malloc", writes=["heap_meta"]),
            FunctionSpec.make("bn_free", writes=["heap_meta"]),
        ]
    )


def make_partition(build: SignerBuild) -> Partition:
    """Run the Glamdring analysis for the requested build."""
    model = application_model()
    force: tuple[str, ...] = ()
    if build is SignerBuild.OPTIMIZED:
        # The manual optimisation: move the whole recursive multiplier (and
        # the reduction it shares buffers with) inside the enclave.
        force = ("bn_mul_recursive", "bn_mul_normal", "bn_mod")
    n_real_ecalls = {SignerBuild.PARTITIONED: 4, SignerBuild.OPTIMIZED: 5}
    extra_ecalls = [f"bn_api_{i}" for i in range(INTERFACE_ECALLS - n_real_ecalls[build])]
    # -4: the SDK sync ocalls are appended at enclave build time.
    n_real_ocalls = 2
    extra_ocalls = [f"libc_{i}" for i in range(INTERFACE_OCALLS - n_real_ocalls - 4)]
    return model.partition(
        sensitive=["rsa_private_key"],
        force_trusted=force,
        extra_ecall_names=extra_ecalls,
        extra_ocall_names=extra_ocalls,
    )


class _CountingEnv(BnEnv):
    """Native build: primitives charge virtual compute locally."""

    def __init__(self, compute) -> None:
        self._compute = compute

    def sub_part_words(self, a, b, cl, dl):
        self._compute(SUB_PART_WORDS_NS)
        return bn_sub_part_words(a, b, cl, dl)

    def mul_normal(self, a, b):
        self._compute(MUL_NORMAL_NS)
        return bn_mul_normal(a, b)

    def mul_recursive(self, a, b, n2):
        return bn_mul_recursive(a, b, n2, self)


class _PartitionedEnv(BnEnv):
    """Partitioned build: ``sub_part_words`` crosses into the enclave."""

    def __init__(self, handle: EnclaveHandle) -> None:
        self.handle = handle
        self.sim = handle.urts.sim

    def sub_part_words(self, a, b, cl, dl):
        nbytes = 4 * (2 * (cl + abs(dl)) + 2)
        return self.handle.ecall(
            "ecall_bn_sub_part_words", (a, b, cl, dl), nbytes
        )

    def mul_normal(self, a, b):
        self.sim.compute(MUL_NORMAL_NS)
        return bn_mul_normal(a, b)

    def mul_recursive(self, a, b, n2):
        return bn_mul_recursive(a, b, n2, self)


class _OptimizedEnv(BnEnv):
    """Optimized build: the whole multiplication is one ecall."""

    def __init__(self, handle: EnclaveHandle) -> None:
        self.handle = handle
        self.sim = handle.urts.sim

    def mul_recursive(self, a, b, n2):
        nbytes = 4 * 2 * n2
        return self.handle.ecall("ecall_bn_mul_recursive", (a, b, n2), nbytes)

    def mod(self, value: BigNum, modulus: BigNum) -> BigNum:
        nbytes = 4 * (len(value.limbs) + len(modulus.limbs))
        limbs = self.handle.ecall(
            "ecall_bn_mod", (value.limbs, modulus.limbs), nbytes
        )
        return BigNum(limbs)


class GlamdringSigner:
    """The signing application in one of its three builds."""

    def __init__(
        self,
        process: SimProcess,
        device: SgxDevice,
        build: SignerBuild,
        key: RsaKey = TEST_KEY,
        exponent_bits: int = _FIXED_EXPONENT_BITS,
        defer_key_load: bool = False,
    ) -> None:
        self.process = process
        self.device = device
        self.sim = process.sim
        self.build = build
        self.key = key
        self.exponent = BigNum.from_int(key.d % (1 << exponent_bits) | (1 << (exponent_bits - 1)))
        self.modulus = key.modulus
        self.signs_done = 0
        self.partition: Optional[Partition] = None
        self.handle: Optional[EnclaveHandle] = None
        self._primitive_calls = 0
        if build is SignerBuild.NATIVE:
            self.env: BnEnv = _CountingEnv(self.sim.compute)
        else:
            self.partition = make_partition(build)
            self.urts = Urts(process, device)
            self.handle = self._build_enclave()
            if build is SignerBuild.PARTITIONED:
                self.env = _PartitionedEnv(self.handle)
            else:
                self.env = _OptimizedEnv(self.handle)
            if not defer_key_load:
                self.load_key()

    # -- enclave construction ------------------------------------------------

    def _build_enclave(self) -> EnclaveHandle:
        definition = self.partition.definition
        trusted_impls = {e.name: self._generic_ecall for e in definition.ecalls}
        trusted_impls.update(
            {
                "ecall_bn_sub_part_words": self._ecall_sub_part_words,
                "ecall_load_key": self._ecall_load_key,
                "ecall_rsa_pad": self._ecall_rsa_pad,
                "ecall_exp_window": self._ecall_exp_window,
            }
        )
        if self.build is SignerBuild.OPTIMIZED:
            trusted_impls.update(
                {
                    "ecall_bn_mul_recursive": self._ecall_mul_recursive,
                    "ecall_bn_mod": self._ecall_mod,
                    "ecall_bn_mul_normal": self._generic_ecall,
                }
            )
        untrusted_impls = {
            o.name: self._generic_ocall for o in definition.ocalls
        }
        untrusted_impls.update(
            {
                "ocall_bn_malloc": self._ocall_bn_malloc,
                "ocall_bn_free": self._ocall_bn_free,
            }
        )
        config = EnclaveConfig(
            name="glamdring_libressl",
            code_bytes=96 * 1024,
            data_bytes=16 * 1024,
            heap_bytes=256 * 1024,
            stack_bytes=64 * 1024,
            tcs_count=2,
            debug=True,
        )
        return build_enclave(
            self.urts,
            definition,
            trusted_impls,
            untrusted_impls,
            config=config,
            code_identity=b"glamdring-libressl-2.4.2",
        )

    # -- trusted implementations -----------------------------------------------

    def _ecall_sub_part_words(self, ctx: TrustedContext, payload, nbytes):
        a, b, cl, dl = payload
        ctx.compute(SUB_PART_WORDS_NS)
        self._touch_scratch(ctx)
        self._maybe_scratch_ocall(ctx)
        return bn_sub_part_words(a, b, cl, dl)

    def _ecall_mul_recursive(self, ctx: TrustedContext, payload, nbytes):
        a, b, n2 = payload
        env = _TrustedEnv(ctx, self)
        return bn_mul_recursive(a, b, n2, env)

    def _ecall_mod(self, ctx: TrustedContext, payload, nbytes):
        value_limbs, modulus_limbs = payload
        ctx.compute(MOD_REDUCE_NS)
        return BigNum(value_limbs).mod(BigNum(modulus_limbs)).limbs

    def load_key(self) -> None:
        """Load the signing key into the enclave (an explicit start-up step)."""
        self.handle.ecall("ecall_load_key", b"\x00" * 64, 64)

    def _ecall_load_key(self, ctx: TrustedContext, payload, nbytes):
        # Key schedule plus the big-number scratch arena.  Sizes chosen so
        # the start-up working set lands near the paper's 61 pages and the
        # per-benchmark set near its 32.
        self._key_buffer = ctx.malloc(116 * 1024)
        self._bn_scratch = ctx.malloc(96 * 1024)
        ctx.compute(25_000)
        return 0

    _SCRATCH_ROTATION_PAGES = 24

    def _touch_scratch(self, ctx: TrustedContext) -> None:
        scratch = getattr(self, "_bn_scratch", None)
        if scratch is None:
            return
        page_index = self._primitive_calls % self._SCRATCH_ROTATION_PAGES
        ctx.touch_heap_bytes(
            scratch.allocation.offset + page_index * 4096, 64, write=True
        )

    def _ecall_rsa_pad(self, ctx: TrustedContext, payload, nbytes):
        ctx.compute(PAD_NS)
        return 0

    def _ecall_exp_window(self, ctx: TrustedContext, window_index, nbytes):
        ctx.compute(260)
        start = window_index * 64
        return (self.exponent.to_int() >> start) & 0xFFFFFFFFFFFFFFFF

    def _generic_ecall(self, ctx: TrustedContext, *args):
        ctx.compute(400)
        return 0

    # -- untrusted implementations -------------------------------------------------

    def _ocall_bn_malloc(self, uctx, payload, nbytes):
        uctx.compute_jittered("glamdring:malloc", 600)
        return 0

    def _ocall_bn_free(self, uctx, payload, nbytes):
        uctx.compute_jittered("glamdring:free", 450)
        return 0

    def _generic_ocall(self, uctx, *args):
        uctx.compute_jittered("glamdring:libc", 350)
        return 0

    def _maybe_scratch_ocall(self, ctx: TrustedContext) -> None:
        self._primitive_calls += 1
        if self._primitive_calls % OCALL_MALLOC_EVERY == 0:
            ctx.ocall("ocall_bn_malloc", b"", 16)
        elif self._primitive_calls % OCALL_MALLOC_EVERY == 1 and self._primitive_calls > 1:
            ctx.ocall("ocall_bn_free", b"", 16)

    # -- the signing path -----------------------------------------------------------

    def sign(self, certificate: bytes) -> bytes:
        """Sign one certificate; returns the signature bytes."""
        self.sim.compute(sha256_cost_ns(len(certificate)))
        digest = sha256(certificate)
        message = BigNum.from_bytes(digest + digest)  # simple 512-bit padding
        if self.build is not SignerBuild.NATIVE:
            self.handle.ecall("ecall_rsa_pad", digest, len(digest))
        signature = self._mod_exp(message)
        self.signs_done += 1
        return signature.to_int().to_bytes(64, "big")

    def _mod_exp(self, base: BigNum) -> BigNum:
        """Square-and-multiply loop, living on the *untrusted* side.

        In the SDK builds the exponent bits come from the enclave in
        64-bit windows, multiplications route through the build's
        environment, and (in the optimised build) reductions are ecalls.
        """
        modulus = self.modulus
        result = BigNum.from_int(1)
        value = base.mod(modulus)
        bits = self.exponent.bit_length
        exponent_int = self.exponent.to_int()
        window = None
        window_index = None
        for bit in range(bits - 1, -1, -1):
            self.sim.compute(EXP_LOOP_NS)
            if self.build is not SignerBuild.NATIVE:
                needed_window = bit // 64
                if needed_window != window_index:
                    window = self.handle.ecall("ecall_exp_window", needed_window, 8)
                    window_index = needed_window
                bit_set = (window >> (bit % 64)) & 1
            else:
                bit_set = (exponent_int >> bit) & 1
            result = self._mod_mul(result, result, modulus)
            if bit_set:
                result = self._mod_mul(result, value, modulus)
        return result

    def _mod_mul(self, a: BigNum, b: BigNum, modulus: BigNum) -> BigNum:
        self.sim.compute(MUL_GLUE_NS)
        product = a.mul(b, self.env)
        if isinstance(self.env, _OptimizedEnv):
            return self.env.mod(product, modulus)
        self.sim.compute(MOD_REDUCE_NS)
        return product.mod(modulus)

    def close(self) -> None:
        """Destroy the enclave (no-op for the native build)."""
        if self.handle is not None:
            self.handle.destroy()
            self.handle = None


class _TrustedEnv(BnEnv):
    """Environment used *inside* the enclave by the optimised build."""

    def __init__(self, ctx: TrustedContext, signer: GlamdringSigner) -> None:
        self.ctx = ctx
        self.signer = signer

    def sub_part_words(self, a, b, cl, dl):
        self.ctx.compute(SUB_PART_WORDS_NS)
        self.signer._maybe_scratch_ocall(self.ctx)
        return bn_sub_part_words(a, b, cl, dl)

    def mul_normal(self, a, b):
        self.ctx.compute(MUL_NORMAL_NS)
        return bn_mul_normal(a, b)

    def mul_recursive(self, a, b, n2):
        return bn_mul_recursive(a, b, n2, self)


@dataclass
class SigningResult:
    """Outcome of one signing benchmark run."""

    build: SignerBuild
    signs: int
    virtual_seconds: float
    signs_per_second: float


def run_signing_benchmark(
    build: SignerBuild,
    signs: int = 12,
    seed: int = 0,
    device: Optional[SgxDevice] = None,
    process: Optional[SimProcess] = None,
    exponent_bits: int = _FIXED_EXPONENT_BITS,
) -> SigningResult:
    """Sign ``signs`` certificates and report the virtual-time rate."""
    process = process or SimProcess(seed=seed)
    device = device or SgxDevice(process.sim)
    signer = GlamdringSigner(process, device, build, exponent_bits=exponent_bits)
    start = process.sim.now_ns
    for serial in range(signs):
        signer.sign(make_certificate(serial))
    elapsed = process.sim.now_ns - start
    signer.close()
    seconds = elapsed / 1e9
    return SigningResult(
        build=build,
        signs=signs,
        virtual_seconds=seconds,
        signs_per_second=signs / seconds if seconds else 0.0,
    )
