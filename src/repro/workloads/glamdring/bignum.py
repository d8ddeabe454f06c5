"""A from-scratch big-number library with OpenSSL's call structure.

LibreSSL/OpenSSL implement multiplication of large numbers with recursive
Karatsuba (``bn_mul_recursive``), whose combination step calls
``bn_sub_part_words`` **twice per recursion node** — the exact call pair
sgx-perf flagged in the Glamdring-partitioned LibreSSL (paper §5.2.3):

    case -4:
        bn_sub_part_words(t, &(a[n]), a, tna, tna - n);
        bn_sub_part_words(&(t[n]), b, &(b[n]), tnb, n - tnb);

Numbers are little-endian lists of 32-bit limbs.  The primitive word
operations keep OpenSSL's signatures and results but do their arithmetic
on Python ints (or, where that measured slower at the sizes the signer
uses, one pass over the limb pairs); ``bn_mul_recursive`` reproduces the
sign-tracked Karatsuba structure.  A :class:`BnEnv` indirection lets the
Glamdring partitioner route the primitive calls across the enclave
boundary (that *is* the experiment), while the pure functions stay
independently testable.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Optional

LIMB_BITS = 32
LIMB_BASE = 1 << LIMB_BITS

# Below this limb count, fall back to schoolbook multiplication — OpenSSL's
# BN_MULL_SIZE_NORMAL boundary.  Chosen so a 512-bit (16-limb) multiply
# produces the paper's per-multiplication bn_sub_part_words call pattern.
KARATSUBA_THRESHOLD = 4


# --------------------------------------------------------------------------
# Limb-vector primitives (the bn_*_words family)
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _packer(n: int) -> struct.Struct:
    """Converter between ``n`` limbs and their little-endian bytes."""
    return struct.Struct(f"<{n}I")


def _limbs_to_int(limbs: list[int]) -> int:
    """Value of a little-endian limb vector."""
    return int.from_bytes(_packer(len(limbs)).pack(*limbs), "little")


def bn_add_words(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """Add limb vectors; returns (result, carry), result as long as the longer."""
    packer = _packer(max(len(a), len(b)))
    # One extra byte past the result's limbs holds the carry.
    raw = (_limbs_to_int(a) + _limbs_to_int(b)).to_bytes(packer.size + 1, "little")
    return list(packer.unpack_from(raw)), raw[-1]


def bn_sub_words(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """Subtract limb vectors (a - b); returns (result, borrow)."""
    n = max(len(a), len(b))
    if len(a) < n:
        a = a + [0] * (n - len(a))
    if len(b) < n:
        b = b + [0] * (n - len(b))
    result = []
    append = result.append
    borrow = 0
    for x, y in zip(a, b):
        diff = x - y - borrow
        if diff < 0:
            append(diff + LIMB_BASE)
            borrow = 1
        else:
            append(diff)
            borrow = 0
    return result, borrow


def bn_sub_part_words(
    a: list[int], b: list[int], cl: int, dl: int
) -> tuple[list[int], int]:
    """OpenSSL's partial-width subtract used by Karatsuba.

    Subtracts ``b`` from ``a`` where the operands have a common length
    ``cl`` and a length difference ``dl`` (positive: ``a`` is longer;
    negative: ``b`` is longer).  Returns ``(result, borrow)`` with the
    result ``cl + |dl|`` limbs long.
    """
    total = cl + abs(dl)
    a_full = (a + [0] * total)[:total]
    b_full = (b + [0] * total)[:total]
    return bn_sub_words(a_full, b_full)


def bn_mul_normal(a: list[int], b: list[int]) -> list[int]:
    """OpenSSL's schoolbook base case: ``len(a) + len(b)`` product limbs."""
    packer = _packer(len(a) + len(b))
    product = _limbs_to_int(a) * _limbs_to_int(b)
    return list(packer.unpack(product.to_bytes(packer.size, "little")))


def _cmp_words(a: list[int], b: list[int]) -> int:
    """Compare equal-length limb vectors: -1, 0 or 1."""
    a, b = a[::-1], b[::-1]  # most significant limb first
    return (a > b) - (a < b)


class BnEnv:
    """Call environment for the bn_* primitives.

    The default environment calls the local implementations.  The
    Glamdring-partitioned build substitutes an environment whose
    ``sub_part_words`` (and, in the optimised build, ``mul_recursive``)
    cross the enclave boundary.
    """

    def sub_part_words(
        self, a: list[int], b: list[int], cl: int, dl: int
    ) -> tuple[list[int], int]:
        """Dispatch point for ``bn_sub_part_words``."""
        return bn_sub_part_words(a, b, cl, dl)

    def mul_normal(self, a: list[int], b: list[int]) -> list[int]:
        """Dispatch point for the schoolbook base case."""
        return bn_mul_normal(a, b)

    def mul_recursive(self, a: list[int], b: list[int], n2: int) -> list[int]:
        """Dispatch point for the recursive multiply itself."""
        return bn_mul_recursive(a, b, n2, self)


DEFAULT_ENV = BnEnv()


def bn_mul_recursive(
    a: list[int], b: list[int], n2: int, env: Optional[BnEnv] = None
) -> list[int]:
    """Karatsuba multiplication with OpenSSL's call structure.

    ``a`` and ``b`` are ``n2`` limbs (``n2`` a power of two).  Each
    recursion node issues exactly two ``sub_part_words`` calls through
    ``env`` — the successive pair the paper's analyser flags for batching —
    followed by three half-size recursive multiplies.
    """
    env = env or DEFAULT_ENV
    a = (a + [0] * n2)[:n2]
    b = (b + [0] * n2)[:n2]
    if n2 <= KARATSUBA_THRESHOLD:
        return env.mul_normal(a, b)
    n = n2 // 2
    a_lo, a_hi = a[:n], a[n:]
    b_lo, b_hi = b[:n], b[n:]
    c1 = _cmp_words(a_hi, a_lo)
    c2 = _cmp_words(b_lo, b_hi)
    # The paper's switch(c1 * 3 + c2) collapses to two partial subtracts
    # whose operand order depends on the comparisons; the *call pair* is
    # what matters for the interface analysis.
    if c1 >= 0:
        ta, _ = env.sub_part_words(a_hi, a_lo, n, 0)
    else:
        ta, _ = env.sub_part_words(a_lo, a_hi, n, 0)
    if c2 >= 0:
        tb, _ = env.sub_part_words(b_lo, b_hi, n, 0)
    else:
        tb, _ = env.sub_part_words(b_hi, b_lo, n, 0)

    lo = _limbs_to_int(env.mul_recursive(a_lo, b_lo, n)[: 2 * n])
    hi = _limbs_to_int(env.mul_recursive(a_hi, b_hi, n)[: 2 * n])
    mid = _limbs_to_int(env.mul_recursive(ta, tb, n)[: 2 * n])

    # middle = a_lo*b_hi + a_hi*b_lo = lo + hi + c1*c2*mid
    # (ta = |a_hi - a_lo| and tb = |b_lo - b_hi|, so the correction term's
    # sign is the product of the two comparisons).
    middle = lo + hi + mid if c1 * c2 > 0 else lo + hi - mid
    product = lo + (middle << (LIMB_BITS * n)) + (hi << (LIMB_BITS * n2))
    packer = _packer(2 * n2)
    product &= (1 << (8 * packer.size)) - 1
    return list(packer.unpack(product.to_bytes(packer.size, "little")))


# --------------------------------------------------------------------------
# BigNum wrapper
# --------------------------------------------------------------------------


class BigNum:
    """An arbitrary-precision unsigned integer over the bn_* primitives."""

    __slots__ = ("limbs",)

    def __init__(self, limbs: Optional[list[int]] = None) -> None:
        self.limbs = list(limbs or [])
        self._normalise()

    def _normalise(self) -> None:
        while self.limbs and self.limbs[-1] == 0:
            self.limbs.pop()

    @classmethod
    def from_int(cls, value: int) -> "BigNum":
        """Build from a Python int (must be non-negative)."""
        if value < 0:
            raise ValueError("BigNum is unsigned")
        packer = _packer(-(-value.bit_length() // LIMB_BITS))
        return cls(list(packer.unpack(value.to_bytes(packer.size, "little"))))

    @classmethod
    def from_bytes(cls, data: bytes) -> "BigNum":
        """Build from big-endian bytes."""
        return cls.from_int(int.from_bytes(data, "big"))

    def to_int(self) -> int:
        """Convert back to a Python int."""
        return _limbs_to_int(self.limbs)

    @property
    def bit_length(self) -> int:
        """Number of significant bits."""
        return self.to_int().bit_length()

    def is_zero(self) -> bool:
        """Whether the value is zero."""
        return not self.limbs

    # -- arithmetic -------------------------------------------------------

    def add(self, other: "BigNum") -> "BigNum":
        """Addition."""
        result, carry = bn_add_words(self.limbs, other.limbs)
        if carry:
            result.append(carry)
        return BigNum(result)

    def sub(self, other: "BigNum") -> "BigNum":
        """Subtraction (requires ``self >= other``)."""
        result, borrow = bn_sub_words(self.limbs, other.limbs)
        if borrow:
            raise ValueError("BigNum subtraction underflow")
        return BigNum(result)

    def mul(self, other: "BigNum", env: Optional[BnEnv] = None) -> "BigNum":
        """Multiplication: Karatsuba above the threshold, schoolbook below.

        This is OpenSSL's ``BN_mul`` shape: pad to a power of two and call
        ``bn_mul_recursive`` through the environment.
        """
        env = env or DEFAULT_ENV
        if self.is_zero() or other.is_zero():
            return BigNum()
        n = max(len(self.limbs), len(other.limbs))
        if n <= KARATSUBA_THRESHOLD:
            return BigNum(env.mul_normal(self.limbs, other.limbs))
        n2 = 1
        while n2 < n:
            n2 *= 2
        return BigNum(env.mul_recursive(self.limbs, other.limbs, n2))

    def mod(self, modulus: "BigNum") -> "BigNum":
        """Remainder (plain int division under the hood; not on the paper's
        hot path, so structural fidelity is not required here)."""
        return BigNum.from_int(self.to_int() % modulus.to_int())

    def mod_mul(self, other: "BigNum", modulus: "BigNum", env: Optional[BnEnv] = None) -> "BigNum":
        """(self * other) mod modulus via the structured multiplier."""
        return self.mul(other, env).mod(modulus)

    def mod_exp(self, exponent: "BigNum", modulus: "BigNum", env: Optional[BnEnv] = None) -> "BigNum":
        """Left-to-right square-and-multiply modular exponentiation.

        Every squaring and multiplication goes through :meth:`mul` and thus
        the Karatsuba call structure — which is where the paper's 6.6 M
        ``bn_sub_part_words`` ecalls come from.
        """
        if modulus.is_zero():
            raise ZeroDivisionError("modulus is zero")
        result = BigNum.from_int(1)
        base = self.mod(modulus)
        for bit_index in range(exponent.bit_length - 1, -1, -1):
            result = result.mod_mul(result, modulus, env)
            if (exponent.to_int() >> bit_index) & 1:
                result = result.mod_mul(base, modulus, env)
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BigNum) and self.limbs == other.limbs

    def __hash__(self) -> int:
        return hash(tuple(self.limbs))

    def __repr__(self) -> str:
        return f"BigNum({hex(self.to_int())})"
