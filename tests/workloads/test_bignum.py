"""Big-number library: correctness against Python ints + call structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.glamdring.bignum import (
    BigNum,
    BnEnv,
    KARATSUBA_THRESHOLD,
    bn_add_words,
    bn_mul_normal,
    bn_mul_recursive,
    bn_sub_part_words,
    bn_sub_words,
)


def limbs_of(value):
    return BigNum.from_int(value).limbs


class TestWordPrimitives:
    @given(st.integers(min_value=0, max_value=2**256), st.integers(min_value=0, max_value=2**256))
    def test_add_words(self, a, b):
        n = max(len(limbs_of(a)), len(limbs_of(b)), 1)
        result, carry = bn_add_words(limbs_of(a), limbs_of(b))
        assert BigNum(result + [carry]).to_int() == a + b

    @given(st.integers(min_value=0, max_value=2**256), st.integers(min_value=0, max_value=2**256))
    def test_sub_words(self, a, b):
        big, small = max(a, b), min(a, b)
        result, borrow = bn_sub_words(limbs_of(big), limbs_of(small))
        assert borrow == 0
        assert BigNum(result).to_int() == big - small

    def test_sub_words_borrow(self):
        _, borrow = bn_sub_words([0], [1])
        assert borrow == 1

    def test_sub_part_words_lengths(self):
        result, borrow = bn_sub_part_words([5, 5, 5], [1], cl=1, dl=2)
        assert len(result) == 3 and borrow == 0

    @given(st.integers(min_value=0, max_value=2**512), st.integers(min_value=0, max_value=2**512))
    def test_mul_normal(self, a, b):
        assert BigNum(bn_mul_normal(limbs_of(a), limbs_of(b))).to_int() == a * b


class TestKaratsuba:
    @given(st.integers(min_value=0, max_value=2**1024), st.integers(min_value=0, max_value=2**1024))
    @settings(max_examples=60)
    def test_matches_int_multiplication(self, a, b):
        assert BigNum.from_int(a).mul(BigNum.from_int(b)).to_int() == a * b

    def test_recursion_structure_two_subs_per_node(self):
        class Counter(BnEnv):
            def __init__(self):
                self.subs = 0
                self.nodes = 0

            def sub_part_words(self, a, b, cl, dl):
                self.subs += 1
                return bn_sub_part_words(a, b, cl, dl)

            def mul_recursive(self, a, b, n2):
                if n2 > KARATSUBA_THRESHOLD:
                    self.nodes += 1
                return bn_mul_recursive(a, b, n2, self)

        env = Counter()
        a = (1 << 511) - 12345
        b = (1 << 510) + 99999
        BigNum.from_int(a).mul(BigNum.from_int(b), env)
        # The paper's pattern: bn_sub_part_words is called exactly twice per
        # Karatsuba node (the paired successive calls of §5.2.3).
        assert env.subs == 2 * env.nodes > 0

    def test_small_inputs_skip_karatsuba(self):
        class Boom(BnEnv):
            def sub_part_words(self, *args):
                raise AssertionError("Karatsuba used for small input")

        small = BigNum.from_int(123456)
        assert small.mul(small, Boom()).to_int() == 123456**2


class TestBigNum:
    def test_from_to_int_roundtrip(self):
        for value in (0, 1, 2**32 - 1, 2**32, 2**500 + 17):
            assert BigNum.from_int(value).to_int() == value

    def test_from_bytes(self):
        assert BigNum.from_bytes(b"\x01\x00").to_int() == 256

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BigNum.from_int(-1)

    @given(st.integers(min_value=0, max_value=2**256), st.integers(min_value=0, max_value=2**256))
    def test_add_sub_roundtrip(self, a, b):
        total = BigNum.from_int(a).add(BigNum.from_int(b))
        assert total.sub(BigNum.from_int(b)).to_int() == a

    def test_sub_underflow_rejected(self):
        with pytest.raises(ValueError):
            BigNum.from_int(1).sub(BigNum.from_int(2))

    @given(
        st.integers(min_value=2, max_value=2**128),
        st.integers(min_value=0, max_value=2**64),
        st.integers(min_value=3, max_value=2**128),
    )
    @settings(max_examples=30)
    def test_mod_exp_matches_pow(self, base, exponent, modulus):
        got = BigNum.from_int(base).mod_exp(
            BigNum.from_int(exponent), BigNum.from_int(modulus)
        )
        assert got.to_int() == pow(base, exponent, modulus)

    def test_mod_exp_zero_modulus(self):
        with pytest.raises(ZeroDivisionError):
            BigNum.from_int(2).mod_exp(BigNum.from_int(2), BigNum())

    def test_equality_and_hash(self):
        assert BigNum.from_int(42) == BigNum.from_int(42)
        assert hash(BigNum.from_int(42)) == hash(BigNum.from_int(42))
        assert BigNum.from_int(1) != BigNum.from_int(2)

    def test_normalisation_strips_leading_zeros(self):
        assert BigNum([5, 0, 0]).limbs == [5]
        assert BigNum([0]).is_zero()


def _kat_operands():
    """Seeded limb vectors covering the primitives' edge cases: zero and
    all-ones limbs, unequal lengths, and carries/borrows that ripple
    through every limb."""
    import random

    rng = random.Random(2024)
    ones = 0xFFFFFFFF
    pairs = []
    for n in (1, 2, 3, 4, 5, 8, 16, 17, 32):
        top = [0] * (n - 1)
        pairs += [
            ([0] * n, [0] * n),
            ([ones] * n, [ones] * n),
            ([ones] * n, [1] + top),  # the add carry ripples to the top
            (top + [1], [1] + top),  # the subtract borrow ripples to the top
            ([0] * n, [ones] * n),
        ]
        for _ in range(4):
            a = [rng.choice((0, ones, rng.getrandbits(32))) for _ in range(n)]
            b = [rng.choice((0, ones, rng.getrandbits(32))) for _ in range(n)]
            pairs.append((a, b))
        m = rng.randrange(0, 2 * n + 2)
        pairs.append(([rng.getrandbits(32) for _ in range(n)], [ones] * m))
    return pairs


def _value(limbs):
    return sum(limb << (32 * i) for i, limb in enumerate(limbs))


def _fit(limbs, n):
    return (limbs + [0] * n)[:n]


def _limb_kat_digest():
    """sha256 over every primitive's output on the KAT operands, each
    output checked against plain int arithmetic on the way."""
    import hashlib

    h = hashlib.sha256()

    def pin(*values):
        h.update(repr(values).encode())

    for a, b in _kat_operands():
        n = max(len(a), len(b))
        modulus = 1 << (32 * n)
        result, carry = bn_add_words(a, b)
        assert len(result) == n
        assert _value(result) + (carry << (32 * n)) == _value(a) + _value(b)
        pin("add", result, carry)
        for x, y in ((a, b), (b, a)):
            result, borrow = bn_sub_words(x, y)
            assert len(result) == n
            assert _value(result) == (_value(x) - _value(y)) % modulus
            assert borrow == int(_value(x) < _value(y))
            pin("sub", result, borrow)
        for cl, dl in ((len(a), 0), (min(len(a), len(b)), len(a) - len(b)), (1, -2)):
            total = cl + abs(dl)
            x, y = _fit(a, total), _fit(b, total)
            result, borrow = bn_sub_part_words(a, b, cl, dl)
            assert len(result) == total
            assert _value(result) == (_value(x) - _value(y)) % (1 << (32 * total))
            assert borrow == int(_value(x) < _value(y))
            pin("sub_part", result, borrow)
        product = bn_mul_normal(a, b)
        assert len(product) == len(a) + len(b)
        assert _value(product) == _value(a) * _value(b)
        pin("mul_normal", product)
        for n2 in (4, 8, 16, 32):
            if n > n2:
                continue
            product = bn_mul_recursive(a, b, n2)
            assert len(product) == 2 * n2
            assert _value(product) == _value(_fit(a, n2)) * _value(_fit(b, n2))
            pin("mul_recursive", n2, product)
    return h.hexdigest()


# Computed from the loop-per-limb primitives at e5fbb6d.
LIMB_KAT_DIGEST = "af59a011cd00d5e8fb9d5399b7f99e9e391d713ade524b7aebbdb3b026a18945"


def test_limb_primitives_known_answer():
    """The limb primitives feed every recorded glamdring trace: their
    outputs (limb lists and carries, types included) stay pinned."""
    assert _limb_kat_digest() == LIMB_KAT_DIGEST
