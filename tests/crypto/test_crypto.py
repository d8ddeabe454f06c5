"""From-scratch crypto vs standard vectors and the stdlib."""

import hashlib
import hmac as std_hmac

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aes import Aes128, aes128_ctr, aes_cost_ns, expand_key
from repro.crypto.hmac import hkdf_like, hmac_sha256, verify_hmac_sha256
from repro.crypto.sha256 import Sha256, sha256
from repro.crypto.stream import stream_cost_ns, stream_xor


class TestSha256:
    # FIPS 180-4 test vectors.
    VECTORS = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ]

    @pytest.mark.parametrize("message,expected", VECTORS)
    def test_fips_vectors(self, message, expected):
        assert sha256(message).hex() == expected

    def test_million_a(self):
        h = Sha256()
        for _ in range(1000):
            h.update(b"a" * 1000)
        assert (
            h.hexdigest()
            == "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )

    @given(st.binary(max_size=2048))
    def test_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @given(st.lists(st.binary(max_size=200), max_size=10))
    def test_incremental_equals_oneshot(self, chunks):
        h = Sha256()
        for chunk in chunks:
            h.update(chunk)
        assert h.digest() == sha256(b"".join(chunks))

    def test_copy_is_independent(self):
        h = Sha256(b"pre")
        clone = h.copy()
        h.update(b"more")
        assert clone.digest() == sha256(b"pre")

    def test_digest_does_not_consume(self):
        h = Sha256(b"x")
        assert h.digest() == h.digest()


class TestHmac:
    def test_rfc4231_vector(self):
        key = b"\x0b" * 20
        assert (
            hmac_sha256(key, b"Hi There").hex()
            == "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    @given(st.binary(max_size=200), st.binary(max_size=500))
    def test_matches_stdlib(self, key, message):
        assert hmac_sha256(key, message) == std_hmac.new(
            key, message, hashlib.sha256
        ).digest()

    def test_verify_accepts_and_rejects(self):
        tag = hmac_sha256(b"k", b"m")
        assert verify_hmac_sha256(b"k", b"m", tag)
        assert not verify_hmac_sha256(b"k", b"m", tag[:-1] + b"\x00")
        assert not verify_hmac_sha256(b"k", b"m", tag[:-1])

    def test_hkdf_like_lengths_and_determinism(self):
        a = hkdf_like(b"key", b"label", 48)
        b = hkdf_like(b"key", b"label", 48)
        assert a == b and len(a) == 48
        assert hkdf_like(b"key", b"other", 48) != a
        assert hkdf_like(b"key", b"label", 16) == a[:16]


class TestAes:
    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert (
            Aes128(key).encrypt_block(plaintext).hex()
            == "3925841d02dc09fbdc118597196a0b32"
        )

    def test_nist_ecb_vector(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        block = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert (
            Aes128(key).encrypt_block(block).hex()
            == "3ad77bb40d7a3660a89ecaf32466ef97"
        )

    def test_key_schedule_length(self):
        keys = expand_key(b"\x00" * 16)
        assert len(keys) == 11 and all(len(k) == 16 for k in keys)

    def test_bad_key_and_block_sizes(self):
        with pytest.raises(ValueError):
            Aes128(b"short")
        with pytest.raises(ValueError):
            Aes128(b"\x00" * 16).encrypt_block(b"short")
        with pytest.raises(ValueError):
            aes128_ctr(b"\x00" * 16, b"\x00" * 8, b"data")

    @given(st.binary(max_size=300))
    def test_ctr_roundtrip(self, data):
        key, nonce = b"k" * 16, b"n" * 12
        assert aes128_ctr(key, nonce, aes128_ctr(key, nonce, data)) == data

    def test_ctr_nonce_separation(self):
        key = b"k" * 16
        data = b"x" * 64
        assert aes128_ctr(key, b"a" * 12, data) != aes128_ctr(key, b"b" * 12, data)

    def test_cost_model_monotonic(self):
        assert aes_cost_ns(4096) > aes_cost_ns(64) > 0


class TestStreamCipher:
    @given(st.binary(max_size=600), st.binary(min_size=1, max_size=32), st.binary(max_size=16))
    def test_self_inverse(self, data, key, nonce):
        assert stream_xor(key, nonce, stream_xor(key, nonce, data)) == data

    def test_known_answer(self):
        # The keystream is part of every pinned cluster and chaos digest;
        # this pins it directly, across lengths that straddle word
        # boundaries and both empty and long keys and nonces.
        h = hashlib.sha256()
        for n in range(130):
            data = bytes((i * 7 + n) & 0xFF for i in range(n))
            for key, nonce in (
                (b"", b""),
                (b"k" * 32, b"nonce123"),
                (bytes(range(n % 41)), bytes(range(n % 13))),
            ):
                h.update(stream_xor(key, nonce, data))
        assert (
            h.hexdigest()
            == "89ffd9c882c8de6d7b7593615c1727fce04658a52442b8c35c2782135fa38fde"
        )

    def test_key_and_nonce_matter(self):
        data = b"payload" * 10
        a = stream_xor(b"k1", b"n", data)
        assert a != stream_xor(b"k2", b"n", data)
        assert a != stream_xor(b"k1", b"m", data)
        assert a != data

    def test_cost_model(self):
        assert stream_cost_ns(1024) > stream_cost_ns(8) > 0
