"""AES-128 from scratch (FIPS 197): ECB core and CTR mode, plus the cost model.

The workloads charge virtual time through :func:`aes_cost_ns` and
:func:`sha256_cost_ns` but encrypt their payloads with
:func:`repro.crypto.stream.stream_xor`; only the test suite runs the
cipher, against the FIPS 197 / NIST SP 800-38A vectors.
"""

from __future__ import annotations

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76"
    "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115"
    "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84"
    "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8"
    "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973"
    "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479"
    "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a"
    "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df"
    "8ca1890dbfe6426841992d0fb054bb16"
)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


# Precomputed multiply-by-2 and multiply-by-3 tables for MixColumns.
_MUL2 = bytes(_xtime(i) for i in range(256))
_MUL3 = bytes(_xtime(i) ^ i for i in range(256))


def expand_key(key: bytes) -> list[bytes]:
    """AES-128 key schedule: 11 round keys of 16 bytes."""
    if len(key) != 16:
        raise ValueError("AES-128 needs a 16-byte key")
    words = [key[i : i + 4] for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            rotated = temp[1:] + temp[:1]
            temp = bytes(_SBOX[b] for b in rotated)
            temp = bytes([temp[0] ^ _RCON[i // 4 - 1]]) + temp[1:]
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
    return [b"".join(words[i : i + 4]) for i in range(0, 44, 4)]


def _add_round_key(state: bytearray, round_key: bytes) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _sub_bytes(state: bytearray) -> None:
    for i in range(16):
        state[i] = _SBOX[state[i]]


# State is column-major: byte r + 4*c is row r, column c.
_SHIFT_SRC = tuple(
    ((r + 4 * ((c + r) % 4)), (r + 4 * c)) for r in range(4) for c in range(4)
)


def _shift_rows(state: bytearray) -> None:
    original = bytes(state)
    for src, dst in _SHIFT_SRC:
        state[dst] = original[src]


def _mix_columns(state: bytearray) -> None:
    for c in range(4):
        i = 4 * c
        a0, a1, a2, a3 = state[i], state[i + 1], state[i + 2], state[i + 3]
        state[i] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
        state[i + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
        state[i + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
        state[i + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]


class Aes128:
    """AES-128 block cipher (encryption direction only — CTR needs no more)."""

    block_size = 16

    def __init__(self, key: bytes) -> None:
        self._round_keys = expand_key(key)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = bytearray(block)
        _add_round_key(state, self._round_keys[0])
        for round_index in range(1, 10):
            _sub_bytes(state)
            _shift_rows(state)
            _mix_columns(state)
            _add_round_key(state, self._round_keys[round_index])
        _sub_bytes(state)
        _shift_rows(state)
        _add_round_key(state, self._round_keys[10])
        return bytes(state)


def aes128_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-128-CTR keystream XOR (encryption == decryption).

    ``nonce`` is 12 bytes; the low 4 bytes of the counter block count
    blocks, NIST-style.
    """
    if len(nonce) != 12:
        raise ValueError("CTR nonce must be 12 bytes")
    cipher = Aes128(key)
    out = bytearray(len(data))
    for block_index in range(0, (len(data) + 15) // 16):
        counter_block = nonce + (block_index + 1).to_bytes(4, "big")
        keystream = cipher.encrypt_block(counter_block)
        offset = block_index * 16
        chunk = data[offset : offset + 16]
        for i, byte in enumerate(chunk):
            out[offset + i] = byte ^ keystream[i]
    return bytes(out)


# Virtual-time cost model for the crypto the workloads charge.  AES-NI-era
# software AES runs at ~1-3 cycles/byte; SHA-256 at ~10 cycles/byte.
AES_NS_PER_BYTE = 0.6
AES_SETUP_NS = 300
SHA256_NS_PER_BYTE = 3.0
SHA256_SETUP_NS = 200


def aes_cost_ns(nbytes: int) -> int:
    """Virtual cost of AES-CTR over ``nbytes``."""
    return int(AES_SETUP_NS + AES_NS_PER_BYTE * nbytes)


def sha256_cost_ns(nbytes: int) -> int:
    """Virtual cost of SHA-256 over ``nbytes``."""
    return int(SHA256_SETUP_NS + SHA256_NS_PER_BYTE * nbytes)
