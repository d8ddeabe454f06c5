"""Fast keyed stream cipher used on simulator hot paths.

Workloads encrypt every payload: SecureKeeper requests and replies,
Talos records and self-paging blocks all go through :func:`stream_xor`,
under session keys derived by :func:`repro.crypto.hmac.hkdf_like`.
Running the from-scratch AES over that traffic would dominate *real*
(host) time without changing any simulated result, so they use this
xorshift-based keystream instead: keyed, deterministic, self-inverse, and
charged at AES-CTR's modelled cost (:func:`stream_cost_ns`) in virtual
time.

This is NOT a secure cipher and is not presented as one — it is a
cost-faithful stand-in.  Only the test suite runs the AES-128-CTR of
:mod:`repro.crypto.aes`; the workloads take just its cost functions.
"""

from __future__ import annotations

import struct

from repro.crypto.sha256 import sha256

_MASK = 0xFFFFFFFFFFFFFFFF


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` (self-inverse) under ``key``/``nonce``.

    The seed is derived via (real) SHA-256 so distinct keys and nonces
    yield unrelated keystreams.  The keystream is big-endian xorshift64
    words, cut to ``len(data)`` and XORed in one big-integer pass.
    """
    size = len(data)
    state = int.from_bytes(sha256(key + nonce)[:8], "big") or 0x9E3779B97F4A7C15
    words = []
    append = words.append
    for _ in range((size + 7) // 8):
        state ^= (state << 13) & _MASK
        state ^= state >> 7
        state ^= (state << 17) & _MASK
        append(state)
    keystream = struct.pack(f">{len(words)}Q", *words)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream[:size], "big")
    ).to_bytes(size, "big")


# Virtual cost: matches AES-CTR on the modelled CPU (see repro.crypto.aes).
STREAM_SETUP_NS = 300
STREAM_NS_PER_BYTE = 0.6


def stream_cost_ns(nbytes: int) -> int:
    """Virtual cost of one stream_xor pass over ``nbytes``."""
    return int(STREAM_SETUP_NS + STREAM_NS_PER_BYTE * nbytes)
