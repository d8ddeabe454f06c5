"""HMAC-SHA256 (RFC 2104) over the standard :mod:`hmac`, plus a key derivation."""

from __future__ import annotations

import hmac


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Compute HMAC-SHA256 of ``message`` under ``key``."""
    return hmac.digest(key, message, "sha256")


def verify_hmac_sha256(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time verification of an HMAC tag."""
    return hmac.compare_digest(hmac_sha256(key, message), tag)


def hkdf_like(key: bytes, label: bytes, length: int = 32) -> bytes:
    """Simple HMAC-based key derivation (expand-only, HKDF-flavoured)."""
    output = b""
    counter = 1
    block = b""
    while len(output) < length:
        block = hmac_sha256(key, block + label + bytes([counter]))
        output += block
        counter += 1
    return output[:length]
