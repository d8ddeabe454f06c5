"""SHA-256 over :mod:`hashlib`.

The workloads hash certificates with it (the Glamdring signer), seed the
``stream_xor`` keystream and derive the load generator's packet nonces.
Virtual time is charged separately by
:func:`repro.crypto.aes.sha256_cost_ns`, so the host implementation moves
no simulated number; the test suite checks the FIPS 180-4 vectors.
"""

from __future__ import annotations

import hashlib

# Incremental hasher with the hashlib interface (update/digest/copy).
Sha256 = hashlib.sha256


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256."""
    return hashlib.sha256(data).digest()
