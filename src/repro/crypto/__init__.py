"""Cryptography used by the workloads, paired with a virtual-time cost model.

SHA-256 and HMAC-SHA256 wrap the standard library;
:mod:`repro.crypto.stream` is a keyed xorshift stand-in for AES-CTR that
encrypts the workloads' payloads; :mod:`repro.crypto.aes` is a
from-scratch AES-128 that only the test suite runs.  The workloads really
hash and encrypt their data and charge virtual time for it through
``sha256_cost_ns``, ``aes_cost_ns`` and ``stream_cost_ns``, so the host
implementation moves no simulated number.
"""

from repro.crypto.aes import (
    AES_NS_PER_BYTE,
    Aes128,
    SHA256_NS_PER_BYTE,
    aes128_ctr,
    aes_cost_ns,
    sha256_cost_ns,
)
from repro.crypto.hmac import hkdf_like, hmac_sha256, verify_hmac_sha256
from repro.crypto.sha256 import Sha256, sha256

__all__ = [
    "AES_NS_PER_BYTE",
    "Aes128",
    "SHA256_NS_PER_BYTE",
    "Sha256",
    "aes128_ctr",
    "aes_cost_ns",
    "hkdf_like",
    "hmac_sha256",
    "sha256",
    "sha256_cost_ns",
    "verify_hmac_sha256",
]
