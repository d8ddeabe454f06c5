"""Cryptography used by the workloads, paired with a virtual-time cost model.

SHA-256 and HMAC-SHA256 wrap the standard library;
:mod:`repro.crypto.stream` is a keyed xorshift stand-in for AES-CTR that
encrypts the workloads' payloads; :mod:`repro.crypto.aes` is a
from-scratch AES-128 that only the test suite runs.  The workloads really
hash and encrypt their data and charge virtual time for it through
``sha256_cost_ns``, ``aes_cost_ns`` and ``stream_cost_ns``, so the host
implementation moves no simulated number.
"""
