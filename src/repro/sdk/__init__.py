"""Intel SGX SDK analogue.

The programming model of the real SDK, reproduced shape-for-shape: EDL
interface descriptions, ``edger8r``-style generated glue, an untrusted
runtime exposing ``sgx_ecall`` and the patchable AEP, a trusted runtime
with ``sgx_ocall`` through the saved ocall table, and in-enclave
synchronisation primitives that sleep via ocalls.
"""
