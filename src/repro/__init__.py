"""sgx-perf reproduction.

A production-quality reproduction of *sgx-perf: A Performance Analysis Tool
for Intel SGX Enclaves* (Weichbrodt, Aublin, Kapitza — Middleware 2018) on
top of a deterministic, virtual-time SGX simulation substrate.

Packages:

* :mod:`repro.sim` — virtual clock, deterministic scheduler, loader, OS.
* :mod:`repro.sgx` — SGX hardware model (EPC, transitions, AEX, paging).
* :mod:`repro.sdk` — Intel SGX SDK analogue (EDL, URTS, TRTS, sync).
* :mod:`repro.perf` — the paper's contribution: logger, working set
  estimator, analyser.
* :mod:`repro.crypto` — from-scratch crypto used by the workloads.
* :mod:`repro.workloads` — the four evaluated applications.
* :mod:`repro.bench` — experiment harness regenerating every table/figure.

A package's ``__init__`` imports nothing: each name is imported from the
module that defines it, so importing one module loads only what that
module needs (``sgxperf`` loads no simulator to parse its arguments).
"""

__version__ = "1.0.0"
