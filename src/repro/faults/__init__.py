"""Deterministic fault injection for the SGX model (``repro.faults``).

Seeded, virtual-clock-scheduled fault campaigns: enclave loss, transient
EPC faults, ocall exceptions/delays, TCS exhaustion, and network chaos on
the simulated serving path — plus the recovery machinery they exercise
(:class:`repro.sdk.resilience.ResilientEnclave`, workload-level retry and
circuit breaking in :mod:`repro.workloads.serving`, trace salvage in
:mod:`repro.perf`) and the virtual-time hang watchdog
(:class:`repro.faults.watchdog.HangWatchdog`).
"""
