"""Deterministic fault injection for the SGX model (``repro.faults``).

Seeded, virtual-clock-scheduled fault campaigns: enclave loss, transient
EPC faults, ocall exceptions/delays, TCS exhaustion, and network chaos on
the simulated serving path — plus the recovery machinery they exercise
(:class:`repro.sdk.resilience.ResilientEnclave`, workload-level retry and
circuit breaking in :mod:`repro.workloads.serving`, trace salvage in
:mod:`repro.perf`) and the virtual-time hang watchdog
(:class:`repro.faults.watchdog.HangWatchdog`).

The re-exports below resolve on first use (PEP 562), so importing one
module of the package (``repro.faults.plan``, ``repro.faults.netcampaign``)
loads neither the injectors nor the watchdog.
"""

from __future__ import annotations

import importlib

# Public name -> the module that defines it.
_EXPORTS = {
    "EnclaveLossPlan": "repro.faults.plan",
    "EpcSqueezeWindow": "repro.faults.pressure",
    "FaultInjector": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
    "HangDetection": "repro.faults.watchdog",
    "HangWatchdog": "repro.faults.watchdog",
    "INJECT_EPC": "repro.faultrows",
    "INJECT_EPC_RELEASE": "repro.faultrows",
    "INJECT_EPC_SQUEEZE": "repro.faultrows",
    "INJECT_LOSS": "repro.faultrows",
    "INJECT_NET_DELAY": "repro.faultrows",
    "INJECT_NET_PARTITION": "repro.faultrows",
    "INJECT_NET_RESET": "repro.faultrows",
    "INJECT_NET_SHORT_WRITE": "repro.faultrows",
    "INJECT_OCALL_DELAY": "repro.faultrows",
    "INJECT_OCALL_ERROR": "repro.faultrows",
    "INJECT_STRESSOR_START": "repro.faultrows",
    "INJECT_STRESSOR_STOP": "repro.faultrows",
    "INJECT_TCS": "repro.faultrows",
    "InjectedFault": "repro.faults.injector",
    "NetworkChaosPlan": "repro.faults.plan",
    "OcallFaultPlan": "repro.faults.plan",
    "PressureInjector": "repro.faults.pressure",
    "PressurePlan": "repro.faults.pressure",
    "StressorTenantPlan": "repro.faults.pressure",
    "TcsExhaustionPlan": "repro.faults.plan",
    "TransientEpcPlan": "repro.faults.plan",
    "WATCHDOG_DEADLOCK": "repro.faultrows",
    "WATCHDOG_ECALL_TIMEOUT": "repro.faultrows",
    "WATCHDOG_LOST_WAKEUP": "repro.faultrows",
    "WatchdogHangError": "repro.faults.watchdog",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value
