"""Stress-SGX-style stressors: seeded pressure workloads for the repro.

The catalogue (:mod:`profiles`) covers the regimes the paper shows
collapsing enclave performance — transition floods, EPC thrash above the
93 MiB usable pool, ocall storms and sync contention — as composable,
seeded profiles.  :mod:`app` hosts one profile in a real enclave on a
(possibly shared) device; :mod:`runner` runs isolated characterisation
sweeps (`sgxperf sweep stressor`); :class:`repro.faults.pressure
.PressureInjector` schedules the same apps as noisy neighbours inside
cluster nodes.
"""
