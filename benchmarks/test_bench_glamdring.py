"""Figure 6 (right) + §5.2.3 — Glamdring-partitioned LibreSSL signing.

Paper: native 145 signs/s vs 33.88 enclavised (≈0.23×); moving
``bn_mul_recursive`` inside yields 2.16× (2.66× under Spectre, 2.87×
under L1TF); ``bn_sub_part_words`` accounts for 99.5 % of 6.6 M ecalls
with a ≈3 µs mean, i.e. basically the transition time.
"""

from conftest import run_once

from repro.perf.logger import AexMode, EventLogger
from repro.sgx.constants import PatchLevel
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.glamdring.signer import (
    GlamdringSigner,
    SignerBuild,
    make_certificate,
    run_signing_benchmark,
)


def _run_levels(signs: int):
    rates = {}
    for patch in (PatchLevel.BASELINE, PatchLevel.SPECTRE, PatchLevel.L1TF):
        for build in (SignerBuild.NATIVE, SignerBuild.PARTITIONED, SignerBuild.OPTIMIZED):
            if build is SignerBuild.NATIVE and patch is not PatchLevel.BASELINE:
                rates[(patch, build)] = rates[(PatchLevel.BASELINE, build)]
                continue
            process = SimProcess(seed=0)
            device = SgxDevice(process.sim, patch_level=patch)
            result = run_signing_benchmark(build, signs=signs, process=process, device=device)
            rates[(patch, build)] = result.signs_per_second
    return rates


def test_signing_speedups(benchmark):
    rates = run_once(benchmark, _run_levels, 4)
    native = rates[(PatchLevel.BASELINE, SignerBuild.NATIVE)]
    part = rates[(PatchLevel.BASELINE, SignerBuild.PARTITIONED)]
    print()
    print(f"native:      {native:6.1f} signs/s (paper 145)")
    print(f"partitioned: {part:6.1f} signs/s (paper 33.88, 0.23x)")
    speedups = {}
    for patch in (PatchLevel.BASELINE, PatchLevel.SPECTRE, PatchLevel.L1TF):
        speedup = (
            rates[(patch, SignerBuild.OPTIMIZED)]
            / rates[(patch, SignerBuild.PARTITIONED)]
        )
        speedups[patch] = speedup
        print(f"speed-up @ {patch.value:9}: {speedup:.2f}x")
    # Shape: native ~5x the enclave build; optimisation >2x; speed-up grows
    # with transition cost (paper: 2.16 -> 2.66 -> 2.87).
    assert 100 <= native <= 200
    assert 0.15 <= part / native <= 0.30
    assert 1.9 <= speedups[PatchLevel.BASELINE] <= 2.9
    assert speedups[PatchLevel.SPECTRE] > speedups[PatchLevel.BASELINE]
    assert speedups[PatchLevel.L1TF] > speedups[PatchLevel.SPECTRE]


def test_sub_part_words_dominates(benchmark):
    def traced_run():
        process = SimProcess(seed=0)
        device = SgxDevice(process.sim)
        signer = GlamdringSigner(process, device, SignerBuild.PARTITIONED)
        logger = EventLogger(process, signer.urts, aex_mode=AexMode.OFF, trace_paging=False)
        logger.install()
        for serial in range(2):
            signer.sign(make_certificate(serial))
        logger.uninstall()
        return logger.finalize()

    db = run_once(benchmark, traced_run)
    ecalls = db.calls(kind="ecall")
    subs = [c for c in ecalls if c.name == "ecall_bn_sub_part_words"]
    share = len(subs) / len(ecalls)
    mean_us = sum(c.duration_ns for c in subs) / len(subs) / 1000.0
    per_sign = len(subs) / 2
    print()
    print(
        f"bn_sub_part_words: {share:.1%} of ecalls (paper 99.5%), "
        f"mean {mean_us:.1f} us (paper ~3 us), {per_sign:.0f} calls/sign (paper ~6.5k)"
    )
    assert share > 0.97
    assert 2.0 <= mean_us <= 6.5  # "basically the transition time"
    assert 5_000 <= per_sign <= 8_000
