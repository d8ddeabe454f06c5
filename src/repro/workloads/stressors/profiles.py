"""Stressor profiles — the Stress-SGX-style pressure catalogue.

Each profile is a frozen mix of per-op pressure primitives:

* ``spin_ns``             — CPU-bound in-enclave compute (ecall spinner);
* ``walk_pages_per_op``   — EPC pages touched per op by the thrash walker,
  whose footprint is parameterised against the machine's usable EPC
  (:data:`repro.sgx.constants.EPC_USABLE_PAGES` by default) via
  ``footprint_fraction`` — above 1.0 every walk evicts (§3.3/§5.3);
* ``ocalls_per_op``       — ocall-storm I/O hammering (transition pressure);
* ``lock_rounds_per_op``  — futex/sync contention through the SDK mutex
  sleep-outside path (§3.4);
* ``threads``             — concurrent hammer threads.

Profiles are *sweep-composable*: ``scaled(intensity)`` produces the same
profile at a different pressure level, so ``--axis stressor=...`` and
``--axis intensity=...`` span a grid of scenarios from one catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class StressorProfile:
    """One seeded stressor recipe (all knobs per op unless noted)."""

    name: str
    description: str
    spin_ns: int = 0
    walk_pages_per_op: int = 0
    footprint_fraction: float = 0.0  # walker footprint vs EPC capacity
    ocalls_per_op: int = 0
    io_bytes: int = 0  # payload per storm ocall
    lock_rounds_per_op: int = 0
    hold_ns: int = 0  # critical-section length per lock round
    threads: int = 1
    heap_floor_pages: int = 8

    def scaled(self, intensity: float) -> "StressorProfile":
        """The same profile at ``intensity`` times the pressure.

        Per-op work and the walker footprint scale linearly; the thread
        count scales but never drops below one.
        """
        if intensity < 0:
            raise ValueError("stressor intensity must be non-negative")
        if intensity == 1.0:
            return self

        def ops(value: int) -> int:
            return int(round(value * intensity)) if value else 0

        return replace(
            self,
            spin_ns=ops(self.spin_ns),
            walk_pages_per_op=ops(self.walk_pages_per_op),
            footprint_fraction=self.footprint_fraction * intensity,
            ocalls_per_op=ops(self.ocalls_per_op),
            lock_rounds_per_op=ops(self.lock_rounds_per_op),
            threads=max(1, int(round(self.threads * intensity))),
        )

    def footprint_pages(self, epc_capacity_pages: int) -> int:
        """The walker's heap footprint for a given EPC size."""
        pages = int(epc_capacity_pages * self.footprint_fraction)
        return max(self.heap_floor_pages, pages)


PROFILES: dict[str, StressorProfile] = {
    profile.name: profile
    for profile in (
        StressorProfile(
            name="cpu-spin",
            description="CPU-bound ecall spinners (pure transition+compute load)",
            spin_ns=25_000,
            threads=2,
        ),
        StressorProfile(
            name="epc-thrash",
            description="page walker with a footprint above the usable EPC",
            spin_ns=400,
            walk_pages_per_op=96,
            footprint_fraction=1.25,
            threads=1,
        ),
        StressorProfile(
            name="ocall-storm",
            description="I/O hammer issuing bursts of write ocalls",
            spin_ns=600,
            ocalls_per_op=24,
            io_bytes=4096,
            threads=2,
        ),
        StressorProfile(
            name="futex-hammer",
            description="sync contention through the SDK sleep-outside mutex",
            spin_ns=300,
            lock_rounds_per_op=10,
            hold_ns=2_500,
            threads=4,
        ),
        StressorProfile(
            name="mixed",
            description="a blend of spin, walk, storm and lock pressure",
            spin_ns=6_000,
            walk_pages_per_op=24,
            footprint_fraction=0.5,
            ocalls_per_op=6,
            io_bytes=1024,
            lock_rounds_per_op=3,
            hold_ns=1_500,
            threads=2,
        ),
    )
}

STRESSOR_NAMES = tuple(sorted(PROFILES))

# Default EPC for standalone runs: small enough that an epc-thrash
# footprint (1.25x) stays tractable while behaving exactly like the
# full-size pool under pressure.
DEFAULT_EPC_PAGES = 2_048


def get_profile(name: str, intensity: float = 1.0) -> StressorProfile:
    """Look a profile up by name and scale it to ``intensity``."""
    try:
        profile = PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown stressor {name!r}; known: {', '.join(STRESSOR_NAMES)}"
        ) from None
    return profile.scaled(intensity)
