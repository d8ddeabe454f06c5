"""The SGX-capable CPU model.

An :class:`SgxCpu` knows the current microcode/SDK mitigation level and
exposes the virtual-time cost of every SGX instruction the simulator charges
for.  It is deliberately small: the simulator does not model caches or
pipelines, only the *event-level* costs sgx-perf observes.
"""

from __future__ import annotations

from repro.sgx import constants as c
from repro.sgx.constants import PatchLevel


class SgxCpu:
    """Instruction cost model for one mitigation level, fixed at construction."""

    def __init__(self, patch_level: PatchLevel = PatchLevel.BASELINE) -> None:
        if not isinstance(patch_level, PatchLevel):
            raise TypeError(f"expected PatchLevel, got {patch_level!r}")
        self._patch_level = patch_level
        # Looked up once: every transition and AEX reads one of these.
        self.eenter_ns = c.EENTER_NS[patch_level]  # EENTER (synchronous entry)
        self.eexit_ns = c.EEXIT_NS[patch_level]  # EEXIT (synchronous exit)
        self.eresume_ns = c.ERESUME_NS[patch_level]  # ERESUME (re-entry after an AEX)
        # Hardware cost of an asynchronous exit (SSA save + exit).
        self.aex_save_ns = c.AEX_SAVE_NS[patch_level]

    @property
    def patch_level(self) -> PatchLevel:
        """The microcode/SDK mitigation level."""
        return self._patch_level

    @property
    def transition_round_trip_ns(self) -> int:
        """EENTER + EEXIT: the §2.3.1 'one round-trip' number."""
        return self.eenter_ns + self.eexit_ns

    def copy_cost_ns(self, nbytes: int) -> int:
        """Cost of copying ``nbytes`` across the enclave boundary."""
        return int(nbytes * c.BOUNDARY_COPY_NS_PER_BYTE)

    def __repr__(self) -> str:
        return f"SgxCpu(patch_level={self.patch_level.value})"
