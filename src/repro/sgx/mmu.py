"""The MMU permission layer in front of SGX's own checks.

Page permissions are checked twice: by the MMU (OS-controlled page tables)
and by SGX itself (fixed at enclave creation on SGX v1).  Because the MMU
check comes *first* and the OS may change it at runtime, stripping MMU
permissions turns every first access to a page into a catchable fault —
the mechanism behind sgx-perf's working set estimator (paper §4.2) and,
incidentally, behind controlled-channel attacks.

Faults are delivered as SIGSEGV to the owning process; a handler that
restores permissions and returns truthy lets the access retry.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.sgx import constants as c
from repro.sgx.enclave import Enclave, Page, Permission
from repro.sgx.events import PageFaultInfo
from repro.sgx.execution import EnclaveExecution
from repro.sim.process import SIGSEGV, SimProcess


class SgxPermissionError(RuntimeError):
    """An access violated the enclave's (immutable) SGX permissions."""


class Mmu:
    """Per-process page-permission checks and fault delivery."""

    MAX_FAULT_RETRIES = 4

    def __init__(self, process: SimProcess) -> None:
        self.process = process
        self.sim = process.sim

    def protect(self, pages: Iterable[Page], perms: Permission, charge: bool = True) -> int:
        """Set the MMU permissions on ``pages`` (an ``mprotect`` per extent).

        Returns the number of contiguous extents changed (each charged one
        ``mprotect`` syscall when ``charge`` is set).
        """
        perms = int(perms)
        extents = 0
        previous_index: Optional[int] = None
        for page in pages:
            page.os_perms = perms
            if previous_index is None or page.index != previous_index + 1:
                extents += 1
            previous_index = page.index
        if charge and extents:
            self.sim.compute(extents * c.MPROTECT_NS)
        return extents

    def access(
        self,
        enclave: Enclave,
        page: Page,
        write: bool = False,
        execution: Optional[EnclaveExecution] = None,
    ) -> None:
        """Perform one page access with full permission/residency semantics.

        Order of checks mirrors the hardware: MMU permissions first (faults
        are deliverable to user-space handlers and retried), then EPC
        residency (faulting pages in via the driver), then SGX's own
        permissions (violations are fatal: SGX v1 cannot relax them).
        """
        # Plain-int flag tests (pages hold their permissions as ints):
        # this is the hottest path in the simulator.
        needed = 2 if write else 1  # Permission.WRITE / Permission.READ
        retries = 0
        while not (page.os_perms & needed):
            if retries >= self.MAX_FAULT_RETRIES:
                raise SgxPermissionError(
                    f"fault loop on {page!r}: handler never restored permissions"
                )
            retries += 1
            self.sim.compute(c.MMU_FAULT_NS)
            info = PageFaultInfo(
                vaddr=enclave.vaddr_of(page.index),
                enclave_id=enclave.enclave_id,
                write=write,
            )
            self.process.deliver_signal(SIGSEGV, info)
        if not page.resident:
            if execution is not None:
                execution.touch(page, write)
            else:
                # Untrusted-side access (e.g. driver warming pages): plain
                # kernel fault path without enclave AEX mechanics.
                raise SgxPermissionError(
                    f"untrusted access to enclave page {page!r}"
                )
        if not (page.sgx_perms & needed):
            raise SgxPermissionError(
                f"SGX permissions deny {'write' if write else 'read'} on {page!r}"
            )
        page.accessed = True
