"""Enclave memory layout and in-enclave allocation.

An enclave consists of (paper §2.3.3): one metadata (SECS) page, code and
data pages, per-thread TCS/SSA/stack pages with guard pages, a heap, and
padding pages bringing the total size to a power of two (padding is part of
the measurement but never accessed — which is why the *working set* is much
smaller than the enclave size, §4.2).

Heap and stack sizes are fixed at build time through
:class:`EnclaveConfig` — exceeding them raises, reproducing the SDK's
"heap is not virtually infinite" behaviour.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.sgx import constants as c


class PageType(enum.Enum):
    """What an enclave page holds."""

    SECS = "secs"
    CODE = "code"
    DATA = "data"
    TCS = "tcs"
    SSA = "ssa"
    STACK = "stack"
    GUARD = "guard"
    HEAP = "heap"
    PADDING = "padding"


class Permission(enum.IntFlag):
    """Page permissions (used both by the MMU and by SGX's own checks)."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXECUTE = 4
    RW = READ | WRITE
    RX = READ | EXECUTE
    RWX = READ | WRITE | EXECUTE


# Stored on pages as plain ints: the MMU tests them on every access.
_DEFAULT_PERMS = {
    PageType.SECS: int(Permission.NONE),
    PageType.CODE: int(Permission.RX),
    PageType.DATA: int(Permission.RW),
    PageType.TCS: int(Permission.RW),
    PageType.SSA: int(Permission.RW),
    PageType.STACK: int(Permission.RW),
    PageType.GUARD: int(Permission.NONE),
    PageType.HEAP: int(Permission.RW),
    PageType.PADDING: int(Permission.NONE),
}


class Page:
    """One 4 KiB enclave page.

    ``sgx_perms`` and ``os_perms`` hold :class:`Permission` bits as plain
    ints.
    """

    __slots__ = (
        "enclave_id",
        "index",
        "page_type",
        "sgx_perms",
        "os_perms",
        "resident",
        "accessed",
        "epc_seq",
    )

    def __init__(self, enclave_id: int, index: int, page_type: PageType) -> None:
        self.enclave_id = enclave_id
        self.index = index
        self.page_type = page_type
        self.sgx_perms = _DEFAULT_PERMS[page_type]
        self.os_perms = _DEFAULT_PERMS[page_type]
        self.resident = False
        self.accessed = False
        self.epc_seq = 0  # eviction bookkeeping (set by the EPC)

    def __repr__(self) -> str:
        return (
            f"Page(enclave={self.enclave_id}, idx={self.index}, "
            f"type={self.page_type.value}, resident={self.resident})"
        )


@dataclass
class EnclaveConfig:
    """Build-time enclave configuration (the SDK's ``Enclave.config.xml``)."""

    name: str = "enclave"
    code_bytes: int = 512 * 1024
    data_bytes: int = 64 * 1024
    heap_bytes: int = 1 * 1024 * 1024
    stack_bytes: int = 256 * 1024  # per thread
    tcs_count: int = 4
    ssa_frames: int = 2  # SSA pages per thread
    debug: bool = False
    # SGX v2 EDMM (paper §2.3.3): "the enclave can be created small and as
    # soon as stack or heap are exhausted, new pages may be added
    # on-demand".  When set, heap exhaustion converts reserved (padding)
    # pages into heap via EAUG+EACCEPT instead of failing.
    sgx2_edmm: bool = False

    def page_count(self, nbytes: int) -> int:
        """Pages needed to hold ``nbytes``."""
        return max(1, -(-nbytes // c.PAGE_SIZE)) if nbytes > 0 else 0


@dataclass
class HeapAllocation:
    """A live allocation on the enclave heap."""

    offset: int
    size: int


class EnclaveOutOfMemory(MemoryError):
    """The enclave heap (fixed at build time) is exhausted."""


class Enclave:
    """A built enclave: its pages, threads' TCSs, heap, and measurement."""

    def __init__(
        self,
        enclave_id: int,
        config: EnclaveConfig,
        code_identity: bytes = b"",
    ) -> None:
        self.enclave_id = enclave_id
        self.config = config
        self.base_vaddr = c.ENCLAVE_BASE_VADDR + enclave_id * c.ENCLAVE_ALIGN
        self.pages: list[Page] = []
        self._tcs_indices: list[int] = []
        self._tcs_busy: list[bool] = []
        self._heap_start_page = 0
        self._heap_pages = 0
        self._heap_brk = 0  # bump pointer within the heap, bytes
        self._free_list: list[HeapAllocation] = []
        self._build_layout()
        self.code_pages = [p for p in self.pages if p.page_type is PageType.CODE]
        self.measurement = self._measure(code_identity)
        self.destroyed = False
        # Power-transition loss (SDK §"power transitions"): EPC contents do
        # not survive S3/S4 sleep.  Once set, every subsequent EENTER fails
        # with SGX_ERROR_ENCLAVE_LOST; the only recovery is destroy+recreate.
        self.lost = False

    # -- layout -------------------------------------------------------------

    def _add_pages(self, count: int, page_type: PageType) -> int:
        """Append ``count`` pages of ``page_type``; returns the first index."""
        first = len(self.pages)
        for i in range(count):
            self.pages.append(Page(self.enclave_id, first + i, page_type))
        return first

    def _build_layout(self) -> None:
        cfg = self.config
        self._add_pages(1, PageType.SECS)
        self._add_pages(cfg.page_count(cfg.code_bytes), PageType.CODE)
        self._add_pages(cfg.page_count(cfg.data_bytes), PageType.DATA)
        stack_pages = cfg.page_count(cfg.stack_bytes)
        for _ in range(cfg.tcs_count):
            tcs_index = self._add_pages(1, PageType.TCS)
            self._tcs_indices.append(tcs_index)
            self._tcs_busy.append(False)
            self._add_pages(cfg.ssa_frames, PageType.SSA)
            self._add_pages(1, PageType.GUARD)
            self._add_pages(stack_pages, PageType.STACK)
        self._add_pages(1, PageType.GUARD)
        self._heap_start_page = self._add_pages(
            cfg.page_count(cfg.heap_bytes), PageType.HEAP
        )
        self._heap_pages = cfg.page_count(cfg.heap_bytes)
        # Pad to the next power of two (enclave size must be 2^n, §4.2).
        total = len(self.pages)
        size = 1
        while size < total:
            size *= 2
        if size > total:
            self._add_pages(size - total, PageType.PADDING)

    def _measure(self, code_identity: bytes) -> bytes:
        """The enclave measurement: a hash over layout and code identity."""
        h = hashlib.sha256()
        h.update(code_identity)
        h.update(self.config.name.encode())
        for page in self.pages:
            h.update(bytes([list(PageType).index(page.page_type)]))
        return h.digest()

    # -- geometry ----------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Total enclave size including padding (a power of two)."""
        return len(self.pages) * c.PAGE_SIZE

    @property
    def size_pages(self) -> int:
        """Total page count including padding."""
        return len(self.pages)

    def vaddr_of(self, page_index: int) -> int:
        """Virtual address of a page by index."""
        return self.base_vaddr + page_index * c.PAGE_SIZE

    def page_at(self, vaddr: int) -> Page:
        """The page containing virtual address ``vaddr``."""
        index = (vaddr - self.base_vaddr) >> c.PAGE_SHIFT
        if not 0 <= index < len(self.pages):
            raise ValueError(f"vaddr {vaddr:#x} outside enclave {self.enclave_id}")
        return self.pages[index]

    def contains(self, vaddr: int) -> bool:
        """Whether ``vaddr`` falls inside this enclave's range."""
        return 0 <= (vaddr - self.base_vaddr) < self.size_bytes

    # -- TCS management -----------------------------------------------------

    def acquire_tcs(self) -> Optional[int]:
        """Claim a free TCS slot; ``None`` if all are busy.

        The TCS count bounds how many threads may execute inside the
        enclave concurrently (paper §2.1).
        """
        busy = self._tcs_busy
        try:
            slot = busy.index(False)
        except ValueError:
            return None
        busy[slot] = True
        return slot

    def release_tcs(self, slot: int) -> None:
        """Return a TCS slot to the free pool."""
        if not self._tcs_busy[slot]:
            raise ValueError(f"TCS slot {slot} is not busy")
        self._tcs_busy[slot] = False

    def tcs_page(self, slot: int) -> Page:
        """The TCS page backing slot ``slot``."""
        return self.pages[self._tcs_indices[slot]]

    def stack_pages(self, slot: int) -> list[Page]:
        """The stack pages of TCS slot ``slot``."""
        first = self._tcs_indices[slot]
        cfg = self.config
        start = first + 1 + cfg.ssa_frames + 1  # skip TCS, SSAs, guard
        return self.pages[start : start + cfg.page_count(cfg.stack_bytes)]

    # -- heap ---------------------------------------------------------------

    @property
    def heap_used_bytes(self) -> int:
        """Bytes currently allocated on the enclave heap."""
        freed = sum(a.size for a in self._free_list)
        return self._heap_brk - freed

    def malloc(self, nbytes: int) -> HeapAllocation:
        """Allocate ``nbytes`` from the fixed-size enclave heap.

        Raises :class:`EnclaveOutOfMemory` when the configured heap is
        exhausted — the failure mode §2.3.3 warns developers about.
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        aligned = (nbytes + 15) & ~15
        for i, hole in enumerate(self._free_list):
            if hole.size >= aligned:
                self._free_list.pop(i)
                if hole.size > aligned:
                    self._free_list.append(
                        HeapAllocation(hole.offset + aligned, hole.size - aligned)
                    )
                return HeapAllocation(hole.offset, aligned)
        heap_bytes = self._heap_pages * c.PAGE_SIZE
        if self._heap_brk + aligned > heap_bytes:
            raise EnclaveOutOfMemory(
                f"enclave {self.config.name!r}: heap exhausted "
                f"({self._heap_brk}+{aligned} > {heap_bytes})"
            )
        alloc = HeapAllocation(self._heap_brk, aligned)
        self._heap_brk += aligned
        return alloc

    def free(self, alloc: HeapAllocation) -> None:
        """Release an allocation back to the heap free list."""
        self._free_list.append(alloc)

    def grow_heap(self, npages: int) -> list[Page]:
        """SGX v2 EDMM: convert trailing reserved pages into heap pages.

        The enclave's power-of-two virtual range is fixed at creation;
        EAUG can only commit pages *within* it, so growth consumes the
        padding pages directly after the heap.  Returns the converted
        pages (non-resident until the driver EAUGs them in); raises
        :class:`EnclaveOutOfMemory` when the reserved range is exhausted.
        """
        if not self.config.sgx2_edmm:
            raise EnclaveOutOfMemory(
                f"enclave {self.config.name!r}: EDMM disabled (SGX v1 build)"
            )
        first_new = self._heap_start_page + self._heap_pages
        candidates = self.pages[first_new : first_new + npages]
        if len(candidates) < npages or any(
            p.page_type is not PageType.PADDING for p in candidates
        ):
            raise EnclaveOutOfMemory(
                f"enclave {self.config.name!r}: reserved range exhausted "
                f"(wanted {npages} more heap pages)"
            )
        for page in candidates:
            page.page_type = PageType.HEAP
            page.sgx_perms = _DEFAULT_PERMS[PageType.HEAP]
            page.os_perms = _DEFAULT_PERMS[PageType.HEAP]
        self._heap_pages += npages
        return candidates

    def heap_pages_for(self, alloc: HeapAllocation) -> list[Page]:
        """The heap pages an allocation spans."""
        return self.heap_pages(alloc.offset, alloc.size)

    def heap_pages(self, offset: int, size: int) -> list[Page]:
        """The heap pages ``size`` bytes at heap ``offset`` span."""
        first = self._heap_start_page + (offset >> c.PAGE_SHIFT)
        last = self._heap_start_page + ((offset + size - 1) >> c.PAGE_SHIFT)
        return self.pages[first : last + 1]

    def __repr__(self) -> str:
        return (
            f"Enclave(id={self.enclave_id}, name={self.config.name!r}, "
            f"pages={self.size_pages}, base={self.base_vaddr:#x})"
        )
