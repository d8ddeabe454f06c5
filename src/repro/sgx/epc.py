"""The Enclave Page Cache.

A machine-wide pool of 128 MiB of protected memory of which ≈93 MiB are
usable for enclave pages (paper §2.1/§2.3.3); the rest holds integrity
metadata.  When the pool is full, loading another page requires evicting a
victim to untrusted memory (EWB), which the kernel driver pays for.

Victim selection uses a second-chance (clock) policy over the global
resident set — like the Linux SGX driver's LRU approximation — so pages an
enclave keeps touching tend to stay resident.

Pressure scenarios can *squeeze* the pool: reserving frames shrinks the
effective capacity without touching resident pages, so the next loads have
to evict — the same shape as a co-tenant enclave claiming frames or the
kernel reclaiming EPC for another VM.
"""

from __future__ import annotations

from collections import deque

from repro.sgx import constants as c
from repro.sgx.enclave import Page


class EpcFull(RuntimeError):
    """No room could be made in the EPC (all pages pinned, or over-squeezed).

    Carries the occupancy snapshot at raise time so callers can tell *how*
    full the pool was — a transient squeeze window reads very differently
    from a permanently over-committed working set.
    """

    def __init__(
        self,
        message: str,
        *,
        requested_pages: int = 1,
        resident_pages: int = -1,
        capacity_pages: int = -1,
        effective_capacity: int = -1,
        squeezed_pages: int = 0,
        pinned_pages: int = 0,
    ) -> None:
        super().__init__(message)
        self.requested_pages = requested_pages
        self.resident_pages = resident_pages
        self.capacity_pages = capacity_pages
        self.effective_capacity = effective_capacity
        self.squeezed_pages = squeezed_pages
        self.pinned_pages = pinned_pages

    def occupancy(self) -> dict:
        """The occupancy snapshot as a plain dict (for fault-row details)."""
        return {
            "requested_pages": self.requested_pages,
            "resident_pages": self.resident_pages,
            "capacity_pages": self.capacity_pages,
            "effective_capacity": self.effective_capacity,
            "squeezed_pages": self.squeezed_pages,
            "pinned_pages": self.pinned_pages,
        }


class Epc:
    """Resident-page accounting for the machine's EPC."""

    def __init__(self, capacity_pages: int = c.EPC_USABLE_PAGES) -> None:
        if capacity_pages <= 0:
            raise ValueError("EPC capacity must be positive")
        self.capacity_pages = capacity_pages
        self._fifo: deque[Page] = deque()
        self._resident_count = 0
        self._pinned: set[int] = set()  # id(page) of unevictable pages
        self._squeezed = 0
        self._high_water = 0
        self.squeeze_events = 0

    @property
    def resident_pages(self) -> int:
        """Number of pages currently resident."""
        return self._resident_count

    @property
    def squeezed_pages(self) -> int:
        """Frames reserved by an active pressure window (unusable for loads)."""
        return self._squeezed

    @property
    def effective_capacity(self) -> int:
        """Usable frames after any active squeeze."""
        return self.capacity_pages - self._squeezed

    @property
    def free_pages(self) -> int:
        """Number of free EPC page frames."""
        return max(0, self.effective_capacity - self._resident_count)

    @property
    def high_water_pages(self) -> int:
        """Peak resident-page count seen so far."""
        return self._high_water

    @property
    def is_full(self) -> bool:
        """Whether inserting a page would require an eviction."""
        return self._resident_count >= self.effective_capacity

    def squeeze(self, pages: int) -> None:
        """Reserve ``pages`` frames, shrinking the usable pool.

        Resident pages stay resident; the driver's make-room loop evicts on
        the next load instead.  At least one usable frame always remains so
        forward progress stays possible.
        """
        if pages < 0:
            raise ValueError("squeeze size must be non-negative")
        pages = min(pages, self.capacity_pages - 1)
        if pages != self._squeezed:
            self.squeeze_events += 1
        self._squeezed = pages

    def release_squeeze(self) -> None:
        """Return all squeezed frames to the pool."""
        self.squeeze(0)

    def occupancy(self) -> dict:
        """A snapshot of the pool's occupancy counters."""
        return {
            "resident_pages": self._resident_count,
            "capacity_pages": self.capacity_pages,
            "effective_capacity": self.effective_capacity,
            "squeezed_pages": self._squeezed,
            "pinned_pages": len(self._pinned),
            "free_pages": self.free_pages,
            "high_water_pages": self._high_water,
        }

    def _full_error(self, message: str, requested_pages: int = 1) -> EpcFull:
        return EpcFull(
            message,
            requested_pages=requested_pages,
            resident_pages=self._resident_count,
            capacity_pages=self.capacity_pages,
            effective_capacity=self.effective_capacity,
            squeezed_pages=self._squeezed,
            pinned_pages=len(self._pinned),
        )

    def pin(self, page: Page) -> None:
        """Mark a page unevictable (SECS and busy TCS pages)."""
        self._pinned.add(id(page))

    def unpin(self, page: Page) -> None:
        """Make a page evictable again."""
        self._pinned.discard(id(page))

    def insert(self, page: Page) -> None:
        """Account a page as resident.  The caller must have made room."""
        if page.resident:
            raise ValueError(f"{page!r} is already resident")
        if self.is_full:
            raise self._full_error("insert without prior eviction")
        page.resident = True
        page.accessed = False
        self._fifo.append(page)
        self._resident_count += 1
        if self._resident_count > self._high_water:
            self._high_water = self._resident_count

    def remove(self, page: Page) -> None:
        """Account a page as no longer resident (evicted or enclave torn down)."""
        if not page.resident:
            raise ValueError(f"{page!r} is not resident")
        page.resident = False
        self._resident_count -= 1
        # Lazy deletion: the stale deque entry is skipped during scans.

    def choose_victim(self) -> Page:
        """Pick the next eviction victim via the second-chance policy."""
        scanned = 0
        limit = 2 * len(self._fifo) + 1
        while self._fifo and scanned < limit:
            page = self._fifo.popleft()
            scanned += 1
            if not page.resident:
                continue  # stale entry left by remove()
            if id(page) in self._pinned:
                self._fifo.append(page)
                continue
            if page.accessed:
                page.accessed = False
                self._fifo.append(page)
                continue
            # Victim found; it stays out of the deque (remove() follows).
            return page
        raise self._full_error("all resident pages are pinned; cannot evict")

    def __repr__(self) -> str:
        if self._squeezed:
            return (
                f"Epc(resident={self._resident_count}/{self.effective_capacity}"
                f" squeezed={self._squeezed})"
            )
        return f"Epc(resident={self._resident_count}/{self.capacity_pages})"
