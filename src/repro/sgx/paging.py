"""The (simulated) kernel SGX driver.

Enclave creation is privileged (paper §2.1), so it lives here: the driver
builds enclaves page by page (EADD/EEXTEND) and services EPC page faults,
evicting victims (EWB) and loading pages back (ELDU).

The driver exposes *tracepoints* on its page-in/page-out functions — the
``kprobe`` attachment points sgx-perf's logger uses to observe paging
without any cooperation from the application (paper §4.1.5).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sgx import constants as c
from repro.sgx.cpu import SgxCpu
from repro.sgx.enclave import Enclave, EnclaveConfig, Page, PageType
from repro.sgx.epc import Epc
from repro.sim.kernel import Simulation

# EADD + EEXTEND for one page during enclave build.
EADD_PAGE_NS = 2_800
# SGX v2 EDMM: EAUG (kernel adds a pending page) per page; the enclave's
# EACCEPT is charged in-enclave by the TRTS.
EAUG_PAGE_NS = 2_200

KPROBE_EWB = "sgx_ewb"
KPROBE_ELDU = "sgx_eldu"

PagingCallback = Callable[[int, int, int, str], None]
"""Tracepoint callback: (timestamp_ns, enclave_id, vaddr, direction)."""

# One failed-and-retried EWB/ELDU round: version-array or MAC check fails
# transiently and the driver re-issues the instruction.
TRANSIENT_RETRY_NS = 1_400


class SgxDriver:
    """Kernel module: enclave lifecycle and EPC paging."""

    def __init__(self, sim: Simulation, cpu: SgxCpu, epc: Optional[Epc] = None) -> None:
        self.sim = sim
        self.cpu = cpu
        self.epc = epc or Epc()
        self.enclaves: dict[int, Enclave] = {}
        self._next_enclave_id = 1
        self._kprobes: dict[str, list[PagingCallback]] = {
            KPROBE_EWB: [],
            KPROBE_ELDU: [],
        }
        self.stats = {"page_in": 0, "page_out": 0, "faults": 0}
        # Fault-injection hook (repro.faults): consulted on every page
        # crossing when set.  ``None`` keeps the paths byte-identical to
        # the fault-free driver.
        self._fault_hook: Optional[Callable[[str], None]] = None

    def set_fault_hook(self, hook: Optional[Callable[[str], None]]) -> None:
        """Install (or clear) the paging fault-injection hook."""
        self._fault_hook = hook

    # -- kprobes -----------------------------------------------------------

    def attach_kprobe(self, function: str, callback: PagingCallback) -> None:
        """Attach a callback to a driver function, like ``kprobe`` would."""
        if function not in self._kprobes:
            raise ValueError(f"no such driver function: {function}")
        self._kprobes[function].append(callback)

    def detach_kprobe(self, function: str, callback: PagingCallback) -> None:
        """Remove a previously attached kprobe callback."""
        self._kprobes[function].remove(callback)

    def _fire(self, function: str, enclave: Enclave, page: Page, direction: str) -> None:
        for callback in self._kprobes[function]:
            callback(self.sim.now_ns, enclave.enclave_id, enclave.vaddr_of(page.index), direction)

    # -- enclave lifecycle ---------------------------------------------------

    def create_enclave(self, config: EnclaveConfig, code_identity: bytes = b"") -> Enclave:
        """Build an enclave: ECREATE, then EADD+EEXTEND every backed page.

        Guard pages are virtual-only (no EPC frame).  If the EPC fills up
        during the build, resident pages of *any* enclave get evicted —
        enclave creation itself can thrash a loaded machine (§3.5).
        """
        enclave = Enclave(self._next_enclave_id, config, code_identity)
        self._next_enclave_id += 1
        self.enclaves[enclave.enclave_id] = enclave
        for page in enclave.pages:
            if page.page_type is PageType.GUARD:
                continue
            if page.page_type is PageType.PADDING and config.sgx2_edmm:
                # SGX v2: the enclave is created small; reserved pages are
                # committed on demand via EAUG (see augment_heap).
                continue
            self.sim.compute(EADD_PAGE_NS)
            self._make_room(enclave)
            self.epc.insert(page)
            if page.page_type is PageType.SECS:
                self.epc.pin(page)
        return enclave

    def augment_heap(self, enclave: Enclave, npages: int) -> list[Page]:
        """SGX v2 EDMM: commit ``npages`` additional heap pages (EAUG).

        The enclave-side EACCEPT is the caller's (TRTS's) to charge.
        """
        pages = enclave.grow_heap(npages)
        for page in pages:
            self.sim.compute(EAUG_PAGE_NS)
            self._make_room(enclave)
            if not page.resident:
                self.epc.insert(page)
            self.stats["eaug"] = self.stats.get("eaug", 0) + 1
        return pages

    def destroy_enclave(self, enclave: Enclave) -> None:
        """Tear an enclave down, releasing all its EPC frames."""
        for page in enclave.pages:
            if page.resident:
                self.epc.unpin(page)
                self.epc.remove(page)
        enclave.destroyed = True
        self.enclaves.pop(enclave.enclave_id, None)

    def invalidate_enclave(self, enclave: Enclave) -> None:
        """Mark an enclave lost (power-transition model).

        EPC contents do not survive a power transition: every resident
        frame is released and the enclave is flagged so the next EENTER
        fails with ``SGX_ERROR_ENCLAVE_LOST``.  The enclave stays
        registered — the application still has to destroy and re-create it,
        exactly as with the real SDK.
        """
        for page in enclave.pages:
            if page.resident:
                self.epc.unpin(page)
                self.epc.remove(page)
        enclave.lost = True

    # -- paging ---------------------------------------------------------------

    def _make_room(self, for_enclave: Enclave) -> None:
        while self.epc.is_full:
            victim = self.epc.choose_victim()
            self._page_out(victim)

    def _page_out(self, page: Page) -> None:
        owner = self.enclaves[page.enclave_id]
        if self._fault_hook is not None:
            self._fault_hook("page_out")
        self.sim.compute(self.sim.rng.jitter_ns("sgx:ewb", c.EWB_PAGE_NS))
        if not page.resident:
            # The EWB charge yielded the turn and another thread (or an
            # enclave invalidation) evicted this frame meanwhile.
            return
        self.epc.remove(page)
        self.stats["page_out"] += 1
        self._fire(KPROBE_EWB, owner, page, "page_out")

    def load_page(self, page: Page) -> None:
        """Service a fault on a non-resident page: evict if needed, ELDU it in."""
        if page.resident:
            return
        owner = self.enclaves[page.enclave_id]
        self.stats["faults"] += 1
        self._make_room(owner)
        if self._fault_hook is not None:
            self._fault_hook("page_in")
        self.sim.compute(self.sim.rng.jitter_ns("sgx:eldu", c.ELDU_PAGE_NS))
        if page.resident:
            # The ELDU charge yielded the turn and another thread faulting
            # on the same page completed its load first.
            return
        # The ELDU charge also yields to pressure injectors: a squeeze
        # window may have shrunk the pool meanwhile, so room has to be
        # re-made before the insert (a no-op when nothing changed).
        self._make_room(owner)
        if page.resident:
            # Room-making evicts (and so yields) too: under heavy
            # contention a concurrent faulter can finish loading this very
            # page while we were still freeing a frame for it.
            return
        self.epc.insert(page)
        self.stats["page_in"] += 1
        self._fire(KPROBE_ELDU, owner, page, "page_in")

    def enclave_for_vaddr(self, vaddr: int) -> Optional[Enclave]:
        """Find the enclave whose address range contains ``vaddr``."""
        for enclave in self.enclaves.values():
            if enclave.contains(vaddr):
                return enclave
        return None
