"""The page-table walker: Figure 2 of the paper as executable code.

Translation order on a load:

1. L1 dTLB, then L2 sTLB (then the 2 MiB dTLB) — hit ends translation.
2. On TLB miss, the walker finds the *deepest* paging-structure-cache
   hit (PDE, then PDPTE, then PML4E) and walks the remaining levels,
   fetching each page-table entry **through the data caches** — only a
   data-cache miss reaches DRAM.

PThammer's implicit-access primitive is the shortest red path: TLB miss
+ PDE-cache hit + data-cache miss on the L1PTE = exactly one DRAM read
of a kernel page-table address per touch of the target.
"""

from repro.errors import ReproError
from repro.mmu.paging_cache import PagingStructureCache
from repro.observe import NULL_TRACE, TLB_MISS as TLB_MISS_EVENT, WALK_FETCH
from repro.observe import TLB as TLB_COMPONENT, WALKER
from repro.mmu.pte import (
    pte_frame,
    pte_is_superpage,
    pte_present,
    pte_writable,
)
from repro.mmu.tlb import TLB_MISS, superpage_number_of
from repro.params import PAGE_SHIFT, PAGE_SIZE, SUPERPAGE_SIZE, table_index


class PageFault(ReproError):
    """Raised when a walk finds a non-present entry; the kernel handles it."""

    def __init__(self, vaddr, level, for_write):
        super().__init__("page fault at 0x%x (level %d)" % (vaddr, level))
        self.vaddr = vaddr
        self.level = level
        self.for_write = for_write


class WalkResult:
    """Outcome of one translation (latency plus evaluation metadata)."""

    __slots__ = ("paddr", "latency", "source", "fetches", "l1pte_paddr")

    def __init__(self, paddr, latency, source, fetches, l1pte_paddr):
        self.paddr = paddr
        self.latency = latency
        #: 'tlb_l1', 'tlb_l2', 'tlb_huge', or 'walk'.
        self.source = source
        #: [(level, cache level that served the PTE fetch), ...].
        self.fetches = fetches
        #: Physical address of the L1PTE consulted, or None.
        self.l1pte_paddr = l1pte_paddr


class PageTableWalker:
    """MMU translation front end: TLBs + paging-structure caches + walks."""

    def __init__(
        self, tlb, psc_config, physmem, phys_access, timings, frame_mask, metrics,
        trace=None,
    ):
        self.tlb = tlb
        #: Trace bus for structured events (docs/OBSERVABILITY.md).
        self._trace = trace if trace is not None else NULL_TRACE
        self.physmem = physmem
        #: Callable (paddr) -> (cache_level, latency); the machine's
        #: physical-access path, shared with ordinary data accesses.
        self.phys_access = phys_access
        self.timings = timings
        self.frame_mask = frame_mask
        #: Counter sink (``inc(name, amount=1)``): the machine's metrics
        #: registry, swapped for a batch-local one by ``access_many``.
        self.metrics = metrics
        self.pml4_cache = PagingStructureCache(psc_config.pml4e_entries, "PML4E")
        self.pdpte_cache = PagingStructureCache(psc_config.pdpte_entries, "PDPTE")
        self.pde_cache = PagingStructureCache(psc_config.pde_entries, "PDE")

    def translate(self, as_id, cr3_frame, vaddr, for_write=False):
        """Translate ``vaddr``; returns a :class:`WalkResult`.

        Raises :class:`PageFault` when an entry on the path is not
        present — the machine forwards that to the kernel.
        """
        vpn = vaddr >> PAGE_SHIFT
        level, frame = self.tlb.lookup(as_id, vpn)
        if level != TLB_MISS:
            latency = 0 if level == "tlb_l1" else self.timings.tlb_l2_penalty
            self.metrics.inc("dtlb_load_hits")
            return WalkResult(
                (frame << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)),
                latency,
                level,
                [],
                None,
            )
        huge_level, huge_frame = self.tlb.lookup_huge(as_id, superpage_number_of(vaddr))
        if huge_level != TLB_MISS:
            self.metrics.inc("dtlb_load_hits")
            return WalkResult(
                (huge_frame << PAGE_SHIFT) | (vaddr & (SUPERPAGE_SIZE - 1)),
                0,
                "tlb_huge",
                [],
                None,
            )
        return self._walk(as_id, cr3_frame, vaddr, for_write)

    def _walk(self, as_id, cr3_frame, vaddr, for_write):
        """Resolve a TLB miss from the deepest paging-structure-cache hit."""
        self.metrics.inc("dtlb_load_misses.miss_causes_a_walk")
        if self._trace.enabled:
            self._trace.emit(TLB_MISS_EVENT, TLB_COMPONENT, vpn=vaddr >> PAGE_SHIFT)
        latency = self.timings.walk_base
        fetches = []

        l1pt_frame = self.pde_cache.get((as_id, vaddr >> 21))
        if l1pt_frame is None:
            pd_frame = self.pdpte_cache.get((as_id, vaddr >> 30))
            if pd_frame is None:
                pdpt_frame = self.pml4_cache.get((as_id, vaddr >> 39))
                if pdpt_frame is None:
                    entry, cost = self._fetch_entry(cr3_frame, vaddr, 4, fetches)
                    latency += cost
                    if not pte_present(entry):
                        raise PageFault(vaddr, 4, for_write)
                    pdpt_frame = pte_frame(entry) & self.frame_mask
                    self.pml4_cache.put((as_id, vaddr >> 39), pdpt_frame)
                entry, cost = self._fetch_entry(pdpt_frame, vaddr, 3, fetches)
                latency += cost
                if not pte_present(entry):
                    raise PageFault(vaddr, 3, for_write)
                pd_frame = pte_frame(entry) & self.frame_mask
                self.pdpte_cache.put((as_id, vaddr >> 30), pd_frame)
            entry, cost = self._fetch_entry(pd_frame, vaddr, 2, fetches)
            latency += cost
            if not pte_present(entry):
                raise PageFault(vaddr, 2, for_write)
            if pte_is_superpage(entry):
                base_frame = (pte_frame(entry) & self.frame_mask) & ~0x1FF
                self.tlb.insert_huge(as_id, superpage_number_of(vaddr), base_frame)
                return WalkResult(
                    (base_frame << PAGE_SHIFT) | (vaddr & (SUPERPAGE_SIZE - 1)),
                    latency,
                    "walk",
                    fetches,
                    None,
                )
            l1pt_frame = pte_frame(entry) & self.frame_mask
            self.pde_cache.put((as_id, vaddr >> 21), l1pt_frame)

        l1pte_paddr = (l1pt_frame << PAGE_SHIFT) | (table_index(vaddr, 1) << 3)
        entry, cost = self._fetch_entry(l1pt_frame, vaddr, 1, fetches)
        latency += cost
        if not pte_present(entry):
            raise PageFault(vaddr, 1, for_write)
        if for_write and not pte_writable(entry):
            raise PageFault(vaddr, 1, for_write)
        frame = pte_frame(entry) & self.frame_mask
        self.tlb.insert(as_id, vaddr >> PAGE_SHIFT, frame)
        return WalkResult(
            (frame << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)),
            latency,
            "walk",
            fetches,
            l1pte_paddr,
        )

    def _fetch_entry(self, table_frame, vaddr, level, fetches):
        """Fetch one page-table entry through the data caches."""
        entry_paddr = (table_frame << PAGE_SHIFT) | (table_index(vaddr, level) << 3)
        cache_level, cost = self.phys_access(entry_paddr)
        fetches.append((level, cache_level))
        if self._trace.enabled:
            self._trace.emit(
                WALK_FETCH,
                WALKER,
                pt_level=level,
                served=cache_level,
                cycles=cost,
                paddr=entry_paddr,
            )
        return self.physmem.read_word(entry_paddr), cost

    def flush_structure_caches(self):
        """Drop all partial translations (privileged; CR3 reload analog)."""
        self.pml4_cache.flush_all()
        self.pdpte_cache.flush_all()
        self.pde_cache.flush_all()

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        """All three paging-structure caches (the walker's only state)."""
        return {
            "pml4": self.pml4_cache.state_dict(),
            "pdpte": self.pdpte_cache.state_dict(),
            "pde": self.pde_cache.state_dict(),
        }

    def load_state(self, state):
        """Restore state captured by :meth:`state_dict`."""
        self.pml4_cache.load_state(state["pml4"])
        self.pdpte_cache.load_state(state["pdpte"])
        self.pde_cache.load_state(state["pde"])
