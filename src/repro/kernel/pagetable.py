"""Kernel-side page-table management.

Page tables are real data in simulated physical memory: every entry the
kernel writes here is a word the MMU walker later fetches through the
data caches — and a word the fault model can flip.  The manager keeps
an inventory of page-table frames per level for the evaluation code
(e.g. counting sprayed L1PTs) but the attack itself never touches it.
"""

from repro.errors import ReproError
from repro.mmu.pte import (
    PTE_FRAME_MASK,
    PTE_FRAME_SHIFT,
    PTE_PRESENT,
    make_pte,
    pte_frame,
    pte_is_superpage,
    pte_present,
)
from repro.params import PAGE_SHIFT, PTES_PER_TABLE, table_index


class MappingError(ReproError):
    """A map/unmap request conflicts with the existing tables."""


class PageTableManager:
    """Creates and edits 4-level page tables stored in physical memory.

    Software readers of the tables walk them live
    (:meth:`l1pt_frame_of`, :meth:`lookup`) and cache no table frames,
    so creating, migrating or dropping a table needs no notification
    beyond the TLB and paging-structure-cache shootdown its caller
    owes, as on hardware.
    """

    def __init__(
        self, physmem, warm_cache, alloc_table_frame, frame_mask,
        free_table_frame=None,
    ):
        self.physmem = physmem
        #: Callable(paddr): models the CPU store leaving the entry cached.
        self.warm_cache = warm_cache
        #: Callable() -> frame for new page-table pages (placement policy).
        self.alloc_table_frame = alloc_table_frame
        #: Callable(frame) returning a page-table frame to the allocator;
        #: None leaks replaced frames (the pre-churn behaviour, fine for
        #: the bounded table turnover of a quiet run).
        self.free_table_frame = free_table_frame
        self.frame_mask = frame_mask
        #: level -> set of page-table frames, for evaluation.
        self.table_frames = {1: set(), 2: set(), 3: set(), 4: set()}

    def create_root(self):
        """Allocate an empty PML4; returns its frame (the CR3 value)."""
        frame = self.alloc_table_frame()
        self.physmem.zero_frame(frame)
        self.table_frames[4].add(frame)
        return frame

    def _entry_paddr(self, table_frame, vaddr, level):
        return (table_frame << PAGE_SHIFT) | (table_index(vaddr, level) << 3)

    def _read(self, table_frame, vaddr, level):
        return self.physmem.read_word(self._entry_paddr(table_frame, vaddr, level))

    def write_entry(self, table_frame, index, entry):
        """Write one page-table entry and leave it cached."""
        if not 0 <= index < PTES_PER_TABLE:
            raise MappingError("entry index %d out of range" % index)
        paddr = (table_frame << PAGE_SHIFT) | (index << 3)
        self.physmem.write_word(paddr, entry)
        self.warm_cache(paddr)

    def _descend(self, table_frame, vaddr, level, create):
        """Child table frame at ``level``; optionally create it."""
        entry = self._read(table_frame, vaddr, level)
        if pte_present(entry):
            if level == 2 and pte_is_superpage(entry):
                raise MappingError(
                    "0x%x already covered by a superpage mapping" % vaddr
                )
            return pte_frame(entry) & self.frame_mask
        if not create:
            return None
        child = self.alloc_table_frame()
        self.physmem.zero_frame(child)
        self.table_frames[level - 1].add(child)
        self.write_entry(
            table_frame, table_index(vaddr, level), make_pte(child, user=True)
        )
        return child

    def map_page(self, cr3, vaddr, frame, user=True, writable=True):
        """Install a 4 KiB mapping, creating intermediate tables."""
        table = cr3
        for level in (4, 3, 2):
            table = self._descend(table, vaddr, level, create=True)
        existing = self._read(table, vaddr, 1)
        if pte_present(existing):
            raise MappingError("0x%x is already mapped" % vaddr)
        self.write_entry(
            table,
            table_index(vaddr, 1),
            make_pte(frame, user=user, writable=writable),
        )
        return table  # the L1PT frame, handy for callers and tests

    def l1pte_writer(self, l1pt, user=True, writable=True):
        """:meth:`map_page`'s last step, bound to the L1PT ``l1pt``.

        Returns ``install(vaddr, frame)``, which maps one 4 KiB page of
        the table's 2 MiB region: ``MappingError`` on a present entry,
        else the entry written and its line warmed, as
        :meth:`write_entry` does.  The kernel's batched MAP_POPULATE
        calls it for every page of a run after the first; the table's
        word array is bound once, which is safe while nothing but frame
        allocation and cache warming runs between installs.
        """
        words = self.physmem.frame_view(l1pt)
        table_paddr = l1pt << PAGE_SHIFT
        flags = make_pte(0, user=user, writable=writable)
        warm = self.warm_cache

        def install(vaddr, frame):
            index = (vaddr >> PAGE_SHIFT) & (PTES_PER_TABLE - 1)
            if words[index] & PTE_PRESENT:
                raise MappingError("0x%x is already mapped" % vaddr)
            words[index] = ((frame << PTE_FRAME_SHIFT) & PTE_FRAME_MASK) | flags
            warm(table_paddr | (index << 3))

        return install

    def map_superpage(self, cr3, vaddr, base_frame, user=True, writable=True):
        """Install a 2 MiB mapping at a 2 MiB-aligned virtual address."""
        if vaddr & ((1 << 21) - 1):
            raise MappingError("superpage vaddr 0x%x not 2 MiB aligned" % vaddr)
        if base_frame & 0x1FF:
            raise MappingError("superpage frame %d not 512-frame aligned" % base_frame)
        table = cr3
        for level in (4, 3):
            table = self._descend(table, vaddr, level, create=True)
        existing = self._read(table, vaddr, 2)
        if pte_present(existing):
            raise MappingError("0x%x is already covered at level 2" % vaddr)
        self.write_entry(
            table,
            table_index(vaddr, 2),
            make_pte(base_frame, user=user, writable=writable, ps=True),
        )

    def unmap_page(self, cr3, vaddr):
        """Clear a 4 KiB mapping; returns the frame it pointed at.

        Intermediate tables are left in place (like Linux, which frees
        them lazily) — convenient for sprays, which unmap and remap.
        """
        table = cr3
        for level in (4, 3, 2):
            table = self._descend(table, vaddr, level, create=False)
            if table is None:
                raise MappingError("0x%x has no mapping to remove" % vaddr)
        entry = self._read(table, vaddr, 1)
        if not pte_present(entry):
            raise MappingError("0x%x is not mapped" % vaddr)
        self.write_entry(table, table_index(vaddr, 1), 0)
        return pte_frame(entry) & self.frame_mask

    def lookup(self, cr3, vaddr):
        """Ground-truth software walk; returns (frame, level) or None.

        Reads physical memory directly with no caching or timing side
        effects — the kernel's (and Inspector's) view of truth.
        """
        table = cr3
        for level in (4, 3):
            entry = self._read(table, vaddr, level)
            if not pte_present(entry):
                return None
            table = pte_frame(entry) & self.frame_mask
        entry = self._read(table, vaddr, 2)
        if not pte_present(entry):
            return None
        if pte_is_superpage(entry):
            base = (pte_frame(entry) & self.frame_mask) & ~0x1FF
            return base + ((vaddr >> PAGE_SHIFT) & 0x1FF), 2
        table = pte_frame(entry) & self.frame_mask
        entry = self._read(table, vaddr, 1)
        if not pte_present(entry):
            return None
        return pte_frame(entry) & self.frame_mask, 1

    def l1pt_frame_of(self, cr3, vaddr):
        """Frame of the Level-1 page table covering ``vaddr``, or None."""
        table = cr3
        for level in (4, 3, 2):
            entry = self._read(table, vaddr, level)
            if not pte_present(entry) or (level == 2 and pte_is_superpage(entry)):
                return None
            table = pte_frame(entry) & self.frame_mask
        return table

    def l1pte_paddr_of(self, cr3, vaddr):
        """Physical address of the L1PTE for ``vaddr``, or None.

        This is the paper's evaluation-only kernel module: it exposes the
        ground truth used to score eviction-set selection and pair
        finding, and is never available to the attacker.
        """
        l1pt = self.l1pt_frame_of(cr3, vaddr)
        if l1pt is None:
            return None
        return (l1pt << PAGE_SHIFT) | (table_index(vaddr, 1) << 3)

    def _pde_location(self, cr3, vaddr):
        """The (L2 table frame, live L1PT frame) pair covering ``vaddr``.

        Returns ``None`` when the region has no Level-1 table (absent
        intermediates or a superpage mapping).
        """
        table = cr3
        for level in (4, 3):
            entry = self._read(table, vaddr, level)
            if not pte_present(entry):
                return None
            table = pte_frame(entry) & self.frame_mask
        entry = self._read(table, vaddr, 2)
        if not pte_present(entry) or pte_is_superpage(entry):
            return None
        return table, pte_frame(entry) & self.frame_mask

    def migrate_l1pt(self, cr3, vaddr):
        """Move the L1PT covering ``vaddr`` to a fresh frame.

        Models kernel page-table migration (compaction, NUMA balancing):
        the 512 entries are copied, the parent PDE rewritten, and the
        old frame zeroed so stale cached pointers cannot resolve through
        it.  The *caller* is responsible for the TLB/paging-structure
        shootdown, as the kernel would be.  Returns the new frame, or
        ``None`` when the region has no L1PT.
        """
        located = self._pde_location(cr3, vaddr)
        if located is None:
            return None
        l2_table, old = located
        new = self.alloc_table_frame()
        for index in range(PTES_PER_TABLE):
            word = self.physmem.read_word((old << PAGE_SHIFT) | (index << 3))
            self.physmem.write_word((new << PAGE_SHIFT) | (index << 3), word)
        self.physmem.zero_frame(old)
        self.write_entry(
            l2_table, table_index(vaddr, 2), make_pte(new, user=True)
        )
        self.table_frames[1].discard(old)
        self.table_frames[1].add(new)
        if self.free_table_frame is not None:
            # The kernel returns the vacated frame after the shootdown;
            # without this, sustained churn would bleed the allocator dry.
            self.free_table_frame(old)
        return new

    def drop_l1pt(self, cr3, vaddr):
        """Clear the PDE covering ``vaddr``, reclaiming its L1PT.

        Models kernel page-table reclaim: every 4 KiB mapping in the
        2 MiB region vanishes at once.  Pages the kernel still considers
        populated heal individually through the demand-fault path; the
        old frame is zeroed and leaked (never reused) so stale walks
        read absent entries instead of junk.  Returns the reclaimed
        frame, or ``None`` when the region has no L1PT.
        """
        located = self._pde_location(cr3, vaddr)
        if located is None:
            return None
        l2_table, old = located
        self.physmem.zero_frame(old)
        self.write_entry(l2_table, table_index(vaddr, 2), 0)
        self.table_frames[1].discard(old)
        return old

    def l1pt_count(self):
        """Number of live Level-1 page-table frames (spray accounting)."""
        return len(self.table_frames[1])

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------
    # The tables themselves live in physical memory (captured by
    # PhysicalMemory); only the per-level frame inventory is ours.

    def state_dict(self):
        return {
            "table_frames": {
                level: sorted(frames) for level, frames in self.table_frames.items()
            }
        }

    def load_state(self, state):
        self.table_frames = {
            level: set(frames) for level, frames in state["table_frames"].items()
        }
