"""The simulated operating-system kernel.

Provides exactly the services the paper's attack interacts with:

* ``mmap``/``munmap`` with demand paging — touching an unmapped page of
  a valid VMA makes the kernel allocate frames *and Level-1 page tables*
  through the active placement policy (stock kernel or a defense);
* shared-memory objects, so the spray can map a few user pages at an
  enormous number of virtual addresses (Figure 7);
* ``spawn`` to create processes, each with a ``struct cred`` in a kernel
  slab (the CTA bypass sprays these);
* ``getuid`` as the ground truth of privilege: the attack succeeds when
  it rewrites its own cred through hammered page tables.
"""

from repro.errors import ConfigError, OutOfMemory, ReproError, SegmentationFault
from repro.kernel.cred import CredAllocator
from repro.kernel.process import (
    USER_MMAP_BASE,
    USER_MMAP_TOP,
    AddressSpace,
    Process,
    SharedMemory,
    VMA,
    page_align,
)
from repro.params import PAGE_SHIFT, PAGE_SIZE, SUPERPAGE_SIZE


class Kernel:
    """OS services over the machine's physical memory and page tables."""

    def __init__(
        self, physmem, ptm, policy, invalidate_tlb, max_map_count=65530, fast=False
    ):
        self.physmem = physmem
        self.ptm = ptm
        self.policy = policy
        self.invalidate_tlb = invalidate_tlb
        self.max_map_count = max_map_count
        #: Fast-tier flag (machines pass theirs): MAP_POPULATE of a 4 KiB
        #: VMA works one L1PT run at a time (docs/PERFORMANCE.md).
        self.fast = bool(fast)
        self.creds = CredAllocator(physmem, policy.alloc_kernel_frame)
        self.processes = {}
        self._next_pid = 1000
        self._next_as_id = 1
        self._next_shm_id = 1
        self.page_fault_count = 0

    # ------------------------------------------------------------------
    # processes

    def create_process(self, uid=1000, gid=1000):
        """Create a process with fresh page tables and credentials."""
        pid = self._next_pid
        self._next_pid += 1
        as_id = self._next_as_id
        self._next_as_id += 1
        cr3 = self.ptm.create_root()
        cred_paddr = self.creds.alloc_cred(uid, gid, pid)
        process = Process(pid, cred_paddr, AddressSpace(as_id, cr3), uid, gid)
        self.processes[pid] = process
        return process

    def sys_spawn(self, parent):
        """fork()-like: a child with the parent's uid and its own cred.

        The CTA bypass spawns thousands of these purely to fill kernel
        slab pages with cred objects.
        """
        return self.create_process(uid=parent.uid, gid=parent.gid)

    def sys_getuid(self, process):
        """Effective uid, read from the live cred structure."""
        return self.creds.read_uid(process.cred_paddr)

    # ------------------------------------------------------------------
    # memory mapping

    def sys_create_shm(self, npages):
        """Create a shared-memory object of ``npages`` pages."""
        shm = SharedMemory(self._next_shm_id, npages)
        self._next_shm_id += 1
        return shm

    def sys_mmap(
        self,
        process,
        npages,
        shm=None,
        shm_offset=0,
        huge=False,
        fixed_addr=None,
        populate=False,
    ):
        """Create a mapping of ``npages`` (4 KiB, or 2 MiB when huge).

        ``fixed_addr`` is MAP_FIXED_NOREPLACE: the caller chooses the
        virtual address (the spray and the pair construction need full
        control of virtual layout).  ``populate`` is MAP_POPULATE; when
        populating raises (``OutOfMemory``, ``MappingError``), the
        mapping is torn down as :meth:`sys_munmap` would and the error
        re-raised, so a retry at the same address starts clean.
        """
        space = process.address_space
        if space.vma_count() >= self.max_map_count:
            raise SegmentationFault(fixed_addr or 0, "max_map_count exceeded")
        if npages <= 0:
            raise ConfigError("mmap of zero pages")
        granule = SUPERPAGE_SIZE if huge else PAGE_SIZE
        if fixed_addr is not None:
            if fixed_addr % granule:
                raise SegmentationFault(fixed_addr, "misaligned MAP_FIXED")
            if not USER_MMAP_BASE <= fixed_addr < USER_MMAP_TOP:
                raise SegmentationFault(fixed_addr, "outside user range")
            start = fixed_addr
        else:
            start = space.pick_free_range(npages * granule)
            if huge:
                start = (start + granule - 1) & ~(granule - 1)
        if huge and shm is not None:
            raise ConfigError("huge shared mappings are not modelled")
        vma = VMA(start, npages, shm=shm, shm_offset=shm_offset, huge=huge)
        space.add_vma(vma)
        if populate:
            try:
                if self.fast and not huge:
                    self._populate_by_table(process, vma)
                else:
                    for i in range(npages):
                        self.handle_page_fault(
                            process, start + i * granule, write=False
                        )
            except ReproError:
                space.remove_vma(start)
                self._unmap_pages(space, vma)
                raise
        return start

    def _populate_by_table(self, process, vma):
        """MAP_POPULATE of a 4 KiB VMA, one 2 MiB L1PT run at a time.

        The fast tier's form of :meth:`handle_page_fault` per page: each
        run resolves its L1PT once with ``map_page``'s create-on-demand
        descent, then installs the rest of its PTEs straight into that
        table.  Every per-page step stays, in the reference order: the
        ``populated`` check, the fault count, the frame allocation
        before any table allocation, ``MappingError`` on a present PTE,
        and one cache warm per PTE written.
        """
        space = process.address_space
        populated = space.populated
        cr3 = space.cr3
        map_page = self.ptm.map_page
        l1pte_writer = self.ptm.l1pte_writer
        alloc = self.policy.alloc_user_frame
        shm = vma.shm
        writable = vma.writable
        start = vma.start
        end = vma.end
        first_page = vma.shm_offset - (start >> PAGE_SHIFT)
        run_start = start
        while run_start < end:
            run_end = min(end, (run_start | (SUPERPAGE_SIZE - 1)) + 1)
            install = None
            for page_va in range(run_start, run_end, PAGE_SIZE):
                if page_va in populated:
                    # The reference fault path heals it and may rebuild
                    # this run's table: resolve the table again after.
                    self.handle_page_fault(process, page_va, write=False)
                    install = None
                    continue
                self.page_fault_count += 1
                if shm is None:
                    frame = alloc(process)
                else:
                    # vma.backing_page(page_va), without the method calls.
                    index = (first_page + (page_va >> PAGE_SHIFT)) % shm.npages
                    frame = shm.frames.get(index)
                    if frame is None:
                        frame = alloc(process)
                        shm.frames[index] = frame
                if install is None:
                    l1pt = map_page(cr3, page_va, frame, user=True, writable=writable)
                    install = l1pte_writer(l1pt, user=True, writable=writable)
                else:
                    install(page_va, frame)
                populated[page_va] = frame
            run_start = run_end

    def sys_mprotect(self, process, start, writable):
        """Change the write permission of the VMA starting at ``start``.

        Rewrites every populated PTE's writable bit and invalidates the
        affected TLB entries, like the real syscall.
        """
        space = process.address_space
        vma = space.find_vma(start)
        if vma is None or vma.start != start:
            raise SegmentationFault(start, "mprotect of unmapped region")
        vma.writable = writable
        if vma.huge:
            return  # superpage PTE rewrite not modelled (no user yet)
        for i in range(vma.npages):
            vaddr = start + i * PAGE_SIZE
            if vaddr not in space.populated:
                continue
            pte_paddr = self.ptm.l1pte_paddr_of(space.cr3, vaddr)
            if pte_paddr is None:
                continue
            entry = self.physmem.read_word(pte_paddr)
            if writable:
                entry |= 2
            else:
                entry &= ~2
            self.physmem.write_word(pte_paddr, entry)
            self.invalidate_tlb(space.as_id, vaddr >> PAGE_SHIFT)

    def sys_munmap(self, process, start):
        """Remove the VMA starting at ``start`` and all its mappings."""
        space = process.address_space
        vma = space.remove_vma(start)
        if vma is None:
            raise SegmentationFault(start, "munmap of unmapped region")
        self._unmap_pages(space, vma)

    def _unmap_pages(self, space, vma):
        """Clear every populated page of a removed VMA and free its frames."""
        start = vma.start
        granule = SUPERPAGE_SIZE if vma.huge else PAGE_SIZE
        for i in range(vma.npages):
            vaddr = start + i * granule
            frame = space.populated.pop(vaddr, None)
            if frame is None:
                continue
            if vma.huge:
                # Superpage teardown is not needed by any experiment;
                # keep the frames (they stay reachable via the shm-less
                # VMA record we just removed).  Documented limitation.
                continue
            self.ptm.unmap_page(space.cr3, vaddr)
            self.invalidate_tlb(space.as_id, vaddr >> PAGE_SHIFT)
            if vma.shm is None:
                self.policy.free_frame(frame, "user")

    # ------------------------------------------------------------------
    # demand paging

    def handle_page_fault(self, process, vaddr, write):
        """Demand-populate the page covering ``vaddr``.

        Raises :class:`SegmentationFault` when no VMA covers the
        address — the attack code is genuinely unprivileged and gets
        killed for stray accesses, like the paper's.
        """
        space = process.address_space
        vma = space.find_vma(vaddr)
        if vma is None:
            raise SegmentationFault(vaddr)
        if write and not vma.writable:
            raise SegmentationFault(vaddr, "write to read-only mapping")
        self.page_fault_count += 1
        if vma.huge:
            base = vaddr & ~(SUPERPAGE_SIZE - 1)
            if base in space.populated:
                return
            try:
                block = self.policy.alloc_user_block(process, order=9)
            except (OutOfMemory, ConfigError):
                # No 2 MiB-contiguous block available (e.g. ZebRAM's
                # striped zones): fall back to 4 KiB mappings, like a
                # failed transparent-hugepage collapse.  Attacks that
                # rely on superpage physical-bit leakage silently lose
                # that leverage — which is part of such defenses' bite.
                for i in range(SUPERPAGE_SIZE // PAGE_SIZE):
                    frame = self.policy.alloc_user_frame(process)
                    self.ptm.map_page(
                        space.cr3, base + i * PAGE_SIZE, frame, user=True
                    )
                space.populated[base] = None
                return
            self.ptm.map_superpage(space.cr3, base, block)
            space.populated[base] = block
            return
        page_va = page_align(vaddr)
        if page_va in space.populated:
            if write and vma.writable:
                # The PTE may have lost its writable bit (mprotect
                # round-trips, or a disturbance flip): restore it.
                pte_paddr = self.ptm.l1pte_paddr_of(space.cr3, page_va)
                if pte_paddr is not None:
                    entry = self.physmem.read_word(pte_paddr)
                    if entry & 1 and not entry & 2:
                        self.physmem.write_word(pte_paddr, entry | 2)
                        self.invalidate_tlb(space.as_id, page_va >> PAGE_SHIFT)
                        return
            if self.ptm.lookup(space.cr3, page_va) is None:
                # The PTE lost its present bit (a disturbance flip can do
                # that); restore the mapping like Linux re-faulting a
                # shared page.  Best effort: corrupted intermediate
                # tables can make the slot unrepairable.
                try:
                    self.ptm.map_page(
                        space.cr3, page_va, space.populated[page_va], user=True
                    )
                except Exception:
                    raise SegmentationFault(vaddr, "unrepairable mapping")
            return
        if vma.shm is not None:
            index = vma.backing_page(page_va)
            frame = vma.shm.frames.get(index)
            if frame is None:
                frame = self.policy.alloc_user_frame(process)
                vma.shm.frames[index] = frame
        else:
            frame = self.policy.alloc_user_frame(process)
        self.ptm.map_page(space.cr3, page_va, frame, user=True, writable=vma.writable)
        space.populated[page_va] = frame

    # ------------------------------------------------------------------
    # snapshot protocol (docs/SNAPSHOTS.md)

    def state_dict(self):
        """Processes, creds, shm objects, and allocation cursors.

        Shared-memory objects are reachable only through VMAs; they are
        collected here by ``shm_id`` and serialised once, so a restore
        re-links every mapping of the same object to one instance.
        """
        shms = {}
        processes = []
        for pid in sorted(self.processes):
            process = self.processes[pid]
            for vma in process.address_space.vmas():
                if vma.shm is not None and vma.shm.shm_id not in shms:
                    shms[vma.shm.shm_id] = {
                        "npages": vma.shm.npages,
                        "frames": dict(vma.shm.frames),
                    }
            processes.append(
                {
                    "pid": process.pid,
                    "cred_paddr": process.cred_paddr,
                    "uid": process.uid,
                    "gid": process.gid,
                    "space": process.address_space.state_dict(),
                }
            )
        return {
            "shms": shms,
            "processes": processes,
            "creds": self.creds.state_dict(),
            "next_pid": self._next_pid,
            "next_as_id": self._next_as_id,
            "next_shm_id": self._next_shm_id,
            "page_fault_count": self.page_fault_count,
        }

    def load_state(self, state):
        """Restore state captured by :meth:`state_dict`."""
        shm_table = {}
        for shm_id, shm_state in state["shms"].items():
            shm = SharedMemory(shm_id, shm_state["npages"])
            shm.frames = dict(shm_state["frames"])
            shm_table[shm_id] = shm
        self.processes = {}
        for entry in state["processes"]:
            space = AddressSpace.from_state(entry["space"], shm_table)
            process = Process(
                entry["pid"], entry["cred_paddr"], space, entry["uid"], entry["gid"]
            )
            self.processes[process.pid] = process
        self.creds.load_state(state["creds"])
        self._next_pid = state["next_pid"]
        self._next_as_id = state["next_as_id"]
        self._next_shm_id = state["next_shm_id"]
        self.page_fault_count = state["page_fault_count"]
