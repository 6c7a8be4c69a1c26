"""The simulated machine: CPU clock, caches, MMU, DRAM, and kernel.

Every user-level load or store goes through :meth:`Machine.access`,
which walks the full microarchitectural path — TLBs, paging-structure
caches, data caches, DRAM row buffers — charging virtual cycles for each
step and letting the DRAM module accumulate rowhammer disturbance.  The
virtual clock (``machine.cycles``) is the attacker's ``rdtsc``.
"""

from repro.cache.hierarchy import L1, L2, LLC, MEM, CacheHierarchy
from repro.errors import SegmentationFault, SnapshotError
from repro.defenses.base import StockPolicy
from repro.dram.faults import FaultModel
from repro.dram.geometry import DRAMGeometry
from repro.dram.module import DRAMModule
from repro.dram.timing import DRAMTimings
from repro.kernel.kernel import Kernel
from repro.kernel.pagetable import PageTableManager
from repro.machine.addrmap import CounterBatch, TIER_FAST, resolve_tier
from repro.machine.snapshot import MachineSnapshot
from repro.machine.perf import (
    DTLB_HIT,
    LLC_MISS,
    LLC_REFERENCE,
    LOADS,
    PAGE_FAULTS,
)
from repro.mem.physmem import PhysicalMemory
from repro.observe import ACCESS, FAULT, MACHINE, MetricsRegistry, TraceBus
from repro.observe import TLB as TLB_COMPONENT
from repro.observe import TLB_HIT
from repro.mmu.tlb import TLB, TLB_L1, TLB_MISS
from repro.mmu.walker import PageFault, PageTableWalker
from repro.params import (
    LINE_SHIFT,
    PAGE_SHIFT,
    PAGE_SIZE,
    SUPERPAGE_SHIFT,
    SUPERPAGE_SIZE,
)
from repro.utils.rng import DeterministicRng
from repro.utils.units import cycles_to_seconds


class AccessResult:
    """Outcome of one simulated load/store."""

    __slots__ = ("paddr", "latency", "value", "translation_source", "cache_level")

    def __init__(self, paddr, latency, value, translation_source, cache_level):
        self.paddr = paddr
        self.latency = latency
        self.value = value
        self.translation_source = translation_source
        self.cache_level = cache_level


class Machine:
    """One booted machine, ready to run processes and take hits."""

    def __init__(self, config, policy=None, trace=None, fast_path=None):
        config.validate()
        self.config = config
        self.rng = DeterministicRng(config.seed)
        self.cycles = 0
        #: Whether the memoizing fast access path is active for this
        #: machine (docs/PERFORMANCE.md).  ``fast_path`` takes a bool, a
        #: tier name (``"reference"`` or ``"fast"``), or ``None`` to
        #: consult the ``REPRO_FAST_PATH`` environment variable (default
        #: on); :func:`~repro.machine.addrmap.resolve_tier` parses all
        #: three.  The flag is fixed for the machine's lifetime; machine
        #: state is the same on both tiers, so a snapshot of either
        #: restores into either.
        self.fast_path = resolve_tier(fast_path) == TIER_FAST

        #: Structured trace bus shared by every layer (off by default;
        #: ``machine.trace.enable()`` opts in — docs/OBSERVABILITY.md).
        self.trace = trace if trace is not None else TraceBus()
        self.trace.clock = lambda: self.cycles
        #: Metrics registry; the PMC emulation's counters live here under
        #: the names in :mod:`repro.machine.perf`.
        self.metrics = MetricsRegistry()

        self.physmem = PhysicalMemory(config.dram.size_bytes)
        self.geometry = DRAMGeometry(
            config.dram.size_bytes,
            banks=config.dram.banks,
            chunk_bytes=config.dram.chunk_bytes,
            row_xor_mask=config.dram.row_xor_mask,
        )
        self.fault_model = FaultModel(
            chunk_bytes=config.dram.chunk_bytes,
            cells_per_row_mean=config.fault.cells_per_row_mean,
            threshold_lo=config.fault.threshold_lo,
            threshold_hi=config.fault.threshold_hi,
            true_cell_fraction=config.fault.true_cell_fraction,
            synergy=config.fault.synergy,
            seed=config.fault.seed,
        )
        self.dram = DRAMModule(
            self.geometry,
            DRAMTimings(
                row_hit_cycles=config.dram.row_hit_cycles,
                row_empty_cycles=config.dram.row_empty_cycles,
                row_conflict_cycles=config.dram.row_conflict_cycles,
                row_policy=config.dram.row_policy,
                preemptive_close_probability=config.dram.preemptive_close_probability,
                idle_close_cycles=config.dram.idle_close_cycles,
            ),
            self.fault_model,
            self.physmem,
            config.dram.refresh_interval_cycles,
            self.rng.fork("dram"),
            trr_threshold=config.dram.trr_threshold,
            staggered_refresh=config.dram.staggered_refresh,
            trace=self.trace,
            memoize_geometry=self.fast_path,
        )
        self.caches = CacheHierarchy(
            config.cache,
            self.rng.fork("cache"),
            trace=self.trace,
            fast=self.fast_path,
        )
        self.tlb = TLB(
            config.tlb, self.rng.fork("tlb"), trace=self.trace, fast=self.fast_path
        )

        self._paddr_mask = config.dram.size_bytes - 1
        frame_mask = (config.dram.size_bytes >> PAGE_SHIFT) - 1
        self.monitor = None
        self.walker = PageTableWalker(
            self.tlb,
            config.psc,
            self.physmem,
            lambda paddr: self._phys_access(paddr, source="walk"),
            config.cpu,
            frame_mask,
            self.metrics,
            trace=self.trace,
        )

        self.policy = policy if policy is not None else StockPolicy()
        self.policy.attach(
            self.geometry,
            self.fault_model,
            self.rng.fork("policy"),
            config.boot_fragmentation,
        )
        self.ptm = PageTableManager(
            self.physmem,
            self.caches.warm,
            self.policy.alloc_pagetable_frame,
            frame_mask,
            free_table_frame=lambda frame: self.policy.free_frame(
                frame, "pagetable"
            ),
        )
        self.kernel = Kernel(
            self.physmem, self.ptm, self.policy, self.tlb.invalidate,
            fast=self.fast_path,
        )
        #: Optional system-noise injector (repro.chaos); None keeps the
        #: access path byte-for-byte identical to the quiet machine.
        self.chaos = None
        self._noise = config.cpu.noise_cycles
        self._noise_rng = self.rng.fork("noise")
        # Memory-level-parallelism bookkeeping (see CPUTimings).
        self._instr_seq = 0
        self._last_dram_instr = -2
        self._dram_ops_this_instr = 0

    # ------------------------------------------------------------------
    # physical access path (shared by data loads and page-table walks)

    def _phys_access(self, paddr, source="load"):
        """One physical memory reference; returns (cache level, latency).

        ``source`` tags the requester ('load' for data accesses, 'walk'
        for page-table fetches) for attached detectors (ANVIL-style).
        Flipped PTE bits can produce frames beyond the module; physical
        addresses wrap (documented substitution for reads of unmapped
        bus regions).
        """
        paddr &= self._paddr_mask
        level = self.caches.access(paddr)
        self.metrics.inc(LLC_REFERENCE)
        timings = self.config.cpu
        if level == L1:
            return level, timings.l1_hit
        if level == L2:
            return level, timings.l2_hit
        if level == LLC:
            return level, timings.llc_hit
        self.metrics.inc(LLC_MISS)
        case, dram_latency = self.dram.access(paddr, self.cycles)
        if self.monitor is not None:
            self.monitor.on_dram_access(paddr, source, self.cycles)
        pipelined = (
            self._dram_ops_this_instr == 0
            and self._last_dram_instr == self._instr_seq - 1
            and case != "conflict"
        )
        self._dram_ops_this_instr += 1
        self._last_dram_instr = self._instr_seq
        if pipelined:
            # The previous instruction's DRAM access is still in
            # flight; this independent one overlaps with it.  Within
            # one instruction the walk's fetches are address-dependent
            # and never overlap (only the first op can be pipelined).
            return MEM, timings.dram_pipelined
        return MEM, timings.llc_miss_extra + dram_latency

    # ------------------------------------------------------------------
    # instruction-level operations

    def access(self, process, vaddr, write=False, value=None):
        """Execute one load (or store) by ``process`` at ``vaddr``.

        Returns an :class:`AccessResult`; advances the virtual clock by
        the access's full latency (the paper's timed accesses measure
        exactly this).  Page faults are transparently serviced by the
        kernel, charging its handling cost, then the access retries.

        For loops of loads, prefer :meth:`access_many` — behaviourally
        identical, but batched.
        """
        cpu = self.config.cpu
        self._instr_seq += 1
        self._dram_ops_this_instr = 0
        if self.chaos is not None:
            # May pollute caches/TLB, churn page tables, or raise a
            # retryable TransientFault before the access even issues.
            self.chaos.on_access(vaddr)
        latency = cpu.access_base
        if self._noise:
            latency += self._noise_rng.randint(self._noise + 1)
        walk = self._translate(process, vaddr, write)
        latency += walk.latency
        paddr = walk.paddr & self._paddr_mask
        cache_level, data_latency = self._phys_access(paddr)
        latency += data_latency
        if self.chaos is not None:
            latency += self.chaos.jitter_cycles()
        self.metrics.inc(LOADS)
        if write:
            self.physmem.write_word(paddr & ~7, value)
            read_back = value
        else:
            read_back = self.physmem.read_word(paddr & ~7)
        self.cycles += latency
        if self.trace.enabled:
            self.trace.emit(
                ACCESS,
                MACHINE,
                vaddr=vaddr,
                paddr=paddr,
                latency=latency,
                source=walk.source,
                level=cache_level,
            )
        return AccessResult(paddr, latency, read_back, walk.source, cache_level)

    def _translate(self, process, vaddr, write):
        """Translate ``vaddr``, letting the kernel service page faults.

        Each fault charges the kernel's handling cost and retries; the
        fifth fault in a row means the kernel cannot repair the mapping
        (e.g. a corrupted intermediate table), and the process takes a
        SIGSEGV.
        """
        space = process.address_space
        retries = 0
        while True:
            try:
                return self.walker.translate(
                    space.as_id, space.cr3, vaddr, for_write=write
                )
            except PageFault:
                self.metrics.inc(PAGE_FAULTS)
                if self.trace.enabled:
                    self.trace.emit(FAULT, MACHINE, vaddr=vaddr, write=write)
                retries += 1
                if retries > 4:
                    raise SegmentationFault(vaddr, "fault loop")
                self.kernel.handle_page_fault(process, vaddr, write)
                self.cycles += self.config.cpu.page_fault

    def access_many(self, process, vaddrs, collect=False):
        """Execute many loads back to back (the batch form of :meth:`access`).

        Behaviourally identical to ``for va in vaddrs: access(process,
        va)`` — same cycle charges, same microarchitectural state
        transitions, same trace events, same metrics totals (enforced
        by the equivalence suite in ``tests/test_fast_path.py``) — but
        with the fast path enabled, per-access dispatch, counter
        bookkeeping, and result construction are amortised across the
        batch.  With ``REPRO_FAST_PATH=0`` (or ``fast_path=False``) it
        degrades to the literal scalar loop.

        Loads only: the hammer rounds, eviction sweeps and probe reads
        this API exists for never store.  Returns the loaded qwords as a
        list when ``collect`` is true, else ``None``.  Each word is read
        where the scalar :meth:`access` reads it, so a flip or churn
        that a later access in the batch causes cannot leak into an
        earlier value.
        """
        if not self.fast_path:
            if collect:
                return [self.access(process, vaddr).value for vaddr in vaddrs]
            for vaddr in vaddrs:
                self.access(process, vaddr)
            return None
        return self._access_many_fast(process, vaddrs, collect)

    def _access_many_fast(self, process, vaddrs, collect):
        """The batched loop: :meth:`access` with its fast cases inlined.

        Mirrors the scalar sequence step for step.  The common L1-dTLB
        hit is inlined with the component call's counter, trace, and
        replacement-state side effects replicated exactly; every slow
        case (sTLB, walks, faults, cache fills, DRAM) falls through to
        the real component methods, so rare paths run the reference
        code.  The walker's ``metrics``/``phys_access`` attributes are
        swapped for the duration so its page-table fetches also count
        into the batch.

        The clock, the instruction sequence number and the MLP
        bookkeeping live in locals; they and the counters are written
        back in the ``finally`` block, so totals match the scalar path
        even when a chaos transient or :class:`SegmentationFault`
        aborts the batch midway.  Whether anything can observe the
        machine mid-batch is decided once per batch: trace events stamp
        ``self.cycles`` and chaos churn reads it, so with a tracer,
        chaos injector or DRAM monitor attached the loop also stores
        the clock after every charge and runs the hooks.  The monitor
        gets the local clock, which then equals ``self.cycles``.
        """
        cpu = self.config.cpu
        access_base = cpu.access_base
        l1_lat = cpu.l1_hit
        l2_lat = cpu.l2_hit
        llc_lat = cpu.llc_hit
        miss_extra = cpu.llc_miss_extra
        pipelined_lat = cpu.dram_pipelined
        l2_penalty = cpu.tlb_l2_penalty
        page_fault_cycles = cpu.page_fault
        page_off_mask = PAGE_SIZE - 1
        super_off_mask = SUPERPAGE_SIZE - 1
        paddr_mask = self._paddr_mask

        space = process.address_space
        as_id = space.as_id
        cr3 = space.cr3
        noise = self._noise
        noise_randint = self._noise_rng.randint
        noise_bound = noise + 1
        metrics = self.metrics
        kernel_fault = self.kernel.handle_page_fault
        trace = self.trace
        chaos = self.chaos
        monitor = self.monitor
        tracing = trace.enabled
        observed = tracing or chaos is not None or monitor is not None

        tlb = self.tlb
        tlb_l1 = tlb.l1
        l1_tlb_state = tlb_l1._state
        l1_set_of = tlb.l1_set_of
        # With the default linear dTLB mapping the set is one AND; inline
        # it to skip a lambda call per access (None = non-linear mapping,
        # fall back to the mapping function).
        l1_tlb_linear_mask = (
            tlb_l1.sets - 1 if self.config.tlb.l1d_mapping == "linear" else None
        )
        tlb_frames = tlb._frames
        tlb_lookup = tlb.lookup
        tlb_lookup_huge = tlb.lookup_huge
        caches_access = self.caches.access
        dram_access = self.dram.access
        frame_words = self.physmem.frame_words

        # Batch-local machine state (written back in finally).
        cycles = self.cycles
        instr_seq = self._instr_seq
        dram_ops = self._dram_ops_this_instr
        last_dram = self._last_dram_instr

        dtlb_hits = 0
        llc_refs = 0
        llc_misses = 0
        page_faults = 0
        loads = 0
        values = [] if collect else None

        def walk_phys(paddr):
            # _phys_access(source="walk") against the batch-local state;
            # the walker calls this for every page-table-entry fetch.
            nonlocal llc_refs, llc_misses, dram_ops, last_dram
            paddr &= paddr_mask
            level = caches_access(paddr)
            llc_refs += 1
            if level == L1:
                return level, l1_lat
            if level == L2:
                return level, l2_lat
            if level == LLC:
                return level, llc_lat
            llc_misses += 1
            case, dram_latency = dram_access(paddr, cycles)
            if monitor is not None:
                monitor.on_dram_access(paddr, "walk", cycles)
            pipelined = (
                dram_ops == 0 and last_dram == instr_seq - 1 and case != "conflict"
            )
            dram_ops += 1
            last_dram = instr_seq
            if pipelined:
                return MEM, pipelined_lat
            return MEM, miss_extra + dram_latency

        walker = self.walker
        walk_miss = walker._walk
        batch = CounterBatch()
        saved_metrics = walker.metrics
        saved_phys = walker.phys_access
        walker.metrics = batch
        walker.phys_access = walk_phys
        try:
            for vaddr in vaddrs:
                instr_seq += 1
                dram_ops = 0
                if chaos is not None:
                    chaos.on_access(vaddr)
                latency = access_base
                if noise:
                    latency += noise_randint(noise_bound)

                # -- translation: inlined L1-dTLB probe ----------------
                vpn = vaddr >> PAGE_SHIFT
                tag = (as_id, vpn)
                if l1_tlb_linear_mask is not None:
                    state = l1_tlb_state.get(vpn & l1_tlb_linear_mask)
                else:
                    state = l1_tlb_state.get(l1_set_of(vpn))
                if state is not None and tag in state.tags:
                    state.policy.touch(state.tags.index(tag))
                    tlb_l1.hits += 1
                    if tracing:
                        trace.emit(TLB_HIT, TLB_COMPONENT, level=TLB_L1, vpn=vpn)
                    dtlb_hits += 1
                    source = TLB_L1
                    paddr = (
                        (tlb_frames[tag] << PAGE_SHIFT) | (vaddr & page_off_mask)
                    ) & paddr_mask
                else:
                    # The probe above is side-effect-free on a miss, so
                    # the real lookup below counts the one L1 miss the
                    # scalar path would.  This block replicates
                    # _translate()'s retry loop.
                    retries = 0
                    while True:
                        try:
                            level, frame = tlb_lookup(as_id, vpn)
                            if level != TLB_MISS:
                                if level != TLB_L1:
                                    latency += l2_penalty
                                dtlb_hits += 1
                                source = level
                                paddr = (
                                    (frame << PAGE_SHIFT) | (vaddr & page_off_mask)
                                ) & paddr_mask
                                break
                            hlevel, hframe = tlb_lookup_huge(
                                as_id, vaddr >> SUPERPAGE_SHIFT
                            )
                            if hlevel != TLB_MISS:
                                dtlb_hits += 1
                                source = "tlb_huge"
                                paddr = (
                                    (hframe << PAGE_SHIFT) | (vaddr & super_off_mask)
                                ) & paddr_mask
                                break
                            walk = walk_miss(as_id, cr3, vaddr, False)
                            latency += walk.latency
                            source = walk.source
                            paddr = walk.paddr & paddr_mask
                            break
                        except PageFault:
                            page_faults += 1
                            if tracing:
                                trace.emit(FAULT, MACHINE, vaddr=vaddr, write=False)
                            retries += 1
                            if retries > 4:
                                raise SegmentationFault(vaddr, "fault loop")
                            kernel_fault(process, vaddr, False)
                            cycles += page_fault_cycles
                            if observed:
                                self.cycles = cycles

                # -- data access ---------------------------------------
                cache_level = caches_access(paddr)
                llc_refs += 1
                if cache_level == L1:
                    latency += l1_lat
                elif cache_level == L2:
                    latency += l2_lat
                elif cache_level == LLC:
                    latency += llc_lat
                else:
                    llc_misses += 1
                    case, dram_latency = dram_access(paddr, cycles)
                    if monitor is not None:
                        monitor.on_dram_access(paddr, "load", cycles)
                    pipelined = (
                        dram_ops == 0
                        and last_dram == instr_seq - 1
                        and case != "conflict"
                    )
                    dram_ops += 1
                    last_dram = instr_seq
                    if pipelined:
                        latency += pipelined_lat
                    else:
                        latency += miss_extra + dram_latency

                if chaos is not None:
                    latency += chaos.jitter_cycles()
                loads += 1
                if collect:
                    # Where the scalar path reads the word; a batch
                    # whose values nobody wants skips the pure read.
                    words = frame_words(paddr >> PAGE_SHIFT)
                    values.append(
                        0 if words is None else words[(paddr & page_off_mask) >> 3]
                    )
                cycles += latency
                if observed:
                    self.cycles = cycles
                    if tracing:
                        trace.emit(
                            ACCESS,
                            MACHINE,
                            vaddr=vaddr,
                            paddr=paddr,
                            latency=latency,
                            source=source,
                            level=cache_level,
                        )
        finally:
            self.cycles = cycles
            self._instr_seq = instr_seq
            self._dram_ops_this_instr = dram_ops
            self._last_dram_instr = last_dram
            walker.metrics = saved_metrics
            walker.phys_access = saved_phys
            batch.flush_into(metrics)
            if dtlb_hits:
                metrics.inc(DTLB_HIT, dtlb_hits)
            if llc_refs:
                metrics.inc(LLC_REFERENCE, llc_refs)
            if llc_misses:
                metrics.inc(LLC_MISS, llc_misses)
            if page_faults:
                metrics.inc(PAGE_FAULTS, page_faults)
            if loads:
                metrics.inc(LOADS, loads)
        return values

    #: Flat per-read cycle charge for bulk scans: a TLB-missing,
    #: cache-missing streaming read (walk + one DRAM fetch, amortised).
    BULK_READ_CYCLES = 60

    def bulk_read(self, process, vaddrs):
        """Stream qword reads over many addresses (the spray scan).

        Values come from the *live page tables* — a software walk of
        exactly the structures the MMU uses, so rowhammer flips are
        visible identically — but per-access microarchitectural state
        is not simulated: a scan this size cycles the TLB and caches
        through pure junk, so the net effect is modelled by charging a
        flat streaming cost per read and flushing TLBs and caches at
        the end.  Unreadable pages yield ``None``.
        """
        if self.fast_path:
            values = self._bulk_read_runs(process, vaddrs)
        else:
            values = self._bulk_read_pages(process, vaddrs)
        self.cycles += self.BULK_READ_CYCLES * len(vaddrs)
        self._instr_seq += len(vaddrs)
        # The sweep displaced everything cacheable.
        self.tlb.flush_all()
        self.walker.flush_structure_caches()
        self.caches.flush_all()
        return values

    def _bulk_read_pages(self, process, vaddrs):
        """:meth:`bulk_read`'s values, page by page (the reference tier).

        One software walk per 2 MiB region per call: all its pages
        share the same L1PT, so per-page translation is a single L1PTE
        read.
        """
        space = process.address_space
        cr3 = space.cr3
        values = []
        lookup = self.ptm.lookup
        l1pt_of = self.ptm.l1pt_frame_of
        read_word = self.physmem.read_word
        mask = self._paddr_mask
        frame_mask = (self.config.dram.size_bytes >> PAGE_SHIFT) - 1
        region_tables = {}
        for vaddr in vaddrs:
            region = vaddr >> 21
            l1pt = region_tables.get(region, -1)
            if l1pt == -1:
                l1pt = l1pt_of(cr3, vaddr)
                region_tables[region] = l1pt
            frame = None
            if l1pt is not None:
                entry = read_word((l1pt << PAGE_SHIFT) | (((vaddr >> 12) & 511) << 3))
                if entry & 1:
                    frame = (entry >> 12) & frame_mask
            if frame is None:
                # Demand-populate or heal, as a real access would.
                try:
                    self.kernel.handle_page_fault(process, vaddr, write=False)
                except SegmentationFault:
                    values.append(None)
                    continue
                region_tables.pop(vaddr >> 21, None)
                hit = lookup(cr3, vaddr)
                if hit is None:
                    values.append(None)
                    continue
                frame = hit[0]
            paddr = ((frame << PAGE_SHIFT) | (vaddr & 0xFFF)) & mask
            values.append(read_word(paddr & ~7))
        return values

    def _bulk_read_runs(self, process, vaddrs):
        """:meth:`bulk_read`'s values, one 2 MiB run at a time (fast tier).

        Consecutive addresses in one 2 MiB region share an L1PT, so
        each run resolves its table with one ``l1pt_frame_of`` walk and
        then indexes the table's and the data frames' word arrays
        directly, without materialising unwritten frames.  Faults take
        the reference tier's steps; since a fault may create, heal or
        rebuild the table, the run then resolves it once more and goes
        on.  Only a page the table cannot serve after its fault (the
        region has no L1PT, say) falls back to a full ``lookup``.
        """
        cr3 = process.address_space.cr3
        l1pt_of = self.ptm.l1pt_frame_of
        frame_words = self.physmem.frame_words
        frame_mask = (self.config.dram.size_bytes >> PAGE_SHIFT) - 1

        def table_of(vaddr):
            l1pt = l1pt_of(cr3, vaddr)
            return None if l1pt is None else frame_words(l1pt)

        values = []
        append = values.append
        region = None
        table = None
        for vaddr in vaddrs:
            if vaddr >> 21 != region:
                region = vaddr >> 21
                table = table_of(vaddr)
            entry = 0 if table is None else table[(vaddr >> 12) & 511]
            if not entry & 1:
                # Demand-populate or heal, as a real access would.
                try:
                    self.kernel.handle_page_fault(process, vaddr, write=False)
                except SegmentationFault:
                    append(None)
                    continue
                table = table_of(vaddr)
                entry = 0 if table is None else table[(vaddr >> 12) & 511]
                if not entry & 1:
                    hit = self.ptm.lookup(cr3, vaddr)
                    if hit is None:
                        append(None)
                        continue
                    paddr = (hit[0] << PAGE_SHIFT) | (vaddr & 0xFFF)
                    append(self.physmem.read_word(paddr & self._paddr_mask & ~7))
                    continue
            words = frame_words((entry >> 12) & frame_mask)
            append(0 if words is None else words[(vaddr & 0xFFF) >> 3])
        return values

    def clflush(self, process, vaddr):
        """clflush: evict the line of a *user-accessible* address.

        Only works on memory the process can touch — the instruction
        cannot flush kernel lines, which is why PThammer needs eviction
        sets in the first place.  Translation faults are serviced as
        for :meth:`access`, and a mapping the kernel cannot repair
        raises :class:`SegmentationFault`.
        """
        self._instr_seq += 1
        self._dram_ops_this_instr = 0
        paddr = self._translate(process, vaddr, False).paddr & self._paddr_mask
        self.caches.flush_line(paddr)
        self.cycles += 40  # clflush costs tens of cycles retired
        return paddr

    #: Kernel entry/exit cost of a trivial system call.
    SYSCALL_BASE_CYCLES = 180

    def syscall_touch(self, process):
        """A minimal system call: enter the kernel, read kernel data.

        Models the syscall-based implicit-hammer attempt the paper's
        Section V discusses (Konoth et al. could not make it flip bits):
        each invocation costs full kernel entry/exit and touches kernel
        memory through the ordinary cache path — where it almost always
        hits, starving DRAM of activations.  Returns the cycle cost.
        """
        self._instr_seq += 1
        self._dram_ops_this_instr = 0
        level, latency = self._phys_access(process.cred_paddr)
        cost = self.SYSCALL_BASE_CYCLES + latency
        self.cycles += cost
        return cost

    def nop(self, count):
        """Burn ``count`` cycles (the Figure-5 NOP padding).

        Also acts as a serialising fence for the MLP model: a timed load
        after NOPs cannot overlap earlier memory traffic.
        """
        if count < 0:
            raise ValueError("cannot burn negative cycles")
        self._instr_seq += 1
        self.cycles += count

    def now_seconds(self):
        """The virtual clock converted to seconds."""
        return cycles_to_seconds(self.cycles, self.config.cpu.freq_ghz)

    # ------------------------------------------------------------------
    # boot helpers

    def attach_monitor(self, monitor):
        """Install a DRAM-access detector (e.g. the ANVIL model).

        The monitor's ``on_dram_access(paddr, source, now)`` is invoked
        for every request that reaches DRAM.
        """
        self.monitor = monitor

    def attach_chaos(self, injector):
        """Install a system-noise injector (see :mod:`repro.chaos`).

        Binds the injector's RNG streams to this machine's seed and
        enables the chaos hooks on the access path; ``None`` detaches.
        """
        if injector is None:
            self.chaos = None
            return None
        self.chaos = injector.attach(self)
        return self.chaos

    def boot_process(self, uid=1000):
        """Create a process (the attacker's shell, typically)."""
        return self.kernel.create_process(uid=uid)

    # ------------------------------------------------------------------
    # snapshot protocol (docs/SNAPSHOTS.md)

    def snapshot(self, meta=None):
        """Capture the complete simulated state as a :class:`MachineSnapshot`.

        Composes every component's ``state_dict()`` — memory, DRAM
        disturbance, caches, TLBs, paging-structure caches, kernel
        tables, allocators, RNG streams and the metrics registry — plus
        the machine's own clock and memory-level-parallelism
        bookkeeping.  Pure derived memos (LLC index, DRAM geometry,
        fault-model cell cache) are *not* captured; they re-warm
        identically after restore.  The state is the same on both
        tiers, so the snapshot restores into a machine of either.
        ``meta`` is an optional JSON-safe dict stored verbatim (warm
        start records the attacker's ``boot_pid`` there).
        """
        state = {
            "machine": {
                "cycles": self.cycles,
                "instr_seq": self._instr_seq,
                "last_dram_instr": self._last_dram_instr,
                "dram_ops_this_instr": self._dram_ops_this_instr,
                "rng": self.rng.state_dict(),
                "noise_rng": self._noise_rng.state_dict(),
            },
            "physmem": self.physmem.state_dict(),
            "fault_model": self.fault_model.state_dict(),
            "dram": self.dram.state_dict(),
            "caches": self.caches.state_dict(),
            "tlb": self.tlb.state_dict(),
            "walker": self.walker.state_dict(),
            "policy": self.policy.state_dict(),
            "ptm": self.ptm.state_dict(),
            "kernel": self.kernel.state_dict(),
            "metrics": self.metrics.state_dict(),
        }
        if self.chaos is not None:
            state["chaos"] = self.chaos.state_dict()
        return MachineSnapshot.capture(self.config, state, meta=meta)

    def restore(self, snap):
        """Load a :class:`MachineSnapshot` into this machine, in place.

        The machine must be structurally compatible: same config
        fingerprint, and a chaos injector attached exactly when the
        snapshot carries chaos streams (profile equality is checked
        stream-by-stream by the injector).  Its tier may differ from
        the captured machine's.  After restore this machine is
        byte-for-byte indistinguishable from the one that was captured
        — continuing it produces the same traces, cycle counts, and
        bit flips (``tests/test_snapshot.py`` enforces this).  Returns
        ``self``.
        """
        snap.ensure_matches(self.config)
        state = snap.state()
        if ("chaos" in state) != (self.chaos is not None):
            raise SnapshotError(
                "snapshot %s chaos streams but the machine %s a chaos injector"
                % (
                    "carries" if "chaos" in state else "has no",
                    "lacks" if "chaos" in state else "has",
                )
            )
        scalars = state["machine"]
        self.cycles = scalars["cycles"]
        self._instr_seq = scalars["instr_seq"]
        self._last_dram_instr = scalars["last_dram_instr"]
        self._dram_ops_this_instr = scalars["dram_ops_this_instr"]
        self.rng.load_state(scalars["rng"])
        self._noise_rng.load_state(scalars["noise_rng"])
        self.physmem.load_state(state["physmem"])
        self.fault_model.load_state(state["fault_model"])
        self.dram.load_state(state["dram"])
        self.caches.load_state(state["caches"])
        self.tlb.load_state(state["tlb"])
        self.walker.load_state(state["walker"])
        self.policy.load_state(state["policy"])
        self.ptm.load_state(state["ptm"])
        self.kernel.load_state(state["kernel"])
        self.metrics.load_state(state["metrics"])
        if self.chaos is not None:
            self.chaos.load_state(state["chaos"])
        return self

    def fork(self, snap=None, policy=None, trace=None):
        """Branch exploration: an independent machine continuing from here.

        Boots a fresh machine on this machine's config and restores
        ``snap`` (default: a snapshot taken now) into it; the original
        is untouched, and both continuations evolve independently but
        deterministically.  A machine running a non-stock placement
        policy needs a fresh ``policy`` instance of the same class —
        policies hold per-machine zone state and cannot be shared.
        """
        if snap is None:
            snap = self.snapshot()
        if policy is None and type(self.policy) is not StockPolicy:
            raise SnapshotError(
                "fork of a machine running placement policy %r needs a "
                "fresh policy instance of the same class" % self.policy.name
            )
        machine = Machine(
            self.config, policy=policy, trace=trace, fast_path=self.fast_path
        )
        if self.chaos is not None:
            machine.attach_chaos(type(self.chaos)(self.chaos.config))
        return machine.restore(snap)

    def __repr__(self):
        return "Machine(%s, cycles=%d)" % (self.config.name, self.cycles)
