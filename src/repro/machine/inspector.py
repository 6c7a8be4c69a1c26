"""Privileged evaluation interface — the paper's measurement kernel module.

Section IV-C: "we develop a kernel module that obtains the physical
address of each L1PTE, which we use to verify that the L1PTE is
congruent with the eviction-set ... this kernel module is not required
for the attack and is only used for evaluating".  Everything here is in
that spirit: ground truth for scoring, never an attack dependency.
"""

from collections import namedtuple

from repro.machine.perf import DTLB_MISS_WALK, LLC_MISS

#: Counter values at one moment, and the registry generation they
#: belong to (bumped by every ``MetricsRegistry.reset()``).
PerfSnapshot = namedtuple("PerfSnapshot", ("counters", "generation"))


class Inspector:
    """Ground-truth probes into a machine, for experiments and tests."""

    def __init__(self, machine):
        self.machine = machine

    # -- address translation ground truth --------------------------------

    def frame_of(self, process, vaddr):
        """Physical frame backing ``vaddr``, by direct table walk."""
        hit = self.machine.ptm.lookup(process.cr3, vaddr)
        return None if hit is None else hit[0]

    def l1pte_paddr(self, process, vaddr):
        """Physical address of the L1PTE translating ``vaddr``."""
        return self.machine.ptm.l1pte_paddr_of(process.cr3, vaddr)

    def l1pt_frame(self, process, vaddr):
        """Frame of the Level-1 page table covering ``vaddr``."""
        return self.machine.ptm.l1pt_frame_of(process.cr3, vaddr)

    def l1pt_count(self):
        """Number of live L1PT frames (spray size)."""
        return self.machine.ptm.l1pt_count()

    # -- cache/TLB/DRAM ground truth --------------------------------------

    def llc_set_and_slice(self, paddr):
        """(set within slice, slice) the LLC places ``paddr`` in."""
        return self.machine.caches.llc_set_and_slice(paddr)

    def line_cached_in_llc(self, paddr):
        """Whether the line of ``paddr`` is currently LLC-resident."""
        return self.machine.caches.line_cached_in_llc(paddr)

    def tlb_holds(self, process, vaddr):
        """Whether a 4 KiB translation for ``vaddr`` is TLB-resident."""
        return self.machine.tlb.holds(process.as_id, vaddr >> 12)

    def dram_location(self, paddr):
        """(bank, row, column) of a physical address."""
        return self.machine.geometry.decode(paddr)

    def flips(self):
        """All bit flips the DRAM module has produced so far."""
        return list(self.machine.dram.flips)

    def flip_count(self):
        """Number of flips so far."""
        return self.machine.dram.flip_count()

    # -- performance counters and observability ---------------------------

    def perf_snapshot(self):
        """Snapshot all PMCs, as a baseline for the ``*_delta`` probes.

        The snapshot is only a valid baseline until the next
        ``machine.metrics.reset()``; the deltas detect stale snapshots.
        """
        registry = self.machine.metrics
        return PerfSnapshot(registry.counters(), registry.generation)

    def metrics(self):
        """The machine's full metrics registry (counters + histograms)."""
        return self.machine.metrics

    def trace(self):
        """The machine's trace bus (enable it to record events)."""
        return self.machine.trace

    def tlb_miss_delta(self, before):
        """dtlb_load_misses.miss_causes_a_walk since a snapshot."""
        return self._delta(before, DTLB_MISS_WALK)

    def llc_miss_delta(self, before):
        """longest_lat_cache.miss since a snapshot."""
        return self._delta(before, LLC_MISS)

    def _delta(self, before, name):
        """Change of one counter since a :meth:`perf_snapshot`.

        Contract: a delta is never negative.  A snapshot from before a
        registry ``reset()`` is treated as a restarted baseline of zero
        — the delta is the counter's full post-reset value — and a
        counter rewound below the baseline (``machine.restore`` of an
        earlier snapshot) clamps to 0.
        """
        registry = self.machine.metrics
        current = registry.read(name)
        if before.generation != registry.generation:
            return current
        return max(0, current - before.counters.get(name, 0))

    # -- maintenance -------------------------------------------------------

    def quiesce_caches(self):
        """Flush TLBs, paging-structure caches, and data caches.

        Experiments use this between trials so measurements do not leak
        state into each other; the attack itself never calls it.
        """
        self.machine.tlb.flush_all()
        self.machine.walker.flush_structure_caches()
        self.machine.caches.flush_all()
