"""Three-level inclusive data-cache hierarchy (L1D, L2, sliced LLC).

Inclusivity is the property PThammer needs (Section III-D): because the
LLC is inclusive of L1 and L2, evicting the L1PTE's line from the LLC
back-invalidates it everywhere, forcing the next page-table walk to
DRAM.  ``access`` models that back-invalidation explicitly.

Page-table entries travel through the same hierarchy as user data —
there are no separate PTE caches below the paging-structure caches —
which is why a user-controlled eviction set can evict a kernel-owned
L1PTE line at all.
"""

from repro.cache.setassoc import SetAssociativeCache
from repro.observe import CACHE_EVICT, NULL_TRACE
from repro.observe import CACHE as CACHE_COMPONENT
from repro.utils.rng import hash64
from repro.cache.slices import SliceHash
from repro.params import LINE_SHIFT

#: Levels returned by :meth:`CacheHierarchy.access`.
L1, L2, LLC, MEM = "l1", "l2", "llc", "mem"


class CacheHierarchy:
    """L1D + L2 + sliced inclusive LLC, addressed by physical address."""

    def __init__(self, config, rng, trace=None, fast=False):
        self.config = config
        #: Trace bus for structured events (docs/OBSERVABILITY.md).
        self._trace = trace if trace is not None else NULL_TRACE
        #: Fast-path flag (machines pass theirs): selects the C-scan
        #: structure variants, the inlined :meth:`access`, and the LLC
        #: index memo — all behaviourally identical to the reference
        #: implementations, so REPRO_FAST_PATH=0 measures the true
        #: reference cost (docs/PERFORMANCE.md).
        self.fast = bool(fast)
        self.l1 = SetAssociativeCache(
            config.l1_sets,
            config.l1_ways,
            config.l1_policy,
            rng.fork(1),
            name="L1D",
            fast=fast,
        )
        self.l2 = SetAssociativeCache(
            config.l2_sets,
            config.l2_ways,
            config.l2_policy,
            rng.fork(2),
            name="L2",
            fast=fast,
        )
        self.llc = SetAssociativeCache(
            config.llc_sets_per_slice * config.llc_slices,
            config.llc_ways,
            config.policy,
            rng.fork(3),
            name="LLC",
            fast=fast,
        )
        self.slice_hash = SliceHash(config.llc_slices, config.slice_masks)
        self._l1_mask = config.l1_sets - 1
        self._l2_mask = config.l2_sets - 1
        self._llc_set_mask = config.llc_sets_per_slice - 1
        self._sets_per_slice = config.llc_sets_per_slice
        self._inclusive = getattr(config, "inclusive", True)
        self._llc_index_key = getattr(config, "llc_index_key", 0)
        self._llc_total_sets = config.llc_sets_per_slice * config.llc_slices
        #: line -> LLC global set index memo.  The mapping is a pure
        #: function of the line address for a machine's lifetime, so
        #: the memo never invalidates.
        self._index_memo = {} if fast else None
        self.back_invalidations = 0
        if fast:
            self.access = self._access_fast

    def llc_set_and_slice(self, paddr):
        """(set index within slice, slice index) of a physical address."""
        line = paddr >> LINE_SHIFT
        if self._llc_index_key:
            index = self._llc_index(line)
            return index % self._sets_per_slice, index // self._sets_per_slice
        return line & self._llc_set_mask, self.slice_hash.slice_of(paddr)

    def _llc_index(self, line):
        memo = self._index_memo
        if memo is not None:
            index = memo.get(line)
            if index is not None:
                return index
        if self._llc_index_key:
            # CEASER/ScatterCache-style keyed index randomisation
            # (Section V): physically-nearby lines land in unrelated
            # sets, so offset-based congruence — and with it eviction-set
            # construction — collapses.
            index = hash64(self._llc_index_key, line) % self._llc_total_sets
        else:
            set_index = line & self._llc_set_mask
            slice_index = self.slice_hash.slice_of(line << LINE_SHIFT)
            index = slice_index * self._sets_per_slice + set_index
        if memo is not None:
            memo[line] = index
        return index

    def access(self, paddr):
        """Look up one physical address, filling on miss.

        Returns the level that served the request: ``'l1'``, ``'l2'``,
        ``'llc'``, or ``'mem'`` (LLC miss — the caller must charge DRAM
        latency).  In the non-inclusive configuration fills bypass the
        LLC and L2 victims drop into it instead.

        This is the reference implementation; ``fast=True`` hierarchies
        bind :meth:`_access_fast` over it.
        """
        line = paddr >> LINE_SHIFT
        l1_set = line & self._l1_mask
        if self.l1.lookup(l1_set, line):
            return L1
        l2_set = line & self._l2_mask
        if self.l2.lookup(l2_set, line):
            self.l1.insert(l1_set, line)
            return L2
        llc_index = self._llc_index(line)
        if self.llc.lookup(llc_index, line):
            self._fill_l2(l2_set, line)
            self.l1.insert(l1_set, line)
            return LLC
        if self._inclusive:
            evicted = self.llc.insert(llc_index, line)
            if evicted is not None:
                self._back_invalidate(evicted)
        self._fill_l2(l2_set, line)
        self.l1.insert(l1_set, line)
        return MEM

    def _access_fast(self, paddr):
        """:meth:`access` with the level probes and fills inlined.

        Same scan order, hit/miss/eviction counters, replacement
        updates, and fill/back-invalidation sequence as the reference
        method — access() runs for every data load *and* page-table
        fetch, and at that rate the call frames dominate the work.
        The inlined fills skip ``insert``'s resident rescan because the
        probe just above proved the line absent from that level.
        """
        line = paddr >> LINE_SHIFT
        l1 = self.l1
        l1_set = line & self._l1_mask
        l1_state = l1._state.get(l1_set)
        if l1_state is not None and line in l1_state.tags:
            l1_state.policy.touch(l1_state.tags.index(line))
            l1.hits += 1
            return L1
        l1.misses += 1
        l2 = self.l2
        l2_set = line & self._l2_mask
        l2_state = l2._state.get(l2_set)
        if l2_state is not None and line in l2_state.tags:
            l2_state.policy.touch(l2_state.tags.index(line))
            l2.hits += 1
            self._fill_absent(l1, l1_state, l1_set, line)
            return L2
        l2.misses += 1
        llc = self.llc
        inclusive = self._inclusive
        llc_index = self._llc_index(line)
        llc_state = llc._state.get(llc_index)
        if llc_state is not None and line in llc_state.tags:
            llc_state.policy.touch(llc_state.tags.index(line))
            llc.hits += 1
            if inclusive:
                self._fill_absent(l2, l2_state, l2_set, line)
            else:
                self._fill_l2(l2_set, line)
            self._fill_absent(l1, l1_state, l1_set, line)
            return LLC
        llc.misses += 1
        if inclusive:
            evicted = self._fill_absent(llc, llc_state, llc_index, line)
            if evicted is not None:
                self._back_invalidate(evicted)
            self._fill_absent(l2, l2._state.get(l2_set), l2_set, line)
        else:
            self._fill_l2(l2_set, line)
        self._fill_absent(l1, l1._state.get(l1_set), l1_set, line)
        return MEM

    @staticmethod
    def _fill_absent(cache, state, set_index, tag):
        """``cache.insert`` for a tag the probe just proved absent.

        Returns the evicted tag or None.  Skips the resident rescan;
        free-slot fill and victim choice (via the policy's fused
        ``evict_and_fill``) match the reference insert exactly.
        """
        if state is None:
            state = cache._set(set_index)
        tags = state.tags
        if None in tags:
            way = tags.index(None)
            tags[way] = tag
            state.policy.on_fill(way)
            return None
        way = state.policy.evict_and_fill()
        evicted = tags[way]
        tags[way] = tag
        cache.evictions += 1
        return evicted

    def _fill_l2(self, l2_set, line):
        """Install into L2; non-inclusive LLCs absorb the L2 victim."""
        victim = self.l2.insert(l2_set, line)
        if not self._inclusive and victim is not None:
            self.llc.insert(self._llc_index(victim), victim)

    def _back_invalidate(self, line):
        """Drop an LLC-evicted line from the inner levels (inclusivity)."""
        if self._trace.enabled:
            self._trace.emit(CACHE_EVICT, CACHE_COMPONENT, line=line)
        dropped_l1 = self.l1.invalidate(line & self._l1_mask, line)
        dropped_l2 = self.l2.invalidate(line & self._l2_mask, line)
        if dropped_l1 or dropped_l2:
            self.back_invalidations += 1

    def flush_line(self, paddr):
        """clflush: remove the line containing ``paddr`` from every level."""
        line = paddr >> LINE_SHIFT
        self.l1.invalidate(line & self._l1_mask, line)
        self.l2.invalidate(line & self._l2_mask, line)
        self.llc.invalidate(self._llc_index(line), line)

    def warm(self, paddr):
        """Install a line at every level, as a CPU store would leave it.

        The simulated kernel uses this after writing page-table entries
        so freshly-created PTEs start out cached, like on real hardware.
        """
        line = paddr >> LINE_SHIFT
        evicted = self.llc.insert(self._llc_index(line), line)
        if evicted is not None:
            self._back_invalidate(evicted)
        self.l2.insert(line & self._l2_mask, line)
        self.l1.insert(line & self._l1_mask, line)

    def line_cached_in_llc(self, paddr):
        """Whether the line of ``paddr`` is LLC-resident (evaluation only)."""
        line = paddr >> LINE_SHIFT
        return self.llc.contains(self._llc_index(line), line)

    def flush_all(self):
        """Empty every level (privileged; used between experiments)."""
        self.l1.flush_all()
        self.l2.flush_all()
        self.llc.flush_all()

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        """All three levels plus counters.

        The LLC index memo is *not* captured: it is a pure function of
        line addresses for the machine's lifetime and simply re-warms
        after restore without changing behaviour.
        """
        return {
            "l1": self.l1.state_dict(),
            "l2": self.l2.state_dict(),
            "llc": self.llc.state_dict(),
            "back_invalidations": self.back_invalidations,
        }

    def load_state(self, state):
        """Restore state captured by :meth:`state_dict`."""
        self.l1.load_state(state["l1"])
        self.l2.load_state(state["l2"])
        self.llc.load_state(state["llc"])
        self.back_invalidations = state["back_invalidations"]
