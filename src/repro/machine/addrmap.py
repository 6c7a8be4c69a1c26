"""Memoized address mappings behind the machine's fast access path.

Three mappings on the access hot path are pure functions of their
input (or change only under explicit, observable kernel events), yet
the reference path recomputes them on every access:

* virtual 2 MiB region -> L1 page-table frame (``bulk_read``'s software
  walk re-derives it per call),
* physical line -> LLC (set, slice) index (an XOR hash per lookup), and
* physical address -> DRAM (bank, row) (two shifts and an XOR per
  DRAM request).

:class:`AddressMap` owns the first — the only one that can go *stale*,
because the kernel (or :mod:`repro.chaos` page-table churn) migrates,
drops, and creates L1 page tables at runtime.  The other two are pure
for a machine's lifetime and are memoized inside
:class:`~repro.cache.hierarchy.CacheHierarchy` and
:class:`~repro.dram.module.DRAMModule` (gated on the same fast-path
flag); this module is also where the gate itself
(:func:`resolve_tier`) lives.

Invalidation model (documented in docs/PERFORMANCE.md): every memo
entry stores the *generation* of its 2 MiB region at fill time.
:class:`~repro.kernel.pagetable.PageTableManager` notifies the map
whenever a region's L1PT identity changes — creation of a new L1PT,
``migrate_l1pt``, ``drop_l1pt`` — which bumps that region's generation
and thereby invalidates exactly the entries covering it.  Mutating
entries *within* an existing L1PT (map/unmap of a single page) does not
bump the generation: the memo caches the table's frame, not its
contents, and contents are always read live.  This mirrors the
consistency model of the hardware paging-structure caches, which also
cache intermediate-table pointers and rely on explicit shootdowns.
"""

import os

#: Environment variable selecting the access path; ``0`` forces the
#: reference path everywhere (the escape hatch documented in
#: docs/PERFORMANCE.md).  :func:`resolve_tier` is its only parser.
FAST_PATH_ENV = "REPRO_FAST_PATH"

#: Access-engine tiers (docs/PERFORMANCE.md).  ``reference`` is the
#: oracle the equivalence suite compares against; ``fast`` is the
#: memoizing/batching engine (the default).
TIER_REFERENCE = "reference"
TIER_FAST = "fast"
TIERS = (TIER_REFERENCE, TIER_FAST)

#: ``REPRO_FAST_PATH`` spellings that force the reference engine.
_OFF_VALUES = ("0", "false", "no", "off", TIER_REFERENCE)


def resolve_tier(value=None):
    """Resolve an access-engine tier from a flag, tier name, or the env.

    ``value`` may be ``None`` (consult ``REPRO_FAST_PATH``; unset means
    fast), a bool (the historical ``fast_path`` flag: ``True`` →
    fast, ``False`` → reference), or a tier name from :data:`TIERS`.
    Unknown environment spellings fall back to the fast tier — the
    variable was historically truthy/falsy and every truthy value meant
    "accelerated" — but an unknown *explicit* tier name raises, so a
    typo in ``Machine(fast_path="refrence")`` fails loudly.
    """
    if value is None:
        env = os.environ.get(FAST_PATH_ENV)
        if env is not None and env.strip().lower() in _OFF_VALUES:
            return TIER_REFERENCE
        return TIER_FAST
    if isinstance(value, str):
        text = value.strip().lower()
        if text in _OFF_VALUES:
            return TIER_REFERENCE
        if text in (TIER_FAST, "1", "true", "yes", "on"):
            return TIER_FAST
        from repro.errors import ConfigError

        raise ConfigError(
            "unknown access-engine tier %r (have: %s)" % (value, ", ".join(TIERS))
        )
    return TIER_FAST if value else TIER_REFERENCE


#: Sentinel returned by :meth:`AddressMap.cached_l1pt` on a memo miss —
#: distinct from ``None``, which is a *valid cached value* (a region
#: with no L1 page table, e.g. superpage-mapped).
ADDRMAP_MISS = object()


class AddressMap:
    """Per-machine memo of the region -> L1PT-frame mapping.

    Entries are keyed ``(cr3, region)`` where ``region`` is
    ``vaddr >> 21`` (one L1 page table covers one 2 MiB region), and
    carry the region's generation at fill time.  A generation bump —
    driven by :meth:`note_l1pt_change` — invalidates lazily: stale
    entries are simply re-resolved on their next lookup.

    Generations are keyed by region only, not by address space: the
    page-table manager does not know which CR3 it is editing under, so
    a change in any address space invalidates that region for all of
    them.  Over-invalidation is safe (one extra software walk); missed
    invalidation would be a correctness bug.
    """

    __slots__ = ("_entries", "_generations", "hits", "misses", "invalidations")

    def __init__(self):
        self._entries = {}
        self._generations = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def note_l1pt_change(self, vaddr):
        """Invalidate the 2 MiB region of ``vaddr`` (kernel hook).

        Wired to :class:`~repro.kernel.pagetable.PageTableManager`'s
        ``notify_l1pt_change``: called when a region's L1PT is created,
        migrated, or dropped.
        """
        region = vaddr >> 21
        self._generations[region] = self._generations.get(region, 0) + 1
        self.invalidations += 1

    def cached_l1pt(self, cr3, vaddr):
        """Memoized L1PT frame for ``vaddr``, or :data:`ADDRMAP_MISS`.

        Split from :meth:`store_l1pt` so hot loops can resolve misses
        inline instead of paying a closure allocation per address.
        A hit requires the entry's fill generation to match the
        region's current generation; ``None`` is a valid hit value
        (region has no L1PT).
        """
        region = vaddr >> 21
        entry = self._entries.get((cr3, region))
        if entry is not None and entry[0] == self._generations.get(region, 0):
            self.hits += 1
            return entry[1]
        return ADDRMAP_MISS

    def store_l1pt(self, cr3, vaddr, frame):
        """Record a freshly resolved L1PT frame (or ``None``) for ``vaddr``."""
        region = vaddr >> 21
        self.misses += 1
        self._entries[(cr3, region)] = (self._generations.get(region, 0), frame)

    def l1pt_frame(self, cr3, vaddr, resolve):
        """Memoized L1PT frame (or None) covering ``vaddr`` under ``cr3``.

        ``resolve()`` performs the authoritative software walk on miss
        (typically ``ptm.l1pt_frame_of``); its result — including
        ``None`` for unbacked or superpage-mapped regions — is cached
        until the region's generation moves.
        """
        frame = self.cached_l1pt(cr3, vaddr)
        if frame is not ADDRMAP_MISS:
            return frame
        frame = resolve()
        self.store_l1pt(cr3, vaddr, frame)
        return frame

    def region_generation(self, vaddr):
        """Current generation of the 2 MiB region of ``vaddr`` (tests)."""
        return self._generations.get(vaddr >> 21, 0)

    def invalidate_all(self):
        """Drop every memoized entry (full shootdown analog)."""
        self._entries.clear()
        self._generations.clear()

    def stats(self):
        """Hit/miss/invalidation counts plus live entry count."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        """Entries *with* their fill generations, plus the counters.

        Generations are real state, not a derivable cache: an entry
        filled before a churn event must stay stale after restore, so
        both the entry's fill generation and the region's current
        generation travel in the snapshot.
        """
        return {
            "entries": {key: list(entry) for key, entry in self._entries.items()},
            "generations": dict(self._generations),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    def load_state(self, state):
        """Restore state captured by :meth:`state_dict`."""
        self._entries = {
            key: (entry[0], entry[1]) for key, entry in state["entries"].items()
        }
        self._generations = dict(state["generations"])
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.invalidations = state["invalidations"]

    def __repr__(self):
        return "AddressMap(entries=%d, hits=%d, misses=%d, invalidations=%d)" % (
            len(self._entries),
            self.hits,
            self.misses,
            self.invalidations,
        )


class CounterBatch:
    """Accumulates counter increments for one deferred flush.

    Duck-types the ``inc`` side of
    :class:`~repro.observe.metrics.MetricsRegistry` so
    :class:`~repro.mmu.walker.PageTableWalker` can count into it while
    a batch is in flight; :meth:`Machine.access_many
    <repro.machine.machine.Machine.access_many>` flushes the totals
    into the real registry in a ``finally`` block, so mid-batch faults
    (chaos transients, SIGSEGV) never lose counts.
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def inc(self, name, amount=1):
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount

    def flush_into(self, metrics):
        """Add every batched total to ``metrics`` and clear the batch."""
        for name, amount in self.counts.items():
            if amount:
                metrics.inc(name, amount)
        self.counts.clear()
