"""Replacement policies for set-associative structures.

The choice of policy is load-bearing for this reproduction: the paper's
Figures 3 and 4 hinge on the TLB and LLC *not* being true-LRU, which is
why minimal reliable eviction sets are larger than the associativity
(12 pages for 4+4 TLB ways, associativity+1 lines for the LLC).  The
default everywhere is therefore :class:`BitPLRU` — a faithful stand-in
for Intel's pseudo-LRU — whose periodic reference-bit resets let a
just-filled victim survive exactly-associativity sweeps with non-trivial
probability.  :class:`TrueLRU` and :class:`RandomPolicy` exist for the
ablation benchmarks.
"""

from repro.errors import ConfigError


class ReplacementPolicy:
    """Per-set replacement state.  One instance per cache set."""

    def __init__(self, ways, rng):
        self.ways = ways
        self._rng = rng

    def touch(self, way):
        """Record a hit on ``way``."""
        raise NotImplementedError

    def on_fill(self, way):
        """Record that a new line was installed into ``way``."""
        self.touch(way)

    def victim(self):
        """Choose the way to evict from a full set."""
        raise NotImplementedError

    def evict_and_fill(self):
        """Pick the victim way and record the fill into it, in one step.

        Exactly ``victim()`` followed by ``on_fill(way)`` — the fast
        access path uses this fused form to skip a dispatch per
        eviction; policies may override it with a flattened equivalent.
        """
        way = self.victim()
        self.on_fill(way)
        return way

    def on_invalidate(self, way):
        """Record that ``way`` was explicitly emptied (clflush/back-inval)."""

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------
    # Subclasses extend the base dict with their own fields.  Reference
    # and fast BitPLRU variants share one encoding (the packed mask) so
    # their snapshots are interchangeable.

    def state_dict(self):
        """JSON-serialisable policy state, including the RNG stream."""
        return {"rng": self._rng.state_dict()}

    def load_state(self, state):
        """Restore state captured by :meth:`state_dict`."""
        self._rng.load_state(state["rng"])


class BitPLRU(ReplacementPolicy):
    """Bit-pseudo-LRU (MRU-bit) policy with bimodal insertion.

    Every way has a reference bit; a hit sets it; when the last zero bit
    would disappear, all other bits reset.  Victims are drawn uniformly
    from the zero-bit ways, which smooths the eviction-probability curve
    the way scheduling noise does on real hardware.

    ``insertion_mru_probability`` < 1 models the non-MRU insertion of
    real Intel structures (bimodal/adaptive insertion): a fill only gets
    its reference bit with that probability, so freshly inserted lines
    are sometimes re-victimised before older residents — pushing the
    reliable eviction-set size further above the associativity, which is
    where the paper measures it (12 pages for 4+4 TLB ways).
    """

    insertion_mru_probability = 1.0

    def __init__(self, ways, rng):
        super().__init__(ways, rng)
        self._bits = [0] * ways
        self._zeros = ways  # cached count keeps touch O(1)

    def touch(self, way):
        if self._bits[way]:
            return
        self._bits[way] = 1
        self._zeros -= 1
        if self._zeros == 0:
            self._bits = [0] * self.ways
            self._bits[way] = 1
            self._zeros = self.ways - 1

    def on_fill(self, way):
        p = self.insertion_mru_probability
        if p >= 1.0 or self._rng.random() < p:
            self.touch(way)
        elif self._bits[way]:
            self._bits[way] = 0
            self._zeros += 1

    def victim(self):
        zero_ways = [w for w, bit in enumerate(self._bits) if not bit]
        if not zero_ways:
            # Unreachable by construction (touch always leaves a zero),
            # but stay safe if state is manipulated externally.
            return self._rng.randint(self.ways)
        return self._rng.choice(zero_ways)

    def on_invalidate(self, way):
        if self._bits[way]:
            self._bits[way] = 0
            self._zeros += 1

    def state_dict(self):
        state = ReplacementPolicy.state_dict(self)
        state["mask"] = sum(bit << way for way, bit in enumerate(self._bits))
        return state

    def load_state(self, state):
        ReplacementPolicy.load_state(self, state)
        mask = state["mask"]
        self._bits = [(mask >> way) & 1 for way in range(self.ways)]
        self._zeros = self.ways - sum(self._bits)


class TrueLRU(ReplacementPolicy):
    """Exact least-recently-used ordering (O(1) touches via stamps)."""

    def __init__(self, ways, rng):
        super().__init__(ways, rng)
        self._clock = ways
        self._stamps = list(range(ways))  # lowest stamp = LRU

    def touch(self, way):
        self._stamps[way] = self._clock
        self._clock += 1

    def victim(self):
        return min(range(self.ways), key=self._stamps.__getitem__)

    def state_dict(self):
        state = ReplacementPolicy.state_dict(self)
        state["clock"] = self._clock
        state["stamps"] = list(self._stamps)
        return state

    def load_state(self, state):
        ReplacementPolicy.load_state(self, state)
        self._clock = state["clock"]
        self._stamps = list(state["stamps"])

    def _two_oldest(self):
        """(LRU way, second-LRU way) by stamp."""
        stamps = self._stamps
        first = second = None
        for way in range(self.ways):
            if first is None or stamps[way] < stamps[first]:
                second = first
                first = way
            elif second is None or stamps[way] < stamps[second]:
                second = way
        return first, second


class NoisyLRU(TrueLRU):
    """LRU with occasional second-victim choice.

    Real Sandy Bridge LLCs behave near-LRU for sequential sweeps but not
    exactly: with an eviction set equal to the associativity the
    eviction rate dips below 100 %, while associativity + 1 is reliably
    enough — precisely the Figure-4 knee.  ``lru_bias`` is the
    probability the true LRU way is chosen; otherwise the second-oldest
    way is victimised.
    """

    lru_bias = 0.85

    def victim(self):
        first, second = self._two_oldest()
        if second is not None and self._rng.random() >= self.lru_bias:
            return second
        return first


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection; hits carry no information."""

    def touch(self, way):
        pass

    def victim(self):
        return self._rng.randint(self.ways)


class TreePLRU(ReplacementPolicy):
    """Classic binary-tree pseudo-LRU; requires power-of-two ways."""

    def __init__(self, ways, rng):
        if ways & (ways - 1):
            raise ConfigError("TreePLRU needs a power-of-two way count")
        super().__init__(ways, rng)
        self._nodes = [0] * (ways - 1)  # heap-indexed internal nodes

    def touch(self, way):
        # Walk from root to the leaf, pointing every node *away* from it.
        node = 0
        lo, hi = 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                self._nodes[node] = 1  # point at the right half
                node = 2 * node + 1
                hi = mid
            else:
                self._nodes[node] = 0  # point at the left half
                node = 2 * node + 2
                lo = mid
        # on_fill/touch share this path; nothing else to update.

    def victim(self):
        node = 0
        lo, hi = 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._nodes[node]:
                # The node points at the right half: victimise there.
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        return lo

    def state_dict(self):
        state = ReplacementPolicy.state_dict(self)
        state["nodes"] = list(self._nodes)
        return state

    def load_state(self, state):
        ReplacementPolicy.load_state(self, state)
        self._nodes = list(state["nodes"])


class SRRIP(ReplacementPolicy):
    """Static re-reference interval prediction (Jaleel et al., 2-bit).

    Hits promote to re-reference-soon (RRPV 0); fills insert at
    RRPV 2 ("long"); victims are ways at RRPV 3, ageing everyone until
    one appears.  Included for the replacement-policy ablations — its
    long-insertion behaviour makes scanning eviction sets *less*
    effective than PLRU, a property some thrash-resistant LLCs exploit.
    """

    MAX_RRPV = 3
    INSERT_RRPV = 2

    def __init__(self, ways, rng):
        super().__init__(ways, rng)
        self._rrpv = [self.MAX_RRPV] * ways

    def touch(self, way):
        self._rrpv[way] = 0

    def on_fill(self, way):
        self._rrpv[way] = self.INSERT_RRPV

    def victim(self):
        while True:
            candidates = [
                w for w, value in enumerate(self._rrpv) if value >= self.MAX_RRPV
            ]
            if candidates:
                return self._rng.choice(candidates)
            self._rrpv = [value + 1 for value in self._rrpv]

    def on_invalidate(self, way):
        self._rrpv[way] = self.MAX_RRPV

    def state_dict(self):
        state = ReplacementPolicy.state_dict(self)
        state["rrpv"] = list(self._rrpv)
        return state

    def load_state(self, state):
        ReplacementPolicy.load_state(self, state)
        self._rrpv = list(state["rrpv"])


class BitPLRUBimodal(BitPLRU):
    """BitPLRU with 25 % non-MRU insertion (see class docstring above).

    Calibrated so the minimal reliable TLB eviction set lands at ~12
    pages for 4+4-way TLBs, matching the paper's Figure 3.
    """

    insertion_mru_probability = 0.75


_ZERO_WAYS_TABLES = {}


def _zero_ways_table(ways):
    """mask -> tuple of zero-bit ways, for every possible reference mask.

    Shared per way count across all sets; 2**ways small tuples, built
    once.  Lets :class:`FastBitPLRU` replace the per-victim zero-way
    list comprehension with one list index.
    """
    table = _ZERO_WAYS_TABLES.get(ways)
    if table is None:
        table = [
            tuple(w for w in range(ways) if not (mask >> w) & 1)
            for mask in range(1 << ways)
        ]
        _ZERO_WAYS_TABLES[ways] = table
    return table


class FastBitPLRU(BitPLRU):
    """:class:`BitPLRU` with reference bits packed into one integer.

    State machine and RNG draws are bit-identical to the reference
    class (the fast-path equivalence suite compares whole runs); the
    fast access path selects it via ``make_policy(..., fast=True)``
    because fills and victim draws run on every cache miss, where the
    reference version's per-way list walks dominate the arithmetic.
    Victim candidates come from the precomputed zero-ways table (for
    way counts where 2**ways stays small) and the eviction+fill
    transition is fused into :meth:`evict_and_fill`.
    """

    def __init__(self, ways, rng):
        ReplacementPolicy.__init__(self, ways, rng)
        self._mask = 0  # bit w set <=> reference bit of way w set
        self._full = (1 << ways) - 1
        self._table = _zero_ways_table(ways) if ways <= 16 else None

    def touch(self, way):
        bit = 1 << way
        mask = self._mask
        if mask & bit:
            return
        mask |= bit
        # Mask full = the last zero bit disappeared: reset the others.
        self._mask = bit if mask == self._full else mask

    def on_fill(self, way):
        p = self.insertion_mru_probability
        if p < 1.0 and self._rng.random() >= p:
            self._mask &= ~(1 << way)  # cold (non-MRU) insertion
            return
        bit = 1 << way
        mask = self._mask
        if mask & bit:
            return
        mask |= bit
        self._mask = bit if mask == self._full else mask

    def _zero_ways(self):
        table = self._table
        if table is not None:
            return table[self._mask]
        mask = self._mask
        return [w for w in range(self.ways) if not (mask >> w) & 1]

    def victim(self):
        zero_ways = self._zero_ways()
        if not zero_ways:
            return self._rng.randint(self.ways)
        # Same draw as rng.choice(zero_ways), one frame cheaper.
        return zero_ways[self._rng.randint(len(zero_ways))]

    def evict_and_fill(self):
        # victim() + on_fill(way) fused; identical draws/transitions.
        # This runs once per miss-with-eviction, the hottest policy
        # transition.
        rng = self._rng
        table = self._table
        mask = self._mask
        if table is not None:
            zero_ways = table[mask]
        else:
            zero_ways = [w for w in range(self.ways) if not (mask >> w) & 1]
        draw = rng.next_u64()  # reduced below as randint() would
        if zero_ways:
            way = zero_ways[draw % len(zero_ways)]
        else:
            way = draw % self.ways
        bit = 1 << way
        p = self.insertion_mru_probability
        if p < 1.0 and rng.random() >= p:
            self._mask = mask & ~bit
            return way
        if mask & bit:
            return way
        mask |= bit
        self._mask = bit if mask == self._full else mask
        return way

    def on_invalidate(self, way):
        self._mask &= ~(1 << way)

    def state_dict(self):
        # Same "mask" encoding as the reference BitPLRU, so snapshots
        # move freely between fast and reference machines.
        state = ReplacementPolicy.state_dict(self)
        state["mask"] = self._mask
        return state

    def load_state(self, state):
        ReplacementPolicy.load_state(self, state)
        self._mask = state["mask"]


class FastBitPLRUBimodal(FastBitPLRU):
    """Fast variant of :class:`BitPLRUBimodal` (same 25 % non-MRU fill)."""

    insertion_mru_probability = 0.75


_POLICIES = {
    "bit_plru": BitPLRU,
    "bit_plru_bimodal": BitPLRUBimodal,
    "noisy_lru": NoisyLRU,
    "srrip": SRRIP,
    "true_lru": TrueLRU,
    "random": RandomPolicy,
    "tree_plru": TreePLRU,
}

#: Accelerated but behaviourally identical implementations, used by the
#: fast access path (docs/PERFORMANCE.md).  Policies without an entry
#: run their reference class on both paths.
_FAST_POLICIES = {
    "bit_plru": FastBitPLRU,
    "bit_plru_bimodal": FastBitPLRUBimodal,
}


def make_policy(name, ways, rng, fast=False):
    """Instantiate the policy called ``name`` for a set of ``ways`` ways.

    ``fast=True`` selects the accelerated variant where one exists;
    the draw sequence and state transitions are identical either way.
    """
    factory = _FAST_POLICIES.get(name) if fast else None
    if factory is None:
        try:
            factory = _POLICIES[name]
        except KeyError:
            raise ConfigError(
                "unknown replacement policy %r (have: %s)"
                % (name, ", ".join(sorted(_POLICIES)))
            )
    return factory(ways, rng)


def policy_names():
    """All registered policy names."""
    return sorted(_POLICIES)
