"""Two-level TLB with reverse-engineered set mappings.

Gras et al. (USENIX Security 2018) showed the mapping from virtual page
number to TLB set is fixed and knowable: linear for the L1 dTLB and an
XOR-fold for the L2 sTLB on the paper's Sandy/Ivy Bridge machines.
PThammer's TLB eviction sets are built directly from these mappings
(Section III-C), which is why TLB set selection "introduces no false
positives" — the attacker computes the right set instead of probing for
it.  :meth:`TLB.l1_set_of` / :meth:`TLB.l2_set_of` expose the mappings
for exactly that use.

Entries are tagged with an address-space id, so no flush is needed on
the simulated context switches.  4 KiB and 2 MiB translations live in
separate structures, as on real hardware.
"""

from repro.cache.setassoc import SetAssociativeCache
from repro.observe import NULL_TRACE, TLB_EVICT, TLB_HIT
from repro.observe import TLB as TLB_COMPONENT
from repro.utils.rng import hash64
from repro.errors import ConfigError
from repro.params import PAGE_SHIFT, SUPERPAGE_SHIFT

#: Lookup outcomes.
TLB_L1, TLB_L2, TLB_MISS = "tlb_l1", "tlb_l2", "tlb_miss"


def _make_set_mapping(spec, sets):
    """Build a vpn -> set function from a mapping spec.

    ``"linear"`` uses the low vpn bits; ``("xor", k)`` folds bit ``i+k``
    into bit ``i`` (Gras et al. found k=7 for the 128-set sTLB);
    ``("secret", key)`` is a Secure-TLB-style randomised mapping (Deng
    et al., Section V) that attackers cannot reverse engineer.
    """
    mask = sets - 1
    if spec == "linear":
        return lambda vpn: vpn & mask
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "xor":
        shift = spec[1]
        return lambda vpn: (vpn ^ (vpn >> shift)) & mask
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "secret":
        key = spec[1]
        return lambda vpn: hash64(key, vpn) & mask
    raise ConfigError("unknown TLB set mapping %r" % (spec,))


class TLB:
    """L1 dTLB + L2 sTLB for 4 KiB pages, plus an L1 structure for 2 MiB."""

    def __init__(self, config, rng, trace=None, fast=False):
        self.config = config
        #: Trace bus for structured events (docs/OBSERVABILITY.md);
        #: machines pass theirs, standalone TLBs get the inert default.
        self._trace = trace if trace is not None else NULL_TRACE
        # ``fast`` selects the C-scan structure variants (behaviourally
        # identical; machines pass their fast-path flag).
        self.l1 = SetAssociativeCache(
            config.l1d_sets,
            config.l1d_ways,
            config.policy,
            rng.fork(1),
            name="L1dTLB",
            fast=fast,
        )
        self.l2 = SetAssociativeCache(
            config.l2s_sets,
            config.l2s_ways,
            config.policy,
            rng.fork(2),
            name="L2sTLB",
            fast=fast,
        )
        self.l1_huge = SetAssociativeCache(
            config.l1d_huge_sets,
            config.l1d_huge_ways,
            config.policy,
            rng.fork(3),
            name="L1dTLB2M",
            fast=fast,
        )
        self.l1_set_of = _make_set_mapping(config.l1d_mapping, config.l1d_sets)
        self.l2_set_of = _make_set_mapping(config.l2s_mapping, config.l2s_sets)
        self.huge_set_of = _make_set_mapping(config.l1d_huge_mapping, config.l1d_huge_sets)
        if fast:
            self.lookup = self._lookup_fast
        # The TLB caches the *translation*, not just presence; tags map
        # to frames in a side table keyed identically.
        self._frames = {}

    def lookup(self, as_id, vpn):
        """Probe the 4 KiB structures; return (level, frame-or-None)."""
        tag = (as_id, vpn)
        if self.l1.lookup(self.l1_set_of(vpn), tag):
            if self._trace.enabled:
                self._trace.emit(TLB_HIT, TLB_COMPONENT, level=TLB_L1, vpn=vpn)
            return TLB_L1, self._frames[tag]
        if self.l2.lookup(self.l2_set_of(vpn), tag):
            # Promote into the first level, as hardware refills do.
            self._install(self.l1, self.l1_set_of(vpn), tag)
            if self._trace.enabled:
                self._trace.emit(TLB_HIT, TLB_COMPONENT, level=TLB_L2, vpn=vpn)
            return TLB_L2, self._frames[tag]
        return TLB_MISS, None

    def _lookup_fast(self, as_id, vpn):
        """:meth:`lookup` with both probes and the L2 promote inlined.

        Bound over ``lookup`` when the TLB is built with ``fast=True``.
        Counter updates, replacement transitions, trace events, and the
        frame side-table bookkeeping match the reference method exactly;
        the L2-hit promotion (the hot case under a TLB eviction sweep)
        skips the ``_install``/``insert`` frames because the L1 probe
        just above proved the tag absent there.
        """
        tag = (as_id, vpn)
        l1 = self.l1
        l1_set = self.l1_set_of(vpn)
        state = l1._state.get(l1_set)
        if state is not None and tag in state.tags:
            state.policy.touch(state.tags.index(tag))
            l1.hits += 1
            if self._trace.enabled:
                self._trace.emit(TLB_HIT, TLB_COMPONENT, level=TLB_L1, vpn=vpn)
            return TLB_L1, self._frames[tag]
        l1.misses += 1
        l2 = self.l2
        l2_state = l2._state.get(self.l2_set_of(vpn))
        if l2_state is not None and tag in l2_state.tags:
            l2_state.policy.touch(l2_state.tags.index(tag))
            l2.hits += 1
            # Promote into the first level (reference: _install); the
            # tag is absent from L1 — its probe above missed.
            if state is None:
                state = l1._set(l1_set)
            tags = state.tags
            if None in tags:
                way = tags.index(None)
                tags[way] = tag
                state.policy.on_fill(way)
            else:
                way = state.policy.evict_and_fill()
                evicted = tags[way]
                tags[way] = tag
                l1.evictions += 1
                if self._trace.enabled:
                    self._trace.emit(
                        TLB_EVICT, TLB_COMPONENT, structure=l1.name, set=l1_set
                    )
                # _maybe_drop_frame(evicted), inlined.  L1 holds only
                # 4 KiB tags, and a tag lives in exactly one L1 set
                # (its l1_set_of home, which it was just evicted from),
                # so only L2 residency can still pin the frame.
                e_state = l2._state.get(self.l2_set_of(evicted[1]))
                if e_state is None or evicted not in e_state.tags:
                    self._frames.pop(evicted, None)
            if self._trace.enabled:
                self._trace.emit(TLB_HIT, TLB_COMPONENT, level=TLB_L2, vpn=vpn)
            return TLB_L2, self._frames[tag]
        l2.misses += 1
        return TLB_MISS, None

    def lookup_huge(self, as_id, superpage_number):
        """Probe the 2 MiB structure; return (level, frame-or-None)."""
        tag = (as_id, superpage_number, "huge")
        if self.l1_huge.lookup(self.huge_set_of(superpage_number), tag):
            if self._trace.enabled:
                self._trace.emit(
                    TLB_HIT, TLB_COMPONENT, level="tlb_huge", vpn=superpage_number
                )
            return TLB_L1, self._frames[tag]
        return TLB_MISS, None

    def insert(self, as_id, vpn, frame):
        """Install a completed 4 KiB translation into both levels."""
        tag = (as_id, vpn)
        self._frames[tag] = frame
        self._install(self.l1, self.l1_set_of(vpn), tag)
        self._install(self.l2, self.l2_set_of(vpn), tag)

    def insert_huge(self, as_id, superpage_number, frame):
        """Install a completed 2 MiB translation."""
        tag = (as_id, superpage_number, "huge")
        self._frames[tag] = frame
        self._install(self.l1_huge, self.huge_set_of(superpage_number), tag)

    def _install(self, structure, set_index, tag):
        evicted = structure.insert(set_index, tag)
        if evicted is not None:
            if self._trace.enabled:
                self._trace.emit(
                    TLB_EVICT, TLB_COMPONENT, structure=structure.name, set=set_index
                )
            self._maybe_drop_frame(evicted)

    def _maybe_drop_frame(self, tag):
        """Free the side-table slot once a tag is resident nowhere."""
        if tag[-1] == "huge":
            resident = self.l1_huge.contains(self.huge_set_of(tag[1]), tag)
        else:
            vpn = tag[1]
            resident = self.l1.contains(self.l1_set_of(vpn), tag) or self.l2.contains(
                self.l2_set_of(vpn), tag
            )
        if not resident:
            self._frames.pop(tag, None)

    def invalidate(self, as_id, vpn):
        """invlpg: drop one 4 KiB translation everywhere (privileged)."""
        tag = (as_id, vpn)
        self.l1.invalidate(self.l1_set_of(vpn), tag)
        self.l2.invalidate(self.l2_set_of(vpn), tag)
        self._frames.pop(tag, None)

    def flush_all(self):
        """Full TLB flush (privileged)."""
        self.l1.flush_all()
        self.l2.flush_all()
        self.l1_huge.flush_all()
        self._frames.clear()

    def holds(self, as_id, vpn):
        """Whether a 4 KiB translation is resident (evaluation only)."""
        tag = (as_id, vpn)
        return self.l1.contains(self.l1_set_of(vpn), tag) or self.l2.contains(
            self.l2_set_of(vpn), tag
        )

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        """Both 4 KiB levels, the 2 MiB structure, and the frame table."""
        return {
            "l1": self.l1.state_dict(),
            "l2": self.l2.state_dict(),
            "l1_huge": self.l1_huge.state_dict(),
            "frames": dict(self._frames),
        }

    def load_state(self, state):
        """Restore state captured by :meth:`state_dict`."""
        self.l1.load_state(state["l1"])
        self.l2.load_state(state["l2"])
        self.l1_huge.load_state(state["l1_huge"])
        self._frames = dict(state["frames"])


def vpn_of(vaddr):
    """Virtual page number (4 KiB) of an address."""
    return vaddr >> PAGE_SHIFT


def superpage_number_of(vaddr):
    """Superpage (2 MiB) number of an address."""
    return vaddr >> SUPERPAGE_SHIFT
