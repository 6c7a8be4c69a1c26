"""Pluggable noise sources: each models one kind of system activity.

A source validates its parameters at construction (negative rates,
empty ranges, and out-of-range probabilities are
:class:`~repro.errors.ConfigError`\\ s, not latent bugs) and implements
one or more of the injector hooks:

* ``on_access(machine, rng, vaddr)`` — called once per user-level
  access, *before* translation; may mutate shared state (caches, TLB,
  page tables) or raise :class:`~repro.errors.TransientFault`;
* ``jitter(machine, rng)`` — extra cycles folded into the access's
  observed latency.

Sources never advance the virtual clock themselves and never touch the
machine's own RNG streams: each gets a private stream forked from the
chaos seed, so attaching chaos cannot perturb the no-chaos simulation
(byte-for-byte) and two same-seed chaos runs are bit-identical.
"""

from repro.errors import ConfigError, OutOfMemory, TransientFault
from repro.observe import CHAOS, CHAOS_CHURN, CHAOS_FAULT, CHAOS_POLLUTE
from repro.params import PAGE_SHIFT


def _require_rate(name, value, source):
    if not 0.0 <= value <= 1.0:
        raise ConfigError(
            "%s: %s must be a rate in [0, 1], got %r" % (source, name, value)
        )
    return float(value)


def _require_positive_int(name, value, source):
    if int(value) != value or value <= 0:
        raise ConfigError(
            "%s: %s must be a positive integer, got %r" % (source, name, value)
        )
    return int(value)


class NoiseSource:
    """Base class: parameter storage plus inert default hooks."""

    #: Registry key; subclasses override.
    name = "noise"

    def on_access(self, machine, rng, vaddr):
        """Per-access hook; may mutate machine state or raise."""

    def jitter(self, machine, rng):
        """Extra latency cycles for this access (0 = none)."""
        return 0

    def params(self):
        """The constructor parameters, for ``repro chaos show``."""
        return {}

    def state_dict(self):
        """Schedule state beyond the RNG stream (docs/SNAPSHOTS.md)."""
        return {}

    def load_state(self, state):
        """Restore what :meth:`state_dict` captured."""

    def __repr__(self):
        inner = ", ".join("%s=%r" % kv for kv in sorted(self.params().items()))
        return "%s(%s)" % (type(self).__name__, inner)


class CachePollution(NoiseSource):
    """A background process streaming through the data caches.

    With probability ``rate`` per attacker access, touches ``lines``
    uniformly random physical lines through the cache hierarchy —
    state-only (the noise runs on another core, so the attacker is not
    charged cycles), but every touch can displace an eviction-set line
    or a cached L1PTE, exactly the decay the self-healing pipeline must
    survive.
    """

    name = "cache_pollution"

    def __init__(self, rate=0.0, lines=8):
        self.rate = _require_rate("rate", rate, self.name)
        self.lines = _require_positive_int("lines", lines, self.name)

    def on_access(self, machine, rng, vaddr):
        if self.rate == 0.0 or not rng.chance(self.rate):
            return
        span = machine.config.dram.size_bytes
        for _ in range(self.lines):
            machine.caches.access(rng.randint(span) & ~63)
        machine.metrics.inc("chaos.cache_pollution.lines", self.lines)
        if machine.trace.enabled:
            machine.trace.emit(
                CHAOS_POLLUTE, CHAOS, source=self.name, lines=self.lines
            )

    def params(self):
        return {"rate": self.rate, "lines": self.lines}


class TLBPollution(NoiseSource):
    """A background process thrashing TLB sets.

    Inserts ``entries`` random translations under the reserved
    address-space id 0 (real processes start at 1), evicting whatever
    shared the sets — the attacker's carefully primed translations
    included.
    """

    name = "tlb_pollution"

    def __init__(self, rate=0.0, entries=4):
        self.rate = _require_rate("rate", rate, self.name)
        self.entries = _require_positive_int("entries", entries, self.name)

    def on_access(self, machine, rng, vaddr):
        if self.rate == 0.0 or not rng.chance(self.rate):
            return
        frames = machine.config.dram.size_bytes >> PAGE_SHIFT
        for _ in range(self.entries):
            vpn = rng.randint(1 << 36)
            machine.tlb.insert(0, vpn, rng.randint(frames))
        machine.metrics.inc("chaos.tlb_pollution.entries", self.entries)
        if machine.trace.enabled:
            machine.trace.emit(
                CHAOS_POLLUTE, CHAOS, source=self.name, entries=self.entries
            )

    def params(self):
        return {"rate": self.rate, "entries": self.entries}


class TimingJitter(NoiseSource):
    """Scheduler/SMI-style noise on observed access latencies.

    With probability ``rate``, an access's measured latency gains a
    uniform ``[1, max_cycles]`` bump — enough to push a cached load
    past a naive DRAM cutoff, which is why thresholds must be applied
    to medians, re-sampled when ambiguous.
    """

    name = "timing_jitter"

    def __init__(self, rate=0.0, max_cycles=8):
        self.rate = _require_rate("rate", rate, self.name)
        self.max_cycles = _require_positive_int("max_cycles", max_cycles, self.name)

    def jitter(self, machine, rng):
        if self.rate == 0.0 or not rng.chance(self.rate):
            return 0
        cycles = 1 + rng.randint(self.max_cycles)
        machine.metrics.inc("chaos.jitter.cycles", cycles)
        return cycles

    def params(self):
        return {"rate": self.rate, "max_cycles": self.max_cycles}


class PageTableChurn(NoiseSource):
    """Kernel activity reallocating live Level-1 page tables.

    Every ``period_cycles`` of virtual time, walks the VMAs of every
    process and, per 2 MiB region with probability ``fraction``, either
    *migrates* its L1PT to a fresh frame (kernel page-table migration;
    transparent after the modelled TLB shootdown) or — for the
    ``drop_fraction`` share of churned regions — *drops* the PDE
    outright (reclaim), leaving the region to heal through demand
    faults.  Either way the attacker's physical-contiguity assumptions
    about sprayed L1PTs decay.
    """

    name = "page_table_churn"

    def __init__(self, period_cycles=1_000_000, fraction=0.05, drop_fraction=0.25):
        self.period_cycles = _require_positive_int(
            "period_cycles", period_cycles, self.name
        )
        self.fraction = _require_rate("fraction", fraction, self.name)
        self.drop_fraction = _require_rate("drop_fraction", drop_fraction, self.name)
        self._next_due = period_cycles

    def on_access(self, machine, rng, vaddr):
        if self.fraction == 0.0 or machine.cycles < self._next_due:
            return
        self._next_due = machine.cycles + self.period_cycles
        migrated = dropped = 0
        ptm = machine.ptm
        for process in machine.kernel.processes.values():
            space = process.address_space
            for vma in space.vmas():
                if vma.huge:
                    continue
                region = vma.start & ~((1 << 21) - 1)
                end = vma.end
                while region < end:
                    if rng.chance(self.fraction):
                        if rng.chance(self.drop_fraction):
                            if ptm.drop_l1pt(space.cr3, region) is not None:
                                dropped += 1
                        else:
                            try:
                                if ptm.migrate_l1pt(space.cr3, region) is not None:
                                    migrated += 1
                            except OutOfMemory:
                                # Like real compaction, churn backs off
                                # under memory pressure rather than
                                # killing the machine.
                                machine.metrics.inc("chaos.churn.skipped")
                    region += 1 << 21
        if migrated or dropped:
            # The kernel's shootdown: stale translations and cached
            # paging-structure entries must not outlive the remap.
            machine.tlb.flush_all()
            machine.walker.flush_structure_caches()
            machine.metrics.inc("chaos.churn.migrated", migrated)
            machine.metrics.inc("chaos.churn.dropped", dropped)
            if machine.trace.enabled:
                machine.trace.emit(
                    CHAOS_CHURN, CHAOS, migrated=migrated, dropped=dropped
                )

    def params(self):
        return {
            "period_cycles": self.period_cycles,
            "fraction": self.fraction,
            "drop_fraction": self.drop_fraction,
        }

    def state_dict(self):
        return {"next_due": self._next_due}

    def load_state(self, state):
        self._next_due = state["next_due"]


class TransientFaultInjector(NoiseSource):
    """Sporadic retryable failures of individual accesses.

    With probability ``probability`` an access raises
    :class:`~repro.errors.TransientFault` instead of completing —
    the modelled analog of an unlucky preemption mid-measurement.
    Recovery wrappers (and the experiment engine) retry these.
    """

    name = "transient_faults"

    def __init__(self, probability=0.0):
        self.probability = _require_rate("probability", probability, self.name)

    def on_access(self, machine, rng, vaddr):
        if self.probability == 0.0 or not rng.chance(self.probability):
            return
        machine.metrics.inc("chaos.faults_injected")
        if machine.trace.enabled:
            machine.trace.emit(CHAOS_FAULT, CHAOS, vaddr=vaddr)
        raise TransientFault(vaddr)

    def params(self):
        return {"probability": self.probability}


#: Source name -> class; the vocabulary chaos profiles speak.
SOURCE_TYPES = {
    source.name: source
    for source in (
        CachePollution,
        TLBPollution,
        TimingJitter,
        PageTableChurn,
        TransientFaultInjector,
    )
}
