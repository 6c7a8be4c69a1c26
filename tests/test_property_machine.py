"""Property-based tests at the machine level: translation correctness,
robustness under arbitrary page-table corruption, and a generated
reference-vs-fast equivalence oracle."""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.chaos import ChaosInjector, chaos_profile
from repro.errors import ReproError, SegmentationFault, TransientFault
from repro.machine import AttackerView, Machine
from repro.machine.configs import tiny_test_config
from repro.mmu.tlb import TLB
from repro.machine.configs import TLBConfig
from repro.utils.rng import DeterministicRng


@settings(max_examples=15, deadline=None)
@given(
    page_offsets=st.lists(st.integers(0, 4095), min_size=1, max_size=8),
    seed=st.integers(1, 1000),
)
def test_translation_matches_ground_truth(page_offsets, seed):
    """machine.access and the software walk agree on physical frames."""
    machine = Machine(tiny_test_config(seed=seed))
    process = machine.boot_process()
    attacker = AttackerView(machine, process)
    va = attacker.mmap(4, populate=True)
    for offset in page_offsets:
        vaddr = va + (offset % 4) * 4096 + (offset & ~7) % 4096
        result = machine.access(process, vaddr)
        truth = machine.ptm.lookup(process.cr3, vaddr)
        assert truth is not None
        assert result.paddr >> 12 == truth[0]


@settings(max_examples=10, deadline=None)
@given(
    corruptions=st.lists(
        st.tuples(st.integers(0, 511), st.integers(0, 63)),
        min_size=1,
        max_size=12,
    )
)
def test_machine_survives_arbitrary_pte_corruption(corruptions):
    """Random bit flips in live page tables never crash the simulator.

    Every access after corruption either succeeds or raises
    SegmentationFault — the two outcomes a real machine/process has —
    never an internal error.  This is the safety net for rowhammer
    chaos: flips land in arbitrary PTE bits.
    """
    machine = Machine(tiny_test_config(seed=77))
    process = machine.boot_process()
    attacker = AttackerView(machine, process)
    va = attacker.mmap(8, populate=True)
    l1pt = machine.ptm.l1pt_frame_of(process.cr3, va)
    for entry_index, bit in corruptions:
        machine.physmem.toggle_bit((l1pt << 12) + entry_index * 8 + (bit // 8), bit % 8)
    machine.tlb.flush_all()
    machine.walker.flush_structure_caches()
    for page in range(8):
        try:
            value = attacker.read(va + page * 4096)
            assert isinstance(value, int)
        except SegmentationFault:
            pass  # a legitimate outcome of corruption


@settings(max_examples=10, deadline=None)
@given(
    corruptions=st.lists(
        st.tuples(st.integers(2, 4), st.integers(0, 511), st.integers(0, 63)),
        min_size=1,
        max_size=6,
    )
)
def test_machine_survives_upper_level_corruption(corruptions):
    """Flips in PDEs/PDPTEs/PML4Es are also survivable."""
    machine = Machine(tiny_test_config(seed=78))
    process = machine.boot_process()
    attacker = AttackerView(machine, process)
    va = attacker.mmap(4, populate=True)
    tables = {
        2: sorted(machine.ptm.table_frames[2]),
        3: sorted(machine.ptm.table_frames[3]),
        4: sorted(machine.ptm.table_frames[4]),
    }
    for level, entry_index, bit in corruptions:
        frames = tables[level]
        if not frames:
            continue
        frame = frames[entry_index % len(frames)]
        machine.physmem.toggle_bit(
            (frame << 12) + entry_index * 8 + (bit // 8), bit % 8
        )
    machine.tlb.flush_all()
    machine.walker.flush_structure_caches()
    for page in range(4):
        try:
            attacker.read(va + page * 4096)
        except ReproError:
            pass  # SegmentationFault or a mapping error via healing


@settings(max_examples=30, deadline=None)
@given(
    vpns=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=40, unique=True)
)
def test_tlb_insert_then_holds(vpns):
    """Freshly inserted translations are immediately resident and correct."""
    tlb = TLB(TLBConfig(), DeterministicRng(5))
    for vpn in vpns:
        tlb.insert(1, vpn, vpn + 7)
        level, frame = tlb.lookup(1, vpn)
        assert frame == vpn + 7


@settings(max_examples=30, deadline=None)
@given(vpns=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=20, unique=True))
def test_tlb_invalidate_removes(vpns):
    tlb = TLB(TLBConfig(), DeterministicRng(6))
    for vpn in vpns:
        tlb.insert(1, vpn, 1)
    for vpn in vpns:
        tlb.invalidate(1, vpn)
        assert not tlb.holds(1, vpn)


# ----------------------------------------------------------------------
# generated reference-vs-fast oracle

#: Drawn byte offsets; each is folded into the target region.
_offsets = st.lists(st.integers(0, (1 << 18) - 1), min_size=1, max_size=48)


class _RecordingMonitor:
    """A DRAM monitor that logs every request it is shown."""

    def __init__(self):
        self.log = []

    def on_dram_access(self, paddr, source, now):
        self.log.append((paddr, source, now))


def _observations(machine):
    """Trace events (field order normalised) and the monitor's log."""
    events = [
        (event.kind, event.component, event.cycle, sorted(event.fields.items()))
        for event in machine.trace.events
    ]
    return events, machine.monitor.log if machine.monitor is not None else None


class ReferenceVsFast(RuleBasedStateMachine):
    """One reference and one fast machine driven by the same steps.

    The reference engine is the oracle: every rule runs identically on
    both machines and asserts equal return values, and the invariant
    asserts equal virtual cycles, metrics, trace events and DRAM
    monitor logs after every step.  Each run draws what observes the
    machines — nothing, a tracer, the ``desktop`` chaos profile or a
    recording monitor — so the batch loop runs both unobserved and
    observed.  A divergence shrinks to a minimal step sequence.
    """

    regions = Bundle("regions")

    @initialize(
        seed=st.integers(1, 1000),
        observer=st.sampled_from(["none", "trace", "chaos", "monitor"]),
    )
    def boot(self, seed, observer):
        self.observer = observer
        self.pair = []
        for fast in (False, True):
            machine = Machine(tiny_test_config(seed=seed), fast_path=fast)
            self._observed(machine)
            self.pair.append((machine, AttackerView(machine, machine.boot_process())))

    def _observed(self, machine, monitor=None):
        """Attach the drawn observer; a restored machine keeps ``monitor``."""
        if self.observer == "trace":
            machine.trace.enable()
        elif self.observer == "chaos":
            machine.attach_chaos(ChaosInjector(chaos_profile("desktop")))
        elif self.observer == "monitor":
            machine.attach_monitor(monitor or _RecordingMonitor())
        return machine

    def _both(self, step):
        """Run ``step(machine, attacker)`` on both engines; assert equal outcomes.

        A SIGSEGV is an outcome too (churn without a TLB shootdown can
        leave a walk looping on a stale table), and so is a chaos
        ``TransientFault``: both engines must raise it at the same
        point and continue from the same state.
        """
        outcomes = []
        for machine, attacker in self.pair:
            try:
                outcomes.append(step(machine, attacker))
            except (SegmentationFault, TransientFault) as fault:
                outcomes.append((type(fault).__name__, str(fault)))
        reference, fast = outcomes
        assert fast == reference
        return reference

    @rule(target=regions, pages=st.integers(1, 64), populate=st.booleans())
    def mmap(self, pages, populate):
        base = self._both(
            lambda machine, attacker: attacker.mmap(pages, populate=populate)
        )
        return base, pages

    @staticmethod
    def _addresses(region, offsets):
        base, pages = region
        return [base + offset % (pages * 4096) for offset in offsets]

    @rule(
        region=regions,
        offsets=_offsets,
        repeat=st.integers(1, 3),
        collect=st.booleans(),
    )
    def touch_many(self, region, offsets, repeat, collect):
        """A batch; with ``collect`` it returns the loaded values, which
        ``_both`` compares.  Per-access latencies show in the ``ACCESS``
        events when the drawn observer is the tracer."""
        vaddrs = self._addresses(region, offsets) * repeat
        self._both(
            lambda machine, attacker: machine.access_many(
                attacker.process, vaddrs, collect=collect
            )
        )

    @rule(
        picks=st.lists(st.tuples(regions, _offsets), min_size=1, max_size=4),
        shuffle=st.randoms(use_true_random=False),
    )
    def read_bulk(self, picks, shuffle):
        """Addresses from several regions, runs broken up by a shuffle:
        the fast tier's per-run table lookup must re-resolve on every
        region change and after every fault."""
        vaddrs = [
            vaddr
            for region, offsets in picks
            for vaddr in self._addresses(region, offsets)
        ]
        shuffle.shuffle(vaddrs)
        self._both(lambda machine, attacker: attacker.read_bulk(vaddrs))

    @rule(
        region=regions,
        page=st.integers(0, 63),
        bit=st.one_of(st.none(), st.integers(12, 25)),
    )
    def corrupt_l1pte(self, region, page, bit):
        """Clear a mapped page's present bit (the next access heals it)
        or flip one of its frame bits (a rowhammer remap), with no TLB
        shootdown."""
        base, pages = region
        vaddr = base + (page % pages) * 4096

        def corrupt(machine, attacker):
            pte = machine.ptm.l1pte_paddr_of(attacker.process.address_space.cr3, vaddr)
            if pte is None:
                return None
            if bit is None:
                machine.physmem.write_word(pte, machine.physmem.read_word(pte) & ~1)
            else:
                machine.physmem.toggle_bit(pte + bit // 8, bit % 8)
            return pte

        self._both(corrupt)

    @rule(region=regions, page=st.integers(0, 63))
    def clflush(self, region, page):
        """Flush a drawn page's line.  After ``churn_l1pt`` a stale
        paging-structure entry can make its translation fault forever;
        both engines must give up with the same SIGSEGV."""
        base, pages = region
        vaddr = base + (page % pages) * 4096
        self._both(
            lambda machine, attacker: machine.clflush(attacker.process, vaddr)
        )

    @rule(region=regions, drop=st.booleans())
    def churn_l1pt(self, region, drop):
        base, _ = region

        def churn(machine, attacker):
            cr3 = attacker.process.address_space.cr3
            if drop:
                return machine.ptm.drop_l1pt(cr3, base)
            return machine.ptm.migrate_l1pt(cr3, base)

        self._both(churn)

    @rule()
    def snapshot_and_restore(self):
        """Both engines' snapshots are equal; continue each engine's
        state on a fresh machine of the *other* tier."""
        snaps = [machine.snapshot() for machine, _ in self.pair]
        assert snaps[0].fingerprint() == snaps[1].fingerprint()
        restored = []
        for (machine, attacker), snap in zip(self.pair, reversed(snaps)):
            fresh = Machine(
                machine.config, trace=machine.trace, fast_path=machine.fast_path
            )
            self._observed(fresh, monitor=machine.monitor).restore(snap)
            assert fresh.snapshot().fingerprint() == snap.fingerprint()
            process = fresh.kernel.processes[attacker.process.pid]
            restored.append((fresh, AttackerView(fresh, process)))
        self.pair = restored

    @invariant()
    def engines_agree(self):
        (reference, _), (fast, _) = self.pair
        assert fast.cycles == reference.cycles
        assert fast.kernel.page_fault_count == reference.kernel.page_fault_count
        assert fast.metrics.snapshot_values() == reference.metrics.snapshot_values()
        assert _observations(fast) == _observations(reference)
        # Both agree up to here; compare only what later steps add.
        for machine, _ in self.pair:
            machine.trace.clear()
            if machine.monitor is not None:
                machine.monitor.log.clear()


ReferenceVsFast.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestReferenceVsFast = ReferenceVsFast.TestCase
