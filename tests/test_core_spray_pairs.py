"""Page-table spraying and double-sided pair finding."""

import pytest

from repro.core.pair_finding import PairFinder, slot_stride_for_pairs
from repro.core.spray import TARGET_PAGE_INDEX, PageTableSpray, marker_value
from repro.core.tlb_eviction import TLBEvictionSetBuilder
from repro.defenses import DEFENSE_PRESETS
from repro.errors import OutOfMemory
from repro.machine import AttackerView, Machine
from repro.machine.configs import tiny_test_config
from repro.params import SUPERPAGE_SIZE


@pytest.fixture
def spray(attacker):
    return PageTableSpray(attacker, slots=160, shm_pages=4).execute()


def test_spray_creates_one_l1pt_per_slot(machine, attacker, inspector):
    before = inspector.l1pt_count()
    PageTableSpray(attacker, slots=40, shm_pages=4).execute()
    assert inspector.l1pt_count() >= before + 40


def test_spray_uses_few_user_frames(machine, attacker, spray):
    assert len(spray.shm.frames) == 4


def test_markers_read_back(attacker, spray):
    for slot in (0, 7, 100):
        for page in (0, 5, 500):
            va = spray.page_va(slot, page)
            assert attacker.read(va) == spray.expected_marker(slot, page)


def test_marker_values_distinct():
    values = {marker_value(i) for i in range(16)}
    assert len(values) == 16
    assert all(value & 1 for value in values)


def test_clean_scan_is_empty(spray):
    assert spray.scan() == []


def test_scan_detects_remap(machine, attacker, inspector, spray):
    """Manually corrupt one L1PTE frame bit and check the scan sees it."""
    slot = 33
    va = spray.page_va(slot, 0)
    pte_paddr = inspector.l1pte_paddr(attacker.process, va)
    machine.physmem.toggle_bit(pte_paddr + 1, 4)  # frame bit
    machine.tlb.flush_all()
    mismatches = spray.scan()
    assert any(m.slot == slot and m.page == 0 for m in mismatches)


def _per_page_scan(machine, process, spray, slots):
    """The scan as one marker compare per page: the oracle for the
    per-slot compare in ``PageTableSpray.scan``."""
    pages = [
        (slot, page, spray.page_va(slot, page))
        for slot in slots
        for page in range(spray.pages_per_slot)
    ]
    values = machine.bulk_read(process, [va for _, _, va in pages])
    return [
        (slot, page, va, value)
        for (slot, page, va), value in zip(pages, values)
        if value != spray.expected_marker(slot, page)
    ]


@pytest.mark.parametrize(
    "slot_range", [None, range(30, 100), [90, 5, 33]], ids=["all", "range", "list"]
)
def test_scan_matches_a_per_page_compare(machine, attacker, inspector, spray, slot_range):
    """Corrupt PTEs in two slots — frame-bit remaps, a cleared present
    bit (healed by the scan) and a frame the module never wrote — then
    scan one machine and compare each page on an identical fork."""
    process = attacker.process
    flips = [(33, 0, 12), (33, 511, 13), (90, 7, 14), (90, 8, 25)]
    for slot, page, bit in flips:
        pte = inspector.l1pte_paddr(process, spray.page_va(slot, page))
        machine.physmem.toggle_bit(pte + bit // 8, bit % 8)
    pte = inspector.l1pte_paddr(process, spray.page_va(90, 100))
    machine.physmem.write_word(pte, machine.physmem.read_word(pte) & ~1)
    twin = machine.fork()
    slots = range(spray.slots) if slot_range is None else slot_range
    expected = _per_page_scan(twin, twin.kernel.processes[process.pid], spray, slots)
    found = [(m.slot, m.page, m.vaddr, m.value) for m in spray.scan(slot_range)]
    assert found == expected
    assert {slot for slot, _, _, _ in found} <= {33, 90}
    if slot_range is None:
        assert len(found) >= 3  # the remaps show; the healed page does not
    assert machine.cycles == twin.cycles
    assert machine.kernel.page_fault_count == twin.kernel.page_fault_count


@pytest.mark.parametrize("defense", ["none", "cta", "zebram"])
def test_spray_restarts_after_running_out_of_page_tables(defense):
    """Out of page-table frames mid-spray, ``execute`` raises
    ``OutOfMemory`` without leaving the half-populated slot mapped: a
    retry fails the same clean way instead of with an overlapping
    mapping, and once memory is back the spray completes.  Both tiers
    end in the same state."""
    states = []
    for fast in (False, True):
        machine = Machine(
            tiny_test_config(seed=4), policy=DEFENSE_PRESETS[defense](), fast_path=fast
        )
        attacker = AttackerView(machine, machine.boot_process())
        zone = machine.policy.zone("pagetable")
        hoard = []
        while True:
            try:
                hoard.append(zone.alloc())
            except OutOfMemory:
                break
        for frame in hoard[:8]:  # room for a few slots' tables, not all
            zone.free(frame)
        spray = PageTableSpray(attacker, slots=12, shm_pages=4)
        space = attacker.process.address_space
        with pytest.raises(OutOfMemory):
            spray.execute()
        mapped = space.vma_count()
        assert 0 < mapped < spray.slots
        with pytest.raises(OutOfMemory):
            spray.execute()
        assert space.vma_count() == mapped
        assert space.find_vma(spray.slot_base(mapped)) is None
        for frame in hoard[8:]:
            zone.free(frame)
        spray.execute()
        assert space.vma_count() == spray.slots
        assert spray.scan() == []
        states.append(machine.snapshot().state())
    assert states[0] == states[1]


def test_target_va_properties(spray):
    va = spray.target_va(9)
    assert va % 4096 == 0
    assert (va >> 12) & 511 == TARGET_PAGE_INDEX


def test_spray_validation(attacker):
    with pytest.raises(ValueError):
        PageTableSpray(attacker, slots=4, shm_pages=1)


# ----------------------------------------------------------------------
# pair finding


def test_slot_stride(facts):
    stride = slot_stride_for_pairs(facts)
    assert stride * SUPERPAGE_SIZE == 2 * facts.row_span_bytes * 512
    assert stride == 128


def test_candidate_pairs_sampled_across_spray(attacker, facts, spray):
    finder = PairFinder(attacker, facts, spray, None, 12)
    pairs = finder.candidate_pairs(limit=8)
    assert len(pairs) == 8
    stride = slot_stride_for_pairs(facts)
    assert all(p.slot_b - p.slot_a == stride for p in pairs)
    assert max(p.slot_a for p in pairs) > 16  # spread, not just the head


def test_candidate_pairs_empty_when_spray_too_small(attacker, facts):
    small = PageTableSpray(attacker, slots=16, shm_pages=4)
    small.base = 0x2800_0000_0000
    small.execute()
    finder = PairFinder(attacker, facts, small, None, 12)
    assert finder.candidate_pairs() == []


def test_conflict_classification_against_ground_truth(
    machine, attacker, inspector, facts, spray
):
    from repro.core.llc_eviction import select_llc_eviction_set
    from repro.core.llc_pool import LLCPoolBuilder
    from repro.core.timing_probe import calibrate_latency_threshold

    threshold = calibrate_latency_threshold(attacker)
    pool = LLCPoolBuilder(
        attacker, facts, threshold, set_size=facts.llc_ways + 1
    ).prepare(superpages=True, line_offsets=[1])
    tlb_builder = TLBEvictionSetBuilder(attacker, facts)
    finder = PairFinder(attacker, facts, spray, tlb_builder, 12)
    level = finder.conflict_level()
    assert level > machine.config.dram.row_conflict_cycles * 0.8

    llc_sets = {}

    def llc_for(va):
        if va not in llc_sets:
            tlb_set = tlb_builder.build(va, 12)
            llc_sets[va], _ = select_llc_eviction_set(attacker, pool, tlb_set, va)
        return llc_sets[va]

    correct = 0
    pairs = finder.candidate_pairs(limit=6)
    for pair in pairs:
        finder.conflict_score(pair, llc_for(pair.va_a), llc_for(pair.va_b))
    slow, fast = PairFinder.split_by_conflict(pairs, level)
    for pair, flagged in [(p, True) for p in slow] + [(p, False) for p in fast]:
        pte_a = inspector.l1pte_paddr(attacker.process, pair.va_a)
        pte_b = inspector.l1pte_paddr(attacker.process, pair.va_b)
        loc_a, loc_b = inspector.dram_location(pte_a), inspector.dram_location(pte_b)
        same_bank = loc_a.bank == loc_b.bank and loc_a.row != loc_b.row
        if flagged == same_bank:
            correct += 1
    assert correct >= len(pairs) - 1  # paper: ~95 % accuracy


def test_timing_guided_fallback_under_bank_hashing():
    """Extension: DRAMA-style pair search survives XOR bank hashing."""
    from repro.core.pthammer import PThammerAttack, PThammerConfig, PThammerReport
    from repro.machine import AttackerView, Inspector, Machine
    from repro.machine.configs import tiny_test_config

    config = tiny_test_config(seed=3)
    config.dram.row_xor_mask = 0b11
    machine = Machine(config)
    attacker = AttackerView(machine, machine.boot_process())
    inspector = Inspector(machine)
    attack = PThammerAttack(
        attacker, PThammerConfig(spray_slots=256, pair_sample=8)
    )
    report = PThammerReport(machine_name="t", superpages=True)
    attack.prepare(report)
    finder = PairFinder(attacker, attack.facts, attack.spray, attack.tlb_builder, 12)
    llc_sets = {}
    get = lambda va: attack._llc_set_for(va, llc_sets)
    level = finder.conflict_level()

    # The blind stride is broken by the hash...
    stride = finder.candidate_pairs(limit=8)
    for pair in stride:
        finder.conflict_score(pair, get(pair.va_a), get(pair.va_b))
    slow, _ = PairFinder.split_by_conflict(stride, level)
    assert len(slow) <= 1

    # ... but timing-guided search still finds same-bank pairs.
    found = finder.search_pairs_by_timing(get, level, slot_sample=16, anchors=4)
    assert found
    verified = 0
    for pair in found:
        loc_a = inspector.dram_location(inspector.l1pte_paddr(attacker.process, pair.va_a))
        loc_b = inspector.dram_location(inspector.l1pte_paddr(attacker.process, pair.va_b))
        if loc_a.bank == loc_b.bank and loc_a.row != loc_b.row:
            verified += 1
    assert verified >= len(found) // 2
