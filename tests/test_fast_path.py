"""The fast access path must be behaviourally invisible.

``Machine(fast_path=True)`` (the default) swaps in memoized address
mappings, batched accesses, and accelerated cache/TLB internals —
docs/PERFORMANCE.md documents the design.  The contract tested here is
exact equivalence with the reference engine: same virtual cycles, same
trace events byte for byte, same metrics snapshot, same attack outcome,
for the same seed.  Anything weaker would let a "performance" change
silently alter the simulation's physics.

Alongside the equivalence suites sit the unit tests for the pieces the
fast path is made of: the :class:`~repro.machine.addrmap.AddressMap`
memo and its generation-counter invalidation (driven by real
page-table churn), the batched ``access_many`` entry point, and the
packed-bitmask :class:`~repro.cache.policies.FastBitPLRU` policy.
"""

import json

import pytest

from repro.cache.policies import make_policy
from repro.cache.setassoc import SetAssociativeCache
from repro.chaos import ChaosConfig, ChaosInjector, chaos_profile
from repro.core import PThammerAttack, PThammerConfig
from repro.core.hammer import HammerTarget, PatternHammer
from repro.core.llc_pool import EvictionSet
from repro.core.spray import PageTableSpray
from repro.defenses import DEFENSE_PRESETS
from repro.defenses.anvil import AnvilDetector
from repro.errors import ConfigError, TransientFault
from repro.kernel.pagetable import MappingError
from repro.machine import AttackerView, Inspector, Machine
from repro.machine.addrmap import (
    ADDRMAP_MISS,
    TIER_FAST,
    TIER_REFERENCE,
    AddressMap,
    resolve_tier,
)
from repro.machine.configs import tiny_test_config
from repro.params import PAGE_SIZE
from repro.patterns import compile_pattern, get
from repro.utils.rng import DeterministicRng


def _machine_pair(seed=3, trace=False, chaos=None):
    """Reference and fast machines built from the same seed."""
    pair = []
    for fast in (False, True):
        machine = Machine(tiny_test_config(seed=seed), fast_path=fast)
        if trace:
            machine.trace.enable()
        if chaos is not None:
            machine.attach_chaos(ChaosInjector(chaos_profile(chaos)))
        pair.append((machine, AttackerView(machine, machine.boot_process())))
    return pair


def _events(machine):
    """Trace events as comparable tuples (field order normalised)."""
    return [
        (event.kind, event.component, event.cycle, tuple(sorted(event.fields.items())))
        for event in machine.trace.events
    ]


def _metrics(machine):
    return json.dumps(machine.metrics.snapshot_values(), sort_keys=True)


def _assert_equivalent(reference, fast, trace=False):
    assert fast.cycles == reference.cycles
    assert _metrics(fast) == _metrics(reference)
    if trace:
        assert _events(fast) == _events(reference)


# ----------------------------------------------------------------------
# whole-run equivalence


def _double_sided_hammer(machine, attacker):
    """A double-sided hammer over two targets with hand-built eviction
    sets; every round is one ``touch_many`` batch."""
    sets = machine.config.tlb.l1d_sets
    base = attacker.mmap(12 * sets + 40, populate=True)
    targets = []
    for t in (0, 1):
        tlb_set = [base + (i * sets + t) * 4096 + 2048 for i in range(12)]
        lines = [base + (12 * sets + 13 * t + i) * 4096 + 17 * 64 for i in range(13)]
        va = base + (12 * sets + 26 + t) * 4096
        targets.append(HammerTarget(va, tlb_set, EvictionSet(lines, 17)))
    return PatternHammer(attacker, compile_pattern(get("double_sided"), targets))


@pytest.mark.slow
def test_traced_hammer_rounds_are_byte_identical():
    """Real hammer rounds with the event firehose on: the trace —
    every TLB hit, cache fill, DRAM activate, at its exact cycle —
    must not betray which engine produced it."""
    machines = []
    for machine, attacker in _machine_pair(seed=11, trace=True):
        _double_sided_hammer(machine, attacker).run(rounds=40)
        machines.append(machine)
    reference, fast = machines
    assert len(fast.trace.events) > 0
    _assert_equivalent(reference, fast, trace=True)


class _RecordingMonitor:
    """A DRAM monitor that logs every request it is shown."""

    def __init__(self):
        self.log = []

    def on_dram_access(self, paddr, source, now):
        self.log.append((paddr, source, now))


def _monitored_hammer_rounds(make_monitor):
    """Batched hammer rounds under a DRAM monitor on both engines;
    asserts equal clocks, metrics, flips and monitor state, and returns
    the fast engine's monitor.  Quiescing the caches between chunks
    sends the walker's page-table fetches to DRAM too."""
    outcomes = []
    for machine, attacker in _machine_pair(seed=11):
        monitor = make_monitor(machine)
        machine.attach_monitor(monitor)
        hammer = _double_sided_hammer(machine, attacker)
        for _ in range(5):
            Inspector(machine).quiesce_caches()
            hammer.run(rounds=40)
        state = {k: v for k, v in vars(monitor).items() if k != "machine"}
        outcomes.append((machine.cycles, _metrics(machine), machine.dram.flips, state))
    reference, fast = outcomes
    assert fast == reference
    return monitor


def test_monitor_log_matches_across_engines_through_batches():
    """Every request, source and clock value the batch loop reports."""
    monitor = _monitored_hammer_rounds(lambda machine: _RecordingMonitor())
    assert {source for _, source, _ in monitor.log} == {"load", "walk"}


def test_anvil_refreshes_identically_through_batches():
    """ANVIL watching walks flags and refreshes the same rows."""
    anvil = _monitored_hammer_rounds(
        lambda machine: AnvilDetector(machine, watch_walks=True)
    )
    assert anvil.mitigations > 0
    assert anvil.flagged_rows


@pytest.mark.slow
def test_full_attack_equivalence():
    """The end-to-end attack: cycles, metrics, flips, and the
    escalation outcome all match between engines."""
    reports = []
    machines = []
    for machine, attacker in _machine_pair(seed=1):
        config = PThammerConfig(spray_slots=128, pair_sample=10, max_pairs=8)
        reports.append(PThammerAttack(attacker, config).run())
        machines.append(machine)
    reference, fast = machines
    _assert_equivalent(reference, fast)
    assert reports[1].total_flips == reports[0].total_flips
    assert reports[1].escalated == reports[0].escalated


@pytest.mark.slow
def test_chaos_attack_equivalence():
    """Chaos churn (the page-table migrations that invalidate the
    address-map memo) must perturb both engines identically."""
    machines = []
    flips = []
    for machine, attacker in _machine_pair(seed=7, chaos="desktop"):
        config = PThammerConfig(spray_slots=128, pair_sample=10, max_pairs=8)
        report = PThammerAttack(attacker, config).run()
        machines.append(machine)
        flips.append(report.total_flips)
    reference, fast = machines
    _assert_equivalent(reference, fast)
    assert flips[0] == flips[1]


@pytest.mark.slow
@pytest.mark.parametrize(
    "name,options",
    [
        ("figure3", {"config_fns": (tiny_test_config,), "sizes": (8, 12), "trials": 10}),
        ("sec4d", {"config_fn": tiny_test_config, "sample": 6, "spray_slots": 256}),
    ],
)
def test_experiments_are_identical_under_the_env_gate(name, options, monkeypatch):
    """The registered experiments, run through the engine with
    ``REPRO_FAST_PATH`` flipped: rendered results and aggregated
    metrics must match."""
    from repro.analysis import run_experiment

    runs = []
    for value in ("0", "1"):
        monkeypatch.setenv("REPRO_FAST_PATH", value)
        run = run_experiment(name, dict(options))
        runs.append(
            (
                run.result.render(),
                json.dumps(run.metrics.snapshot_values(), sort_keys=True),
            )
        )
    assert runs[0] == runs[1]


@pytest.mark.slow
def test_bench_outcome_proves_cycle_equality():
    """The fast-path benches double as equivalence checks: the recorded
    outcome carries ``cycles_equal`` and the committed baseline gates
    the fast/reference ratio in CI."""
    from repro.analysis.bench import run_bench

    record = run_bench("eviction-sweep").to_record(label="test")
    assert record.outcome["cycles_equal"] == 1
    assert record.outcome["speedup"] > 0
    assert record.timings["fast_over_reference"] > 0


# ----------------------------------------------------------------------
# access_many vs the scalar loop


def _batch_vs_scalar(trace):
    machines = []
    for use_batch in (False, True):
        machine = Machine(tiny_test_config(seed=5), fast_path=True)
        if trace:
            machine.trace.enable()
        attacker = AttackerView(machine, machine.boot_process())
        base = attacker.mmap(24, populate=True)
        addrs = [base + i * 4096 + (i % 7) * 64 for i in range(24)] * 50
        if use_batch:
            attacker.touch_many(addrs)
        else:
            for va in addrs:
                attacker.touch(va)
        machines.append(machine)
    return machines


def test_access_many_matches_scalar_loop_untraced():
    scalar, batched = _batch_vs_scalar(trace=False)
    _assert_equivalent(scalar, batched)


def test_access_many_matches_scalar_loop_traced():
    """With tracing on, the batch loop also stores the clock and emits
    events at every step; they must interleave identically."""
    scalar, batched = _batch_vs_scalar(trace=True)
    assert len(batched.trace.events) > 0
    _assert_equivalent(scalar, batched, trace=True)


def test_access_many_on_the_reference_engine():
    """With the fast path off, access_many degrades to the scalar loop."""
    machines = []
    for use_batch in (False, True):
        machine = Machine(tiny_test_config(seed=5), fast_path=False)
        attacker = AttackerView(machine, machine.boot_process())
        base = attacker.mmap(8, populate=True)
        addrs = [base + i * 4096 for i in range(8)] * 20
        if use_batch:
            attacker.touch_many(addrs)
        else:
            for va in addrs:
                attacker.touch(va)
        machines.append(machine)
    _assert_equivalent(machines[0], machines[1])


def test_demand_paging_faults_match_across_tiers():
    """Touching unpopulated pages runs the kernel-fault retry loop
    inside a batched ``touch_many``; fault counts and cycles must
    match the reference engine's scalar loop."""
    machines = []
    for machine, attacker in _machine_pair(seed=5):
        base = attacker.mmap(16, populate=False)
        attacker.touch_many([base + i * 4096 for i in range(16)] * 3)
        machines.append(machine)
    # The workload really did fault (otherwise this test pins nothing).
    counters = machines[0].metrics.snapshot_values()["counters"]
    assert counters["page_faults"] >= 16
    _assert_equivalent(*machines)


def test_traced_demand_paging_faults_match_across_tiers():
    """The same faulting batch traced: the fault events and everything
    after them stamp the clock the kernel's handling cost advanced."""
    machines = []
    for machine, attacker in _machine_pair(seed=5, trace=True):
        base = attacker.mmap(16, populate=False)
        attacker.touch_many([base + i * 4096 for i in range(16)] * 2)
        machines.append(machine)
    assert machines[0].trace.counts_by_kind()["fault"] == 16
    _assert_equivalent(*machines, trace=True)


def test_access_many_collect_returns_loaded_values():
    """``collect=True`` yields the qword each load read, on both tiers,
    with the same cycles as the scalar loads."""
    outcomes = []
    for fast in (False, True):
        machine = Machine(tiny_test_config(seed=5), fast_path=fast)
        attacker = AttackerView(machine, machine.boot_process())
        base = attacker.mmap(4, populate=True)
        attacker.write(base + 8, 0xDEAD)
        attacker.write(base + 2 * 4096, 0xBEEF)
        addrs = [base + 8, base + 4096, base + 12, base + 2 * 4096]
        values = machine.access_many(attacker.process, addrs, collect=True)
        outcomes.append((values, machine.cycles, _metrics(machine)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0] == [0xDEAD, 0, 0xDEAD, 0xBEEF]


# ----------------------------------------------------------------------
# read_many: batched value reads


def _scalar_reads(attacker, vaddrs):
    return [attacker.read(vaddr) for vaddr in vaddrs]


def _batched_reads(attacker, vaddrs):
    return attacker.read_many(vaddrs)


def _value_reads(fast, read, chaos=None, observed=False):
    """``read`` of 600 words of a demand-paged region whose first half
    was written: the values (or the fault that ended them) and
    everything the machine shows afterwards."""
    machine = Machine(tiny_test_config(seed=5), fast_path=fast)
    if observed:
        machine.trace.enable()
        machine.attach_monitor(_RecordingMonitor())
    attacker = AttackerView(machine, machine.boot_process())
    base = attacker.mmap(16, populate=False)
    for page in range(8):
        attacker.write(base + page * PAGE_SIZE + 8 * page, 0x1111 * (page + 1))
    if chaos is not None:
        machine.attach_chaos(ChaosInjector(chaos))
    rng = DeterministicRng(5).fork("reads")
    vaddrs = [
        base + page * PAGE_SIZE + 8 * page if rng.chance(0.5)
        else base + (rng.randint(16 * PAGE_SIZE) & ~7)
        for page in (rng.randint(16) for _ in range(600))
    ]
    try:
        values = read(attacker, vaddrs)
    except TransientFault as fault:
        values = (type(fault).__name__, str(fault))
    return {
        "values": values,
        "cycles": machine.cycles,
        "metrics": _metrics(machine),
        "events": _events(machine),
        "monitor": machine.monitor.log if observed else None,
        "state": _state_without_addrmap(machine),
    }


@pytest.mark.parametrize("observed", [False, True], ids=["quiet", "observed"])
def test_read_many_matches_scalar_reads_on_both_tiers(observed):
    """``read_many`` returns what a scalar ``read`` loop returns, with
    the same cycles, metrics and state, on both tiers: quiet, and
    traced under ``desktop`` chaos and a recording DRAM monitor."""
    chaos = chaos_profile("desktop") if observed else None
    outcomes = [
        _value_reads(fast, read, chaos=chaos, observed=observed)
        for fast in (False, True)
        for read in (_scalar_reads, _batched_reads)
    ]
    for outcome in outcomes[1:]:
        assert outcome == outcomes[0]
    values = outcomes[0]["values"]
    # Written words and zero pages both came back, the unwritten half
    # of the region faulted in on the reads, and observation was on.
    assert len(values) == 600 and 0 in values
    assert {0x1111 * (page + 1) for page in range(8)} <= set(values)
    assert json.loads(outcomes[0]["metrics"])["counters"]["page_faults"] >= 16
    if observed:
        assert outcomes[0]["events"] and outcomes[0]["monitor"]
        counters = json.loads(outcomes[0]["metrics"])["counters"]
        assert counters["chaos.jitter.cycles"] > 0


def test_read_many_aborted_by_a_transient_fault_leaves_equal_tiers():
    """A chaos fault midway through a batch: every tier and loop raises
    it at the same read and stops in the same state."""
    flaky = ChaosConfig(
        name="flaky",
        seed=7,
        sources={
            "transient_faults": {"probability": 0.002},
            "timing_jitter": {"rate": 0.2},
        },
    )
    outcomes = [
        _value_reads(fast, read, chaos=flaky, observed=True)
        for fast in (False, True)
        for read in (_scalar_reads, _batched_reads)
    ]
    for outcome in outcomes[1:]:
        assert outcome == outcomes[0]
    kind, _ = outcomes[0]["values"]
    assert kind == "TransientFault"
    loads = json.loads(outcomes[0]["metrics"])["counters"]["mem_uops_retired.all_loads"]
    assert 8 + 50 < loads < 8 + 550  # the 8 writes, then part of the batch


# ----------------------------------------------------------------------
# MAP_POPULATE one L1PT run at a time

#: An anonymous VMA that starts 300 pages into a 2 MiB region and spans
#: three regions: a partial run, a full one, and a partial one.
ANON_START = 0x3000_0000_0000 + 300 * PAGE_SIZE
ANON_PAGES = 212 + 512 + 150


def _state_without_addrmap(machine):
    """Every snapshot component but the ``AddressMap``: the reference
    tier never fills it, and on the fast tier its hits count runs."""
    state = machine.snapshot().state()
    del state["addrmap"]
    return state


def _policy_pair(defense, seed=4):
    """Reference and fast machines under one placement policy."""
    pair = []
    for fast in (False, True):
        machine = Machine(
            tiny_test_config(seed=seed),
            policy=DEFENSE_PRESETS[defense](),
            fast_path=fast,
        )
        pair.append((machine, AttackerView(machine, machine.boot_process())))
    return pair


@pytest.mark.parametrize("defense", ["none", "catt", "cta", "rip-rh", "zebram"])
def test_populate_by_table_matches_the_reference(defense):
    """A shm-backed full-L1PT spray and an anonymous VMA spanning three
    regions from mid-region: the fast tier's per-run populate must
    leave every component, the fault count included, as the per-page
    reference does."""
    machines = []
    for machine, attacker in _policy_pair(defense):
        PageTableSpray(attacker, slots=6, shm_pages=4).execute()
        attacker.mmap(ANON_PAGES, at=ANON_START, populate=True)
        machines.append(machine)
    reference, fast = machines
    assert fast.kernel.page_fault_count == reference.kernel.page_fault_count
    assert fast.kernel.page_fault_count >= 6 * 512 + ANON_PAGES
    assert _state_without_addrmap(fast) == _state_without_addrmap(reference)


@pytest.mark.parametrize("planted_page", [5, 212, 400])
def test_populate_stops_at_a_planted_pte_on_both_tiers(planted_page):
    """A PTE already present inside the range (mid-run, or the first
    page of a run) makes both tiers raise ``MappingError`` at the same
    page, then roll the mapping back to equal states."""
    machines = []
    errors = []
    for machine, attacker in _policy_pair("none"):
        space = attacker.process.address_space
        planted = ANON_START + planted_page * PAGE_SIZE
        frame = machine.policy.alloc_user_frame(attacker.process)
        machine.ptm.map_page(space.cr3, planted, frame)
        with pytest.raises(MappingError) as error:
            attacker.mmap(ANON_PAGES, at=ANON_START, populate=True)
        errors.append(str(error.value))
        # Rolled back: no VMA, no populated page, the planted PTE kept.
        assert space.find_vma(ANON_START) is None
        assert not any(
            ANON_START <= va < ANON_START + ANON_PAGES * PAGE_SIZE
            for va in space.populated
        )
        assert machine.ptm.lookup(space.cr3, ANON_START) is None
        assert machine.ptm.lookup(space.cr3, planted) == (frame, 1)
        machines.append(machine)
    assert errors[0] == errors[1] == "0x%x is already mapped" % (
        ANON_START + planted_page * PAGE_SIZE
    )
    reference, fast = machines
    assert fast.kernel.page_fault_count == reference.kernel.page_fault_count
    assert _state_without_addrmap(fast) == _state_without_addrmap(reference)


def test_populate_heals_a_page_already_marked_populated():
    """A page the kernel already lists as populated takes the reference
    fault path inside the fast tier's run loop (it is healed, not
    mapped twice), and the run resumes on a re-resolved table."""
    machines = []
    for machine, attacker in _policy_pair("none"):
        space = attacker.process.address_space
        stale = ANON_START + 220 * PAGE_SIZE
        space.populated[stale] = machine.policy.alloc_user_frame(attacker.process)
        attacker.mmap(ANON_PAGES, at=ANON_START, populate=True)
        assert machine.ptm.lookup(space.cr3, stale) == (space.populated[stale], 1)
        machines.append(machine)
    reference, fast = machines
    assert fast.kernel.page_fault_count == reference.kernel.page_fault_count
    assert _state_without_addrmap(fast) == _state_without_addrmap(reference)


def test_bulk_read_counts_addrmap_hits_per_run():
    """The fast tier's bulk read looks each consecutive 2 MiB run up
    once: a spray scan hits the memo once per slot, not per page."""
    machine = Machine(tiny_test_config(seed=4), fast_path=True)
    spray = PageTableSpray(AttackerView(machine, machine.boot_process()), slots=4)
    spray.execute()
    assert spray.scan() == []  # fills the memo: one miss per slot
    before = machine.addrmap.stats()
    assert spray.scan() == []
    after = machine.addrmap.stats()
    assert after["hits"] - before["hits"] == 4
    assert after["misses"] == before["misses"]


# ----------------------------------------------------------------------
# AddressMap: the memo and its generation counters


def test_addrmap_miss_is_a_distinct_sentinel():
    memo = AddressMap()
    assert memo.cached_l1pt(1, 0x200000) is ADDRMAP_MISS
    assert ADDRMAP_MISS is not None


def test_addrmap_store_then_hit():
    memo = AddressMap()
    memo.store_l1pt(1, 0x200000, 42)
    # Any address in the same 2 MiB region hits the same entry.
    assert memo.cached_l1pt(1, 0x200000 + 0x1FFFFF) == 42
    assert memo.stats()["hits"] == 1
    assert memo.stats()["misses"] == 1


def test_addrmap_none_is_a_valid_cached_value():
    """A region with no L1PT (superpage-mapped) caches ``None`` — which
    must not be confused with a miss."""
    memo = AddressMap()
    memo.store_l1pt(1, 0x400000, None)
    assert memo.cached_l1pt(1, 0x400000) is None
    assert memo.cached_l1pt(1, 0x600000) is ADDRMAP_MISS


def test_addrmap_generation_bump_invalidates_exactly_one_region():
    memo = AddressMap()
    memo.store_l1pt(1, 0x200000, 42)
    memo.store_l1pt(1, 0x400000, 43)
    generation = memo.region_generation(0x200000)
    memo.note_l1pt_change(0x200000)
    assert memo.region_generation(0x200000) == generation + 1
    assert memo.cached_l1pt(1, 0x200000) is ADDRMAP_MISS  # stale
    assert memo.cached_l1pt(1, 0x400000) == 43  # untouched region
    assert memo.stats()["invalidations"] == 1


def test_addrmap_invalidation_crosses_address_spaces():
    """Generations are keyed by region only: churn under any CR3
    invalidates that region for every address space (over-invalidation
    is safe; a missed invalidation would not be)."""
    memo = AddressMap()
    memo.store_l1pt(1, 0x200000, 42)
    memo.store_l1pt(2, 0x200000, 99)
    memo.note_l1pt_change(0x200000)
    assert memo.cached_l1pt(1, 0x200000) is ADDRMAP_MISS
    assert memo.cached_l1pt(2, 0x200000) is ADDRMAP_MISS


def test_addrmap_refill_after_invalidation_hits_again():
    memo = AddressMap()
    memo.store_l1pt(1, 0x200000, 42)
    memo.note_l1pt_change(0x200000)
    memo.store_l1pt(1, 0x200000, 77)  # re-resolved at the new generation
    assert memo.cached_l1pt(1, 0x200000) == 77


def test_addrmap_invalidate_all():
    memo = AddressMap()
    memo.store_l1pt(1, 0x200000, 42)
    memo.invalidate_all()
    assert memo.cached_l1pt(1, 0x200000) is ADDRMAP_MISS
    assert memo.stats()["entries"] == 0


def test_l1pt_frame_resolves_once_then_memoizes():
    memo = AddressMap()
    calls = []
    frame = memo.l1pt_frame(1, 0x200000, lambda: calls.append(1) or 7)
    assert frame == 7
    assert memo.l1pt_frame(1, 0x200000, lambda: calls.append(1) or 8) == 7
    assert len(calls) == 1


# ----------------------------------------------------------------------
# invalidation against the real kernel


def test_page_table_churn_invalidates_the_machine_memo():
    """Migrating or dropping a region's L1PT must invalidate exactly
    that region's memo entry, and the next bulk read must re-resolve
    to the correct (moved) table without changing observed values."""
    machine = Machine(tiny_test_config(seed=9), fast_path=True)
    attacker = AttackerView(machine, machine.boot_process())
    base = attacker.mmap(4, populate=True)
    attacker.write(base, 0xDEAD)
    cr3 = attacker.process.address_space.cr3

    # Seed the memo through the batched-walk path.
    values = attacker.read_bulk([base, base + 4096])
    cached = machine.addrmap.cached_l1pt(cr3, base)
    assert cached is not ADDRMAP_MISS

    migrated = machine.ptm.migrate_l1pt(cr3, base)
    assert migrated is not None
    assert machine.addrmap.cached_l1pt(cr3, base) is ADDRMAP_MISS

    # Re-resolution lands on the *new* frame and reads are unchanged.
    assert attacker.read_bulk([base, base + 4096]) == values
    refilled = machine.addrmap.cached_l1pt(cr3, base)
    assert refilled is not ADDRMAP_MISS
    assert refilled != cached
    assert attacker.read(base) == 0xDEAD


def test_fast_and_reference_agree_across_pagetable_churn():
    """Same churn schedule on both engines: identical reads and cycles."""
    machines = []
    for fast in (False, True):
        machine = Machine(tiny_test_config(seed=9), fast_path=fast)
        attacker = AttackerView(machine, machine.boot_process())
        base = attacker.mmap(8, populate=True)
        cr3 = attacker.process.address_space.cr3
        observed = []
        for round_index in range(6):
            observed.append(attacker.read_bulk([base + i * 4096 for i in range(8)]))
            if round_index % 2 == 0:
                machine.ptm.migrate_l1pt(cr3, base)
            else:
                machine.ptm.drop_l1pt(cr3, base)
        machines.append((machine, observed))
    (reference, ref_observed), (fast, fast_observed) = machines
    assert fast_observed == ref_observed
    assert fast.cycles == reference.cycles


# ----------------------------------------------------------------------
# the escape hatch


def test_fast_path_env_escape_hatch(monkeypatch):
    monkeypatch.delenv("REPRO_FAST_PATH", raising=False)
    assert resolve_tier() == TIER_FAST
    assert Machine(tiny_test_config()).fast_path is True
    for value in ("0", "false", "No", " OFF ", "reference"):
        monkeypatch.setenv("REPRO_FAST_PATH", value)
        assert resolve_tier() == TIER_REFERENCE
        assert Machine(tiny_test_config()).fast_path is False
    # Every other spelling means fast, including the retired "2".
    for value in ("1", "2"):
        monkeypatch.setenv("REPRO_FAST_PATH", value)
        assert resolve_tier() == TIER_FAST
        assert Machine(tiny_test_config()).fast_path is True
    # An unknown explicit tier name is a typo, not a request for fast.
    with pytest.raises(ConfigError, match="columnar"):
        Machine(tiny_test_config(), fast_path="columnar")


def test_fast_path_kwarg_overrides_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_PATH", "0")
    assert Machine(tiny_test_config(), fast_path=True).fast_path is True
    monkeypatch.delenv("REPRO_FAST_PATH", raising=False)
    assert Machine(tiny_test_config(), fast_path=False).fast_path is False


# ----------------------------------------------------------------------
# component equivalence: policies and the set-associative cache


@pytest.mark.parametrize("name", ["bit_plru", "bit_plru_bimodal"])
def test_fast_policy_is_draw_identical(name):
    """Reference and packed-bitmask PLRU walked through the same random
    op schedule: identical victims, fills, and RNG state after."""
    ways = 4
    reference = make_policy(name, ways, DeterministicRng(21), fast=False)
    fast = make_policy(name, ways, DeterministicRng(21), fast=True)
    assert type(fast) is not type(reference)
    script = DeterministicRng(99)
    for _ in range(500):
        op = script.randint(5)
        way = script.randint(ways)
        if op == 0:
            reference.touch(way)
            fast.touch(way)
        elif op == 1:
            reference.on_fill(way)
            fast.on_fill(way)
        elif op == 2:
            assert fast.victim() == reference.victim()
        elif op == 3:
            assert fast.evict_and_fill() == reference.evict_and_fill()
        else:
            reference.on_invalidate(way)
            fast.on_invalidate(way)
        # Bit-identical draw streams, not merely equal results.
        assert fast._rng._state == reference._rng._state


def test_fast_setassoc_cache_is_state_identical():
    reference = SetAssociativeCache(16, 4, "bit_plru", DeterministicRng(6), fast=False)
    fast = SetAssociativeCache(16, 4, "bit_plru", DeterministicRng(6), fast=True)
    script = DeterministicRng(123)
    for _ in range(2000):
        set_index = script.randint(16)
        tag = script.randint(40)
        op = script.randint(4)
        if op == 0:
            assert fast.lookup(set_index, tag) == reference.lookup(set_index, tag)
        elif op in (1, 2):
            assert fast.insert(set_index, tag) == reference.insert(set_index, tag)
        else:
            assert fast.invalidate(set_index, tag) == reference.invalidate(
                set_index, tag
            )
    assert (fast.hits, fast.misses, fast.evictions) == (
        reference.hits,
        reference.misses,
        reference.evictions,
    )
    for index in range(16):
        ref_state = reference._state.get(index)
        fast_state = fast._state.get(index)
        assert (ref_state is None) == (fast_state is None)
        if ref_state is not None:
            assert fast_state.tags == ref_state.tags
