"""Ablations of the design choices DESIGN.md calls out.

1. Replacement policy: with a true-LRU TLB, associativity-many pages
   suffice — the >12-page requirement comes from the pseudo-LRU
   policy (the premise of Algorithm 1).
2. Shortest-walk path: keeping the PDE paging-structure cache warm is
   what makes the implicit access cheap; a naive fully-cold walk costs
   substantially more per round.
3. Double- vs single-sided implicit hammering: the synergy term makes
   double-sided far more effective per unit time.
4. Eviction-set sizing: undersized LLC sets stop producing DRAM
   fetches, killing the hammer entirely.
5. DRAM bank hashing: enabling XOR rank-mirroring breaks the blind
   VA-stride pair construction.
"""

from conftest import emit

from repro.analysis import ExperimentContext
from repro.core.pair_finding import CandidatePair
from repro.core.pthammer import PThammerAttack, PThammerConfig, PThammerReport
from repro.core.tlb_eviction import TLBEvictionSetBuilder, tlb_miss_rate_by_size
from repro.machine.configs import tiny_test_config


def prepared_attack(config, **attack_kw):
    context = ExperimentContext(config)
    attack = PThammerAttack(
        context.attacker,
        PThammerConfig(spray_slots=256, pair_sample=10, max_pairs=6, **attack_kw),
    )
    report = PThammerReport(machine_name=config.name, superpages=True)
    attack.prepare(report)
    pairs, llc_sets = attack.find_pairs(report)
    return context, attack, pairs, llc_sets


def test_ablation_true_lru_tlb_needs_only_associativity(once, benchmark):
    def run():
        rates = {}
        for policy in ("bit_plru_bimodal", "true_lru"):
            config = tiny_test_config()
            config.tlb.policy = policy
            context = ExperimentContext(config)
            builder = TLBEvictionSetBuilder(context.attacker, context.facts)
            rates[policy] = tlb_miss_rate_by_size(
                context.attacker, context.inspector, builder, sizes=(8, 9), trials=60
            )
        return rates

    rates = once(run)
    emit("ablation/policy: %r" % rates)
    # True LRU: 9 pages (just above combined associativity) evict ~always.
    assert rates["true_lru"][9] >= 0.95
    # The shipped pseudo-LRU needs more (the Figure-3 premise).
    assert rates["bit_plru_bimodal"][9] < rates["true_lru"][9]
    benchmark.extra_info.update({k: v[9] for k, v in rates.items()})


def test_ablation_cold_walk_is_slower(once, benchmark):
    def run():
        context, attack, pairs, llc_sets = prepared_attack(tiny_test_config(seed=2))
        hammer = attack.hammer_for(pairs[0], llc_sets)
        hammer.run(5)
        warm = sum(hammer.run(30)) / 30
        # Naive variant: flush the paging-structure caches every round,
        # forcing full 4-level walks instead of the short red path.
        cold_costs = []
        for _ in range(30):
            context.machine.walker.flush_structure_caches()
            cold_costs.append(hammer.round())
        return warm, sum(cold_costs) / 30

    warm, cold = once(run)
    emit("ablation/walk: warm=%.0f cold=%.0f cycles per round" % (warm, cold))
    # The delta per round is the extra upper-level PTE fetches of the
    # first cold walk (they re-warm within the round); it must be
    # consistently positive, though modest.
    assert cold > warm + 20


def test_ablation_single_vs_double_sided(once, benchmark):
    def run():
        context, attack, pairs, llc_sets = prepared_attack(tiny_test_config(seed=2))
        machine = context.machine
        window = machine.config.dram.refresh_interval_cycles
        pair = pairs[0]
        hammer = attack.hammer_for(pair, llc_sets)
        # Double-sided budget.
        before = machine.dram.flip_count()
        hammer.run_for_cycles(2 * window)
        double_flips = machine.dram.flip_count() - before
        # Single-sided: hammer only one aggressor for the same budget,
        # alternating with a far-away row to clear the row buffer.
        other = pairs[-1]
        single = attack.hammer_for(
            CandidatePair(pair.slot_a, other.slot_b, pair.va_a, other.va_b), llc_sets
        )
        before = machine.dram.flip_count()
        single.run_for_cycles(2 * window)
        single_flips = machine.dram.flip_count() - before
        return double_flips, single_flips

    double_flips, single_flips = once(run)
    emit(
        "ablation/sides: double-sided flips=%d, single-sided flips=%d"
        % (double_flips, single_flips)
    )
    assert double_flips > single_flips


def test_ablation_undersized_llc_set_stops_hammering(once, benchmark):
    def run():
        context, attack, pairs, llc_sets = prepared_attack(tiny_test_config(seed=2))
        machine = context.machine
        pair = pairs[0]
        full = attack.hammer_for(pair, llc_sets)
        import copy

        weak_set = copy.copy(llc_sets[pair.va_a])
        weak_set.lines = weak_set.lines[:4]  # far below associativity
        weak = attack.hammer_for(pair, {pair.va_a: weak_set, pair.va_b: weak_set})
        window = machine.config.dram.refresh_interval_cycles
        before = machine.dram.flip_count()
        weak.run_for_cycles(2 * window)
        weak_flips = machine.dram.flip_count() - before
        before = machine.dram.flip_count()
        full.run_for_cycles(2 * window)
        full_flips = machine.dram.flip_count() - before
        return full_flips, weak_flips

    full_flips, weak_flips = once(run)
    emit("ablation/setsize: full=%d flips, undersized=%d flips" % (full_flips, weak_flips))
    assert full_flips > 0
    assert weak_flips == 0


def test_ablation_bank_hash_breaks_pair_construction(once, benchmark):
    from repro.analysis import run_experiment

    def run():
        plain = run_experiment(
            "sec4d",
            {
                "config_fn": lambda: tiny_test_config(seed=3),
                "sample": 12,
                "spray_slots": 384,
            },
        ).result
        hashed_config = tiny_test_config(seed=3)
        hashed_config.dram.row_xor_mask = 0b11
        hashed = run_experiment(
            "sec4d",
            {
                "config_fn": lambda: hashed_config,
                "sample": 12,
                "spray_slots": 384,
            },
        ).result
        return plain, hashed

    plain, hashed = once(run)
    emit(plain)
    emit(hashed)
    # With rank-mirroring XOR, the fixed VA stride no longer lands the
    # L1PTEs in one bank: far fewer candidates verify as same-bank.
    assert hashed.flagged_slow < plain.flagged_slow
    benchmark.extra_info["plain_slow"] = plain.flagged_slow
    benchmark.extra_info["hashed_slow"] = hashed.flagged_slow


def test_ablation_sweep_order_sequential_suffices(once, benchmark):
    """Section IV-A's note: Gruss-style access patterns were not needed.

    Compares a plain sequential sweep of an eviction set against a
    Gruss-style sliding-window pattern (each line visited twice): both
    evict reliably here, justifying the attack's simple sweep.
    """
    from repro.analysis import ExperimentContext
    from repro.core.llc_offline import physically_congruent_lines, profile_llc_miss_rate

    def run():
        context = ExperimentContext(tiny_test_config(seed=4))
        attacker, inspector = context.attacker, context.inspector
        target = attacker.mmap(1, populate=True)
        lines = physically_congruent_lines(
            attacker, inspector, target, context.facts.llc_ways + 1
        )
        sequential = profile_llc_miss_rate(attacker, inspector, target, lines, trials=60)
        windowed = []
        for i in range(len(lines) - 1):
            windowed.extend((lines[i], lines[i + 1]))
        inspector.quiesce_caches()
        gruss = profile_llc_miss_rate(attacker, inspector, target, windowed, trials=60)
        return sequential, gruss

    sequential, gruss = once(run)
    emit("ablation/order: sequential=%.2f sliding-window=%.2f" % (sequential, gruss))
    assert sequential >= 0.9  # the paper's observation
    assert gruss >= 0.9
    benchmark.extra_info.update({"sequential": sequential, "gruss": gruss})


def test_ablation_memory_massage_restores_contiguity(once, benchmark):
    """Section IV-G1's massaging (Cheng et al.): soaking fragmented
    small buddy blocks before the spray restores physical contiguity,
    and with it the stride-pair hit rate."""
    from repro.core.massage import MemoryMassage
    from repro.core.pair_finding import slot_stride_for_pairs
    from repro.core.spray import PageTableSpray
    from repro.core.uarch import UarchFacts
    from repro.machine import AttackerView, Inspector, Machine

    def contiguity(massage):
        machine = Machine(tiny_test_config(seed=11, boot_fragmentation=0.03))
        attacker = AttackerView(machine, machine.boot_process())
        inspector = Inspector(machine)
        if massage:
            MemoryMassage(attacker).soak_small_blocks()
        spray = PageTableSpray(attacker, slots=224, shm_pages=4).execute()
        stride = slot_stride_for_pairs(UarchFacts.from_config(machine.config))
        good = total = 0
        for slot in range(0, spray.slots - stride, 5):
            pte_a = inspector.l1pte_paddr(attacker.process, spray.target_va(slot))
            pte_b = inspector.l1pte_paddr(
                attacker.process, spray.target_va(slot + stride)
            )
            loc_a, loc_b = inspector.dram_location(pte_a), inspector.dram_location(pte_b)
            total += 1
            good += loc_a.bank == loc_b.bank and abs(loc_a.row - loc_b.row) == 2
        return good / total

    def run():
        return contiguity(False), contiguity(True)

    plain, massaged = once(run)
    emit("ablation/massage: stride-pair hit rate %.2f -> %.2f" % (plain, massaged))
    assert massaged >= plain
    assert massaged >= 0.9
    benchmark.extra_info.update({"plain": plain, "massaged": massaged})
