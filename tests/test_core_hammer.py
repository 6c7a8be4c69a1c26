"""The implicit hammer loop and the explicit baselines."""

import pytest

from repro.core.explicit import ExplicitHammer, RowhammerTestTool
from repro.core.pthammer import PThammerAttack, PThammerConfig, PThammerReport
from repro.machine import AttackerView, Inspector, Machine
from repro.machine.configs import tiny_test_config


@pytest.fixture(scope="module")
def prepared():
    """A machine with the attack prepared up to verified pairs."""
    machine = Machine(tiny_test_config(seed=2))
    attacker = AttackerView(machine, machine.boot_process())
    attack = PThammerAttack(
        attacker, PThammerConfig(spray_slots=192, pair_sample=6, max_pairs=4)
    )
    report = PThammerReport(machine_name="t", superpages=True)
    attack.prepare(report)
    pairs, llc_sets = attack.find_pairs(report)
    return machine, attacker, attack, pairs, llc_sets


def make_hammer(attacker, attack, pairs, llc_sets):
    pair = pairs[0]
    return attack.hammer_for(pair, llc_sets), pair


def test_rounds_activate_both_aggressors(prepared):
    machine, attacker, attack, pairs, llc_sets = prepared
    assert pairs, "no same-bank pairs found"
    hammer, pair = make_hammer(attacker, attack, pairs, llc_sets)
    inspector = Inspector(machine)
    pte_a = inspector.l1pte_paddr(attacker.process, pair.va_a)
    bank = inspector.dram_location(pte_a).bank
    before = machine.dram.activations_of_bank(bank)
    rounds = 30
    hammer.run(rounds)
    gained = machine.dram.activations_of_bank(bank) - before
    # Both aggressors activate nearly every round (eviction is ~95 %+).
    assert gained >= 2 * rounds * 0.8


def test_round_cost_within_flip_budget(prepared):
    machine, attacker, attack, pairs, llc_sets = prepared
    hammer, _ = make_hammer(attacker, attack, pairs, llc_sets)
    costs = hammer.run(40)
    mean = sum(costs) / len(costs)
    cliff = machine.fault_model.max_iteration_cycles(
        machine.config.dram.refresh_interval_cycles
    )
    assert mean < cliff  # fast enough to ever flip (Figure 5's condition)


def test_nop_padding_inflates_rounds(prepared):
    machine, attacker, attack, pairs, llc_sets = prepared
    hammer, _ = make_hammer(attacker, attack, pairs, llc_sets)
    plain = sum(hammer.run(10)) / 10
    padded = sum(hammer.run(10, nop_padding=500)) / 10
    assert padded == pytest.approx(plain + 500, rel=0.25)


def test_run_for_cycles_honours_budget(prepared):
    machine, attacker, attack, pairs, llc_sets = prepared
    hammer, _ = make_hammer(attacker, attack, pairs, llc_sets)
    start = attacker.rdtsc()
    hammer.run_for_cycles(50_000)
    assert attacker.rdtsc() - start >= 50_000


def test_sustained_hammering_flips(prepared):
    machine, attacker, attack, pairs, llc_sets = prepared
    hammer, _ = make_hammer(attacker, attack, pairs, llc_sets)
    window = machine.config.dram.refresh_interval_cycles
    before = machine.dram.flip_count()
    hammer.run_for_cycles(3 * window)
    assert machine.dram.flip_count() > before


# ----------------------------------------------------------------------
# explicit baselines


def test_explicit_double_sided_flips():
    machine = Machine(tiny_test_config(seed=4))
    attacker = AttackerView(machine, machine.boot_process())
    inspector = Inspector(machine)
    from repro.core.uarch import UarchFacts

    tool = RowhammerTestTool(
        attacker, inspector, UarchFacts.from_config(machine.config), buffer_pages=256
    )
    cycles = tool.time_to_first_flip(0, 6 * machine.config.dram.refresh_interval_cycles)
    assert cycles is not None
    assert tool.scan_for_flip() is not None


def test_explicit_too_slow_never_flips():
    machine = Machine(tiny_test_config(seed=4))
    attacker = AttackerView(machine, machine.boot_process())
    inspector = Inspector(machine)
    from repro.core.uarch import UarchFacts

    tool = RowhammerTestTool(
        attacker, inspector, UarchFacts.from_config(machine.config), buffer_pages=256
    )
    cliff = machine.fault_model.max_iteration_cycles(
        machine.config.dram.refresh_interval_cycles
    )
    cycles = tool.time_to_first_flip(
        cliff + 1000, 5 * machine.config.dram.refresh_interval_cycles
    )
    assert cycles is None


def test_one_location_needs_closed_rows():
    """One-location hammering only works with a closing controller."""
    flips = {}
    for policy in ("open", "closed"):
        config = tiny_test_config(seed=6, cells_per_row_mean=30.0)
        config.dram.row_policy = policy
        machine = Machine(config)
        attacker = AttackerView(machine, machine.boot_process())
        va = attacker.mmap(64, populate=True)
        hammer = ExplicitHammer(attacker)
        deadline = attacker.rdtsc() + 2 * machine.config.dram.refresh_interval_cycles
        while attacker.rdtsc() < deadline:
            hammer.one_location_round(va)
        flips[policy] = machine.dram.flip_count()
    assert flips["open"] == 0
    assert flips["closed"] > 0
