"""Compiled patterns must match the reference interpreter exactly.

The compiler lowers a pattern to coalesced ``touch_many``
batches; the :class:`~repro.patterns.PatternInterpreter` replays the
same unrolled op stream with scalar ``attacker.touch`` calls.  The
contract: same virtual cycles, same metrics snapshot, same trace
events byte for byte — on the reference engine *and* the fast engine
(``REPRO_FAST_PATH=0/1`` equivalents via ``Machine(fast_path=...)``).
Also pinned here: ``PatternHammer`` running the ``double_sided``
built-in is indistinguishable from the hard-coded
:class:`~repro.core.hammer.DoubleSidedHammer`, all the way up to the
full attack.
"""

import json

import pytest

from repro.core import PThammerAttack, PThammerConfig
from repro.core.hammer import DoubleSidedHammer, HammerTarget
from repro.core.llc_pool import EvictionSet
from repro.core.uarch import UarchFacts
from repro.errors import PatternError
from repro.machine import AttackerView, Machine
from repro.machine.configs import tiny_test_config
from repro.patterns import (
    PatternHammer,
    PatternInterpreter,
    compile_pattern,
    get,
    hammer_batch,
    resolve,
)

ROUNDS = 12


def _boot(seed=11, fast=False):
    machine = Machine(tiny_test_config(seed=seed), fast_path=fast)
    machine.trace.enable()
    return machine, AttackerView(machine, machine.boot_process())


def _targets(machine, attacker):
    """Two hammer targets, same construction as tests/test_fast_path.py."""
    sets = machine.config.tlb.l1d_sets
    base = attacker.mmap(12 * sets + 40, populate=True)
    targets = []
    for t in (0, 1):
        tlb_set = [base + (i * sets + t) * 4096 + 2048 for i in range(12)]
        lines = [
            base + (12 * sets + 13 * t + i) * 4096 + 17 * 64 for i in range(13)
        ]
        va = base + (12 * sets + 26 + t) * 4096
        targets.append(HammerTarget(va, tlb_set, EvictionSet(lines, 17)))
    return targets


def _events(machine):
    return [
        (event.kind, event.component, event.cycle, tuple(sorted(event.fields.items())))
        for event in machine.trace.events
    ]


def _metrics(machine):
    return json.dumps(machine.metrics.snapshot_values(), sort_keys=True)


def _run_pattern(name, fast, build):
    """Boot a machine, hammer ``name`` for ROUNDS via ``build``, return it."""
    machine, attacker = _boot(fast=fast)
    targets = _targets(machine, attacker)
    interval = UarchFacts.from_config(machine.config).refresh_interval_cycles
    executable = build(get(name), targets, interval)
    PatternHammer(attacker, executable, trace=machine.trace).run(rounds=ROUNDS)
    return machine


def _compiled(pattern, targets, interval):
    return compile_pattern(pattern, targets, refresh_interval=interval)


def _interpreted(pattern, targets, interval):
    return PatternInterpreter(pattern, targets, refresh_interval=interval)


@pytest.mark.parametrize(
    "name", ["double_sided", "four_sided", "delay_slotted", "refresh_synced"]
)
@pytest.mark.parametrize("fast", [False, True])
def test_compiled_matches_interpreter(name, fast):
    """The oracle: coalesced batches vs scalar touches, event for
    event, on both engines."""
    compiled = _run_pattern(name, fast, _compiled)
    interpreted = _run_pattern(name, fast, _interpreted)
    assert compiled.cycles == interpreted.cycles
    assert _metrics(compiled) == _metrics(interpreted)
    assert _events(compiled) == _events(interpreted)
    assert len(compiled.trace.events) > 0


@pytest.mark.parametrize(
    "name", ["double_sided", "four_sided", "delay_slotted", "refresh_synced"]
)
def test_compiled_fast_matches_compiled_reference(name):
    """Same compiled pattern, reference vs fast engine."""
    reference = _run_pattern(name, False, _compiled)
    fast = _run_pattern(name, True, _compiled)
    assert fast.cycles == reference.cycles
    assert _metrics(fast) == _metrics(reference)
    assert _events(fast) == _events(reference)


def test_coalescing_is_behaviourally_invisible():
    """coalesce=False (one touch step per hammer op) must not change
    anything observable — it only splits the batches."""

    def uncoalesced(pattern, targets, interval):
        compiled = compile_pattern(
            pattern, targets, refresh_interval=interval, coalesce=False
        )
        assert len(compiled.steps) > len(
            compile_pattern(pattern, targets, refresh_interval=interval).steps
        )
        return compiled

    merged = _run_pattern("four_sided", True, _compiled)
    split = _run_pattern("four_sided", True, uncoalesced)
    assert split.cycles == merged.cycles
    assert _events(split) == _events(merged)


def test_pattern_hammer_matches_double_sided_hammer():
    """The compiled double_sided built-in is byte-identical to the
    hard-coded DoubleSidedHammer loop it replaces."""
    machines = []
    costs = []
    for legacy in (True, False):
        machine, attacker = _boot()
        targets = _targets(machine, attacker)
        if legacy:
            hammer = DoubleSidedHammer(attacker, targets[0], targets[1])
        else:
            compiled = compile_pattern(get("double_sided"), targets)
            hammer = PatternHammer(attacker, compiled, trace=machine.trace)
        costs.append(hammer.run(rounds=ROUNDS))
        machines.append(machine)
    legacy, pattern = machines
    assert costs[0] == costs[1]
    assert pattern.cycles == legacy.cycles
    assert _metrics(pattern) == _metrics(legacy)
    assert _events(pattern) == _events(legacy)


def test_single_target_binding_degrades_like_single_sided():
    """With one surviving target every role binds to it — the pattern
    analogue of the SingleSidedHammer fallback."""
    machine, attacker = _boot()
    targets = _targets(machine, attacker)[:1]
    binding = resolve(get("four_sided"), targets)
    assert set(binding.values()) == {targets[0]}
    compiled = compile_pattern(get("four_sided"), targets)
    # 4 hammers of the same target coalesce into one batch.
    assert [step[0] for step in compiled.steps] == ["touch"]
    assert compiled.steps[0][1] == hammer_batch(targets[0]) * 4


def test_compile_errors():
    machine, attacker = _boot()
    targets = _targets(machine, attacker)
    with pytest.raises(PatternError):
        resolve(get("double_sided"), [])
    # sync_ref without a refresh interval fails at build time, both paths.
    with pytest.raises(PatternError):
        compile_pattern(get("refresh_synced"), targets)
    with pytest.raises(PatternError):
        PatternInterpreter(get("refresh_synced"), targets)
    with pytest.raises(PatternError):
        compile_pattern(get("refresh_synced"), targets, refresh_interval=0)


# ----------------------------------------------------------------------
# full-attack equivalence and end-to-end pattern runs


@pytest.mark.slow
def test_attack_with_double_sided_pattern_is_byte_identical():
    """`repro attack --pattern double_sided` must reproduce the
    hard-coded loop exactly: flips, outcome, metrics, cycles."""
    reports = []
    machines = []
    for pattern in (None, "double_sided"):
        machine = Machine(tiny_test_config(seed=1), fast_path=True)
        attacker = AttackerView(machine, machine.boot_process())
        config = PThammerConfig(
            spray_slots=128, pair_sample=10, max_pairs=8, pattern=pattern
        )
        reports.append(PThammerAttack(attacker, config).run())
        machines.append(machine)
    legacy, pattern = machines
    assert pattern.cycles == legacy.cycles
    assert _metrics(pattern) == _metrics(legacy)
    assert reports[1].total_flips == reports[0].total_flips
    assert reports[1].escalated == reports[0].escalated
    assert json.dumps(reports[1].round_costs) == json.dumps(reports[0].round_costs)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["four_sided", "delay_slotted"])
def test_new_patterns_run_the_full_attack(name):
    """The non-double-sided built-ins drive the whole pipeline end to
    end, deterministically for a fixed seed."""
    reports = []
    for _ in range(2):
        machine = Machine(tiny_test_config(seed=1), fast_path=True)
        attacker = AttackerView(machine, machine.boot_process())
        config = PThammerConfig(
            spray_slots=128, pair_sample=10, max_pairs=8, pattern=name
        )
        reports.append(PThammerAttack(attacker, config).run())
    assert reports[0].total_flips == reports[1].total_flips
    assert reports[0].escalated == reports[1].escalated
    assert reports[0].round_costs == reports[1].round_costs
