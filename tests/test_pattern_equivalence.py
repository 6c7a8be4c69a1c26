"""Compiled patterns must match the reference interpreter exactly.

The compiler lowers a pattern to coalesced ``touch_many``
batches; the :class:`~repro.patterns.PatternInterpreter` replays the
same unrolled op stream with scalar ``attacker.touch`` calls.  The
contract: same virtual cycles, same metrics snapshot, same trace
events byte for byte — on the reference engine *and* the fast engine
(``REPRO_FAST_PATH=0/1`` equivalents via ``Machine(fast_path=...)``).
Also pinned here: ``PatternHammer`` running the ``double_sided``
built-in — the round every attack runs by default — is
indistinguishable from the hand-written round it replaced, kept below
as :class:`RetiredRound`, all the way up to the full attack, quiet and
under chaos.
"""

import json

import pytest

from repro.chaos import ChaosInjector, chaos_profile
from repro.core import PThammerAttack, PThammerConfig
from repro.core.hammer import HAMMER_ROUND_SPAN, HammerTarget
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


def _round_spans(machine):
    return [span.cycles for span in machine.trace.spans_named(HAMMER_ROUND_SPAN)]


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


class RetiredRound:
    """The hand-written round that ``double_sided`` replaced.

    One ``touch_many`` batch per target per round — TLB sweep, LLC
    sweep(s), probe touch — and a lone target hammered twice, with the
    same ``rdtsc`` bracketing, ``hammer-round`` span and per-round
    guard as :class:`~repro.core.hammer.PatternHammer`.
    """

    def __init__(self, attacker, targets, llc_sweeps=1, trace=None, guard=None):
        self.attacker = attacker
        self.targets = targets if len(targets) == 2 else [targets[0]] * 2
        self.llc_sweeps = llc_sweeps
        self.trace = trace
        self._guard = guard if guard is not None else lambda operation: operation()

    def round(self):
        attacker = self.attacker
        start = attacker.rdtsc()
        for target in self.targets:
            attacker.touch_many(hammer_batch(target, self.llc_sweeps))
        end = attacker.rdtsc()
        if self.trace is not None:
            self.trace.add_span(HAMMER_ROUND_SPAN, start, end)
        return end - start

    def run(self, rounds):
        return [self._guard(self.round) for _ in range(rounds)]

    def run_for_cycles(self, budget_cycles):
        deadline = self.attacker.rdtsc() + budget_cycles
        costs = []
        while self.attacker.rdtsc() < deadline:
            costs.append(self._guard(self.round))
        return costs


@pytest.mark.parametrize("sides", [1, 2])
@pytest.mark.parametrize("fast", [False, True])
def test_double_sided_matches_the_retired_round(fast, sides):
    """The compiled double_sided built-in — one merged batch per round
    — is byte-identical to the retired round's batch per target, over
    a pair and over a lone target, on both engines."""
    machines = []
    costs = []
    for retired in (True, False):
        machine, attacker = _boot(fast=fast)
        targets = _targets(machine, attacker)[:sides]
        if retired:
            hammer = RetiredRound(attacker, targets, trace=machine.trace)
        else:
            compiled = compile_pattern(get("double_sided"), targets)
            hammer = PatternHammer(attacker, compiled, trace=machine.trace)
        costs.append(hammer.run(rounds=ROUNDS))
        machines.append(machine)
    retired, pattern = machines
    assert costs[0] == costs[1]
    assert _round_spans(pattern) == _round_spans(retired) == costs[0]
    assert pattern.cycles == retired.cycles
    assert _metrics(pattern) == _metrics(retired)
    assert _events(pattern) == _events(retired)
    assert len(pattern.trace.events) > 0


def test_single_target_binding_degrades_like_single_sided():
    """With one surviving target every role binds to it: the
    single-sided fallback."""
    machine, attacker = _boot()
    targets = _targets(machine, attacker)[:1]
    binding = resolve(get("four_sided"), targets)
    assert set(binding.values()) == {targets[0]}
    compiled = compile_pattern(get("four_sided"), targets)
    # 4 hammers of the same target merge into one batch.
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


def _retired_hammer_for(self, pair, llc_sets, guard=None):
    """``PThammerAttack.hammer_for`` as the attack ran it before every
    round became a compiled pattern."""
    size = self.config.tlb_eviction_size
    vas = [pair.va_a] if pair.slot_a == pair.slot_b else [pair.va_a, pair.va_b]
    targets = [
        HammerTarget(va, self.tlb_builder.build(va, size), llc_sets[va]) for va in vas
    ]
    return RetiredRound(
        self.attacker, targets, llc_sweeps=self.config.llc_sweeps,
        trace=self.trace, guard=guard,
    )


def _attack(chaos):
    machine = Machine(tiny_test_config(seed=1), fast_path=True)
    if chaos is not None:
        machine.attach_chaos(ChaosInjector(chaos_profile(chaos)))
    attacker = AttackerView(machine, machine.boot_process())
    config = PThammerConfig(spray_slots=128, pair_sample=10, max_pairs=4)
    report = PThammerAttack(attacker, config).run()
    return machine, report


@pytest.mark.slow
@pytest.mark.parametrize("chaos", [None, "desktop"])
def test_attack_matches_the_retired_round(chaos, monkeypatch):
    """The whole attack on the default pattern reproduces the retired
    round exactly — flips, outcome, metrics, cycles, round costs —
    quiet, and under chaos, where every round runs under the retry
    guard."""
    machine, report = _attack(chaos)
    with monkeypatch.context() as patch:
        patch.setattr(PThammerAttack, "hammer_for", _retired_hammer_for)
        retired_machine, retired = _attack(chaos)
    assert report.round_costs and report.pairs
    assert machine.cycles == retired_machine.cycles
    assert _metrics(machine) == _metrics(retired_machine)
    assert report.summary() == retired.summary()  # flips, outcome, pairs
    assert json.dumps(report.round_costs) == json.dumps(retired.round_costs)
    if chaos is not None:
        assert machine.metrics.read("recovery.retry.hammer-check") > 0


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
