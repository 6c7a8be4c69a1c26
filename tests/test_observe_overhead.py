"""Disabled-tracing overhead guard (tier-1, marked ``overhead``).

The observability contract (docs/OBSERVABILITY.md): with tracing off,
every instrumented hot path pays exactly one boolean attribute check
per would-be event.  Measuring a full attack twice and comparing wall
times is far too noisy for a 5% bound on shared CI hardware, so the
quantitative check is deterministic instead:

1. run the attack with a bus whose ``enabled`` read *counts* itself,
   giving the exact number of guard evaluations the attack performs;
2. measure the real per-check cost of the guard pattern in a tight
   loop on a plain :class:`TraceBus`;
3. assert ``checks x per-check`` stays under 5% of the untraced
   attack's time.

The tight loop and the untraced attack are timed together through
:func:`repro.analysis.bench._interleaved_best` (process time,
interleaved, best of 3), the helper the gated benches use, so both
sides of the ratio see the same host moment.

A separate correctness check asserts the disabled path records
literally nothing.

The sampled-tracing guard (docs/TELEMETRY.md) extends the same
decomposition to always-on tracing: with a 1% sample rate, the cost is
``kept x per-keep + skipped x per-skip`` where both per-event costs
are measured on a real sampling bus in a tight loop, and the total
must stay under 5% of the tracing-off attack time.
"""

import pytest

from repro.analysis.bench import _interleaved_best
from repro.core import PThammerAttack, PThammerConfig
from repro.machine import AttackerView, Machine
from repro.machine.configs import tiny_test_config
from repro.observe import TraceBus

ATTACK = PThammerConfig(spray_slots=192, pair_sample=8, max_pairs=4)

#: The campaign sampling preset the guard vouches for (docs/TELEMETRY.md).
SAMPLE_RATES = {"*": 0.01}
SAMPLE_BUDGETS = {"*": 100_000}


class CountingBus(TraceBus):
    """A disabled TraceBus whose ``enabled`` reads are counted.

    Overriding the attribute with a property costs more per check than
    the production plain attribute, so the count is exact while the
    attack itself only gets slower — conservative in the right
    direction.
    """

    def __init__(self):
        self.checks = 0
        super().__init__()

    @property
    def enabled(self):
        self.checks += 1
        return False

    @enabled.setter
    def enabled(self, value):
        if value:
            raise AssertionError("the counting bus must stay disabled")


#: Iterations of the tight loops that price one guard and one emit.
GUARD_ITERATIONS = 2_000_000
EMIT_ITERATIONS = 300_000


def _attack(trace=None):
    """Boot a machine and return its attack, ready to time.

    The returned callable runs the attack and returns
    ``(machine, report)``; only it is timed, not the boot.
    """
    machine = Machine(tiny_test_config(seed=3), trace=trace)
    attacker = AttackerView(machine, machine.boot_process())
    return lambda: (machine, PThammerAttack(attacker, ATTACK).run())


def _guard_loop():
    """``GUARD_ITERATIONS`` ``if bus.enabled:`` guards on the production bus."""
    bus = TraceBus()
    assert bus.enabled is False

    def loop():
        for _ in range(GUARD_ITERATIONS):
            if bus.enabled:
                raise AssertionError("unreachable")

    return loop


def _emit_loop(rates):
    """``EMIT_ITERATIONS`` guarded ``emit`` calls under ``rates``.

    ``rates={"*": 1e-9}`` measures the skip path (everything sampled
    out), ``rates={"*": 1.0}`` the keep path (event built and stored).
    """
    bus = TraceBus()
    bus.enable()
    bus.set_sampling(rates=rates, budgets={"*": 10**9})

    def loop():
        for _ in range(EMIT_ITERATIONS):
            if bus.enabled:
                bus.emit("dram.hit", "dram", addr=1)

    return loop


@pytest.mark.overhead
def test_disabled_tracing_records_nothing():
    machine, report = _attack()()
    assert machine.trace.events == []
    assert machine.trace.dropped == 0
    # Spans still recorded: the report's timeline depends on them.
    assert report.timeline


@pytest.mark.overhead
def test_disabled_guard_cost_is_under_five_percent():
    counting = CountingBus()
    _attack(trace=counting)()
    assert counting.checks > 0, "the attack must exercise instrumented paths"

    best, _ = _interleaved_best({"attack": _attack, "guard": _guard_loop})
    attack_seconds = best["attack"]

    guard_seconds = counting.checks * best["guard"] / GUARD_ITERATIONS
    ratio = guard_seconds / attack_seconds
    assert ratio < 0.05, (
        "disabled-tracing guards cost %.2f%% of the attack "
        "(%d checks, %.1f ns each, %.2f s attack)"
        % (
            100.0 * ratio,
            counting.checks,
            1e9 * guard_seconds / counting.checks,
            attack_seconds,
        )
    )


@pytest.mark.overhead
def test_sampled_tracing_cost_is_under_five_percent():
    trace = TraceBus()
    trace.enable()
    trace.set_sampling(rates=SAMPLE_RATES, budgets=SAMPLE_BUDGETS)
    _machine, report = _attack(trace=trace)()
    stats = trace.sampler.stats()
    assert stats["seen"] > 0, "the attack must emit events when enabled"
    assert stats["kept"] > 0, "1% sampling must keep a trace worth reading"
    assert report.timeline

    best, _ = _interleaved_best(
        {
            "attack": _attack,
            "keep": lambda: _emit_loop({"*": 1.0}),
            "skip": lambda: _emit_loop({"*": 1e-9}),
        }
    )
    attack_seconds = best["attack"]

    skipped = stats["seen"] - stats["kept"]
    emit_seconds = (
        stats["kept"] * best["keep"] + skipped * best["skip"]
    ) / EMIT_ITERATIONS
    ratio = emit_seconds / attack_seconds
    assert ratio < 0.05, (
        "1%%-sampled tracing costs %.2f%% of the attack "
        "(%d seen, %d kept, %.2f s attack)"
        % (100.0 * ratio, stats["seen"], stats["kept"], attack_seconds)
    )
