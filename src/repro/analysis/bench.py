"""The quick benchmark suite behind ``repro bench``.

A handful of tiny-scale, seconds-fast workloads — one end-to-end
attack plus the hottest experiment paths — each of which produces a
ledger-ready performance record: host wall time, virtual-cycle phase
breakdown, the machine's metrics snapshot, and the outcome numbers
that must not silently drift (ground-truth flips, escalation).

Workflow (see ``docs/RUN_LEDGER.md``)::

    repro bench --record --baseline main     # name today's numbers
    ... hack on the hot paths ...
    repro bench --compare main               # nonzero exit on regression

Comparison is direction-aware: ``time.*``/``phase.*``/histogram
metrics regress *upward*, flip counts regress *downward*.  Raw host
wall time (``time.host_seconds``) moves by more than the default 25%
tolerance between two back-to-back runs on one shared host, so an
ungated ``--compare`` prints it but never counts it as a regression;
the virtual-cycle metrics recorded alongside it are deterministic for
a given seed, so a virtual-cycle regression is real at any tolerance.
"""

import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.observe.ledger import (
    BENCHMARK_RUN,
    RunRecord,
    config_fingerprint,
    diff_records,
)

#: Default regression tolerance (fraction of the baseline value).
DEFAULT_TOLERANCE = 0.25

#: Metrics an ungated comparison prints but never counts as regressed.
INFORMATIONAL = ("time.host_seconds",)


@dataclass
class BenchSpec:
    """One registered benchmark: a name, a title, and a runner.

    ``runner()`` executes the workload and returns a plain dict with
    any of the keys ``machine``, ``config_fingerprint``, ``timings``
    (extra scalars beside the harness-measured ``host_seconds``),
    ``phases``, ``metrics`` (a ``MetricsRegistry.snapshot_values()``), and
    ``outcome``.
    """

    name: str
    title: str
    runner: Callable[[], dict]


@dataclass
class BenchResult:
    """One finished benchmark, ready to persist or compare."""

    name: str
    title: str
    host_seconds: float
    machine: Optional[str] = None
    config_fingerprint: Optional[str] = None
    timings: Dict[str, float] = field(default_factory=dict)
    phases: List[dict] = field(default_factory=list)
    metrics: Optional[dict] = None
    outcome: Dict[str, float] = field(default_factory=dict)

    def to_record(self, label=None):
        """A ledger :class:`RunRecord` (kind ``benchmark``)."""
        timings = {"host_seconds": round(self.host_seconds, 6)}
        timings.update(self.timings)
        return RunRecord.new(
            BENCHMARK_RUN,
            self.name,
            label=label,
            machine=self.machine,
            config_fingerprint=self.config_fingerprint,
            timings=timings,
            phases=self.phases,
            metrics=self.metrics,
            outcome=self.outcome,
        )

    def summary_line(self):
        virtual = self.timings.get("virtual_cycles")
        return "%-18s %8.2fs %s%s" % (
            self.name,
            self.host_seconds,
            "%d virtual cycles" % virtual if virtual else "",
            "  flips=%d" % self.outcome["flips"] if "flips" in self.outcome else "",
        )


_BENCH_REGISTRY: Dict[str, BenchSpec] = {}


def register_bench(spec):
    """Add a benchmark to the suite; returns it for chaining."""
    if spec.name in _BENCH_REGISTRY:
        raise ConfigError("benchmark %r is already registered" % spec.name)
    _BENCH_REGISTRY[spec.name] = spec
    return spec


def bench_names():
    """Sorted names of every registered benchmark."""
    return sorted(_BENCH_REGISTRY)


def get_bench(name):
    """Look a registered benchmark up by name."""
    try:
        return _BENCH_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            "unknown benchmark %r (registered: %s)"
            % (name, ", ".join(bench_names()) or "none")
        )


def run_bench(name):
    """Run one benchmark; returns a :class:`BenchResult`."""
    spec = get_bench(name)
    started = time.perf_counter()
    payload = spec.runner() or {}
    host_seconds = time.perf_counter() - started
    return BenchResult(
        name=spec.name,
        title=spec.title,
        host_seconds=host_seconds,
        machine=payload.get("machine"),
        config_fingerprint=payload.get("config_fingerprint"),
        timings=payload.get("timings", {}),
        phases=payload.get("phases", []),
        metrics=payload.get("metrics"),
        outcome=payload.get("outcome", {}),
    )


def run_suite(names=None):
    """Run the whole suite (or ``names``), in registration-name order."""
    return [run_bench(name) for name in (names or bench_names())]


# ----------------------------------------------------------------------
# Baseline comparison


def _comparable(name):
    """Metrics worth gating on: timings, phase costs, latency summaries,
    and the attack-health numbers (flips, escalation)."""
    return (
        name.startswith(("time.", "phase."))
        or name.endswith((".mean", ".p50", ".p95", ".p99"))
        or "flip" in name
        or "escalated" in name
    )


@dataclass
class BenchComparison:
    """The suite compared against one named baseline."""

    baseline: str
    diffs: List[object]  # RunDiff per benchmark that had a baseline
    missing: List[str]  # benchmarks with no baseline record
    names: List[str] = field(default_factory=list)  # parallel to diffs

    def regressions(self):
        return [delta for diff in self.diffs for delta in diff.regressions()]

    def render(self):
        """The human-readable comparison (``repro bench`` sends this to
        stderr; stdout carries :meth:`machine_lines`)."""
        lines = []
        for diff in self.diffs:
            lines.append(diff.render())
            lines.append("")
        for name in self.missing:
            lines.append(
                "%s: no baseline %r recorded — run `repro bench --record "
                "--baseline %s` first" % (name, self.baseline, self.baseline)
            )
        regressions = self.regressions()
        lines.append(
            "baseline %r: %d benchmark(s) compared, %d missing, %d regression(s)"
            % (self.baseline, len(self.diffs), len(self.missing), len(regressions))
        )
        return "\n".join(lines)

    def machine_lines(self):
        """Stable tab-separated rows for stdout, one per compared metric:

        ``bench<TAB>metric<TAB>baseline<TAB>current<TAB>ok|REGRESSED``

        plus ``bench<TAB>-<TAB>-<TAB>-<TAB>missing-baseline`` for
        benchmarks without a recorded baseline.  Values are ``repr``\\ s
        of the recorded numbers, so a pipeline can parse them back.
        """
        rows = []
        for name, diff in zip(self.names, self.diffs):
            for delta in diff.deltas:
                rows.append(
                    "%s\t%s\t%r\t%r\t%s"
                    % (
                        name,
                        delta.name,
                        delta.before,
                        delta.after,
                        "REGRESSED" if delta.regressed else "ok",
                    )
                )
        for name in self.missing:
            rows.append("%s\t-\t-\t-\tmissing-baseline" % name)
        return rows


def compare_to_baseline(
    ledger, baseline, results, tolerance=DEFAULT_TOLERANCE, gate=None
):
    """Diff fresh :class:`BenchResult`\\ s against a recorded baseline.

    For every result, the most recent ledger record with kind
    ``benchmark``, the same name, and ``label == baseline`` is the
    reference; results without one land in ``missing`` (not a
    regression — record the baseline first).

    ``gate`` is an optional regex: when given, only metric names it
    matches (``re.search``) are compared at all.  CI uses this to gate
    on the deterministic metrics (virtual cycles, phase costs, the
    fast/reference ratio).  Without a gate every comparable metric is
    compared, but the :data:`INFORMATIONAL` ones (raw host seconds,
    which vary between runs far more than any real regression) are
    never marked regressed.
    """
    if gate is None:
        keep = _comparable
    else:
        pattern = re.compile(gate)
        keep = lambda name: pattern.search(name) is not None
    diffs = []
    names = []
    missing = []
    for result in results:
        reference = ledger.latest(
            kind=BENCHMARK_RUN, name=result.name, label=baseline
        )
        if reference is None:
            missing.append(result.name)
            continue
        names.append(result.name)
        diff = diff_records(
            reference, result.to_record(), tolerance=tolerance, metrics=keep
        )
        if gate is None:
            for delta in diff.deltas:
                if delta.name in INFORMATIONAL:
                    delta.regressed = False
        diffs.append(diff)
    return BenchComparison(
        baseline=baseline, diffs=diffs, missing=missing, names=names
    )


# ----------------------------------------------------------------------
# The suite: tiny-scale, seconds-fast, deterministic seeds


def _attack_bench():
    from repro.core.pthammer import PThammerAttack, PThammerConfig
    from repro.machine import AttackerView, Inspector, Machine
    from repro.machine.configs import tiny_test_config

    config = tiny_test_config(seed=1)
    machine = Machine(config)
    attacker = AttackerView(machine, machine.boot_process())
    report = PThammerAttack(
        attacker, PThammerConfig(spray_slots=256, pair_sample=12, max_pairs=8)
    ).run()
    return {
        "machine": config.name,
        "config_fingerprint": config_fingerprint(config),
        "timings": {"virtual_cycles": machine.cycles},
        "phases": [
            {"name": name, "start": start, "end": end, "cycles": end - start}
            for name, start, end in report.timeline
        ],
        "metrics": machine.metrics.snapshot_values(),
        "outcome": {
            "flips": Inspector(machine).flip_count(),
            "escalated": report.escalated,
        },
    }


def _experiment_bench(name, options_fn):
    """A registered-experiment benchmark sharing the engine code path.

    Its record carries the run's virtual cycles, deterministic for the
    seed, beside the host seconds that ``--compare`` only prints.
    """

    def runner():
        from repro.analysis.engine import machines_observed, run_experiment
        from repro.machine.configs import tiny_test_config

        with machines_observed() as machines:
            run = run_experiment(name, options_fn(tiny_test_config))
        return {
            "machine": "tiny-test",
            "config_fingerprint": config_fingerprint(tiny_test_config()),
            "timings": {"virtual_cycles": sum(m.cycles for m in machines)},
            "metrics": run.metrics.snapshot_values(),
            "outcome": {"completed": run.completed, "tasks": run.tasks_total},
        }

    return runner


def _interleaved_best(variants, rounds=3):
    """Best ``time.process_time`` seconds and last result per variant.

    ``variants`` maps a name to an untimed setup that returns the
    zero-argument callable to time.  Each round runs every variant
    once, in order, so host drift hits all of them alike.  The benches
    below gate a ratio of these seconds: host wall time is too noisy.
    """
    best, results = {}, {}
    for _ in range(rounds):
        for name, setup in variants.items():
            timed = setup()
            started = time.process_time()
            results[name] = timed()
            elapsed = time.process_time() - started
            best[name] = min(best.get(name, elapsed), elapsed)
    return best, results


def _fast_path_bench(workload, seed):
    """A reference-vs-fast engine benchmark (docs/PERFORMANCE.md).

    ``workload(machine, attacker)`` prepares its buffers and returns
    the hot loop as a zero-argument callable; only that callable is
    timed (setup like ``mmap --populate`` costs the same on both
    engines and would dilute the ratio).  It runs on two machines
    built from the same seed — one with ``fast_path=False`` (the
    reference engine) and one with ``fast_path=True`` — through
    :func:`_interleaved_best`.  The virtual clocks must agree exactly:
    the fast engine is required to be behaviourally invisible, so a
    cycle mismatch is reported as a failed outcome rather than a timing
    number.
    """

    def runner():
        from repro.machine import Machine
        from repro.machine.attacker import AttackerView
        from repro.machine.configs import tiny_test_config

        machines = {}

        def setup(name):
            machine = machines[name] = Machine(
                tiny_test_config(seed=seed), fast_path=name == "fast"
            )
            return workload(machine, AttackerView(machine, machine.boot_process()))

        best, _ = _interleaved_best(
            {"reference": lambda: setup("reference"), "fast": lambda: setup("fast")}
        )
        reference_seconds = best["reference"]
        fast_seconds = best["fast"]
        cycles_equal = machines["reference"].cycles == machines["fast"].cycles
        return {
            "machine": "tiny-test",
            "config_fingerprint": config_fingerprint(tiny_test_config(seed=seed)),
            "timings": {
                "reference_seconds": round(reference_seconds, 6),
                "fast_seconds": round(fast_seconds, 6),
                # Gated ratio (lower is better; time.* regress upward):
                # immune to absolute host speed, so it travels between
                # machines far better than the raw seconds.
                "fast_over_reference": round(fast_seconds / reference_seconds, 4),
                "virtual_cycles": machines["fast"].cycles,
            },
            "outcome": {
                "speedup": round(reference_seconds / fast_seconds, 3),
                "cycles_equal": 1 if cycles_equal else 0,
            },
        }

    return runner


def _warm_start_bench():
    """Cold per-trial setup vs snapshot restore (docs/SNAPSHOTS.md).

    Cold is the setup every Table 1 trial pays on a fresh machine:
    boot, boot the attacker's process, and run the attack's prepare
    phases (calibration, spray, LLC prep).  Warm is what the engine's
    ``--warm-start`` collapses it to: boot plus
    :meth:`~repro.machine.machine.Machine.restore` of the post-prepare
    snapshot.  Both run through :func:`_interleaved_best`; the gated
    number is the ``warm_over_cold`` ratio, not raw seconds.  Restores
    must be byte-identical to cold setups, so a snapshot fingerprint
    mismatch between the two machines is a failed outcome, not a timing
    artifact.
    """
    from repro.core.pthammer import PThammerAttack, PThammerConfig, PThammerReport
    from repro.machine import AttackerView, Machine
    from repro.machine.configs import tiny_test_config

    def cold_setup():
        config = tiny_test_config(seed=1)
        machine = Machine(config)
        attacker = AttackerView(machine, machine.boot_process())
        attack = PThammerAttack(
            attacker, PThammerConfig(spray_slots=256, pair_sample=12, max_pairs=8)
        )
        attack.prepare(PThammerReport(machine_name=config.name, superpages=True))
        return machine

    def warm_setup():
        return Machine(tiny_test_config(seed=1)).restore(snap)

    snap = cold_setup().snapshot()  # captured once, outside the timed loops
    # No untimed preparation: each variant's whole setup is what is timed.
    best, machines = _interleaved_best(
        {"cold": lambda: cold_setup, "warm": lambda: warm_setup}
    )
    states_equal = (
        machines["cold"].snapshot().fingerprint()
        == machines["warm"].snapshot().fingerprint()
        == snap.fingerprint()
    )
    return {
        "machine": "tiny-test",
        "config_fingerprint": config_fingerprint(tiny_test_config(seed=1)),
        "timings": {
            "cold_seconds": round(best["cold"], 6),
            "warm_seconds": round(best["warm"], 6),
            # Gated ratio (lower is better; time.* regress upward): the
            # setup-collapse factor warm start buys per trial.
            "warm_over_cold": round(best["warm"] / best["cold"], 4),
            "virtual_cycles": machines["warm"].cycles,
        },
        "outcome": {
            "setup_collapse": round(best["cold"] / best["warm"], 3),
            "states_equal": 1 if states_equal else 0,
        },
    }


def _sampled_trace_bench():
    """Tracing off vs 1 %-sampled tracing on real hammer rounds.

    The always-on-tracing story (docs/TELEMETRY.md) only holds if a
    sampled bus stays within a few percent of a disabled one, so this
    benchmark gates the ``sampled_over_off`` ratio.  Both machines run
    the same hammer-loop workload from the fast-path benchmarks —
    interleaved, best of three, ``time.process_time``.  Sampling must
    not perturb the simulation: a virtual-cycle mismatch between the
    two runs is a failed outcome, not a timing artifact.
    """
    from repro.machine import Machine
    from repro.machine.attacker import AttackerView
    from repro.machine.configs import tiny_test_config

    machines = {}

    def setup(mode):
        machine = machines[mode] = Machine(tiny_test_config(seed=11))
        if mode == "sampled":
            machine.trace.enable()
            machine.trace.set_sampling(rates={"*": 0.01}, budgets={"*": 100000})
        attacker = AttackerView(machine, machine.boot_process())
        return _hammer_loop_workload(machine, attacker)

    best, _ = _interleaved_best(
        {"off": lambda: setup("off"), "sampled": lambda: setup("sampled")}
    )
    cycles_equal = machines["off"].cycles == machines["sampled"].cycles
    stats = machines["sampled"].trace.sampler.stats()
    return {
        "machine": "tiny-test",
        "config_fingerprint": config_fingerprint(tiny_test_config(seed=11)),
        "timings": {
            "off_seconds": round(best["off"], 6),
            "sampled_seconds": round(best["sampled"], 6),
            # Gated ratio (lower is better; time.* regress upward): the
            # cost of leaving 1 %-sampled tracing on during a campaign.
            "sampled_over_off": round(best["sampled"] / best["off"], 4),
            "virtual_cycles": machines["sampled"].cycles,
        },
        "outcome": {
            "cycles_equal": 1 if cycles_equal else 0,
            "events_seen": stats["seen"],
            "events_kept": stats["kept"],
        },
    }


def _pattern_workload(name):
    """400 rounds of the registered pattern ``name`` over two targets.

    Per target: 12 pages congruent in one L1-dTLB set (VPN stride =
    set count), touched mid-page like TLBEvictionSetBuilder does, 13
    LLC lines, and the probe page.
    """

    def workload(machine, attacker):
        from repro.core.hammer import HammerTarget, PatternHammer
        from repro.core.llc_pool import EvictionSet
        from repro.patterns import compile_pattern, get

        sets = machine.config.tlb.l1d_sets
        tlb_span = 12 * sets  # pages holding both targets' TLB eviction sets
        base = attacker.mmap(tlb_span + 40, populate=True)
        targets = []
        for t in (0, 1):
            tlb_set = [base + (i * sets + t) * 4096 + 2048 for i in range(12)]
            lines = [
                base + (tlb_span + 13 * t + i) * 4096 + 17 * 64 for i in range(13)
            ]
            va = base + (tlb_span + 26 + t) * 4096
            targets.append(HammerTarget(va, tlb_set, EvictionSet(lines, 17)))
        hammer = PatternHammer(attacker, compile_pattern(get(name), targets))
        return lambda: hammer.run(rounds=400)

    return workload


#: Real hammer rounds: PThammer's double-sided round.
_hammer_loop_workload = _pattern_workload("double_sided")
#: Compiled-pattern rounds whose program mixes merged ``touch_many``
#: batches with ``nop`` delay slots.
_pattern_loop_workload = _pattern_workload("delay_slotted")


def _eviction_sweep_workload(machine, attacker):
    """Interleaved LLC-line and page sweeps with a timed probe per round."""
    from repro.core.llc_pool import sweep
    from repro.core.layout import PROBE_DATA_OFFSET

    base = attacker.mmap(40, populate=True)
    llc_lines = [base + i * 4096 + 17 * 64 for i in range(13)]
    tlb_pages = [base + (13 + i) * 4096 + 2048 for i in range(12)]
    probe = base + 30 * 4096 + PROBE_DATA_OFFSET

    def hot_loop():
        for _ in range(1000):
            sweep(attacker, llc_lines)
            sweep(attacker, tlb_pages)
            attacker.timed_read(probe)

    return hot_loop


register_bench(BenchSpec("attack-tiny", "end-to-end PThammer attack", _attack_bench))
register_bench(
    BenchSpec(
        "hammer-loop",
        "reference vs fast engine on real hammer rounds",
        _fast_path_bench(_hammer_loop_workload, seed=11),
    )
)
register_bench(
    BenchSpec(
        "pattern-loop",
        "reference vs fast engine on compiled-pattern rounds",
        _fast_path_bench(_pattern_loop_workload, seed=17),
    )
)
register_bench(
    BenchSpec(
        "eviction-sweep",
        "reference vs fast engine on eviction sweeps",
        _fast_path_bench(_eviction_sweep_workload, seed=13),
    )
)
register_bench(
    BenchSpec(
        "warm-start-table1-tiny",
        "cold attack setup vs snapshot restore",
        _warm_start_bench,
    )
)
register_bench(
    BenchSpec(
        "sampled-trace-loop",
        "tracing off vs 1%-sampled tracing on hammer rounds",
        _sampled_trace_bench,
    )
)
register_bench(
    BenchSpec(
        "figure3-tiny",
        "TLB eviction sweep through the engine",
        _experiment_bench(
            "figure3",
            lambda tiny: {
                "config_fns": (tiny,),
                "sizes": (8, 12),
                "trials": 10,
            },
        ),
    )
)
register_bench(
    BenchSpec(
        "sec4d-tiny",
        "pair construction statistics",
        _experiment_bench(
            "sec4d",
            lambda tiny: {"config_fn": tiny, "sample": 6, "spray_slots": 256},
        ),
    )
)
