"""Experiment specs and runners: one registered spec per paper artifact.

Every table/figure/section study is an :class:`ExperimentSpec` — a
task-list builder, a per-task run function (each task boots its own
machines), and a reduce function — registered by name in
:mod:`repro.analysis.engine`.  The CLI and the benchmark harness
dispatch through that registry; fan-out, checkpointing, and resume are
the engine's job, not the experiments'.

The historical free functions (``table1()`` ... ``run_escalation()``)
went through a deprecation release as engine-backed shims and are now
gone; ``run_experiment("<name>", options)`` with ``jobs=1`` reproduces
their serial results bit-for-bit (migration notes in
docs/EXPERIMENT_ENGINE.md).
"""

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.analysis import engine as _engine
from repro.analysis.engine import ExperimentSpec, Task, register_experiment
from repro.analysis.report import render_series, render_table
from repro.analysis.result import ExperimentResult
from repro.core.explicit import RowhammerTestTool
from repro.core.llc_eviction import selection_false_positive_rate
from repro.core.llc_offline import llc_miss_rate_by_size
from repro.core.pthammer import PThammerAttack, PThammerConfig, PThammerReport
from repro.core.tlb_eviction import TLBEvictionSetBuilder, tlb_miss_rate_by_size
from repro.core.uarch import UarchFacts
from repro.defenses import (
    DEFENSE_PRESETS,
    CATTPolicy,
    CTAPolicy,
    RIPRHPolicy,
    StockPolicy,
    ZebRAMPolicy,
)
from repro.errors import ConfigError
from repro.machine import AttackerView, Inspector, Machine
from repro.machine.configs import (
    MACHINE_PRESETS,
    SCALED_MACHINES,
    TABLE1_MACHINES,
    machine_preset,
    tiny_test_config,
)
from repro.patterns import names as pattern_names
from repro.utils.cliargs import padding_list, positive_int, size_list
from repro.utils.stats import Histogram, RunningStats, percentile_summary
from repro.utils.units import cycles_to_seconds, format_duration, format_size


class ExperimentContext:
    """One booted machine with an attacker, an inspector, and the facts.

    Contexts report their machine to the experiment engine
    (:func:`repro.analysis.engine.observe_machine`), so machines booted
    inside an engine task contribute to the run-level metrics
    aggregation — and, when a telemetry session is active, their flip
    counts and hammer-round latencies to the live stream —
    automatically.
    """

    def __init__(self, config, policy=None):
        self.machine = Machine(config, policy=policy)
        self.attacker = AttackerView(self.machine, self.machine.boot_process())
        self.inspector = Inspector(self.machine)
        self.facts = UarchFacts.from_config(config)
        _engine.observe_machine(self.machine)

    def seconds(self, cycles):
        """Virtual cycles -> seconds at this machine's clock."""
        return cycles_to_seconds(cycles, self.machine.config.cpu.freq_ghz)


# ----------------------------------------------------------------------
# Shared spec helpers


def _machine_tasks(config_fns, extra=None):
    """One task per machine config factory, keyed by index and name."""
    tasks = []
    for index, config_fn in enumerate(config_fns):
        name = config_fn().name
        payload = {"index": index, "machine": name}
        if extra:
            payload.update(extra)
        tasks.append(Task(key="%d:%s" % (index, name), payload=payload))
    return tasks


def _single_machine_tasks(options, experiment):
    """The one-task list for experiments that run a single machine."""
    config_fn = options.get("config_fn")
    if config_fn is None:
        raise ConfigError(
            "experiment %r needs a machine (options['config_fn'], "
            "or --machine on the CLI)" % experiment
        )
    return [Task(key=config_fn().name, payload={"machine": config_fn().name})]


def _parse_machines(value):
    """Comma-separated preset names -> tuple of config factories."""
    names = [token.strip() for token in value.split(",") if token.strip()]
    if not names:
        raise ConfigError("--machines needs at least one preset name")
    return tuple(machine_preset(name) for name in names)


def _machines_flag(parser, default_help="the three scaled Table-I machines"):
    parser.add_argument(
        "--machines",
        metavar="LIST",
        default=None,
        help="comma-separated machine presets from {%s} (default: %s)"
        % (",".join(sorted(MACHINE_PRESETS)), default_help),
    )


def _machine_flag(parser, default):
    parser.add_argument(
        "--machine",
        choices=sorted(MACHINE_PRESETS),
        default=default,
        help="machine preset (default: %(default)s)",
    )


# ----------------------------------------------------------------------
# Table I — system configurations


@dataclass
class Table1Result(ExperimentResult):
    rows: List[tuple]

    def render(self):
        return render_table(
            ["Machine", "CPU arch", "TLB assoc", "LLC", "DRAM"],
            self.rows,
            title="Table I: system configurations",
        )

    def to_rows(self):
        return ("machine", "cpu_arch", "tlb_assoc", "llc", "dram"), list(self.rows)


def _table1_run(task, options):
    config = options["config_fns"][task.payload["index"]]()
    tlb = config.tlb
    return [
        config.name,
        "%.1f GHz" % config.cpu.freq_ghz,
        "%d-way L1d, %d-way L2s" % (tlb.l1d_ways, tlb.l2s_ways),
        "%d-way, %s" % (config.cache.llc_ways, format_size(config.llc_bytes())),
        format_size(config.dram.size_bytes),
    ]


def _table1_cli_options(args):
    return {"config_fns": _parse_machines(args.machines)} if args.machines else {}


TABLE1_SPEC = register_experiment(
    ExperimentSpec(
        name="table1",
        title="Table I: machine configurations",
        build_tasks=lambda options: _machine_tasks(options["config_fns"]),
        run_task=_table1_run,
        reduce=lambda data, options: Table1Result([tuple(row) for row in data]),
        defaults={"config_fns": TABLE1_MACHINES},
        cli_configure=lambda parser: _machines_flag(
            parser, default_help="the three full-size Table-I machines"
        ),
        cli_options=_table1_cli_options,
        smoke_argv=("--machines", "tiny"),
    )
)


# ----------------------------------------------------------------------
# Figures 3 and 4 — eviction-set size sweeps


@dataclass
class EvictionSweepResult(ExperimentResult):
    name: str
    series: Dict[str, Dict[int, float]]  # machine -> size -> miss rate
    knee: Dict[str, int] = field(default_factory=dict)

    def render(self):
        parts = []
        for machine, points in self.series.items():
            parts.append(
                render_series(
                    "%s [%s]" % (self.name, machine),
                    points,
                    x_label="eviction-set size",
                    y_label="miss rate",
                )
            )
        return "\n".join(parts)

    def to_rows(self):
        rows = [
            (machine, size, rate)
            for machine, points in self.series.items()
            for size, rate in sorted(points.items())
        ]
        if not rows:
            raise ConfigError("sweep result has no series")
        return ("machine", "size", "miss_rate"), rows

    def min_reliable_size(self, machine, level=0.95):
        """Smallest size whose rate and all larger sizes stay >= level.

        Returns ``None`` when even the largest measured size misses
        ``level`` — eviction on that machine is unreliable at every
        size, which is a finding, not an error; callers must handle it
        (see :meth:`require_reliable_size` for the raising variant).
        Unknown machine names raise :class:`ConfigError`.
        """
        if machine not in self.series:
            raise ConfigError(
                "no series for machine %r (have: %s)"
                % (machine, ", ".join(sorted(self.series)))
            )
        points = self.series[machine]
        reliable = None
        for size in sorted(points, reverse=True):
            if points[size] >= level:
                reliable = size
            else:
                break
        return reliable

    def require_reliable_size(self, machine, level=0.95):
        """Like :meth:`min_reliable_size` but raises instead of None."""
        size = self.min_reliable_size(machine, level=level)
        if size is None:
            raise ConfigError(
                "%s: no eviction-set size reaches a %.0f%% rate on %r"
                % (self.name, 100 * level, machine)
            )
        return size


def _figure3_run(task, options):
    context = ExperimentContext(options["config_fns"][task.payload["index"]]())
    builder = TLBEvictionSetBuilder(context.attacker, context.facts)
    points = tlb_miss_rate_by_size(
        context.attacker,
        context.inspector,
        builder,
        task.payload["sizes"],
        trials=task.payload["trials"],
    )
    return {"machine": context.machine.config.name, "points": points}


def _figure4_run(task, options):
    context = ExperimentContext(options["config_fns"][task.payload["index"]]())
    sizes = task.payload["sizes"]
    if sizes is None:
        sizes = range(9, 2 * context.facts.llc_ways + 1)
    points = llc_miss_rate_by_size(
        context.attacker,
        context.inspector,
        context.facts,
        sizes,
        trials=task.payload["trials"],
    )
    return {"machine": context.machine.config.name, "points": points}


def _sweep_reduce(title):
    def reduce(data, options):
        series = {}
        for entry in data:
            series[entry["machine"]] = {
                int(size): rate for size, rate in entry["points"].items()
            }
        return EvictionSweepResult(title, series)

    return reduce


def _sweep_tasks(options):
    sizes = options["sizes"]
    return _machine_tasks(
        options["config_fns"],
        extra={
            "sizes": None if sizes is None else [int(size) for size in sizes],
            "trials": options["trials"],
        },
    )


def _sweep_cli_configure(parser):
    _machines_flag(parser)
    parser.add_argument(
        "--sizes",
        metavar="SPEC",
        type=size_list,
        default=None,
        help="eviction-set sizes, '8-16' or '8,12,16' (default: per experiment)",
    )
    parser.add_argument("--trials", type=positive_int, default=60)


def _sweep_cli_options(args):
    options = {"trials": args.trials}
    if args.machines:
        options["config_fns"] = _parse_machines(args.machines)
    if args.sizes:
        options["sizes"] = args.sizes
    return options


FIGURE3_SPEC = register_experiment(
    ExperimentSpec(
        name="figure3",
        title="Figure 3: TLB miss rate vs eviction-set size",
        build_tasks=_sweep_tasks,
        run_task=_figure3_run,
        reduce=_sweep_reduce("Figure 3: TLB eviction"),
        defaults={
            "config_fns": SCALED_MACHINES,
            "sizes": tuple(range(8, 17)),
            "trials": 80,
        },
        cli_configure=_sweep_cli_configure,
        cli_options=_sweep_cli_options,
        smoke_argv=("--machines", "tiny", "--sizes", "8,12", "--trials", "10"),
    )
)

FIGURE4_SPEC = register_experiment(
    ExperimentSpec(
        name="figure4",
        title="Figure 4: LLC miss rate vs eviction-set size",
        build_tasks=_sweep_tasks,
        run_task=_figure4_run,
        reduce=_sweep_reduce("Figure 4: LLC eviction"),
        defaults={"config_fns": SCALED_MACHINES, "sizes": None, "trials": 80},
        cli_configure=_sweep_cli_configure,
        cli_options=_sweep_cli_options,
        smoke_argv=("--machines", "tiny", "--sizes", "10,13", "--trials", "10"),
    )
)


# ----------------------------------------------------------------------
# Table II — attack phase costs


@dataclass
class Table2Row:
    machine: str
    page_setting: str
    tlb_prep_s: float
    llc_prep_s: float
    tlb_select_s: float
    llc_select_s: float
    hammer_s: float
    check_s: float
    first_flip_s: Optional[float]


@dataclass
class Table2Result(ExperimentResult):
    rows: List[Table2Row]

    def render(self):
        return render_table(
            [
                "Machine",
                "Pages",
                "TLB prep",
                "LLC prep",
                "TLB select",
                "LLC select",
                "Hammer",
                "Check",
                "First flip",
            ],
            [
                (
                    r.machine,
                    r.page_setting,
                    format_duration(r.tlb_prep_s),
                    format_duration(r.llc_prep_s),
                    format_duration(r.tlb_select_s),
                    format_duration(r.llc_select_s),
                    format_duration(r.hammer_s),
                    format_duration(r.check_s),
                    format_duration(r.first_flip_s) if r.first_flip_s else "(none)",
                )
                for r in self.rows
            ],
            title="Table II: PThammer phase costs (virtual time)",
        )

    def to_rows(self):
        rows = [
            (
                row.machine,
                row.page_setting,
                row.tlb_prep_s,
                row.llc_prep_s,
                row.tlb_select_s,
                row.llc_select_s,
                row.hammer_s,
                row.check_s,
                "" if row.first_flip_s is None else row.first_flip_s,
            )
            for row in self.rows
        ]
        return (
            (
                "machine",
                "pages",
                "tlb_prep_s",
                "llc_prep_s",
                "tlb_select_s",
                "llc_select_s",
                "hammer_s",
                "check_s",
                "first_flip_s",
            ),
            rows,
        )


def _table2_tasks(options):
    tasks = []
    for index, config_fn in enumerate(options["config_fns"]):
        name = config_fn().name
        for superpages in options["page_settings"]:
            setting = "superpage" if superpages else "regular"
            tasks.append(
                Task(
                    key="%d:%s:%s" % (index, name, setting),
                    payload={
                        "index": index,
                        "machine": name,
                        "superpages": bool(superpages),
                    },
                )
            )
    return tasks


def _table2_run(task, options):
    context = ExperimentContext(options["config_fns"][task.payload["index"]]())
    base = options.get("attack_config")
    config = replace(base) if base is not None else PThammerConfig()
    config.superpages = task.payload["superpages"]
    attack = PThammerAttack(context.attacker, config)
    report = attack.run()
    tlb_select = attack.tlb_builder.prep_cycles / max(1, attack.tlb_builder.pages_mapped)
    return {
        "machine": context.machine.config.name,
        "page_setting": "superpage" if task.payload["superpages"] else "regular",
        "tlb_prep_s": context.seconds(report.tlb_prep_cycles),
        "llc_prep_s": context.seconds(report.llc_prep_cycles),
        "tlb_select_s": context.seconds(int(tlb_select)),
        "llc_select_s": context.seconds(int(report.mean_selection_cycles())),
        "hammer_s": context.seconds(int(report.mean_hammer_cycles())),
        "check_s": context.seconds(int(report.mean_check_cycles())),
        "first_flip_s": (
            context.seconds(report.cycles_to_first_flip)
            if report.cycles_to_first_flip
            else None
        ),
    }


def _table2_cli_configure(parser):
    _machines_flag(parser)
    parser.add_argument("--slots", type=positive_int, default=384)


def _table2_cli_options(args):
    options = {
        "attack_config": PThammerConfig(spray_slots=args.slots, max_pairs=8)
    }
    if args.machines:
        options["config_fns"] = _parse_machines(args.machines)
    return options


TABLE2_SPEC = register_experiment(
    ExperimentSpec(
        name="table2",
        title="Table II: attack phase costs",
        build_tasks=_table2_tasks,
        run_task=_table2_run,
        reduce=lambda data, options: Table2Result([Table2Row(**row) for row in data]),
        defaults={
            "config_fns": SCALED_MACHINES,
            "page_settings": (True, False),
            "attack_config": None,
        },
        cli_configure=_table2_cli_configure,
        cli_options=_table2_cli_options,
        smoke_argv=("--machines", "tiny", "--slots", "224"),
    )
)


# ----------------------------------------------------------------------
# Section IV-C — LLC eviction-set selection false positives


@dataclass
class SelectionResult(ExperimentResult):
    machine: str
    false_positive_rate: float
    targets: int

    def render(self):
        return (
            "Section IV-C [%s]: Algorithm-2 false positives: %.1f%% over %d targets"
            % (self.machine, 100 * self.false_positive_rate, self.targets)
        )

    def to_rows(self):
        return (
            ("machine", "false_positive_rate", "targets"),
            [(self.machine, self.false_positive_rate, self.targets)],
        )


def _section_4c_data(config_fn, targets, superpages):
    context = ExperimentContext(config_fn())
    attack = PThammerAttack(
        context.attacker,
        PThammerConfig(superpages=superpages, spray_slots=256),
    )
    report = PThammerReport(machine_name=context.machine.config.name, superpages=superpages)
    attack.prepare(report)
    target_vas = [
        attack.spray.target_va(slot)
        for slot in range(0, attack.spray.slots, max(1, attack.spray.slots // targets))
    ][:targets]
    rate = selection_false_positive_rate(
        context.attacker,
        context.inspector,
        attack.pool,
        attack.tlb_builder,
        target_vas,
        attack.config.tlb_eviction_size,
    )
    return {
        "machine": context.machine.config.name,
        "false_positive_rate": rate,
        "targets": len(target_vas),
    }


def _sec4c_cli_configure(parser):
    _machine_flag(parser, default="t420-scaled")
    parser.add_argument("--targets", type=positive_int, default=16)


SEC4C_SPEC = register_experiment(
    ExperimentSpec(
        name="sec4c",
        title="Section IV-C: Algorithm-2 selection false positives",
        build_tasks=lambda options: _single_machine_tasks(options, "sec4c"),
        run_task=lambda task, options: _section_4c_data(
            options["config_fn"], options["targets"], options["superpages"]
        ),
        reduce=lambda data, options: SelectionResult(**data[0]),
        defaults={"config_fn": None, "targets": 16, "superpages": True},
        cli_configure=_sec4c_cli_configure,
        cli_options=lambda args: {
            "config_fn": machine_preset(args.machine),
            "targets": args.targets,
        },
        smoke_argv=("--machine", "tiny", "--targets", "4"),
    )
)


# ----------------------------------------------------------------------
# Section IV-D — pair-construction hit rates


@dataclass
class PairStatsResult(ExperimentResult):
    machine: str
    candidates: int
    flagged_slow: int
    slow_same_bank_rate: float
    same_bank_victim_rate: float

    def render(self):
        return (
            "Section IV-D [%s]: %d candidates, %d flagged slow; "
            "%.0f%% of slow pairs same-bank; %.0f%% of those one row apart"
            % (
                self.machine,
                self.candidates,
                self.flagged_slow,
                100 * self.slow_same_bank_rate,
                100 * self.same_bank_victim_rate,
            )
        )

    def to_rows(self):
        return (
            (
                "machine",
                "candidates",
                "flagged_slow",
                "slow_same_bank_rate",
                "same_bank_victim_rate",
            ),
            [
                (
                    self.machine,
                    self.candidates,
                    self.flagged_slow,
                    self.slow_same_bank_rate,
                    self.same_bank_victim_rate,
                )
            ],
        )


def _section_4d_data(config_fn, sample, spray_slots):
    """Section IV-D measurement as plain data (engine task body)."""
    from repro.core.pair_finding import PairFinder

    context = ExperimentContext(config_fn())
    attack = PThammerAttack(
        context.attacker, PThammerConfig(spray_slots=spray_slots, pair_sample=sample)
    )
    report = PThammerReport(machine_name=context.machine.config.name, superpages=True)
    attack.prepare(report)
    finder = PairFinder(
        context.attacker,
        attack.facts,
        attack.spray,
        attack.tlb_builder,
        attack.config.tlb_eviction_size,
    )
    candidates = finder.candidate_pairs(limit=sample)
    llc_sets = {}
    conflict_level = finder.conflict_level()
    for pair in candidates:
        finder.conflict_score(
            pair,
            attack._llc_set_for(pair.va_a, llc_sets),
            attack._llc_set_for(pair.va_b, llc_sets),
        )
    slow, _ = PairFinder.split_by_conflict(candidates, conflict_level)
    same_bank = 0
    victim_apart = 0
    inspector = context.inspector
    for pair in slow:
        pte_a = inspector.l1pte_paddr(context.attacker.process, pair.va_a)
        pte_b = inspector.l1pte_paddr(context.attacker.process, pair.va_b)
        loc_a = inspector.dram_location(pte_a)
        loc_b = inspector.dram_location(pte_b)
        if loc_a.bank == loc_b.bank and loc_a.row != loc_b.row:
            same_bank += 1
            if abs(loc_a.row - loc_b.row) == 2:
                victim_apart += 1
    return {
        "machine": context.machine.config.name,
        "candidates": len(candidates),
        "flagged_slow": len(slow),
        "slow_same_bank_rate": same_bank / len(slow) if slow else 0.0,
        "same_bank_victim_rate": victim_apart / same_bank if same_bank else 0.0,
    }


def _sec4d_cli_configure(parser):
    _machine_flag(parser, default="t420-scaled")
    parser.add_argument("--sample", type=positive_int, default=32)
    parser.add_argument("--slots", type=positive_int, default=512)


SEC4D_SPEC = register_experiment(
    ExperimentSpec(
        name="sec4d",
        title="Section IV-D: pair-construction hit rates",
        build_tasks=lambda options: _single_machine_tasks(options, "sec4d"),
        run_task=lambda task, options: _section_4d_data(
            options["config_fn"], options["sample"], options["spray_slots"]
        ),
        reduce=lambda data, options: PairStatsResult(**data[0]),
        defaults={"config_fn": None, "sample": 32, "spray_slots": 512},
        cli_configure=_sec4d_cli_configure,
        cli_options=lambda args: {
            "config_fn": machine_preset(args.machine),
            "sample": args.sample,
            "spray_slots": args.slots,
        },
        smoke_argv=("--machine", "tiny", "--sample", "6", "--slots", "224"),
    )
)


# ----------------------------------------------------------------------
# Figure 5 — hammer-iteration budget vs time to first flip


@dataclass
class Figure5Result(ExperimentResult):
    machine: str
    series: Dict[int, Optional[float]]  # padding -> seconds-to-flip or None
    cliff_cycles: int

    def render(self):
        return render_series(
            "Figure 5 [%s] (predicted cliff ~%d cycles/iter)"
            % (self.machine, self.cliff_cycles),
            self.series,
            x_label="NOP padding (cycles)",
            y_label="s to first flip",
            y_format="%.4f",
        )

    def to_rows(self):
        rows = [
            (padding, "" if seconds is None else seconds)
            for padding, seconds in sorted(self.series.items())
        ]
        return ("nop_padding_cycles", "seconds_to_first_flip"), rows


def _figure5_run(task, options):
    """One machine's padding sweep (a single engine task: the paddings
    share one machine so flips accumulate exactly as the paper's
    calibration tool does)."""
    context = ExperimentContext(options["config_fn"]())
    config = context.machine.config
    budget = options["budget_windows"] * config.dram.refresh_interval_cycles
    tool = RowhammerTestTool(
        context.attacker,
        context.inspector,
        context.facts,
        buffer_pages=options["buffer_pages"],
    )
    series = {}
    for padding in options["paddings"]:
        cycles = tool.time_to_first_flip(padding, budget)
        series[int(padding)] = context.seconds(cycles) if cycles is not None else None
    cliff = context.machine.fault_model.max_iteration_cycles(
        config.dram.refresh_interval_cycles
    )
    return {"machine": config.name, "series": series, "cliff_cycles": cliff}


def _figure5_cli_configure(parser):
    _machine_flag(parser, default="t420-scaled")
    parser.add_argument(
        "--paddings",
        metavar="LIST",
        type=padding_list,
        default=None,
        help="comma-separated NOP paddings in cycles (default: the paper's)",
    )
    parser.add_argument("--buffer-pages", type=positive_int, default=256)


def _figure5_cli_options(args):
    options = {
        "config_fn": machine_preset(args.machine),
        "buffer_pages": args.buffer_pages,
    }
    if args.paddings:
        options["paddings"] = args.paddings
    return options


FIGURE5_SPEC = register_experiment(
    ExperimentSpec(
        name="figure5",
        title="Figure 5: hammer-budget cliff",
        build_tasks=lambda options: _single_machine_tasks(options, "figure5"),
        run_task=_figure5_run,
        reduce=lambda data, options: Figure5Result(
            data[0]["machine"],
            {int(padding): s for padding, s in data[0]["series"].items()},
            data[0]["cliff_cycles"],
        ),
        defaults={
            "config_fn": None,
            "paddings": (0, 300, 600, 900, 1200, 1800, 2600),
            "budget_windows": 6,
            "buffer_pages": 1024,
        },
        cli_configure=_figure5_cli_configure,
        cli_options=_figure5_cli_options,
        smoke_argv=("--machine", "tiny", "--paddings", "0,900", "--buffer-pages", "256"),
    )
)


# ----------------------------------------------------------------------
# Figure 6 — per-hammer cycle distributions


@dataclass
class Figure6Result(ExperimentResult):
    machine: str
    page_setting: str
    costs: List[int]

    def render(self):
        stats = RunningStats()
        stats.extend(self.costs)
        histogram = Histogram(0, max(self.costs) + 100, 12)
        histogram.extend(self.costs)
        quantiles = self.percentiles()
        lines = [
            "Figure 6 [%s, %s pages]: %d rounds, mean %.0f, "
            "p50 %.0f, p95 %.0f, p99 %.0f, min %d, max %d cycles"
            % (
                self.machine,
                self.page_setting,
                stats.count,
                stats.mean,
                quantiles["p50"],
                quantiles["p95"],
                quantiles["p99"],
                stats.minimum,
                stats.maximum,
            )
        ]
        edges = histogram.bin_edges()
        for i, count in enumerate(histogram.counts):
            lines.append(
                "  %6.0f-%6.0f : %s"
                % (edges[i], edges[i + 1], "#" * count)
            )
        return "\n".join(lines)

    def to_rows(self):
        rows = [
            (self.machine, self.page_setting, index, cost)
            for index, cost in enumerate(self.costs)
        ]
        return ("machine", "pages", "round", "cycles"), rows

    def percentiles(self):
        """Exact p50/p95/p99 over the raw per-round costs."""
        return percentile_summary(self.costs)

    def p95(self):
        return self.percentiles()["p95"]


def _figure6_run(task, options):
    context = ExperimentContext(options["config_fn"]())
    superpages = options["superpages"]
    attack = PThammerAttack(
        context.attacker,
        PThammerConfig(
            superpages=superpages,
            spray_slots=options["spray_slots"],
            pair_sample=8,
        ),
    )
    report = PThammerReport(machine_name=context.machine.config.name, superpages=superpages)
    attack.prepare(report)
    pairs, llc_sets = attack.find_pairs(report)
    if not pairs:
        raise RuntimeError("no same-bank pairs found for Figure 6")
    costs = attack.hammer_for(pairs[0], llc_sets).run(options["rounds"])
    return {
        "machine": context.machine.config.name,
        "page_setting": "super" if superpages else "regular",
        "costs": costs,
    }


def _figure6_cli_configure(parser):
    _machine_flag(parser, default="t420-scaled")
    parser.add_argument("--regular-pages", action="store_true")
    parser.add_argument("--rounds", type=positive_int, default=50)
    parser.add_argument("--slots", type=positive_int, default=512)


FIGURE6_SPEC = register_experiment(
    ExperimentSpec(
        name="figure6",
        title="Figure 6: per-round cycle distribution",
        build_tasks=lambda options: _single_machine_tasks(options, "figure6"),
        run_task=_figure6_run,
        reduce=lambda data, options: Figure6Result(**data[0]),
        defaults={
            "config_fn": None,
            "superpages": True,
            "rounds": 50,
            "spray_slots": 512,
        },
        cli_configure=_figure6_cli_configure,
        cli_options=lambda args: {
            "config_fn": machine_preset(args.machine),
            "superpages": not args.regular_pages,
            "rounds": args.rounds,
            "spray_slots": args.slots,
        },
        smoke_argv=("--machine", "tiny", "--rounds", "10", "--slots", "224"),
    )
)


# ----------------------------------------------------------------------
# Sections IV-F and IV-G — privilege escalation, with and without defenses


@dataclass
class EscalationResult(ExperimentResult):
    machine: str
    defense: str
    escalated: bool
    method: Optional[str]
    flips_observed: int
    captures: Dict[str, int]
    ground_truth_flips: int
    first_flip_s: Optional[float]
    host_seconds: float

    def render(self):
        return (
            "Escalation [%s, defense=%s]: escalated=%s method=%s "
            "flips=%d gt-flips=%d first-flip=%s"
            % (
                self.machine,
                self.defense,
                "yes" if self.escalated else "no",
                self.method or "-",
                self.flips_observed,
                self.ground_truth_flips,
                format_duration(self.first_flip_s) if self.first_flip_s else "(none)",
            )
        )

    def row(self):
        return (
            self.defense,
            "yes" if self.escalated else "no",
            self.method or "-",
            self.flips_observed,
            self.captures.get("l1pt", 0),
            self.captures.get("cred", 0),
            self.ground_truth_flips,
            format_duration(self.first_flip_s) if self.first_flip_s else "(none)",
        )

    def csv_row(self):
        return (
            self.defense,
            int(self.escalated),
            self.method or "",
            self.flips_observed,
            self.captures.get("l1pt", 0),
            self.captures.get("cred", 0),
            self.ground_truth_flips,
        )

    def to_rows(self):
        return _DEFENSE_CSV_HEADER, [self.csv_row()]


_DEFENSE_CSV_HEADER = (
    "defense",
    "escalated",
    "method",
    "flips_observed",
    "l1pt_captures",
    "cred_captures",
    "ground_truth_flips",
)


@dataclass
class DefenseMatrixResult(ExperimentResult):
    machine: str
    results: List[EscalationResult]

    def render(self):
        return render_table(
            [
                "Defense",
                "Escalated",
                "Method",
                "Flips seen",
                "L1PT caps",
                "Cred caps",
                "GT flips",
                "First flip",
            ],
            [r.row() for r in self.results],
            title="Sections IV-F/IV-G [%s]: PThammer vs software defenses"
            % self.machine,
        )

    def to_rows(self):
        return _DEFENSE_CSV_HEADER, [r.csv_row() for r in self.results]


def _run_escalation_data(config_fn, policy, attack_config, defense_name):
    """One full attack under one placement policy, as plain data."""
    started = time.time()
    config = config_fn()
    context = ExperimentContext(config, policy=policy)
    attack = PThammerAttack(context.attacker, attack_config or PThammerConfig())
    report = attack.run()
    outcome = report.outcome
    return {
        "machine": config.name,
        "defense": defense_name,
        "escalated": report.escalated,
        "method": outcome.method if outcome else None,
        "flips_observed": report.total_flips,
        "captures": dict(outcome.captures) if outcome else {},
        "ground_truth_flips": context.inspector.flip_count(),
        "first_flip_s": (
            context.seconds(report.cycles_to_first_flip)
            if report.cycles_to_first_flip
            else None
        ),
        "host_seconds": time.time() - started,
    }


def _escalation_cli_configure(parser):
    _machine_flag(parser, default="tiny")
    parser.add_argument("--defense", choices=sorted(DEFENSE_PRESETS), default="none")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--slots", type=positive_int, default=None, help="spray slots")
    parser.add_argument(
        "--pairs", type=positive_int, default=None, help="pairs to hammer"
    )
    parser.add_argument(
        "--pattern",
        metavar="NAME",
        choices=pattern_names(),
        default=None,
        help="hammer with a registered pattern (see `repro patterns list`)",
    )


def _escalation_cli_options(args):
    config_fn = machine_preset(args.machine)
    if args.seed is not None:
        base_fn, seed = config_fn, args.seed

        def config_fn():
            config = base_fn()
            config.seed = seed
            return config

    attack_config = None
    if args.slots is not None or args.pairs is not None or args.pattern is not None:
        attack_config = PThammerConfig()
        if args.slots is not None:
            attack_config.spray_slots = args.slots
        if args.pairs is not None:
            attack_config.pair_sample = args.pairs
            attack_config.max_pairs = args.pairs
        attack_config.pattern = args.pattern
    return {
        "config_fn": config_fn,
        "policy": DEFENSE_PRESETS[args.defense](),
        "attack_config": attack_config,
        "defense_name": args.defense,
    }


ESCALATION_SPEC = register_experiment(
    ExperimentSpec(
        name="escalation",
        title="Sections IV-F: one full escalation run",
        build_tasks=lambda options: _single_machine_tasks(options, "escalation"),
        run_task=lambda task, options: _run_escalation_data(
            options["config_fn"],
            options["policy"],
            options["attack_config"],
            options["defense_name"],
        ),
        reduce=lambda data, options: EscalationResult(**data[0]),
        defaults={
            "config_fn": None,
            "policy": None,
            "attack_config": None,
            "defense_name": "stock",
        },
        cli_configure=_escalation_cli_configure,
        cli_options=_escalation_cli_options,
        smoke_argv=("--machine", "tiny", "--seed", "1", "--slots", "256",
                    "--pairs", "14"),
    )
)


def _defense_runs(base_seed, dense_seed):
    """The verified per-defense setups (knobs documented inline).

    CATT/RIP-RH/CTA runs use a densely vulnerable DIMM and a
    zone-filling spray: placement defenses concentrate page tables, and
    the capture probability scales with how much of the protected
    region the spray occupies (see EXPERIMENTS.md note 3).
    """
    dense = lambda: tiny_test_config_dense(dense_seed)
    return [
        (
            "stock",
            lambda: tiny_test_config(seed=base_seed),
            StockPolicy(),
            PThammerConfig(spray_slots=256, pair_sample=16, max_pairs=14),
        ),
        (
            "catt",
            dense,
            CATTPolicy(kernel_fraction=0.1),
            PThammerConfig(spray_slots=1000, pair_sample=20, max_pairs=12),
        ),
        (
            "rip-rh",
            dense,
            RIPRHPolicy(kernel_fraction=0.1),
            PThammerConfig(spray_slots=1000, pair_sample=20, max_pairs=12),
        ),
        (
            "cta",
            dense,
            CTAPolicy(),
            PThammerConfig(
                spray_slots=800,
                pair_sample=20,
                max_pairs=12,
                cred_spray_processes=1500,
            ),
        ),
        (
            "zebram",
            dense,
            ZebRAMPolicy(),
            PThammerConfig(
                spray_slots=256, pair_sample=12, max_pairs=6, superpages=False
            ),
        ),
    ]


def _defenses_tasks(options):
    runs = _defense_runs(options["base_seed"], options["dense_seed"])
    names = [name for name, _, _, _ in runs]
    only = options.get("only")
    if only:
        unknown = sorted(set(only) - set(names))
        if unknown:
            raise ConfigError(
                "unknown defenses %s (matrix: %s)" % (unknown, ", ".join(names))
            )
        names = [name for name in names if name in set(only)]
    return [Task(key=name, payload={"defense": name}) for name in names]


def _defenses_run(task, options):
    for name, config_fn, policy, attack_config in _defense_runs(
        options["base_seed"], options["dense_seed"]
    ):
        if name == task.payload["defense"]:
            return _run_escalation_data(config_fn, policy, attack_config, name)
    raise ConfigError("defense %r is not in the matrix" % task.payload["defense"])


def _defenses_cli_configure(parser):
    parser.add_argument(
        "--only",
        metavar="LIST",
        default=None,
        help="comma-separated subset of the defense matrix "
        "(stock,catt,rip-rh,cta,zebram)",
    )
    parser.add_argument("--base-seed", type=int, default=1)
    parser.add_argument("--dense-seed", type=int, default=5)


def _defenses_cli_options(args):
    options = {"base_seed": args.base_seed, "dense_seed": args.dense_seed}
    if args.only:
        options["only"] = tuple(
            token.strip() for token in args.only.split(",") if token.strip()
        )
    return options


DEFENSES_SPEC = register_experiment(
    ExperimentSpec(
        name="defenses",
        title="Sections IV-G/V: the five-defense matrix",
        build_tasks=_defenses_tasks,
        run_task=_defenses_run,
        reduce=lambda data, options: DefenseMatrixResult(
            "tiny-test", [EscalationResult(**row) for row in data]
        ),
        defaults={"base_seed": 1, "dense_seed": 5, "only": None},
        cli_configure=_defenses_cli_configure,
        cli_options=_defenses_cli_options,
        smoke_argv=("--only", "stock"),
    )
)


def tiny_test_config_dense(seed):
    """A densely-vulnerable DIMM for the defense-bypass experiments."""
    from repro.machine.configs import tiny_test_config as _tiny

    return _tiny(seed=seed, cells_per_row_mean=40.0)


# ----------------------------------------------------------------------
# Pattern fuzzing — the Blacksmith-style campaign over the DSL


@dataclass
class PatternFuzzResult(ExperimentResult):
    machine: str
    fuzz_seed: int
    rows: List[tuple]

    def render(self):
        return render_table(
            ["Pattern", "Roles", "Ops", "Flips seen", "GT flips", "Escalated"],
            self.rows,
            title="Pattern fuzzing [%s, seed=%d]: shapes ranked by flips"
            % (self.machine, self.fuzz_seed),
        )

    def to_rows(self):
        header = ("pattern", "roles", "ops", "flips_observed",
                  "ground_truth_flips", "escalated")
        return header, [
            row[:5] + (int(row[5] == "yes"),) for row in self.rows
        ]


def _patternfuzz_tasks(options):
    config_fn = options.get("config_fn")
    if config_fn is None:
        raise ConfigError(
            "experiment 'patternfuzz' needs a machine (options['config_fn'], "
            "or --machine on the CLI)"
        )
    name = config_fn().name
    return [
        Task(key="%d:%s" % (index, name), payload={"index": index})
        for index in range(options["count"])
    ]


def _patternfuzz_run(task, options):
    from repro.patterns import PatternFuzzer, register, unroll

    index = task.payload["index"]
    fuzzer = PatternFuzzer(
        options["fuzz_seed"],
        max_roles=options["max_roles"],
        max_ops=options["max_ops"],
    )
    # Pattern (seed, index) is pure, so re-deriving it in a pool worker
    # gives the same shape the reducer will name in the ranking.
    pattern = register(fuzzer.pattern(index), replace=True)
    context = ExperimentContext(options["config_fn"]())
    attack_config = PThammerConfig(
        spray_slots=options["slots"],
        pair_sample=options["pairs"],
        max_pairs=options["pairs"],
        pattern=pattern.name,
    )
    report = PThammerAttack(context.attacker, attack_config).run()
    return {
        "index": index,
        "pattern": pattern.name,
        "roles": len(pattern.roles),
        "ops": len(unroll(pattern)),
        "flips_observed": report.total_flips,
        "ground_truth_flips": context.inspector.flip_count(),
        "escalated": report.escalated,
    }


def _patternfuzz_reduce(data, options):
    ranked = sorted(data, key=lambda row: (-row["flips_observed"], row["index"]))
    return PatternFuzzResult(
        machine=options["config_fn"]().name,
        fuzz_seed=options["fuzz_seed"],
        rows=[
            (
                row["pattern"],
                row["roles"],
                row["ops"],
                row["flips_observed"],
                row["ground_truth_flips"],
                "yes" if row["escalated"] else "no",
            )
            for row in ranked
        ],
    )


def _patternfuzz_cli_configure(parser):
    _machine_flag(parser, default="tiny")
    parser.add_argument(
        "--fuzz-seed", type=int, default=7, help="randomizer seed (default: 7)"
    )
    parser.add_argument(
        "--count", type=positive_int, default=8, help="patterns to sample (default: 8)"
    )
    parser.add_argument("--seed", type=int, default=None, help="machine seed")
    parser.add_argument("--slots", type=positive_int, default=256, help="spray slots")
    parser.add_argument(
        "--pairs", type=positive_int, default=12, help="pairs to hammer"
    )
    parser.add_argument(
        "--max-roles",
        type=positive_int,
        default=4,
        help="aggressor-set bound (default: 4)",
    )
    parser.add_argument(
        "--max-ops",
        type=positive_int,
        default=16,
        help="unrolled-length bound (default: 16)",
    )


def _patternfuzz_cli_options(args):
    config_fn = machine_preset(args.machine)
    if args.seed is not None:
        base_fn, seed = config_fn, args.seed

        def config_fn():
            config = base_fn()
            config.seed = seed
            return config

    return {
        "config_fn": config_fn,
        "fuzz_seed": args.fuzz_seed,
        "count": args.count,
        "slots": args.slots,
        "pairs": args.pairs,
        "max_roles": args.max_roles,
        "max_ops": args.max_ops,
    }


PATTERNFUZZ_SPEC = register_experiment(
    ExperimentSpec(
        name="patternfuzz",
        title="Pattern fuzzing: seeded random patterns ranked by flips",
        build_tasks=_patternfuzz_tasks,
        run_task=_patternfuzz_run,
        reduce=_patternfuzz_reduce,
        defaults={
            "config_fn": None,
            "fuzz_seed": 7,
            "count": 8,
            "slots": 256,
            "pairs": 12,
            "max_roles": 4,
            "max_ops": 16,
        },
        cli_configure=_patternfuzz_cli_configure,
        cli_options=_patternfuzz_cli_options,
        smoke_argv=("--machine", "tiny", "--count", "2", "--slots", "224",
                    "--pairs", "6"),
    )
)
