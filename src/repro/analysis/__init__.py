"""Experiment specs, the execution engine, and plain-text reporting.

Every paper artifact is a registered :class:`ExperimentSpec`; dispatch
through :func:`run_experiment` (serial, parallel, checkpointed).  The
historical per-artifact free functions (``table1()`` ...) are gone;
see docs/EXPERIMENT_ENGINE.md for the one-line migration.
"""

from repro.analysis.engine import (
    ExperimentSpec,
    RunOutcome,
    Task,
    TaskOutcome,
    derive_seed,
    experiment_names,
    get_experiment,
    load_checkpoint,
    observe_machine,
    register_experiment,
    run_experiment,
)
from repro.analysis.telemetry import (
    Dashboard,
    ProgressReporter,
    render_timeline,
    sparkline,
)
from repro.analysis.bench import (
    BenchComparison,
    BenchResult,
    BenchSpec,
    bench_names,
    compare_to_baseline,
    register_bench,
    run_bench,
    run_suite,
)
from repro.analysis.result import ExperimentResult, write_rows
from repro.analysis.experiments import (
    DefenseMatrixResult,
    EscalationResult,
    EvictionSweepResult,
    ExperimentContext,
    Figure5Result,
    Figure6Result,
    PairStatsResult,
    SelectionResult,
    Table1Result,
    Table2Result,
)
from repro.analysis.figures import ascii_chart, sweep_chart
from repro.analysis.profile import (
    PhaseProfile,
    ProfileResult,
    TraceRecord,
    chrome_trace_events,
    profile_trace,
    read_trace_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.analysis.mitigations import mitigation_matrix
from repro.analysis.report import render_bar, render_series, render_table
from repro.analysis.verification import (
    eviction_set_congruence,
    flips_by_row_range,
    is_double_sided_pair,
    pair_placement,
    spray_contiguity,
)
from repro.analysis.sweeps import (
    flips_vs_threshold,
    pair_rate_vs_fragmentation,
    sweep_parameter,
)

__all__ = [
    "BenchComparison",
    "BenchResult",
    "BenchSpec",
    "Dashboard",
    "DefenseMatrixResult",
    "ProgressReporter",
    "chrome_trace_events",
    "observe_machine",
    "render_timeline",
    "sparkline",
    "validate_chrome_trace",
    "write_chrome_trace",
    "bench_names",
    "compare_to_baseline",
    "register_bench",
    "run_bench",
    "run_suite",
    "EscalationResult",
    "EvictionSweepResult",
    "ExperimentContext",
    "ExperimentResult",
    "ExperimentSpec",
    "RunOutcome",
    "Task",
    "TaskOutcome",
    "derive_seed",
    "experiment_names",
    "get_experiment",
    "load_checkpoint",
    "register_experiment",
    "run_experiment",
    "write_rows",
    "Figure5Result",
    "Figure6Result",
    "PairStatsResult",
    "SelectionResult",
    "PhaseProfile",
    "ProfileResult",
    "Table1Result",
    "Table2Result",
    "TraceRecord",
    "profile_trace",
    "read_trace_jsonl",
    "write_trace_jsonl",
    "eviction_set_congruence",
    "flips_by_row_range",
    "flips_vs_threshold",
    "ascii_chart",
    "pair_rate_vs_fragmentation",
    "render_bar",
    "render_series",
    "is_double_sided_pair",
    "mitigation_matrix",
    "pair_placement",
    "render_table",
    "spray_contiguity",
    "sweep_chart",
    "sweep_parameter",
]
