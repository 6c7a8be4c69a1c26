"""Parameter-sweep utilities and canned sensitivity studies.

The reproduction's fault model and boot-noise model have free
parameters (DESIGN.md §5/§6 document their calibration); these sweeps
show how the headline results move as those parameters do — the
sensitivity analysis behind EXPERIMENTS.md's deviation notes.

Sweeps execute through the experiment engine
(:mod:`repro.analysis.engine`), so every point can fan out across
worker processes and checkpoint/resume like a registered experiment —
``sweep_parameter(..., jobs=4, checkpoint="sweep.jsonl")``.
"""

from repro.analysis.engine import ExperimentSpec, Task, run_experiment
from repro.analysis.experiments import ExperimentContext, _section_4d_data
from repro.core.pthammer import PThammerAttack, PThammerConfig, PThammerReport
from repro.machine.configs import tiny_test_config


def _sweep_tasks(options):
    return [
        Task(key="%d:%s" % (index, value), payload={"index": index})
        for index, value in enumerate(options["values"])
    ]


def _sweep_run(task, options):
    value = options["values"][task.payload["index"]]
    return options["metric"](options["make_config"](value))


def _sweep_reduce(data, options):
    return {value: point for value, point in zip(options["values"], data)}


#: The ad-hoc (unregistered) spec behind :func:`sweep_parameter` — a
#: sweep's values/metric are caller state, so it never goes in the
#: global registry.
_SWEEP_SPEC = ExperimentSpec(
    name="sweep",
    title="parameter sweep",
    build_tasks=_sweep_tasks,
    run_task=_sweep_run,
    reduce=_sweep_reduce,
)


def sweep_parameter(make_config, values, metric, jobs=1, checkpoint=None, resume=False):
    """Evaluate ``metric(config)`` for each parameter value.

    ``make_config(value)`` builds a machine config per point; returns
    ``{value: metric result}`` in input order.  Points run through the
    experiment engine, so ``jobs`` fans them across processes and
    ``checkpoint``/``resume`` make interrupted sweeps restartable —
    which also means metric results must be JSON-serialisable (numbers,
    strings, lists, dicts).
    """
    options = {"make_config": make_config, "values": list(values), "metric": metric}
    return run_experiment(
        _SWEEP_SPEC, options, jobs=jobs, checkpoint=checkpoint, resume=resume
    ).result


def flips_vs_threshold(thresholds=(600, 1000, 1600, 2600), seed=2, jobs=1):
    """Ground-truth flips from a fixed hammer budget vs cell threshold.

    Shows the fault-model side of Figure 5: as cells get harder (higher
    activation thresholds), the same hammering yields fewer flips,
    reaching zero once the budget cannot cross the minimum threshold.
    """

    def make_config(threshold_lo):
        return tiny_test_config(
            seed=seed,
            threshold_lo=threshold_lo,
            threshold_hi=threshold_lo * 2,
            cells_per_row_mean=20.0,
        )

    def metric(config):
        context = ExperimentContext(config)
        attack = PThammerAttack(
            context.attacker,
            PThammerConfig(spray_slots=224, pair_sample=6, max_pairs=2),
        )
        report = PThammerReport(machine_name=config.name, superpages=True)
        attack.prepare(report)
        pairs, llc_sets = attack.find_pairs(report)
        if not pairs:
            return 0
        attack.hammer_for(pairs[0], llc_sets).run_for_cycles(
            2 * config.dram.refresh_interval_cycles
        )
        return context.machine.dram.flip_count()

    return sweep_parameter(make_config, thresholds, metric, jobs=jobs)


def pair_rate_vs_fragmentation(fractions=(0.0, 0.004, 0.02, 0.05), seed=3, jobs=1):
    """Section IV-D same-bank rate vs boot-time fragmentation.

    Supports EXPERIMENTS.md note 4: the simulated pair-construction hit
    rate starts at ~100 % with a pristine pool and falls toward (and
    below) the paper's 95 % as boot noise grows.
    """

    def make_config(fraction):
        return tiny_test_config(seed=seed, boot_fragmentation=fraction)

    def metric(config):
        data = _section_4d_data(lambda: config, sample=16, spray_slots=384)
        if data["candidates"] == 0:
            return 0.0
        return data["flagged_slow"] / data["candidates"]

    return sweep_parameter(make_config, fractions, metric, jobs=jobs)
