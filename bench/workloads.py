"""The benchmark's four workloads: what each builds, runs and checks.

Every workload is a closed loop driven by one client: a repetition runs
one unit of work to completion in its own process before the next one
starts.  :func:`prepare` does a repetition's set-up (imports, config and
spec build, campaign create) and returns the timed callable; the
callable returns a :class:`dict` described in :func:`prepare`.

Why these four (see ``bench/README.md`` for the full rationale):

* ``attack`` — the user's headline job: a quiet end-to-end
  ``PThammerAttack.run()``.  The hammer loop, spray scan and spray take
  most of its host time, so hammer and engine-tier work shows here.
* ``noisy-attack`` — the same attack with the ``desktop`` chaos profile.
  It takes the observed batch path instead of the inlined one and adds
  page-table churn and retries, so a gain on ``attack`` that costs this
  path shows up.
* ``sweeps`` — the Figure 3 and Figure 4 eviction sweeps through the
  experiment engine: TLB and cache eviction layers with no hammering
  and no DRAM faults, fanned out over a process pool.
* ``campaign`` — a probe-shard defense × chaos matrix through the
  campaign supervisor: orchestration (fork, fsync'd journal, heartbeat
  spool, poll tick) dominates and the simulator is nearly absent.
"""

import hashlib
import json
import os

WORKLOADS = ("attack", "noisy-attack", "sweeps", "campaign")

#: Worker processes for the engine pool and the campaign supervisor.
JOBS = 2

#: The attack's knobs (the quick tiny-machine attack ``repro bench``
#: also runs); ``units`` overrides ``max_pairs``.  Host time on a shared
#: machine swings by tens of percent from one repetition to the next, so
#: every workload is sized at about four seconds: six or more
#: repetitions fit in one run and their median is steady.
ATTACK_OPTIONS = {"spray_slots": 256, "pair_sample": 12, "max_pairs": 4}

#: Pairs the chaos attack hammers: chaos makes each pair nearly twice
#: as slow, so half the quiet attack's pairs keep the sizes alike.
NOISY_ATTACK_PAIRS = 2

#: Tiny-machine seeds whose attacks do alike amounts of work, so that
#: host time is comparable between benchmark seeds: of seeds 1-80, those
#: on which the quiet attack (4 pairs) and the ``desktop``-chaos attack
#: (2 pairs) both issue within 2% of their median simulated loads
#: (168,867 and 117,894).  Across all of seeds 1-80 loads range from
#: 43% below to 20% above the median; the chaos attack escalates after
#: its first pair on seeds 4 and 29, which ends it early.
ATTACK_MACHINE_SEEDS = (2, 12, 16, 23, 26, 32, 40, 45, 49, 51, 55, 62, 69, 80)

#: Seeded tiny machines per eviction sweep (``units`` overrides), run
#: beside the three scaled Table-I presets, and trials per sweep point.
SWEEP_TINY_MACHINES = 24
SWEEP_TRIALS = 40

#: The campaign matrix; ``units`` overrides the shards per cell.
CAMPAIGN_DEFENSES = ("none", "catt", "cta", "zebram")
CAMPAIGN_CHAOS = ("none", "desktop")
CAMPAIGN_SHARDS_PER_CELL = 15
PROBE_READS = 2000

#: Campaign seeds whose matrix has exactly one poison shard, in the
#: ``none`` or ``catt`` chaos cell (launched in the first half), so that
#: every benchmark seed exercises one retry-backoff-quarantine cycle and
#: its backoff sleeps overlap other shards.  Of seeds 1-80, 27 have one
#: poison shard; the others have none, two or three, and a poison shard
#: in a late cell adds its backoff to the tail: host time then differs
#: by up to a fifth between seeds.
CAMPAIGN_SEEDS = (8, 9, 12, 15, 18, 20, 21, 24, 31, 34, 39, 53, 56, 60, 68, 77)

#: The simulated counts every repetition reports, with their units (0
#: where a workload does not produce the count).  A speed-only change
#: must leave them identical.
SIMULATED = {
    "machine.loads": "count",
    "machine.virtual_cycles": "cycles",
    "mmu.walks": "count",
    "mmu.dtlb_hit_ratio": "ratio",
    "cache.llc_miss_ratio": "ratio",
    "dram.row_hit_rate": "ratio",
    "dram.flips": "count",
    "kernel.page_faults": "count",
    "chaos.injected": "count",
    "core.recovery_retries": "count",
    "core.hammer_rounds": "count",
}

#: Orchestration counts read from output files, with their units (not
#: deterministic: heartbeats are rate-limited by host time).
ORCHESTRATION = {
    "campaign.journal_events": "count",
    "campaign.failed_attempts": "count",
    "observe.spool_bytes": "bytes",
}


def attack_machine_seed(seed):
    """The tiny-machine seed the attack workloads use for ``seed``."""
    return ATTACK_MACHINE_SEEDS[(seed - 1) % len(ATTACK_MACHINE_SEEDS)]


def campaign_seed(seed):
    """The campaign spec seed the ``campaign`` workload uses for ``seed``."""
    return CAMPAIGN_SEEDS[(seed - 1) % len(CAMPAIGN_SEEDS)]


def digest(payload):
    """sha256 over the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _from_counters(counters):
    """The simulated counts a metrics snapshot's counters give."""
    walks = counters.get("dtlb_load_misses.miss_causes_a_walk", 0)
    hits = counters.get("dtlb_load_hits", 0)
    return {
        "machine.loads": counters.get("mem_uops_retired.all_loads", 0),
        "mmu.walks": walks,
        "mmu.dtlb_hit_ratio": _ratio(hits, hits + walks),
        "cache.llc_miss_ratio": _ratio(
            counters.get("longest_lat_cache.miss", 0),
            counters.get("longest_lat_cache.reference", 0),
        ),
        "kernel.page_faults": counters.get("page_faults", 0),
        # Injected noise items: polluted lines and TLB entries, churned
        # tables, transient faults (jitter cycles are not items).
        "chaos.injected": sum(
            value
            for name, value in counters.items()
            if name.startswith("chaos.") and name != "chaos.jitter.cycles"
        ),
        "core.recovery_retries": counters.get("recovery.retry", 0),
    }


def _simulated(values):
    counts = dict.fromkeys(SIMULATED, 0)
    counts.update(values)
    return counts


def _tree_bytes(path):
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(path)
        for name in names
    )


def prepare(workload, seed, tmp, units=None):
    """Set up one repetition of ``workload``; returns the timed callable.

    Every repetition of a seed runs the same inputs.  ``tmp`` is a
    private scratch directory for checkpoints, spools and campaign
    state.  ``units`` shrinks the workload for tests (attack pairs, tiny
    sweep machines, or campaign shards per cell).

    The callable returns ``{"loads", "tasks", "digest", "simulated",
    "orchestration", "task_seconds", "workers", "problems"}``:
    simulated loads and completed tasks for the throughput metrics, the
    correctness digest, the per-layer counts, the host seconds of each
    parallel task (``None`` for one in-process task), the worker count,
    and a list of violated output invariants (empty when correct).
    """
    if workload in ("attack", "noisy-attack"):
        return _prepare_attack(
            attack_machine_seed(seed), units, workload == "noisy-attack"
        )
    if workload == "sweeps":
        return _prepare_sweeps(seed, tmp, units)
    if workload == "campaign":
        return _prepare_campaign(seed, tmp, units)
    raise ValueError("unknown workload %r" % workload)


def _prepare_attack(machine_seed, units, noisy):
    from repro.core.pthammer import ATTACK_PHASES, PThammerAttack, PThammerConfig
    from repro.machine import AttackerView, Inspector, Machine
    from repro.machine.configs import tiny_test_config

    options = dict(ATTACK_OPTIONS)
    if noisy:
        options["max_pairs"] = NOISY_ATTACK_PAIRS
    if units is not None:
        options["max_pairs"] = units
    machine = Machine(tiny_test_config(seed=machine_seed))
    if noisy:
        from repro.chaos import ChaosInjector, chaos_profile

        machine.attach_chaos(ChaosInjector(chaos_profile("desktop")))
    attacker = AttackerView(machine, machine.boot_process())
    attack = PThammerAttack(attacker, PThammerConfig(**options))

    def run():
        report = attack.run()
        snapshot = machine.metrics.snapshot_values()
        flips = Inspector(machine).flip_count()
        cycles = machine.cycles
        problems = []
        if report.phases_completed != list(ATTACK_PHASES):
            problems.append("phases completed: %s" % report.phases_completed)
        if not report.pairs:
            problems.append("no pair was hammered")
        if report.escalated != (attacker.getuid() == 0):
            problems.append("escalation verdict disagrees with the attacker's uid")
        counts = _from_counters(snapshot["counters"])
        return {
            "loads": counts["machine.loads"],
            "tasks": 1,
            "digest": digest(
                {
                    "cycles": cycles,
                    "flips": flips,
                    "report_flips": report.total_flips,
                    "escalated": report.escalated,
                    "metrics": snapshot,
                }
            ),
            "simulated": _simulated(
                {
                    **counts,
                    # The kernel's own count also has the faults that
                    # populating mmap takes outside the load path.
                    "kernel.page_faults": machine.kernel.page_fault_count,
                    "machine.virtual_cycles": cycles,
                    "dram.row_hit_rate": machine.dram.row_buffer_hit_rate(),
                    "dram.flips": flips,
                    "core.hammer_rounds": sum(pair.rounds for pair in report.pairs),
                }
            ),
            "orchestration": dict.fromkeys(ORCHESTRATION, 0),
            "task_seconds": None,
            "workers": 1,
            "problems": problems,
        }

    return run


def _prepare_sweeps(seed, tmp, units):
    from functools import partial

    from repro.analysis.engine import run_experiment
    from repro.machine import SCALED_MACHINES
    from repro.machine.configs import tiny_test_config

    count = SWEEP_TINY_MACHINES if units is None else units
    options = {
        "config_fns": tuple(
            partial(tiny_test_config, seed=100 * seed + i) for i in range(count)
        )
        + tuple(SCALED_MACHINES),
        "trials": SWEEP_TRIALS,
        "seed": seed,
    }
    telemetry = os.path.join(tmp, "telemetry")
    expected_tasks = len(options["config_fns"])

    def run():
        runs = {
            name: run_experiment(
                name,
                options,
                jobs=JOBS,
                checkpoint=os.path.join(tmp, "%s.jsonl" % name),
                telemetry=telemetry,
            )
            for name in ("figure3", "figure4")
        }
        problems = []
        counters = {}
        cycles = 0
        task_seconds = []
        payload = {}
        for name, outcome in runs.items():
            if not outcome.completed or outcome.failures:
                problems.append("%s: %s" % (name, outcome.summary()))
                continue
            if len(outcome.outcomes) != expected_tasks:
                problems.append(
                    "%s ran %d tasks, expected %d"
                    % (name, len(outcome.outcomes), expected_tasks)
                )
            for task in outcome.outcomes:
                rates = task.data["points"].values()
                if not all(0.0 <= rate <= 1.0 for rate in rates):
                    problems.append("%s task %s has a rate outside [0, 1]" % (name, task.key))
                task_seconds.append(task.host_seconds)
            for counter, value in outcome.metrics.snapshot_values()["counters"].items():
                counters[counter] = counters.get(counter, 0) + value
            cycles += outcome.telemetry["totals"]["cycles"]
            payload[name] = {
                "render": outcome.result.render(),
                "tasks": [[task.key, task.data] for task in outcome.outcomes],
            }
        payload["counters"] = counters
        counts = _from_counters(counters)
        return {
            "loads": counts["machine.loads"],
            "tasks": len(task_seconds),
            "digest": digest(payload),
            "simulated": _simulated({**counts, "machine.virtual_cycles": cycles}),
            "orchestration": {
                "campaign.journal_events": 0,
                "campaign.failed_attempts": 0,
                "observe.spool_bytes": _tree_bytes(telemetry),
            },
            "task_seconds": task_seconds,
            "workers": JOBS,
            "problems": problems,
        }

    return run


def _prepare_campaign(seed, tmp, units):
    from repro.campaign import COMPLETED, DEGRADED, Campaign, CampaignSpec, Supervisor
    from repro.campaign.worker import load_result

    spec = CampaignSpec.from_dict(
        {
            "name": "bench-campaign",
            "seed": campaign_seed(seed),
            "machines": ["tiny"],
            "defenses": list(CAMPAIGN_DEFENSES),
            "chaos": list(CAMPAIGN_CHAOS),
            "shards_per_cell": CAMPAIGN_SHARDS_PER_CELL if units is None else units,
            "attack": {"workload": "probe", "probe_reads": PROBE_READS},
            "supervisor": {"jobs": JOBS},
        }
    )
    shards = spec.compile_plan().shards
    campaign = Campaign.create(spec, root=os.path.join(tmp, "campaigns"))
    supervisor = Supervisor(campaign, jobs=JOBS)

    def run():
        state = supervisor.run(no_record=True)
        with open(campaign.results_path, encoding="utf-8") as handle:
            results = json.load(handle)
        status = campaign.status()
        totals = results["totals"]
        problems = []
        if state not in (COMPLETED, DEGRADED):
            problems.append("campaign ended %s" % state)
        if totals["shards"] != len(shards) or (
            totals["done"] + totals["quarantined"] != totals["shards"]
        ):
            problems.append("campaign totals do not add up: %s" % totals)
        loads = cycles = flips = 0
        for cell in results["cells"]:
            for row in cell["shards"]:
                if row["status"] != "done":
                    continue
                data = row["data"]
                if data["reads"] != PROBE_READS:
                    problems.append("shard %s read %s words" % (row["key"], data["reads"]))
                loads += data["reads"]
                cycles += data["cycles"]
                flips += data["flips"]
        task_seconds = []
        for shard in shards:
            result = load_result(campaign.dir, shard.index)
            if result is not None:
                task_seconds.append(result["meta"]["host_seconds"])
        return {
            # The probe issues one simulated load per read.
            "loads": loads,
            "tasks": totals["done"] + totals["quarantined"],
            "digest": digest({"cells": results["cells"], "totals": totals}),
            "simulated": _simulated(
                {
                    "machine.loads": loads,
                    "machine.virtual_cycles": cycles,
                    "dram.flips": flips,
                }
            ),
            "orchestration": {
                "campaign.journal_events": status["events"],
                "campaign.failed_attempts": status["failed_attempts"],
                "observe.spool_bytes": _tree_bytes(campaign.spool_dir),
            },
            "task_seconds": task_seconds,
            "workers": JOBS,
            "problems": problems,
        }

    return run
