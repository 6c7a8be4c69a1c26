"""Campaign worker: runs one shard attempt in a pool worker process.

The supervisor's :class:`~repro.utils.pool.WorkerPool` forks up to
``jobs`` workers and hands each one shard attempt at a time to
:func:`worker_main`.  An attempt heartbeats into the campaign's
telemetry spool (so ``repro dash`` can watch a campaign live), executes
its shard's workload on a freshly booted machine seeded from the shard
spec, and persists the outcome *atomically* to
``results/shard-<index>.json``.  The supervisor never trusts a clean
return alone: a shard counts as done only when its result file exists
for the right attempt.

Determinism contract: the ``data`` payload a worker persists is a pure
function of the shard spec (machine preset + defense + chaos + pattern
+ derived seed).  Attempt numbers, pids, and host timings go into the
separate ``meta`` section, so retried and resumed shards produce
byte-identical ``data`` — the property the kill-and-resume tests pin.

Fault injection hooks (:mod:`repro.campaign.faultinject`) fire at two
points: ``start`` (before any work — also where ``hang`` sleeps) and
``mid`` (after the workload, before the result write, so the work is
lost and must be redone).
"""

import json
import os
import time

from repro.campaign.faultinject import FaultPlan
from repro.campaign.spec import NO_CHAOS, NO_PATTERN
from repro.core.pthammer import PThammerAttack, PThammerConfig
from repro.defenses import DEFENSE_PRESETS
from repro.machine import AttackerView, Inspector, Machine
from repro.machine.configs import MACHINE_PRESETS
from repro.observe.stream import TelemetryEmitter
from repro.utils.rng import DeterministicRng
from repro.utils.serialize import write_json_atomic

#: Bump when the result-file format changes incompatibly.
RESULT_VERSION = 1

#: Reads per batch in the probe workload, which heartbeats once per batch.
PROBE_BATCH = 512


def result_path(campaign_dir, index):
    return os.path.join(campaign_dir, "results", "shard-%d.json" % index)


def load_result(campaign_dir, index):
    """The persisted result dict for a shard, or ``None``.

    A half-written file (impossible under the atomic-rename protocol,
    but cheap to guard) reads as "no result" — the supervisor treats
    that attempt as failed and the shard runs again.
    """
    path = result_path(campaign_dir, index)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("v") != RESULT_VERSION:
        return None
    return payload


def _build_machine(shard):
    config = MACHINE_PRESETS[shard.machine]()
    config.seed = shard.seed
    machine = Machine(config, policy=DEFENSE_PRESETS[shard.defense]())
    if shard.chaos != NO_CHAOS:
        from repro.chaos import ChaosInjector, chaos_profile

        machine.attach_chaos(ChaosInjector(chaos_profile(shard.chaos)))
    return machine


def _run_probe(shard, attack_options, emitter):
    """The lightweight workload: boot, map, seeded hammer-free reads.

    Milliseconds per shard instead of seconds — what CI smoke and the
    crash-injection tests run, exercising every supervision path
    (seeding, chaos attach, defense install, telemetry, result
    persistence) without the full escalation attack.  The reads go
    through :meth:`AttackerView.read_many` in batches of
    :data:`PROBE_BATCH`, each batch's addresses drawn from the probe's
    private stream.
    """
    machine = _build_machine(shard)
    attacker = AttackerView(machine, machine.boot_process())
    pages = int(attack_options.get("probe_pages", 8))
    reads = int(attack_options.get("probe_reads", 2000))
    base = attacker.map_pages(pages)
    span = pages * attacker.page_size
    randint = DeterministicRng(shard.seed).fork("campaign-probe").randint
    checksum = 0
    for start in range(0, reads, PROBE_BATCH):
        count = min(PROBE_BATCH, reads - start)
        vaddrs = [base + (randint(span) & ~0x7) for _ in range(count)]
        for value in attacker.read_many(vaddrs):
            checksum = (checksum * 1099511628211 + value + 1) & ((1 << 64) - 1)
        if emitter is not None:
            emitter.heartbeat(phase=shard.key)
    return {
        "workload": "probe",
        "reads": reads,
        "checksum": checksum,
        "flips": Inspector(machine).flip_count(),
        "cycles": machine.cycles,
        "uid": attacker.getuid(),
    }


def _run_attack(shard, attack_options, emitter):
    """The full escalation attack, configured from the spec's knobs."""
    machine = _build_machine(shard)
    attacker = AttackerView(machine, machine.boot_process())
    if emitter is not None:
        emitter.heartbeat(phase=shard.key)
    config = PThammerConfig(
        superpages=bool(attack_options.get("superpages", True)),
        spray_slots=int(attack_options.get("slots", 256)),
        pair_sample=int(attack_options.get("pairs", 4)),
        max_pairs=int(attack_options.get("pairs", 4)),
        windows_per_pair=float(attack_options.get("windows", 1.0)),
        cred_spray_processes=int(attack_options.get("cred_spray", 2)),
        pattern=None if shard.pattern == NO_PATTERN else shard.pattern,
    )
    report = PThammerAttack(attacker, config).run()
    return {
        "workload": "attack",
        "escalated": report.escalated,
        "method": report.outcome.method if report.outcome else None,
        "flips": report.total_flips,
        "ground_truth_flips": Inspector(machine).flip_count(),
        "cycles": machine.cycles,
        "uid_after": attacker.getuid(),
    }


def execute_shard(shard, attack_options, emitter=None):
    """Run the shard's workload; returns the deterministic ``data`` dict."""
    workload = attack_options.get("workload", "attack")
    if workload == "probe":
        return _run_probe(shard, attack_options, emitter)
    return _run_attack(shard, attack_options, emitter)


def worker_main(shard, spec, campaign_dir, attempt):
    """Run one shard attempt in a pool worker.

    Success is the atomically renamed result file.  A workload error
    propagates, and the supervisor journals it as the attempt's
    failure; a ``kill`` fault ends the worker process itself, as a real
    crash would.
    """
    started = time.time()
    faults = FaultPlan.from_dict(spec.faults) if spec.faults else FaultPlan()
    silent = faults.heartbeats_dropped(shard, attempt)
    emitter = None
    if not silent:
        emitter = TelemetryEmitter(
            os.path.join(campaign_dir, "spool"),
            heartbeat_interval=spec.supervisor.heartbeat_interval,
        )
        emitter.heartbeat(phase=shard.key)
    faults.fire(shard, attempt, "start")
    try:
        data = execute_shard(shard, spec.attack, emitter)
    except Exception:
        if emitter is not None:
            emitter.task_done(
                shard.key, time.time() - started, group=shard.cell, ok=False
            )
        raise
    faults.fire(shard, attempt, "mid")
    meta = {
        "pid": os.getpid(),
        "attempt": attempt,
        "host_seconds": round(time.time() - started, 6),
    }
    write_json_atomic(
        result_path(campaign_dir, shard.index),
        {"v": RESULT_VERSION, "key": shard.key, "attempt": attempt,
         "data": data, "meta": meta},
    )
    if emitter is not None:
        emitter.task_done(
            shard.key,
            time.time() - started,
            flips=data.get("flips", 0),
            cycles=data.get("cycles", 0),
            group=shard.cell,
            ok=True,
        )
