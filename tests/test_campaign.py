"""End-to-end campaign orchestration: supervision, retry, quarantine.

Everything here runs in-process (the supervisor forks real workers but
the driving loop is this test), on the millisecond-scale ``probe``
workload.  Subprocess-level crash recovery lives in
``test_campaign_recovery.py``.
"""

import json
import os
import time

import pytest

from repro.campaign import (
    Campaign,
    CampaignSpec,
    COMPLETED,
    DEGRADED,
    PAUSED,
    Scheduler,
    Supervisor,
    backoff_delay,
)
from repro.campaign.scheduler import DONE, FAILED, PENDING, QUARANTINED
from repro.campaign.worker import _build_machine, execute_shard
from repro.errors import CampaignError, TransientFault
from repro.machine import AttackerView, Inspector
from repro.observe.stream import TelemetryAggregator
from repro.utils.rng import DeterministicRng


def make_spec(name="study", faults=None, **overrides):
    payload = {
        "name": name,
        "seed": 7,
        "machines": ["tiny"],
        "defenses": ["none"],
        "chaos": ["none", "quiet"],
        "patterns": ["-"],
        "shards_per_cell": 2,
        "attack": {"workload": "probe", "probe_reads": 150},
        "supervisor": {
            "jobs": 2,
            "poll_interval": 0.01,
            "heartbeat_interval": 0.05,
            "liveness_timeout": 30.0,
            "backoff": 0.01,
            "grace": 2.0,
        },
    }
    if faults is not None:
        payload["faults"] = faults
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


def run_campaign(spec, campaign_id=None, **kwargs):
    campaign = Campaign.create(spec, campaign_id=campaign_id)
    state = Supervisor(campaign, **kwargs).run(no_record=True)
    return campaign, state


def results_bytes(campaign):
    with open(campaign.results_path, "rb") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# Happy path


def test_campaign_completes_and_writes_results():
    campaign, state = run_campaign(make_spec())
    assert state == COMPLETED
    document = json.loads(results_bytes(campaign))
    assert document["state"] == COMPLETED
    assert document["totals"] == {
        "shards": 4, "done": 4, "quarantined": 0,
        "flips": document["totals"]["flips"],
    }
    for cell in document["cells"]:
        for shard in cell["shards"]:
            assert shard["status"] == "done"
            assert shard["data"]["workload"] == "probe"
            assert shard["data"]["reads"] == 150
    status = campaign.status()
    assert status["state"] == COMPLETED
    assert status["shards_done"] == 4 and status["cells_done"] == 2


def test_results_are_jobs_independent():
    _, state1 = run_campaign(make_spec(), campaign_id="one", jobs=1)
    campaign1 = Campaign.open("one")
    _, state3 = run_campaign(make_spec(), campaign_id="three", jobs=3)
    campaign3 = Campaign.open("three")
    assert state1 == state3 == COMPLETED
    assert results_bytes(campaign1) == results_bytes(campaign3)


def test_pause_and_resume_results_are_byte_identical():
    baseline, _ = run_campaign(make_spec(), campaign_id="baseline")
    campaign = Campaign.create(make_spec(), campaign_id="paused")
    first = Supervisor(campaign, pause_after=1).run(no_record=True)
    assert first == PAUSED
    assert campaign.folded()["state"] == PAUSED
    assert not os.path.exists(campaign.results_path)
    second = Supervisor(campaign).run(no_record=True)
    assert second == COMPLETED
    assert results_bytes(campaign) == results_bytes(baseline)


def test_worker_exit_not_the_tick_launches_the_next_shard():
    """A finished shard frees its slot at once.  Eight serial shards
    under a 0.25 s tick would take at least 2 s if each launch waited
    for the tick; woken by each worker's exit they take a fraction."""
    spec = make_spec(
        shards_per_cell=4,
        supervisor={
            "jobs": 1,
            "poll_interval": 0.25,
            "heartbeat_interval": 0.05,
            "liveness_timeout": 30.0,
            "backoff": 0.01,
            "grace": 2.0,
        },
    )
    started = time.perf_counter()
    campaign, state = run_campaign(spec)
    elapsed = time.perf_counter() - started
    assert state == COMPLETED
    assert campaign.status()["shards_done"] == 8
    assert elapsed < 1.0, elapsed


def test_healthy_campaign_forks_at_most_jobs_workers():
    """Workers persist across shards: eight shards at jobs=2 run in at
    most two worker processes."""
    from repro.campaign.worker import load_result

    spec = make_spec(shards_per_cell=4)
    campaign, state = run_campaign(spec)
    assert state == COMPLETED
    pids = {
        load_result(campaign.dir, shard.index)["meta"]["pid"]
        for shard in spec.compile_plan().shards
    }
    assert 1 <= len(pids) <= 2, pids


def test_completed_campaign_cannot_be_resumed():
    campaign, _ = run_campaign(make_spec())
    with pytest.raises(CampaignError, match="terminal"):
        Supervisor(campaign).run(no_record=True)


def test_duplicate_campaign_id_is_rejected():
    run_campaign(make_spec(), campaign_id="dup")
    with pytest.raises(CampaignError, match="already exists"):
        Campaign.create(make_spec(), campaign_id="dup")


def test_open_unknown_campaign_is_a_clear_error():
    with pytest.raises(CampaignError, match="no campaign"):
        Campaign.open("ghost")


# ----------------------------------------------------------------------
# Fault injection: retries, quarantine, degradation


def test_killed_attempts_retry_to_identical_data():
    clean, _ = run_campaign(make_spec(), campaign_id="clean")
    faulty, state = run_campaign(
        make_spec(
            faults={
                "rules": [
                    {"kind": "kill", "point": "mid", "attempts": 2,
                     "match": "c=quiet"}
                ]
            }
        ),
        campaign_id="faulty",
    )
    assert state == COMPLETED
    clean_doc = json.loads(results_bytes(clean))
    faulty_doc = json.loads(results_bytes(faulty))
    assert [s["data"] for c in faulty_doc["cells"] for s in c["shards"]] == [
        s["data"] for c in clean_doc["cells"] for s in c["shards"]
    ]
    # the deaths really happened: failures are journaled
    folded = faulty.folded()
    assert sum(s["failed"] for s in folded["shards"].values()) == 4


def test_poison_shard_quarantines_and_degrades():
    campaign, state = run_campaign(
        make_spec(
            faults={
                "rules": [
                    {"kind": "kill", "point": "start", "attempts": None,
                     "match": "s=0"}
                ]
            }
        )
    )
    assert state == DEGRADED
    document = json.loads(results_bytes(campaign))
    assert document["state"] == DEGRADED
    assert document["totals"]["quarantined"] == 2
    assert document["totals"]["done"] == 2
    report = json.load(open(campaign.quarantine_path))
    assert {row["key"][-3:] for row in report["quarantined"]} == {"s=0"}
    for row in report["quarantined"]:
        assert row["attempts"] == 3
        assert "signal" in row["reason"]
    # repeated abnormal deaths halved parallelism, durably
    assert campaign.folded()["jobs"] == 1


def test_worker_deaths_reach_the_telemetry_spool():
    """A killed attempt writes no spool line of its own; the supervisor
    writes its failed task line, so the spool counts every attempt and
    the dead workers never read as alive afterwards."""
    campaign, state = run_campaign(
        make_spec(
            faults={
                "rules": [
                    {"kind": "kill", "point": "mid", "attempts": 1,
                     "match": "c=quiet"}
                ]
            }
        )
    )
    assert state == COMPLETED
    aggregator = TelemetryAggregator(campaign.spool_dir)
    aggregator.poll()
    # four shards done, plus the two c=quiet attempts that died
    assert (aggregator.tasks, aggregator.errors) == (6, 2)
    liveness = aggregator.worker_liveness()
    assert sorted(liveness.values()).count("dead") == 2
    assert set(liveness.values()) == {"dead", "done"}


def test_mid_kill_loses_the_work_but_not_the_campaign():
    campaign, state = run_campaign(
        make_spec(
            faults={
                "rules": [{"kind": "kill", "point": "mid", "attempts": 1}]
            }
        )
    )
    assert state == COMPLETED
    folded = campaign.folded()
    # every shard died once at mid (result discarded), then succeeded
    assert all(s["failed"] == 1 for s in folded["shards"].values())


def test_dropped_heartbeats_do_not_fail_a_fast_worker():
    campaign, state = run_campaign(
        make_spec(
            faults={"rules": [{"kind": "drop-heartbeats", "attempts": 1}]}
        )
    )
    # the result file proves the work happened; silence alone is not failure
    assert state == COMPLETED
    assert json.loads(results_bytes(campaign))["totals"]["done"] == 4


# ----------------------------------------------------------------------
# The probe's batched reads


def _scalar_probe(shard, attack_options):
    """The probe as it read before batching: one ``attacker.read`` per
    address, each drawn from the probe's stream just before its read."""
    machine = _build_machine(shard)
    attacker = AttackerView(machine, machine.boot_process())
    pages = int(attack_options.get("probe_pages", 8))
    reads = int(attack_options.get("probe_reads", 2000))
    base = attacker.map_pages(pages)
    span = pages * attacker.page_size
    rng = DeterministicRng(shard.seed).fork("campaign-probe")
    checksum = 0
    for _ in range(reads):
        vaddr = base + (rng.randint(span) & ~0x7)
        checksum = (checksum * 1099511628211 + attacker.read(vaddr) + 1) & (
            (1 << 64) - 1
        )
    return {
        "workload": "probe",
        "reads": reads,
        "checksum": checksum,
        "flips": Inspector(machine).flip_count(),
        "cycles": machine.cycles,
        "uid": attacker.getuid(),
    }


def _probe_outcome(probe, shard, attack_options):
    try:
        return probe(shard, attack_options)
    except TransientFault as fault:
        return "TransientFault: %s" % fault


@pytest.mark.parametrize("tier", ["0", "1"], ids=["reference", "fast"])
def test_batched_probe_matches_the_scalar_read_loop(tier, monkeypatch):
    """Every shard of {none, cta} x {none, desktop}: the data, and the
    poison shard's fault text, equal the scalar read loop's."""
    monkeypatch.setenv("REPRO_FAST_PATH", tier)
    spec = make_spec(
        seed=13,
        defenses=["none", "cta"],
        chaos=["none", "desktop"],
        attack={"workload": "probe", "probe_reads": 2000},
    )
    shards = spec.compile_plan().shards
    batched = [_probe_outcome(execute_shard, shard, spec.attack) for shard in shards]
    scalar = [_probe_outcome(_scalar_probe, shard, spec.attack) for shard in shards]
    assert batched == scalar
    # At this seed one desktop shard faults midway on every attempt.
    assert [outcome for outcome in batched if isinstance(outcome, str)] == [
        "TransientFault: injected transient fault at 0x1000000039f8"
    ]


# ----------------------------------------------------------------------
# Control: cancel and stale-supervisor handling


def test_cancel_request_without_live_supervisor_settles_immediately():
    campaign = Campaign.create(make_spec())
    assert campaign.request("cancel") == "settled"
    assert campaign.folded()["state"] == "cancelled"
    with pytest.raises(CampaignError, match="terminal"):
        Supervisor(campaign).run(no_record=True)


def test_pause_request_on_created_campaign_is_illegal():
    campaign = Campaign.create(make_spec())
    with pytest.raises(CampaignError, match="cannot go"):
        campaign.request("pause")


# ----------------------------------------------------------------------
# Scheduler unit behaviour


def _scheduler(max_attempts=3, backoff=0.5):
    plan = make_spec().compile_plan()
    return Scheduler(plan, max_attempts, backoff), plan


def test_scheduler_walks_pending_to_done():
    scheduler, plan = _scheduler()
    state = scheduler.next_ready(now=0.0)
    assert state.status == PENDING
    assert scheduler.mark_running(state.shard.key) == 1
    assert scheduler.states[state.shard.key].status == "running"
    scheduler.mark_done(state.shard.key)
    assert scheduler.states[state.shard.key].status == DONE
    assert not scheduler.settled()  # three shards remain


def test_scheduler_backoff_gates_retries():
    scheduler, plan = _scheduler(backoff=10.0)
    key = plan.shards[0].key
    scheduler.mark_running(key)
    assert scheduler.mark_failed(key, now=100.0) == FAILED
    state = scheduler.states[key]
    assert state.not_before > 100.0
    # gated shard is skipped; the next pending shard is offered instead
    assert scheduler.next_ready(now=100.0).shard.key == plan.shards[1].key
    # once the gate passes, the failed shard is first again (plan order)
    assert scheduler.next_ready(now=state.not_before).shard.key == key


def test_scheduler_quarantines_after_budget():
    scheduler, plan = _scheduler(max_attempts=2)
    key = plan.shards[0].key
    scheduler.mark_running(key)
    scheduler.mark_failed(key, now=0.0)
    scheduler.mark_running(key)
    assert scheduler.mark_failed(key, now=0.0) == QUARANTINED
    assert [s.shard.key for s in scheduler.quarantined()] == [key]


def test_scheduler_restore_from_fold():
    scheduler, plan = _scheduler(max_attempts=3)
    keys = [shard.key for shard in plan.shards]
    scheduler.restore(
        {
            "shards": {
                keys[0]: {"status": "done", "started": 1, "failed": 0,
                          "data": {"flips": 0}, "meta": None},
                keys[1]: {"status": "quarantined", "started": 3, "failed": 3,
                          "data": None, "meta": None},
                keys[2]: {"status": None, "started": 1, "failed": 1,
                          "data": None, "meta": None},
            }
        }
    )
    assert scheduler.states[keys[0]].status == DONE
    assert scheduler.states[keys[1]].status == QUARANTINED
    assert scheduler.states[keys[2]].status == FAILED
    assert scheduler.states[keys[2]].attempts == 1
    assert scheduler.states[keys[3]].status == PENDING


def test_backoff_delay_is_deterministic_and_exponential():
    first = backoff_delay(0.25, seed=42, attempt=1)
    assert first == backoff_delay(0.25, seed=42, attempt=1)
    assert backoff_delay(0.25, seed=42, attempt=4) > first
    assert backoff_delay(0.25, seed=42, attempt=1) != backoff_delay(
        0.25, seed=43, attempt=1
    )
