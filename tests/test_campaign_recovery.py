"""Crash recovery: SIGKILL the supervisor, tear the WAL, hang workers.

These tests exercise the acceptance property of the orchestrator: a
campaign killed with ``kill -9`` mid-run and resumed completes with
results *byte-identical* to an uninterrupted run, and damage to the
journal tail (a torn write) is absorbed rather than fatal.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    Campaign,
    CampaignSpec,
    COMPLETED,
    DEGRADED,
    RUNNING,
    Supervisor,
    truncate_journal,
)

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def make_spec(faults=None, **overrides):
    payload = {
        "name": "recovery",
        "seed": 13,
        "machines": ["tiny"],
        "defenses": ["none"],
        "chaos": ["none"],
        "patterns": ["-"],
        "shards_per_cell": 6,
        "attack": {"workload": "probe", "probe_reads": 2500},
        "supervisor": {
            "jobs": 1,
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


def results_bytes(campaign):
    with open(campaign.results_path, "rb") as handle:
        return handle.read()


def run_uninterrupted(campaign_id, spec=None, **kwargs):
    campaign = Campaign.create(spec or make_spec(), campaign_id=campaign_id)
    state = Supervisor(campaign, **kwargs).run(no_record=True)
    assert state == COMPLETED
    return campaign


def spawn_cli_campaign(tmp_path, spec, args):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign"] + args + [str(spec_path)]
        if args[0] == "submit"
        else [sys.executable, "-m", "repro", "campaign"] + args,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def spool_workers(campaign):
    """Pids of every worker that wrote to the campaign's spool."""
    return {
        int(name[len("worker-"):-len(".jsonl")])
        for name in os.listdir(campaign.spool_dir)
        if name.startswith("worker-")
    }


def running(pid):
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except OSError:
            return False
        return True
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_sigkill_mid_run_then_resume_is_byte_identical(tmp_path):
    baseline = run_uninterrupted("baseline")

    process = spawn_cli_campaign(
        tmp_path, make_spec(), ["submit", "--id", "victim", "--no-record"]
    )
    victim = Campaign("victim")
    # wait until at least one shard result landed, i.e. genuinely mid-run
    assert wait_for(
        lambda: os.path.exists(os.path.join(victim.results_dir, "shard-0.json"))
    ), process.communicate(timeout=5)
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=10)
    # no worker the killed supervisor forked outlives it
    workers = spool_workers(victim)
    assert workers
    assert wait_for(
        lambda: not any(running(pid) for pid in workers), timeout=5.0
    ), sorted(pid for pid in workers if running(pid))

    folded = victim.folded()
    assert folded["state"] == RUNNING  # the journal still says running
    assert not os.path.exists(victim.results_path)

    # resume replays the journal and finishes the remaining shards
    state = Supervisor(victim).run(no_record=True)
    assert state == COMPLETED
    assert results_bytes(victim) == results_bytes(baseline)


def test_resume_at_different_jobs_is_byte_identical(tmp_path):
    baseline = run_uninterrupted("baseline-j", jobs=1)
    process = spawn_cli_campaign(
        tmp_path,
        make_spec(),
        ["submit", "--id", "victim-j", "--no-record", "--jobs", "2"],
    )
    victim = Campaign("victim-j")
    assert wait_for(
        lambda: os.path.exists(os.path.join(victim.results_dir, "shard-0.json"))
    ), process.communicate(timeout=5)
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=10)
    state = Supervisor(victim, jobs=3).run(no_record=True)
    assert state == COMPLETED
    assert results_bytes(victim) == results_bytes(baseline)


def test_torn_journal_tail_is_absorbed_on_resume():
    baseline = run_uninterrupted("torn")
    finished = results_bytes(baseline)

    removed = truncate_journal(baseline.journal_path, nbytes=40)
    assert removed > 0
    folded = baseline.folded()  # replay tolerates the torn tail
    assert folded["state"] != COMPLETED  # the finish entry was torn off
    os.unlink(baseline.results_path)

    state = Supervisor(baseline).run(no_record=True)
    assert state == COMPLETED
    assert results_bytes(baseline) == finished


def test_deep_truncation_only_recomputes_lost_shards():
    campaign = run_uninterrupted("deep")
    finished = results_bytes(campaign)
    # chop several entries off the tail: the last shards' completions
    # are forgotten, and resume must redo exactly that lost work
    truncate_journal(campaign.journal_path, nbytes=600)
    os.unlink(campaign.results_path)
    folded = campaign.folded()
    done_before = sum(
        1 for s in folded["shards"].values() if s["status"] == "done"
    )
    assert done_before < 6
    state = Supervisor(campaign).run(no_record=True)
    assert state == COMPLETED
    assert results_bytes(campaign) == finished


def test_crash_during_final_attempt_quarantines_on_resume():
    """A crash during a shard's *last* attempt leaves the journal with
    the retry budget spent but no quarantine verdict recorded.  Resume
    must adopt the scheduler's inferred quarantine — finishing DEGRADED
    with results.json and quarantine.json agreeing — not seal the shard
    as 'done' with null data.
    """
    spec = make_spec(
        shards_per_cell=1,
        supervisor={
            "jobs": 1,
            "max_attempts": 2,
            "poll_interval": 0.01,
            "heartbeat_interval": 0.05,
            "liveness_timeout": 30.0,
            "backoff": 0.01,
            "grace": 1.0,
        },
    )
    campaign = Campaign.create(spec, campaign_id="final-attempt")
    key = spec.compile_plan().shards[0].key
    # Simulate the dead supervisor's journal: attempt 1 failed, attempt
    # 2 started, then kill -9 before the verdict could be journaled.
    campaign.journal.append({"type": "shard-start", "key": key, "attempt": 1})
    campaign.journal.append(
        {"type": "shard-failed", "key": key, "reason": "killed by signal 9"}
    )
    campaign.journal.append({"type": "shard-start", "key": key, "attempt": 2})

    state = Supervisor(campaign).run(no_record=True)
    assert state == DEGRADED

    document = json.load(open(campaign.results_path))
    assert document["state"] == DEGRADED
    row = document["cells"][0]["shards"][0]
    assert row["status"] == "quarantined"
    assert row["data"] is None
    report = json.load(open(campaign.quarantine_path))
    assert [entry["key"] for entry in report["quarantined"]] == [key]
    assert report["quarantined"][0]["reason"]
    # the adopted verdict is journaled, so a second resume agrees
    folded = campaign.folded()
    assert folded["shards"][key]["status"] == "quarantined"


def test_hung_worker_is_liveness_killed_and_retried():
    spec = make_spec(
        faults={
            "rules": [
                {"kind": "hang", "attempts": 1, "match": "s=0",
                 "hang_seconds": 60.0}
            ]
        },
        shards_per_cell=2,
        supervisor={
            "jobs": 1,
            "poll_interval": 0.01,
            "heartbeat_interval": 0.05,
            "liveness_timeout": 0.4,
            "backoff": 0.01,
            "grace": 1.0,
        },
    )
    campaign = Campaign.create(spec, campaign_id="hung")
    started = time.time()
    state = Supervisor(campaign).run(no_record=True)
    assert state == COMPLETED
    assert time.time() - started < 30.0  # killed, not waited out
    folded = campaign.folded()
    hung_key = [key for key in folded["shards"] if key.endswith("s=0")][0]
    assert folded["shards"][hung_key]["failed"] == 1
    assert folded["shards"][hung_key]["status"] == "done"
