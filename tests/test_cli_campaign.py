"""`repro campaign ...` — the orchestrator's CLI surface and exit codes."""

import json

import pytest

from repro.campaign import Campaign
from repro.cli import main
from repro.observe.ledger import CAMPAIGN_RUN, RunLedger


def write_spec(tmp_path, name="cli-study", faults=None, **overrides):
    payload = {
        "name": name,
        "seed": 11,
        "machines": ["tiny"],
        "defenses": ["none"],
        "chaos": ["none"],
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
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(payload))
    return str(path)


def test_submit_runs_to_completion_and_records_a_run(tmp_path, capsys):
    assert main(["campaign", "submit", write_spec(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "campaign cli-study created (2 shard(s)" in out
    assert "campaign cli-study: completed" in out
    record = RunLedger().latest(kind=CAMPAIGN_RUN)
    assert record is not None and record.name == "cli-study"
    assert record.outcome == {
        "state": "completed", "shards": 2, "done": 2, "quarantined": 0,
    }
    assert record.extra["campaign_id"] == "cli-study"


def test_submit_no_run_then_resume_pause_status_report(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert main(["campaign", "submit", "--no-run", "--id", "c1", spec]) == 0
    capsys.readouterr()

    # no results yet: report is a clean nonzero, not a traceback
    assert main(["campaign", "report", "c1"]) == 2
    assert "no results yet" in capsys.readouterr().err

    assert main(["campaign", "resume", "c1", "--no-record"]) == 0
    capsys.readouterr()
    assert main(["campaign", "status", "c1"]) == 0
    out = capsys.readouterr().out
    assert "campaign c1: completed" in out
    assert "2/2 done" in out

    assert main(["campaign", "report", "c1"]) == 0
    out = capsys.readouterr().out
    assert "2 shard(s): 2 done, 0 quarantined" in out

    assert main(["campaign", "list"]) == 0
    assert "c1" in capsys.readouterr().out


def test_degraded_campaign_exits_4_and_points_at_the_quarantine_report(
    tmp_path, capsys
):
    spec = write_spec(
        tmp_path,
        faults={
            "rules": [
                {"kind": "kill", "point": "start", "attempts": None,
                 "match": "s=0"}
            ]
        },
    )
    assert main(["campaign", "submit", "--no-record", spec]) == 4
    captured = capsys.readouterr()
    assert "campaign cli-study: degraded" in captured.out
    assert "quarantine report" in captured.err
    campaign = Campaign.open("cli-study")
    report = json.load(open(campaign.quarantine_path))
    assert len(report["quarantined"]) == 1


def test_cancel_without_supervisor_settles_and_blocks_resume(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert main(["campaign", "submit", "--no-run", "--id", "doomed", spec]) == 0
    assert main(["campaign", "cancel", "doomed"]) == 0
    assert "cancel settled" in capsys.readouterr().out
    assert main(["campaign", "resume", "doomed"]) == 2
    assert "terminal" in capsys.readouterr().err


def test_bad_spec_and_unknown_campaign_are_clean_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "machines": ["mainframe"]}))
    assert main(["campaign", "submit", str(bad)]) == 2
    assert "repro:" in capsys.readouterr().err
    for command in (["status"], ["resume"], ["pause"], ["report"]):
        assert main(["campaign"] + command + ["ghost"]) == 2
        assert "no campaign" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"shards_per_cell": "2"}, id="shards-as-string"),
        pytest.param({"name": 5}, id="name-as-number"),
        pytest.param({"seed": "7"}, id="seed-as-string"),
        pytest.param({"machines": [["tiny"]]}, id="nested-axis"),
        pytest.param({"attack": [1, 2]}, id="attack-as-list"),
        pytest.param(
            {"attack": {"workload": "probe", "probe_reads": "many"}},
            id="probe-reads-as-string",
        ),
        pytest.param(
            {"attack": {"workload": "attack", "slots": -5}}, id="negative-slots"
        ),
        pytest.param(
            {"attack": {"workload": "probe", "probe_read": 10}},
            id="misspelled-attack-knob",
        ),
        pytest.param(
            {"supervisor": {"liveness_timeout": "abc"}}, id="timeout-as-string"
        ),
        pytest.param({"supervisor": {"jobs": 1.5}}, id="fractional-jobs"),
        pytest.param({"faults": {"rules": 5}}, id="fault-rules-as-number"),
        pytest.param(
            {"faults": {"rules": [{"kind": "kill", "attempts": "2"}]}},
            id="fault-attempts-as-string",
        ),
        pytest.param(
            {"faults": {"rules": [{"kind": "hang", "hang_seconds": "x"}]}},
            id="hang-seconds-as-string",
        ),
    ],
)
def test_mistyped_spec_exits_2_before_any_campaign_exists(
    tmp_path, capsys, overrides
):
    path = write_spec(tmp_path)
    with open(path) as handle:
        payload = json.load(handle)
    payload.update(overrides)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    assert main(["campaign", "submit", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: campaign spec ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "campaigns").exists()


def test_duplicate_submit_id_is_rejected(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert main(["campaign", "submit", "--no-run", "--id", "dup", spec]) == 0
    assert main(["campaign", "submit", "--no-run", "--id", "dup", spec]) == 2
    assert "already exists" in capsys.readouterr().err


def test_list_with_no_campaigns_mentions_the_root(capsys):
    assert main(["campaign", "list"]) == 0
    assert "no campaigns under" in capsys.readouterr().out
