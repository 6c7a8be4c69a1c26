"""CLI telemetry wiring: default-on streaming, timelines, sampling.

The acceptance bar for the streaming pipeline (docs/TELEMETRY.md): a
multi-worker experiment run produces live aggregated telemetry and a
persisted timeline, while rendered stdout stays byte-identical to a
run with telemetry disabled.
"""

import json
import os

import pytest

from repro.cli import main
from repro.observe.ledger import RunLedger
from repro.observe.stream import discover_spool

FIGURE3 = ["figure3", "--machines", "tiny", "--sizes", "8,12", "--trials", "10"]


# ----------------------------------------------------------------------
# telemetry on experiment commands (on by default, spool + ledger)


@pytest.mark.slow
def test_stdout_is_byte_identical_with_and_without_telemetry(capsys):
    assert main(FIGURE3 + ["--jobs", "4", "--no-record"]) == 0
    with_telemetry = capsys.readouterr()
    assert main(FIGURE3 + ["--jobs", "4", "--no-record", "--no-telemetry"]) == 0
    without_telemetry = capsys.readouterr()
    assert with_telemetry.out == without_telemetry.out
    assert "telemetry:" in with_telemetry.err
    assert "telemetry:" not in without_telemetry.err


@pytest.mark.slow
def test_experiment_run_spools_and_persists_the_timeline(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "telemetry"))
    assert main(FIGURE3 + ["--jobs", "2"]) == 0
    capsys.readouterr()

    spool = discover_spool(str(tmp_path / "telemetry"))
    assert spool is not None and spool.endswith("-figure3")
    with open(os.path.join(spool, "run.jsonl"), encoding="utf-8") as handle:
        first = json.loads(handle.readline())
    assert first["type"] == "run-begin" and first["experiment"] == "figure3"

    record = RunLedger().latest()
    telemetry = record.extra["telemetry"]
    assert telemetry["totals"]["tasks"] == record.outcome["tasks_total"]
    assert record.comparable_metrics()["telemetry.throughput_mean"] > 0

    # `repro dash --once` can replay the sealed spool ...
    assert main(["dash", "--once", "--spool", spool]) == 0
    out = capsys.readouterr().out
    assert "figure3 [finished]" in out and "\x1b" not in out

    # ... and `repro runs show` renders the persisted timeline.
    assert main(["runs", "show", record.run_id]) == 0
    out = capsys.readouterr().out
    assert "timeline:" in out and "tasks/s" in out


@pytest.mark.slow
def test_quiet_suppresses_the_telemetry_summary_line(capsys):
    assert main(FIGURE3 + ["--no-record", "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""


# ----------------------------------------------------------------------
# runs list --limit / --all


def _seed_records(count):
    from repro.observe.ledger import EXPERIMENT_RUN, RunRecord

    ledger = RunLedger()
    for i in range(count):
        record = RunRecord.new(
            EXPERIMENT_RUN, "toy-%d" % i, timings={"host_seconds": 0.1}
        )
        # Same-second ids differ only in their random suffix; pin them
        # so "newest" is well-defined for the assertions below.
        record.run_id = "20260807T%06d-aa" % i
        ledger.record(record)
    return ledger


def test_runs_list_defaults_to_the_newest_twenty(capsys):
    _seed_records(23)
    assert main(["runs", "list"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 21  # header + 20 rows
    assert "toy-22" in out  # newest kept ...
    assert "toy-0 " not in out  # ... oldest trimmed


def test_runs_list_limit_and_all(capsys):
    _seed_records(5)
    assert main(["runs", "list", "--limit", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(["runs", "list", "--all"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 6
    assert "toy-0" in out


def test_ledger_list_limit_short_circuits():
    ledger = _seed_records(6)
    limited = ledger.list(limit=2)
    assert [r.name for r in limited] == ["toy-4", "toy-5"]  # newest, in order
    assert [r.name for r in ledger.list(limit=None)] == [
        "toy-%d" % i for i in range(6)
    ]


def test_runs_list_skips_and_warns_on_unreadable_records(capsys):
    ledger = _seed_records(3)
    with open(ledger.path("20260807T000001-aa"), "w") as handle:
        handle.write("{ not json")
    assert main(["runs", "list"]) == 0
    captured = capsys.readouterr()
    assert "toy-0" in captured.out and "toy-2" in captured.out
    assert "toy-1" not in captured.out
    assert "skipping unreadable run record 20260807T000001-aa" in captured.err


def test_ledger_list_without_on_skip_still_raises():
    from repro.errors import ConfigError

    ledger = _seed_records(2)
    with open(ledger.path("20260807T000000-aa"), "w") as handle:
        handle.write("[]")
    with pytest.raises(ConfigError):
        ledger.list()
    skipped = []
    survivors = ledger.list(on_skip=lambda run_id, error: skipped.append(run_id))
    assert [r.name for r in survivors] == ["toy-1"]
    assert skipped == ["20260807T000000-aa"]
    assert ledger.latest(on_skip=lambda *a: None).name == "toy-1"


# ----------------------------------------------------------------------
# dash / runs watch without a spool


def test_dash_without_a_spool_is_a_clean_nonzero_exit(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "empty"))
    assert main(["dash", "--once"]) == 2
    err = capsys.readouterr().err
    assert "no telemetry spool" in err and "--spool" in err
    assert main(["runs", "watch", "--once"]) == 2
    assert "no telemetry spool" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro trace sampling + chrome export flags


@pytest.mark.slow
def test_trace_sample_and_chrome_export(tmp_path, capsys):
    out_path = str(tmp_path / "chrome.json")
    code = main(
        ["trace", "--machine", "tiny", "--seed", "1", "--slots", "200",
         "--pairs", "4", "--sample", "0.01", "--sample-budget", "5000",
         "--export-chrome", out_path]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sampling: kept" in out
    assert "chrome trace event(s)" in out
    from repro.analysis import validate_chrome_trace

    with open(out_path, encoding="utf-8") as handle:
        document = json.load(handle)
    assert validate_chrome_trace(document) > 0
    assert document["metadata"]["sampling"]["budgets"] == {"*": 5000}


def test_trace_rejects_bad_sample_spec(capsys):
    with pytest.raises(SystemExit) as exit_info:  # an argparse usage error
        main(["trace", "--machine", "tiny", "--sample", "dram=fast"])
    assert exit_info.value.code == 2
    assert "error" in capsys.readouterr().err
