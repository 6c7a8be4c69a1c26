"""The ``repro runs`` and ``repro bench`` commands, end to end.

These tests exercise the regression-tracking loop the run ledger
exists for: record a baseline, list and inspect it, then compare a
"slower" rerun against it and demand a nonzero exit.  The ledger
directory is isolated per test by the autouse conftest fixture.
"""

import glob
import json
import os

import pytest

from repro.analysis.bench import DEFAULT_TOLERANCE, bench_names, get_bench, run_bench
from repro.cli import main
from repro.observe.ledger import RunLedger

pytestmark = pytest.mark.slow


def _ledger_dir():
    return os.environ["REPRO_LEDGER_DIR"]


def _tamper_baseline(host_seconds):
    """Rewrite every recorded baseline's wall time to ``host_seconds``."""
    paths = glob.glob(os.path.join(_ledger_dir(), "*.json"))
    assert paths, "expected a recorded baseline to tamper with"
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["timings"]["host_seconds"] = host_seconds
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# the bench suite itself


def test_bench_registry_names():
    assert set(bench_names()) >= {"attack-tiny", "figure3-tiny", "sec4d-tiny"}
    with pytest.raises(Exception):
        get_bench("no-such-bench")


def test_run_bench_produces_a_comparable_record():
    result = run_bench("sec4d-tiny")
    assert result.host_seconds > 0
    record = result.to_record(label="main")
    flat = record.comparable_metrics()
    assert flat["time.host_seconds"] > 0
    assert record.label == "main"


# ----------------------------------------------------------------------
# repro bench


def test_bench_list(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "attack-tiny" in out and "sec4d-tiny" in out


def test_bench_rejects_unknown_name(capsys):
    assert main(["bench", "--only", "no-such-bench"]) == 2
    assert "no-such-bench" in capsys.readouterr().err


def test_bench_record_writes_ledger_records(capsys):
    assert main(
        ["bench", "--only", "sec4d-tiny", "--record", "--baseline", "main"]
    ) == 0
    captured = capsys.readouterr()
    assert "sec4d-tiny" in captured.out
    records = RunLedger().list()
    assert [r.name for r in records] == ["sec4d-tiny"]
    assert records[0].label == "main"
    assert records[0].timings["host_seconds"] > 0


def test_bench_compare_passes_against_honest_baseline(capsys):
    assert main(
        ["bench", "--only", "sec4d-tiny", "--record", "--baseline", "main"]
    ) == 0
    capsys.readouterr()
    assert main(["bench", "--only", "sec4d-tiny", "--compare", "main"]) == 0
    assert "0 regression(s)" in capsys.readouterr().err


def test_bench_compare_exits_nonzero_on_synthetic_slowdown(capsys):
    """The acceptance bar: a timing regression must fail the command.

    Recording a real baseline and then rewriting its wall time to ~zero
    makes any rerun look arbitrarily slower — a synthetic slow run that
    must trip the tolerance check and exit nonzero.
    """
    assert main(
        ["bench", "--only", "sec4d-tiny", "--record", "--baseline", "main"]
    ) == 0
    capsys.readouterr()
    _tamper_baseline(1e-6)
    assert main(["bench", "--only", "sec4d-tiny", "--compare", "main"]) == 3
    err = capsys.readouterr().err
    assert "REGRESSED" in err and "time.host_seconds" in err


def test_bench_compare_tolerance_is_configurable(capsys):
    assert main(
        ["bench", "--only", "sec4d-tiny", "--record", "--baseline", "main"]
    ) == 0
    capsys.readouterr()
    # An absurdly generous tolerance forgives even the tampered baseline.
    _tamper_baseline(1e-6)
    assert main(
        ["bench", "--only", "sec4d-tiny", "--compare", "main",
         "--tolerance", "1e9"]
    ) == 0
    assert 0 < DEFAULT_TOLERANCE < 1


def test_bench_compare_missing_baseline_is_a_clear_error(capsys):
    """Comparing against a baseline with no records must not silently
    pass (a CI typo or unseeded ledger would otherwise green-light any
    regression): clear message on stderr, exit 2, no traceback, and no
    bench run first."""
    assert main(["bench", "--only", "sec4d-tiny", "--compare", "nope"]) == 2
    captured = capsys.readouterr()
    assert "no baseline" in captured.err
    assert "has no record for any selected benchmark" in captured.err
    assert "repro bench --record --baseline nope" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # refused before any bench ran


def test_bench_compare_partial_baseline_still_compares(capsys):
    """A baseline that covers *some* of the selected benchmarks is a
    real comparison — only the wholly absent case is the hard error."""
    assert main(
        ["bench", "--only", "sec4d-tiny", "--record", "--baseline", "main"]
    ) == 0
    capsys.readouterr()
    assert main(
        ["bench", "--only", "sec4d-tiny", "--only", "figure3-tiny",
         "--compare", "main"]
    ) == 0
    captured = capsys.readouterr()
    assert "figure3-tiny\t-\t-\t-\tmissing-baseline" in captured.out
    assert "has no record" not in captured.err


def test_bench_compare_malformed_baseline_is_a_clear_error(capsys):
    """A corrupted record file in the ledger directory must surface as
    `repro: ...` with exit 2, not a TypeError traceback."""
    assert main(
        ["bench", "--only", "sec4d-tiny", "--record", "--baseline", "main"]
    ) == 0
    capsys.readouterr()
    path = glob.glob(os.path.join(_ledger_dir(), "*.json"))[0]
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    del payload["name"]  # schema intact, record incomplete
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    assert main(["bench", "--only", "sec4d-tiny", "--compare", "main"]) == 2
    captured = capsys.readouterr()
    assert "repro:" in captured.err and "malformed" in captured.err
    assert "Traceback" not in captured.err


def test_bench_compare_non_object_baseline_is_a_clear_error(capsys):
    assert main(
        ["bench", "--only", "sec4d-tiny", "--record", "--baseline", "main"]
    ) == 0
    capsys.readouterr()
    path = glob.glob(os.path.join(_ledger_dir(), "*.json"))[0]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('["not", "a", "record"]')
    assert main(["bench", "--only", "sec4d-tiny", "--compare", "main"]) == 2
    captured = capsys.readouterr()
    assert "repro:" in captured.err and "JSON object" in captured.err
    assert "Traceback" not in captured.err


def test_bench_compare_stdout_is_machine_parseable(capsys):
    """--compare routes the human table to stderr; stdout is stable TSV.

    Pipelines consume stdout (``bench<TAB>metric<TAB>baseline<TAB>
    current<TAB>status``); humans read stderr.
    """
    assert main(
        ["bench", "--only", "sec4d-tiny", "--record", "--baseline", "main"]
    ) == 0
    capsys.readouterr()
    _tamper_baseline(1e-6)
    assert main(["bench", "--only", "sec4d-tiny", "--compare", "main"]) == 3
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.err  # human diff table on stderr
    rows = [
        line.split("\t") for line in captured.out.splitlines() if "\t" in line
    ]
    assert rows, "expected tab-separated metric rows on stdout"
    assert all(len(row) == 5 for row in rows)
    assert all(row[0] == "sec4d-tiny" for row in rows)
    regressed = [row for row in rows if row[4] == "REGRESSED"]
    assert any(row[1] == "time.host_seconds" for row in regressed)
    # The recorded values round-trip through repr.
    assert float(regressed[0][2]) >= 0 and float(regressed[0][3]) >= 0


def test_bench_compare_gate_restricts_metrics(capsys):
    """--gate REGEX compares only matching metrics (the CI perf job
    gates on deterministic metrics and ignores raw host seconds)."""
    assert main(
        ["bench", "--only", "sec4d-tiny", "--record", "--baseline", "main"]
    ) == 0
    capsys.readouterr()
    _tamper_baseline(1e-6)
    # Ungated, the tampered host time regresses (see test above); gated
    # to virtual-cycle metrics only, the same run passes.
    assert main(
        ["bench", "--only", "sec4d-tiny", "--compare", "main",
         "--gate", r"^time\.virtual_cycles$"]
    ) == 0
    captured = capsys.readouterr()
    assert "time.host_seconds" not in captured.out


# ----------------------------------------------------------------------
# repro runs


def test_attack_records_a_run_and_runs_list_shows_it(capsys):
    assert main(
        ["attack", "--machine", "tiny", "--seed", "1", "--slots", "256",
         "--pairs", "14"]
    ) == 0
    captured = capsys.readouterr()
    assert "run recorded:" in captured.err
    assert main(["runs", "list"]) == 0
    out = capsys.readouterr().out
    assert "attack" in out and "tiny" in out


def test_attack_no_record_leaves_ledger_empty(capsys):
    assert main(
        ["attack", "--machine", "tiny", "--seed", "1", "--slots", "256",
         "--pairs", "14", "--no-record"]
    ) == 0
    capsys.readouterr()
    assert RunLedger().list() == []


def test_runs_show_renders_the_full_record(capsys):
    assert main(
        ["attack", "--machine", "tiny", "--seed", "1", "--slots", "256",
         "--pairs", "14"]
    ) == 0
    capsys.readouterr()
    run_id = RunLedger().list()[0].run_id
    assert main(["runs", "show", run_id]) == 0
    out = capsys.readouterr().out
    assert run_id in out
    assert "machine" in out and "tiny" in out
    assert "virtual_cycles" in out


def test_runs_show_unknown_id_exits_2(capsys):
    assert main(["runs", "show", "19990101"]) == 2
    assert "no run" in capsys.readouterr().err


def test_runs_diff_flags_regression_and_exits_nonzero(capsys):
    ledger = RunLedger()
    for seconds in (1.0, 1.0):
        from repro.observe.ledger import BENCHMARK_RUN, RunRecord

        ledger.record(
            RunRecord.new(
                BENCHMARK_RUN, "toy", timings={"host_seconds": seconds}
            )
        )
    before, after = [r.run_id for r in ledger.list()]
    assert main(["runs", "diff", before, after]) == 0
    capsys.readouterr()
    # Degrade the newer run and diff again: nonzero, with the culprit named.
    _tamper = ledger.load(after)
    path = os.path.join(_ledger_dir(), after + ".json")
    payload = _tamper.to_json()
    payload["timings"]["host_seconds"] = 9.0
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    assert main(["runs", "diff", before, after]) == 3
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "time.host_seconds" in out


def test_experiment_run_is_recorded_with_run_id(capsys):
    assert main(
        ["figure3", "--machines", "tiny", "--sizes", "8", "--trials", "10",
         "--quiet"]
    ) == 0
    capsys.readouterr()  # --quiet: recording happens silently
    records = RunLedger().list(kind="experiment")
    assert len(records) == 1
    assert records[0].name == "figure3"
    assert records[0].outcome["completed"] is True


def test_experiment_no_record_flag(capsys):
    assert main(
        ["figure3", "--machines", "tiny", "--sizes", "8", "--trials", "10",
         "--quiet", "--no-record"]
    ) == 0
    capsys.readouterr()
    assert RunLedger().list(kind="experiment") == []
