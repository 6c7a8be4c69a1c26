"""The run ledger: records, the store, and regression diffing."""

import json
import os

import pytest

from repro.errors import ConfigError
from repro.observe import MetricsRegistry
from repro.observe.ledger import (
    BENCHMARK_RUN,
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    RunRecord,
    config_fingerprint,
    diff_records,
    git_revision,
    metric_direction,
    new_run_id,
)


def _record(name="toy", seconds=1.0, label=None, **outcome):
    return RunRecord.new(
        BENCHMARK_RUN,
        name,
        label=label,
        timings={"host_seconds": seconds},
        outcome=outcome,
    )


# ----------------------------------------------------------------------
# identity and provenance


def test_run_ids_are_unique_and_sortable():
    ids = [new_run_id() for _ in range(50)]
    assert len(set(ids)) == 50
    # Timestamp prefix: lexicographic order is chronological order.
    assert all(len(run_id) == len("20260101T000000-abcdef") for run_id in ids)


def test_git_revision_reads_this_repository():
    rev = git_revision(os.path.dirname(__file__))
    assert rev is not None and len(rev) == 40
    int(rev, 16)  # a hex commit hash


def test_git_revision_outside_a_repo_is_none(tmp_path):
    assert git_revision(str(tmp_path)) is None


def test_config_fingerprint_is_stable_and_sensitive():
    from repro.machine.configs import tiny_test_config

    base = config_fingerprint(tiny_test_config())
    assert base == config_fingerprint(tiny_test_config())
    assert base != config_fingerprint(tiny_test_config(seed=2))
    assert len(base) == 16


def test_record_round_trips_through_json():
    record = _record(seconds=2.5, flips=7, escalated=True)
    clone = RunRecord.from_json(json.loads(json.dumps(record.to_json())))
    assert clone == record


def test_from_json_rejects_other_schemas():
    payload = _record().to_json()
    payload["schema"] = LEDGER_SCHEMA_VERSION + 1
    with pytest.raises(ConfigError, match="schema"):
        RunRecord.from_json(payload)


def test_from_json_rejects_non_object_payloads():
    for payload in (["a", "list"], "a string", 7, None):
        with pytest.raises(ConfigError, match="JSON object"):
            RunRecord.from_json(payload)


def test_from_json_rejects_missing_fields():
    payload = _record().to_json()
    del payload["name"]
    with pytest.raises(ConfigError, match="malformed"):
        RunRecord.from_json(payload)


def test_comparable_metrics_flattening():
    registry = MetricsRegistry()
    registry.inc("loads", 10)
    record = RunRecord.new(
        BENCHMARK_RUN,
        "toy",
        timings={"host_seconds": 1.5, "virtual_cycles": 900},
        phases=[{"name": "hammer", "start": 0, "end": 40, "cycles": 40}],
        metrics=registry.snapshot_values(),
        outcome={"flips": 3, "escalated": True, "note": "text ignored"},
    )
    flat = record.comparable_metrics()
    assert flat["time.host_seconds"] == 1.5
    assert flat["time.virtual_cycles"] == 900
    assert flat["phase.hammer.cycles"] == 40
    assert flat["counter.loads"] == 10
    assert flat["outcome.flips"] == 3
    assert flat["outcome.escalated"] == 1
    assert "outcome.note" not in flat


# ----------------------------------------------------------------------
# the store


def test_ledger_record_load_list_latest(tmp_path):
    ledger = RunLedger(str(tmp_path / "runs"))
    first = _record(name="a", seconds=1.0, label="main")
    second = _record(name="a", seconds=2.0)
    third = _record(name="b", seconds=3.0, label="main")
    for record in (first, second, third):
        path = ledger.record(record)
        assert os.path.exists(path)
    assert [r.run_id for r in ledger.list()] == sorted(
        [first.run_id, second.run_id, third.run_id]
    )
    assert [r.run_id for r in ledger.list(name="a")] == sorted(
        [first.run_id, second.run_id]
    )
    assert ledger.latest(name="a", label="main").run_id == first.run_id
    assert ledger.latest(name="zzz") is None
    assert ledger.load(first.run_id) == first


def test_ledger_loads_by_unique_prefix(tmp_path):
    ledger = RunLedger(str(tmp_path))
    record = _record()
    ledger.record(record)
    assert ledger.load(record.run_id[:-2]) == record
    with pytest.raises(ConfigError, match="no run"):
        ledger.load("19990101")


def test_ledger_rejects_duplicate_run_ids(tmp_path):
    ledger = RunLedger(str(tmp_path))
    record = _record()
    ledger.record(record)
    with pytest.raises(ConfigError, match="already recorded"):
        ledger.record(record)


def test_ledger_root_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "from-env"))
    assert RunLedger().root == str(tmp_path / "from-env")
    assert RunLedger(str(tmp_path / "explicit")).root == str(tmp_path / "explicit")
    monkeypatch.delenv("REPRO_LEDGER_DIR")
    assert RunLedger().root == os.path.join(".repro", "runs")


def test_ledger_writes_are_atomic_no_temp_left(tmp_path):
    ledger = RunLedger(str(tmp_path))
    ledger.record(_record())
    assert not [name for name in os.listdir(str(tmp_path)) if name.endswith(".tmp")]


# ----------------------------------------------------------------------
# diffing


def test_metric_direction_heuristic():
    assert metric_direction("time.host_seconds") == "down"
    assert metric_direction("phase.hammer.cycles") == "down"
    assert metric_direction("outcome.flips") == "up"
    assert metric_direction("counter.dram.flips") == "up"
    assert metric_direction("outcome.escalated") == "up"


def test_diff_flags_timing_regressions_beyond_tolerance():
    before = _record(seconds=1.0)
    worse = _record(seconds=1.3)
    within = _record(seconds=1.05)
    diff = diff_records(before, worse, tolerance=0.1)
    assert [d.name for d in diff.regressions()] == ["time.host_seconds"]
    assert "REGRESSED" in diff.render()
    assert not diff_records(before, within, tolerance=0.1).regressions()
    # Improvements never regress, however large.
    assert not diff_records(worse, before, tolerance=0.1).regressions()


def test_diff_flags_flip_rate_drops_as_regressions():
    before = _record(flips=100)
    fewer = _record(flips=50)
    diff = diff_records(before, fewer, tolerance=0.2)
    assert [d.name for d in diff.regressions()] == ["outcome.flips"]
    # More flips is an improvement for an attack reproduction.
    assert not diff_records(fewer, before, tolerance=0.2).regressions()


def test_diff_zero_baseline_regresses_on_any_growth():
    diff = diff_records(_record(seconds=0.0), _record(seconds=0.001), tolerance=0.5)
    assert diff.regressions()


def test_diff_reports_one_sided_metrics():
    before = _record(flips=1)
    after = _record()  # no flips key at all
    diff = diff_records(before, after)
    assert "outcome.flips" in diff.only_before
    assert not diff.regressions()


def test_ungated_bench_compare_never_counts_raw_seconds(tmp_path):
    from repro.analysis.bench import BenchResult, compare_to_baseline

    def result(fast_seconds, ratio):
        return BenchResult(
            name="hammer-loop",
            title="toy",
            host_seconds=1.0,
            timings={
                "reference_seconds": 1.0,
                "fast_seconds": fast_seconds,
                "fast_over_reference": ratio,
            },
        )

    ledger = RunLedger(str(tmp_path))
    ledger.record(result(0.01, 0.4).to_record(label="main"))

    def regressed(current, gate=None):
        comparison = compare_to_baseline(ledger, "main", [current], gate=gate)
        return [delta.name for delta in comparison.regressions()]

    # A raw timing 100x slower is printed but never regresses ungated;
    # a gate that names it still gates it, and a ratio always counts.
    assert regressed(result(1.0, 0.4)) == []
    assert regressed(result(1.0, 0.4), gate="fast_seconds") == ["time.fast_seconds"]
    assert regressed(result(0.01, 0.8)) == ["time.fast_over_reference"]


def test_diff_metric_filter():
    before = _record(seconds=1.0, flips=10)
    after = _record(seconds=9.0, flips=10)
    only_flips = diff_records(
        before, after, metrics=lambda name: "flip" in name
    )
    assert [d.name for d in only_flips.deltas] == ["outcome.flips"]
    explicit = diff_records(before, after, metrics=["time.host_seconds"])
    assert [d.name for d in explicit.deltas] == ["time.host_seconds"]
