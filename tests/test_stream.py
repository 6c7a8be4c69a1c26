"""Streaming telemetry: sampler, spools, aggregator, session, engine.

The committed spool fixture under ``tests/data/telemetry_spool/`` is
the same recording the CI observability smoke job renders with
``repro dash --once`` — tests against it keep the dashboard and the
aggregator honest about the on-disk format (docs/TELEMETRY.md).
"""

import json
import os

import pytest

from repro.analysis.engine import ExperimentSpec, Task, run_experiment
from repro.errors import ConfigError
from repro.observe import (
    CycleHistogram,
    TraceBus,
    TraceSampler,
    parse_budget_spec,
    parse_rate_spec,
)
from repro.observe import stream
from repro.observe.ledger import RunLedger
from repro.observe.stream import (
    SeriesBuckets,
    TelemetryAggregator,
    TelemetryEmitter,
    TelemetrySession,
    activate_emitters,
    current_emitter,
    deactivate_emitters,
    default_spool_root,
    discover_spool,
)

FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "telemetry_spool",
    "20260806T000000-ci-table1",
)


# ----------------------------------------------------------------------
# TraceSampler


def test_stride_sampling_is_deterministic():
    sampler = TraceSampler(rates={"*": 0.01})
    kept = [i for i in range(250) if sampler.admit("dram.hit")]
    assert kept == [0, 100, 200]  # 1st, 101st, 201st — no RNG
    again = TraceSampler(rates={"*": 0.01})
    assert kept == [i for i in range(250) if again.admit("dram.hit")]


def test_rate_one_keeps_all_and_rate_zero_keeps_none():
    keep_all = TraceSampler(rates={"*": 1.0})
    assert all(keep_all.admit("tlb.miss") for _ in range(10))
    keep_none = TraceSampler(rates={"*": 0.0})
    assert not any(keep_none.admit("tlb.miss") for _ in range(10))
    assert keep_none.stats()["sampled_out"] == 10


def test_most_specific_rate_wins():
    sampler = TraceSampler(rates={"dram.hit": 1.0, "dram": 0.0, "*": 1.0})
    assert sampler.admit("dram.hit")  # exact kind beats category
    assert not sampler.admit("dram.activate")  # category beats wildcard
    assert sampler.admit("tlb.miss")  # wildcard catches the rest


def test_unconfigured_kinds_are_admitted_untouched():
    sampler = TraceSampler(rates={"dram": 0.5})
    assert all(sampler.admit("tlb.miss") for _ in range(5))


def test_budgets_cap_admitted_events_per_category():
    sampler = TraceSampler(budgets={"dram": 2})
    results = [sampler.admit("dram.hit") for _ in range(5)]
    assert results == [True, True, False, False, False]
    stats = sampler.stats()
    assert stats["budget_dropped"] == 3
    assert stats["kept"] == 2
    # other categories are not charged against the dram budget
    assert sampler.admit("tlb.miss")


def test_stats_counters_are_consistent():
    sampler = TraceSampler(rates={"*": 0.5}, budgets={"*": 3})
    for _ in range(20):
        sampler.admit("dram.hit")
    stats = sampler.stats()
    assert stats["seen"] == 20
    assert stats["seen"] == stats["kept"] + stats["sampled_out"] + stats["budget_dropped"]
    assert stats["kept"] == 3  # budget bites after 3 keeps


def test_parse_rate_and_budget_specs():
    assert parse_rate_spec("0.01") == {"*": 0.01}
    assert parse_rate_spec("dram=0.1, tlb=0.5,*=0.01") == {
        "dram": 0.1, "tlb": 0.5, "*": 0.01,
    }
    assert parse_budget_spec("100000") == {"*": 100000}
    assert parse_budget_spec("dram=50") == {"dram": 50}
    with pytest.raises(ValueError):
        parse_rate_spec("")
    with pytest.raises(ValueError):
        parse_rate_spec("dram=0.1,oops")
    assert parse_rate_spec("*=0,dram=1") == {"*": 0.0, "dram": 1.0}
    assert parse_budget_spec("0") == {"*": 0}
    # NaN, rates outside [0, 1] and negative budgets are rejected, and
    # the error names the offending token.
    for spec in ("nan", "2.0", "-0.5", "dram=0.1,tlb=nan", "*=1.5"):
        with pytest.raises(ValueError, match="nan|2.0|-0.5|1.5"):
            parse_rate_spec(spec)
    for spec in ("-5", "dram=50,*=-1"):
        with pytest.raises(ValueError, match="-5|-1"):
            parse_budget_spec(spec)


def test_bus_emit_honours_sampling_inline_path():
    # The hot skip path is inlined in TraceBus.emit; its decisions must
    # be indistinguishable from calling TraceSampler.admit directly.
    bus = TraceBus()
    bus.enable()
    bus.set_sampling(rates={"*": 0.25})
    for _ in range(40):
        bus.emit("dram.hit", "dram")
    reference = TraceSampler(rates={"*": 0.25})
    expected = sum(1 for _ in range(40) if reference.admit("dram.hit"))
    assert len(bus.events) == expected == 10
    stats = bus.sampler.stats()
    assert stats["seen"] == 40 and stats["kept"] == 10


def test_sampled_out_counts_every_drop_mid_run_and_after():
    # The skip path keeps no counter: sampled_out is derived from the
    # per-kind skip runs, so it must stay exact while a run is part
    # spent, after runs end, for rate 0 (a run that never ends) and for
    # rate 1 (no run at all), and next to budget drops.
    rates = {"dram": 0.25, "tlb.miss": 0.0, "tlb": 1.0, "*": 0.01}
    budgets = {"dram": 5}
    kinds = ["dram.hit", "tlb.miss", "tlb.hit", "walk.fetch"]
    bus = TraceBus()
    bus.enable()
    bus.set_sampling(rates=rates, budgets=budgets)
    reference = TraceSampler(rates=rates, budgets=budgets)
    admitted = 0
    for i in range(600):
        kind = kinds[i % 4]
        bus.emit(kind, "test", i=i)
        admitted += reference.admit(kind)
    # 150 of each kind: dram.hit keeps slots 0, 4, ... (38) but only 5
    # fit the budget; walk.fetch keeps 0 and 100 with 50 of a run left.
    expected = {"seen": 600, "kept": 157, "sampled_out": 410, "budget_dropped": 33}
    for stats in (bus.sampler.stats(), reference.stats()):
        assert {key: stats[key] for key in expected} == expected
    assert len(bus.events) == admitted == 157
    # 50 more of each: walk.fetch spends its run exactly, dram.hit meets
    # 12 more keep slots, all over budget.
    for i in range(200):
        bus.emit(kinds[i % 4], "test")
    stats = bus.sampler.stats()
    assert stats["kept"] == 157 + 50
    assert stats["budget_dropped"] == 33 + 12
    assert stats["sampled_out"] == 410 + 38 + 50 + 50
    assert stats["seen"] == 800


def test_set_sampling_clears_with_no_arguments():
    bus = TraceBus()
    assert bus.set_sampling(rates={"*": 0.5}) is bus.sampler
    assert bus.set_sampling() is None and bus.sampler is None
    bus.enable()
    bus.emit("dram.hit", "dram")
    assert len(bus.events) == 1


# ----------------------------------------------------------------------
# TelemetryEmitter


def _read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_emitter_heartbeat_is_rate_limited(tmp_path):
    ticks = iter([0.0, 0.3, 0.6, 1.5])
    emitter = TelemetryEmitter(str(tmp_path), heartbeat_interval=1.0,
                               clock=lambda: next(ticks))
    assert emitter.heartbeat("a") is True
    assert emitter.heartbeat("b") is False  # 0.3s later: suppressed
    assert emitter.heartbeat("c") is False
    assert emitter.heartbeat("d") is True  # past the interval
    lines = _read_lines(emitter.path)
    assert [line["phase"] for line in lines] == ["a", "d"]
    assert all(line["type"] == "heartbeat" for line in lines)


def test_emitter_task_done_writes_the_delta(tmp_path):
    emitter = TelemetryEmitter(str(tmp_path), clock=lambda: 5.0)
    hist = CycleHistogram()
    hist.observe(1200)
    emitter.task_done("0:tiny", seconds=1.25, flips=3, cycles=999,
                      latency=hist, group="tiny")
    (line,) = _read_lines(emitter.path)
    assert line["type"] == "task" and line["key"] == "0:tiny"
    assert line["group"] == "tiny" and line["ok"] is True
    assert line["flips"] == 3 and line["cycles"] == 999
    assert line["latency"]["count"] == 1


def test_emitter_empty_latency_histogram_becomes_null(tmp_path):
    emitter = TelemetryEmitter(str(tmp_path), clock=lambda: 5.0)
    emitter.task_done("k", seconds=0.1, latency=CycleHistogram())
    (line,) = _read_lines(emitter.path)
    assert line["latency"] is None


def test_activate_and_current_emitter(tmp_path):
    try:
        assert current_emitter() is None
        activate_emitters(str(tmp_path))
        emitter = current_emitter()
        assert emitter is not None and emitter.pid == os.getpid()
        assert current_emitter() is emitter  # cached per pid
    finally:
        deactivate_emitters()
    assert current_emitter() is None


# ----------------------------------------------------------------------
# SeriesBuckets


def test_series_buckets_width_doubles_instead_of_growing():
    series = SeriesBuckets(max_buckets=4, initial_width=1.0)
    for t in range(16):
        series.add(float(t), flips=1)
    snapshot = series.snapshot()
    assert series.width == 4.0  # doubled twice: t=15 must land in-bounds
    assert len(snapshot["buckets"]) <= 4
    assert sum(bucket["tasks"] for bucket in snapshot["buckets"]) == 16
    assert sum(bucket["flips"] for bucket in snapshot["buckets"]) == 16


def test_series_buckets_merge_latency_sketches():
    series = SeriesBuckets(max_buckets=2, initial_width=1.0)
    hist = CycleHistogram()
    hist.observe(1000)
    series.add(0.0, latency_state=hist.state_dict())
    series.add(3.0)  # forces a halve; the sketch must survive the merge
    buckets = series.snapshot()["buckets"]
    merged = [b for b in buckets if b["latency"]]
    assert merged and merged[0]["latency"]["count"] == 1


def test_series_buckets_reject_degenerate_capacity():
    with pytest.raises(ConfigError):
        SeriesBuckets(max_buckets=1)


# ----------------------------------------------------------------------
# TelemetryAggregator (over the committed fixture)


def test_aggregator_round_trips_the_committed_fixture():
    aggregator = TelemetryAggregator(FIXTURE, clock=lambda: 1010.0)
    assert aggregator.poll() > 0
    assert aggregator.poll() == 0  # nothing new on a second poll
    assert aggregator.meta["experiment"] == "table1"
    assert aggregator.tasks_total() == 8
    assert aggregator.tasks == 8
    assert aggregator.flips == 31
    assert aggregator.finished and aggregator.finished["completed"] is True
    assert sorted(aggregator.workers) == [1001, 1002]
    assert set(aggregator.groups) == {"t420", "x230", "t420-scaled", "tiny"}
    assert aggregator.worker_liveness() == {1001: "done", 1002: "done"}
    summary = aggregator.summary()
    assert summary["totals"]["tasks"] == 8
    assert summary["totals"]["latency_p50"] > 0
    assert summary["workers"]["1001"]["tasks"] == 4
    assert summary["buckets"], "time series must not be empty"


def test_aggregator_requires_a_spool_directory(tmp_path):
    with pytest.raises(ConfigError, match="no telemetry spool"):
        TelemetryAggregator(str(tmp_path / "missing"))


def test_aggregator_retries_torn_trailing_lines(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    run_path = spool / "run.jsonl"
    run_path.write_text(
        json.dumps({"type": "run-begin", "experiment": "x", "tasks": 2,
                    "jobs": 1, "t": 0.0}) + "\n"
    )
    worker = spool / "worker-7.jsonl"
    full = json.dumps({"type": "task", "t": 1.0, "pid": 7, "key": "0:a",
                       "ok": True, "seconds": 0.5, "flips": 2, "cycles": 10})
    torn = json.dumps({"type": "task", "t": 2.0, "pid": 7, "key": "1:a",
                       "ok": True, "seconds": 0.5, "flips": 1, "cycles": 10})
    worker.write_text(full + "\n" + torn[: len(torn) // 2])  # killed mid-write
    aggregator = TelemetryAggregator(str(spool), clock=lambda: 3.0)
    aggregator.poll()
    assert aggregator.tasks == 1  # the torn line is not consumed ...
    worker.write_text(full + "\n" + torn + "\n")  # ... the writer finishes it
    aggregator.poll()
    assert aggregator.tasks == 2 and aggregator.flips == 3


def test_aggregator_rereads_only_spool_files_that_grew(tmp_path, monkeypatch):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "run.jsonl").write_text(
        json.dumps({"type": "run-begin", "experiment": "x", "tasks": 5,
                    "jobs": 1, "t": 0.0}) + "\n"
    )

    def task_line(pid, key):
        return json.dumps({"type": "task", "t": 1.0, "pid": pid, "key": key,
                           "ok": True, "seconds": 0.5, "flips": 1,
                           "cycles": 10}) + "\n"

    for pid in range(1, 6):
        (spool / ("worker-%d.jsonl" % pid)).write_text(task_line(pid, "a"))
    aggregator = TelemetryAggregator(str(spool), clock=lambda: 2.0)
    assert aggregator.poll() == 6

    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(stream, "open", counting_open, raising=False)
    assert aggregator.poll() == 0
    assert opened == []
    with real_open(spool / "worker-3.jsonl", "a", encoding="utf-8") as handle:
        handle.write(task_line(3, "b"))
    assert aggregator.poll() == 1
    assert opened == ["worker-3.jsonl"]
    assert aggregator.tasks == 6


def test_aggregator_skips_damaged_lines(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "run.jsonl").write_text("{not json}\n")
    (spool / "worker-9.jsonl").write_text(
        "also not json\n"
        + json.dumps({"type": "task", "t": 1.0, "pid": 9, "key": "0:a",
                      "ok": True, "seconds": 0.5, "flips": 1, "cycles": 1})
        + "\n"
    )
    aggregator = TelemetryAggregator(str(spool), clock=lambda: 2.0)
    aggregator.poll()
    assert aggregator.tasks == 1


def test_worker_liveness_from_heartbeat_recency(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "run.jsonl").write_text(
        json.dumps({"type": "run-begin", "experiment": "x", "tasks": 4,
                    "jobs": 2, "t": 0.0}) + "\n"
    )
    (spool / "worker-1.jsonl").write_text(
        json.dumps({"type": "heartbeat", "t": 9.5, "pid": 1, "phase": "a"}) + "\n"
    )
    (spool / "worker-2.jsonl").write_text(
        json.dumps({"type": "heartbeat", "t": 1.0, "pid": 2, "phase": "b"}) + "\n"
    )
    aggregator = TelemetryAggregator(str(spool), clock=lambda: 10.0)
    aggregator.poll()
    assert aggregator.worker_liveness(interval=1.0) == {1: "alive", 2: "silent"}
    assert aggregator.eta_seconds() is None  # no finished tasks: no rate yet


# ----------------------------------------------------------------------
# discovery and spool-root resolution


def test_discover_spool_prefers_the_newest_run(tmp_path):
    root = tmp_path / "telemetry"
    for name in ("20260101T000000-aa-t1", "20260201T000000-bb-t1"):
        spool = root / name
        spool.mkdir(parents=True)
        (spool / "run.jsonl").write_text("{}\n")
    (root / "20260301T000000-cc-t1").mkdir()  # no run.jsonl: not a spool
    assert discover_spool(str(root)).endswith("20260201T000000-bb-t1")
    assert discover_spool(str(tmp_path / "nowhere")) is None


def test_default_spool_root_follows_the_ledger(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "state" / "runs"))
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    assert default_spool_root() == str(tmp_path / "state" / "telemetry")
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "elsewhere"))
    assert default_spool_root() == str(tmp_path / "elsewhere")


# ----------------------------------------------------------------------
# TelemetrySession + the engine


def _toy_spec(count=6):
    return ExperimentSpec(
        name="toy-telemetry",
        title="toy",
        build_tasks=lambda options: [
            Task(key="%d:m%d" % (i, i % 2),
                 payload={"index": i, "machine": "m%d" % (i % 2)})
            for i in range(count)
        ],
        run_task=lambda task, options: task.payload["index"],
        reduce=lambda data, options: sum(data),
    )


def test_session_lifecycle(tmp_path):
    session = TelemetrySession(root=str(tmp_path / "telemetry"), clock=lambda: 1.0)
    spool = session.begin("toy", total=4, jobs=2)
    try:
        assert os.path.isfile(os.path.join(spool, "run.jsonl"))
        assert current_emitter() is not None  # armed for (future) workers
        with pytest.raises(ConfigError, match="already began"):
            session.begin("toy", total=4)
    finally:
        summary = session.finish(completed=True)
    assert current_emitter() is None  # finish disarms this process
    assert summary["experiment"] == "toy" and summary["jobs"] == 2
    assert session.finish() is None  # idempotent once sealed


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_streams_telemetry_through_workers(tmp_path, jobs):
    session = TelemetrySession(root=str(tmp_path / "telemetry"))
    run = run_experiment(_toy_spec(), jobs=jobs, telemetry=session)
    assert run.result == 15
    telemetry = run.telemetry
    assert telemetry["totals"]["tasks"] == 6
    assert telemetry["tasks_total"] == 6
    assert telemetry["jobs"] == jobs
    assert telemetry["groups"]["m0"]["tasks"] == 3
    assert telemetry["groups"]["m1"]["tasks"] == 3
    assert sum(w["tasks"] for w in telemetry["workers"].values()) == 6
    assert telemetry["totals"]["throughput_mean"] > 0


def test_engine_telemetry_true_uses_the_default_root(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "telemetry"))
    run = run_experiment(_toy_spec(), telemetry=True)
    assert run.telemetry["totals"]["tasks"] == 6
    assert discover_spool(str(tmp_path / "telemetry")) is not None


def test_engine_off_by_default_and_telemetry_lands_in_ledger(tmp_path):
    assert run_experiment(_toy_spec()).telemetry is None

    ledger = RunLedger(str(tmp_path / "runs"))
    session = TelemetrySession(root=str(tmp_path / "telemetry"))
    run = run_experiment(_toy_spec(), jobs=2, telemetry=session, ledger=ledger)
    record = ledger.load(run.run_id)
    assert record.extra["telemetry"]["totals"]["tasks"] == 6
    flat = record.comparable_metrics()
    assert flat["telemetry.throughput_mean"] > 0
    assert flat["telemetry.group.m0.flips"] == 0


def test_engine_disarms_emitters_when_a_task_raises(tmp_path):
    spec = _toy_spec()
    spec = ExperimentSpec(
        name=spec.name, title=spec.title, build_tasks=spec.build_tasks,
        run_task=lambda task, options: 1 // 0,
        reduce=spec.reduce,
    )
    session = TelemetrySession(root=str(tmp_path / "telemetry"))
    with pytest.raises(ZeroDivisionError):
        run_experiment(spec, telemetry=session)
    assert current_emitter() is None
