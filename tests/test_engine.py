"""The experiment engine: specs, seeds, checkpoints, registry."""

import json
import os

import pytest

from repro.analysis.engine import (
    ExperimentSpec,
    Task,
    derive_seed,
    get_experiment,
    experiment_names,
    load_checkpoint,
    register_experiment,
    run_experiment,
)
from repro.errors import ConfigError


def _spec(name="toy", run=None, tasks=None, reduce=None, **kwargs):
    return ExperimentSpec(
        name=name,
        title="toy experiment",
        build_tasks=tasks or (lambda options: [Task(key=str(i), payload=i) for i in range(4)]),
        run_task=run or (lambda task, options: task.payload * options.get("scale", 10)),
        reduce=reduce or (lambda data, options: sum(data)),
        **kwargs,
    )


# ----------------------------------------------------------------------
# seeds


def test_derive_seed_is_stable_and_distinct():
    # Golden values: stable across processes/platforms, unlike hash().
    assert derive_seed(0, "figure3", "0:tiny-test") == derive_seed(0, "figure3", "0:tiny-test")
    seeds = {derive_seed(0, "figure3", key) for key in ("a", "b", "c", "d")}
    assert len(seeds) == 4
    assert derive_seed(1, "figure3", "a") != derive_seed(0, "figure3", "a")
    assert 0 <= derive_seed(0, "x", bits=8) < 256


def test_tasks_get_engine_seeds_unless_preset():
    captured = {}

    def run(task, options):
        captured[task.key] = task.seed
        return 0

    spec = _spec(
        run=run,
        tasks=lambda options: [Task(key="a"), Task(key="b", seed=77)],
    )
    run_experiment(spec)
    assert captured["b"] == 77
    assert captured["a"] == derive_seed(0, "toy", "a")


# ----------------------------------------------------------------------
# task-list validation


def test_empty_task_list_is_an_error():
    with pytest.raises(ConfigError, match="empty task list"):
        run_experiment(_spec(tasks=lambda options: []))


def test_duplicate_task_keys_are_an_error():
    with pytest.raises(ConfigError, match="duplicate task key"):
        run_experiment(_spec(tasks=lambda options: [Task(key="x"), Task(key="x")]))


def test_non_json_task_data_is_an_error():
    with pytest.raises(ConfigError, match="non-JSON-serialisable"):
        run_experiment(_spec(run=lambda task, options: object()))


def test_data_is_json_canonicalised():
    # int dict keys become str — with or without a checkpoint — so
    # resumed and fresh runs can never diverge on representation.
    spec = _spec(
        tasks=lambda options: [Task(key="only")],
        run=lambda task, options: {1: "a"},
        reduce=lambda data, options: data[0],
    )
    assert run_experiment(spec).result == {"1": "a"}


# ----------------------------------------------------------------------
# registry


def test_registry_lookup_and_errors():
    assert "figure3" in experiment_names()
    assert get_experiment("figure3").name == "figure3"
    with pytest.raises(ConfigError, match="unknown experiment"):
        get_experiment("figure99")
    with pytest.raises(ConfigError, match="already registered"):
        register_experiment(_spec(name="figure3"))


def test_every_registered_spec_declares_smoke_argv():
    # The CLI smoke suite iterates the registry; a spec without tiny
    # smoke arguments would silently escape it.
    for name in experiment_names():
        assert get_experiment(name).smoke_argv, name


def test_options_merge_over_defaults():
    spec = _spec(defaults={"scale": 2})
    assert run_experiment(spec).result == (0 + 1 + 2 + 3) * 2
    assert run_experiment(spec, {"scale": 100}).result == 600


# ----------------------------------------------------------------------
# outcome bookkeeping


def test_run_outcome_bookkeeping():
    outcome = run_experiment(_spec())
    assert outcome.completed
    assert outcome.result == 60
    assert outcome.tasks_total == 4 and outcome.tasks_run == 4
    assert outcome.tasks_resumed == 0 and outcome.jobs == 1
    assert [o.key for o in outcome.outcomes] == ["0", "1", "2", "3"]
    assert "complete" in outcome.summary()


def test_reduce_sees_task_order_not_completion_order():
    spec = _spec(reduce=lambda data, options: list(data))
    assert run_experiment(spec, jobs=3).result == [0, 10, 20, 30]


def test_max_tasks_gives_partial_run():
    outcome = run_experiment(_spec(), max_tasks=2)
    assert not outcome.completed
    assert outcome.result is None
    assert len(outcome.outcomes) == 2


def test_parallel_jobs_match_serial():
    serial = run_experiment(_spec())
    parallel = run_experiment(_spec(), jobs=4)
    assert parallel.result == serial.result
    assert parallel.jobs in (1, 4)  # 1 only where fork is unavailable


# ----------------------------------------------------------------------
# checkpoints


def test_checkpoint_write_and_load(tmp_path):
    path = str(tmp_path / "toy.jsonl")
    run_experiment(_spec(), checkpoint=path)
    header, records = load_checkpoint(path)
    assert header["experiment"] == "toy"
    assert header["tasks"] == 4 and header["v"] == 1
    assert set(records) == {"0", "1", "2", "3"}
    assert records["3"]["data"] == 30


def test_resume_skips_recorded_tasks(tmp_path):
    path = str(tmp_path / "toy.jsonl")
    calls = []

    def run(task, options):
        calls.append(task.key)
        return int(task.key)

    spec = _spec(run=run, reduce=lambda data, options: data)
    partial = run_experiment(spec, checkpoint=path, max_tasks=2)
    assert not partial.completed and calls == ["0", "1"]
    resumed = run_experiment(spec, checkpoint=path, resume=True)
    assert resumed.completed
    assert calls == ["0", "1", "2", "3"]  # no recomputation
    assert resumed.tasks_resumed == 2
    assert resumed.result == [0, 1, 2, 3]


def test_resume_tolerates_torn_trailing_line(tmp_path):
    path = str(tmp_path / "toy.jsonl")
    run_experiment(_spec(), checkpoint=path, max_tasks=3)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "task-done", "key": "3", "da')  # killed mid-write
    resumed = run_experiment(_spec(), checkpoint=path, resume=True)
    assert resumed.completed and resumed.tasks_resumed == 3


def test_corrupt_non_trailing_line_is_an_error_naming_the_line(tmp_path):
    path = str(tmp_path / "toy.jsonl")
    run_experiment(_spec(), checkpoint=path, max_tasks=3)
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[2] = '{"type": "task-done", "key": "1", "da'  # damaged mid-file
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"line 3 is corrupt") as excinfo:
        load_checkpoint(path)
    assert path in str(excinfo.value)
    # The same error must surface through a resume attempt.
    with pytest.raises(ConfigError, match="corrupt"):
        run_experiment(_spec(), checkpoint=path, resume=True)


def test_resume_reruns_a_task_line_without_a_string_key(tmp_path):
    path = str(tmp_path / "toy.jsonl")
    run_experiment(_spec(), checkpoint=path, max_tasks=2)
    with open(path, "a", encoding="utf-8") as handle:
        for key in ([2], None):
            entry = {"type": "task-done", "v": 1, "key": key, "data": 20}
            handle.write(json.dumps(entry) + "\n")
    resumed = run_experiment(_spec(), checkpoint=path, resume=True)
    assert resumed.completed and resumed.tasks_resumed == 2
    assert resumed.result == 60


def test_resume_rejects_wrong_experiment(tmp_path):
    path = str(tmp_path / "toy.jsonl")
    run_experiment(_spec(), checkpoint=path)
    other = _spec(name="other")
    with pytest.raises(ConfigError, match="belongs to experiment"):
        run_experiment(other, checkpoint=path, resume=True)


def test_resume_rejects_changed_task_list(tmp_path):
    path = str(tmp_path / "toy.jsonl")
    run_experiment(_spec(), checkpoint=path)
    grown = _spec(tasks=lambda options: [Task(key=str(i)) for i in range(5)])
    with pytest.raises(ConfigError, match="different task list"):
        run_experiment(grown, checkpoint=path, resume=True)


def test_load_checkpoint_requires_header(tmp_path):
    path = str(tmp_path / "toy.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"type": "task-done", "key": "0", "data": 1, "v": 1}) + "\n"
        )
    with pytest.raises(ConfigError, match="no header"):
        load_checkpoint(path)


def test_resume_without_existing_file_runs_fresh(tmp_path):
    path = str(tmp_path / "fresh.jsonl")
    outcome = run_experiment(_spec(), checkpoint=path, resume=True)
    assert outcome.completed and outcome.tasks_resumed == 0
    assert os.path.exists(path)


# ----------------------------------------------------------------------
# metrics aggregation


def test_machine_metrics_flow_into_run_outcome():
    from repro.analysis.experiments import ExperimentContext
    from repro.machine.configs import tiny_test_config
    from repro.machine.perf import LOADS

    def run(task, options):
        context = ExperimentContext(tiny_test_config(seed=task.seed % 100))
        context.attacker.read(context.attacker.mmap(1, populate=True))
        return task.key

    spec = _spec(
        tasks=lambda options: [Task(key="a"), Task(key="b")],
        run=run,
        reduce=lambda data, options: data,
    )
    outcome = run_experiment(spec)
    for task_outcome in outcome.outcomes:
        assert task_outcome.metrics is not None
        assert task_outcome.metrics["counters"].get(LOADS, 0) >= 1
    # The run-level registry is the merge of both tasks' snapshots.
    per_task = sum(o.metrics["counters"][LOADS] for o in outcome.outcomes)
    assert outcome.metrics.read(LOADS) == per_task
