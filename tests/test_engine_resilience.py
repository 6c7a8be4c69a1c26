"""Engine self-healing: in-place retries, timeouts, resume interplay."""

import json
import multiprocessing
import time

import pytest

from repro.analysis.engine import ExperimentSpec, Task, run_experiment
from repro.errors import TransientFault, WorkerDied


def _spec(run_task, keys=("a", "b", "c"), defaults=None):
    return ExperimentSpec(
        name="resilience-probe",
        title="resilience probe",
        build_tasks=lambda options: [Task(key=key) for key in keys],
        run_task=run_task,
        reduce=lambda data, options: data,
        defaults=defaults or {},
    )


def test_retryable_fault_is_retried_in_place():
    attempts = {}

    def flaky(task, options):
        attempts[task.key] = attempts.get(task.key, 0) + 1
        if task.key == "b" and attempts[task.key] < 3:
            raise TransientFault(0x1000)
        return task.key

    outcome = run_experiment(_spec(flaky), retries=3, retry_backoff=0.001)
    assert outcome.completed
    assert outcome.result == ["a", "b", "c"]
    assert attempts == {"a": 1, "b": 3, "c": 1}
    by_key = {o.key: o.retries for o in outcome.outcomes}
    assert by_key == {"a": 0, "b": 2, "c": 0}


def test_retries_exhaust_and_error_carries_the_count():
    def doomed(task, options):
        if task.key == "b":
            raise TransientFault(0x2000)
        return task.key

    outcome = run_experiment(
        _spec(doomed), retries=2, retry_backoff=0.001, keep_going=True
    )
    assert not outcome.completed
    assert outcome.failures == 1
    failed = next(o for o in outcome.outcomes if o.key == "b")
    assert failed.error is not None and "TransientFault" in failed.error
    assert failed.retries == 2


def test_non_retryable_errors_are_not_retried():
    attempts = []

    def bad(task, options):
        if task.key == "b":
            attempts.append(task.key)
            raise ValueError("permanent")
        return task.key

    with pytest.raises(ValueError):
        run_experiment(_spec(bad), retries=5, retry_backoff=0.001)
    assert attempts == ["b"]


def test_keep_going_failures_are_retried_by_resume(tmp_path):
    checkpoint = tmp_path / "run.jsonl"
    healed = {"healed": False}
    executed = []

    def sometimes(task, options):
        executed.append(task.key)
        if task.key == "b" and not healed["healed"]:
            raise ValueError("permanent")
        return task.key

    first = run_experiment(
        _spec(sometimes), checkpoint=str(checkpoint), keep_going=True
    )
    assert not first.completed and first.failures == 1
    # Failed tasks are not checkpointed, so --resume retries exactly them.
    records = [
        json.loads(line)
        for line in checkpoint.read_text().splitlines()
        if json.loads(line).get("type") == "task-done"
    ]
    assert sorted(record["key"] for record in records) == ["a", "c"]
    healed["healed"] = True
    executed.clear()
    second = run_experiment(
        _spec(sometimes), checkpoint=str(checkpoint), resume=True
    )
    assert second.completed
    assert executed == ["b"]
    assert second.tasks_resumed == 2
    assert second.result == ["a", "b", "c"]


def test_retry_counts_survive_checkpoint_roundtrip(tmp_path):
    checkpoint = tmp_path / "run.jsonl"
    attempts = {}

    def flaky(task, options):
        attempts[task.key] = attempts.get(task.key, 0) + 1
        if task.key == "c" and attempts[task.key] < 2:
            raise TransientFault(0x3000)
        return task.key

    run_experiment(
        _spec(flaky), checkpoint=str(checkpoint), retries=2, retry_backoff=0.001
    )
    resumed = run_experiment(_spec(flaky), checkpoint=str(checkpoint), resume=True)
    assert resumed.completed and resumed.tasks_resumed == 3
    by_key = {o.key: o.retries for o in resumed.outcomes}
    assert by_key["c"] == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_task_timeout_kills_a_task_stuck_in_one_c_call(jobs, tmp_path):
    # A task inside one long C call never returns to the interpreter,
    # so nothing in its own process can stop it on time; the worker
    # pool kills its worker at the deadline, at any jobs.
    def stuck(task, options):
        if task.key == "b":
            sum(range(3 * 10**8))  # one C call of several seconds
        return task.key

    checkpoint = tmp_path / "run.jsonl"
    started = time.time()
    outcome = run_experiment(
        _spec(stuck), jobs=jobs, task_timeout=0.5, keep_going=True,
        checkpoint=str(checkpoint), telemetry=str(tmp_path / "telemetry"),
    )
    assert time.time() - started < 5.0
    failed = next(o for o in outcome.outcomes if o.key == "b")
    assert 0.5 <= failed.host_seconds < 2.0
    assert failed.error.startswith("WorkerDied: ")
    assert "0.5s task timeout" in failed.error
    assert not outcome.completed and outcome.failures == 1
    # Handled as any worker death: kept out of the checkpoint, and
    # written to the spool as the dead worker's failed task.
    records = [json.loads(line) for line in checkpoint.read_text().splitlines()]
    assert [r["key"] for r in records if r["type"] == "task-done"] == ["a", "c"]
    assert (outcome.telemetry["totals"]["tasks"],
            outcome.telemetry["totals"]["errors"]) == (3, 1)
    assert multiprocessing.active_children() == []

    started = time.time()
    with pytest.raises(WorkerDied, match="task timeout"):
        run_experiment(_spec(stuck), jobs=jobs, task_timeout=0.5)
    assert time.time() - started < 5.0


def test_retried_task_reports_only_the_successful_attempts_metrics():
    # A failed attempt boots machines and registers their metrics; the
    # engine must drop those captures so a retried task's snapshot is
    # identical to the same task succeeding on the first try.
    def build(flaky):
        attempts = {}

        def run_task(task, options):
            from repro.analysis.engine import observe_machine
            from repro.machine import AttackerView, Machine
            from repro.machine.configs import tiny_test_config

            attempts[task.key] = attempts.get(task.key, 0) + 1
            machine = Machine(tiny_test_config(seed=task.seed))
            observe_machine(machine)
            attacker = AttackerView(machine, machine.boot_process())
            base = attacker.mmap(2, populate=True)
            for index in range(300):
                attacker.touch(base + (index * 72) % (2 << 12))
            if flaky and task.key == "b" and attempts[task.key] < 3:
                raise TransientFault(0x4000)  # after the machine work
            return machine.cycles

        return run_task

    clean = run_experiment(_spec(build(False)), retries=3, retry_backoff=0.001)
    flaky = run_experiment(_spec(build(True)), retries=3, retry_backoff=0.001)
    assert clean.completed and flaky.completed
    assert flaky.result == clean.result
    assert {o.key: o.retries for o in flaky.outcomes}["b"] == 2
    clean_metrics = {o.key: o.metrics for o in clean.outcomes}
    flaky_metrics = {o.key: o.metrics for o in flaky.outcomes}
    assert flaky_metrics == clean_metrics
    assert flaky.metrics.snapshot_values() == clean.metrics.snapshot_values()


def test_task_retries_flag_is_an_alias_for_retries():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["figure3", "--task-retries", "5", "--task-timeout", "9.5"]
    )
    assert args.retries == 5
    assert args.task_timeout == 9.5


def test_chaos_runs_are_bit_identical_across_jobs():
    # Acceptance: the chaos layer keys every noise source off machine
    # seed + chaos seed, never worker identity, so pooled fan-out
    # reproduces the serial run exactly.
    def run_task(task, options):
        from repro.chaos import ChaosInjector, chaos_profile
        from repro.machine import AttackerView, Machine
        from repro.machine.configs import tiny_test_config

        machine = Machine(tiny_test_config(seed=task.seed))
        machine.attach_chaos(ChaosInjector(chaos_profile("desktop")))
        attacker = AttackerView(machine, machine.boot_process())
        base = attacker.mmap(4, populate=True)
        for index in range(1500):
            attacker.touch(base + (index * 104) % (4 << 12))
        counters = machine.metrics.counters()
        return {
            "cycles": machine.cycles,
            "chaos": {
                name: value
                for name, value in sorted(counters.items())
                if name.startswith("chaos.")
            },
        }

    spec = _spec(run_task, keys=("t0", "t1", "t2", "t3"))
    serial = run_experiment(spec, jobs=1)
    pooled = run_experiment(spec, jobs=2)
    assert serial.completed and pooled.completed
    assert serial.result == pooled.result
    assert any(any(d["chaos"].values()) for d in serial.result)


# A worker that dies mid-task must fail that task at once.  The script
# runs in a subprocess under a timeout: an executor that never notices
# the death hangs its parent instead of failing.
_WORKER_DEATH_SCRIPT = r"""
import json, os, signal, sys, time

from repro.analysis.engine import ExperimentSpec, Task, run_experiment
from repro.errors import ReproError

checkpoint, healed = sys.argv[1], sys.argv[2]

def run_task(task, options):
    if task.key == "b" and not os.path.exists(healed):
        os.kill(os.getpid(), signal.SIGKILL)
    return task.key

spec = ExperimentSpec(
    name="worker-death",
    title="worker death",
    build_tasks=lambda options: [Task(key=key) for key in "abcd"],
    run_task=run_task,
    reduce=lambda data, options: data,
)
report = {}
started = time.time()
run = run_experiment(spec, jobs=2, keep_going=True, checkpoint=checkpoint)
report["seconds"] = time.time() - started
report["errors"] = {o.key: o.error for o in run.outcomes if o.error}
report["done"] = sorted(o.key for o in run.outcomes if o.error is None)
try:
    run_experiment(spec, jobs=2)
except ReproError as exc:
    report["raised"] = "%s: %s" % (type(exc).__name__, exc)
open(healed, "w").close()
resumed = run_experiment(spec, jobs=2, checkpoint=checkpoint, resume=True)
report["rerun"] = [o.key for o in resumed.outcomes if not o.resumed]
report["result"] = resumed.result
print(json.dumps(report))
"""


def test_worker_death_fails_its_task_at_once(tmp_path):
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    completed = subprocess.run(
        [sys.executable, "-c", _WORKER_DEATH_SCRIPT,
         str(tmp_path / "run.jsonl"), str(tmp_path / "healed")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["seconds"] < 10
    assert list(report["errors"]) == ["b"]
    assert "WorkerDied" in report["errors"]["b"]
    assert "signal 9 (SIGKILL)" in report["errors"]["b"]
    assert report["done"] == ["a", "c", "d"]
    assert "WorkerDied" in report["raised"] and "'b'" in report["raised"]
    # The checkpoint left the dead task out, so --resume reran exactly it.
    assert report["rerun"] == ["b"]
    assert report["result"] == ["a", "b", "c", "d"]


# The same death with telemetry on: the parent writes the dead worker's
# failed task line, which the worker itself never could.
_DEATH_TELEMETRY_SCRIPT = r"""
import json, os, signal, sys

from repro.analysis.engine import ExperimentSpec, Task, run_experiment
from repro.observe.stream import TelemetryAggregator

root = sys.argv[1]

def run_task(task, options):
    if task.key == "b":
        os.kill(os.getpid(), signal.SIGKILL)
    return task.key

spec = ExperimentSpec(
    name="death-telemetry",
    title="death telemetry",
    build_tasks=lambda options: [Task(key=key) for key in "abcd"],
    run_task=run_task,
    reduce=lambda data, options: data,
)
run = run_experiment(spec, jobs=2, keep_going=True, telemetry=root)
(spool,) = os.listdir(root)
aggregator = TelemetryAggregator(os.path.join(root, spool))
aggregator.poll()
print(json.dumps({
    "failures": run.failures,
    "totals": run.telemetry["totals"],
    "liveness": sorted(aggregator.worker_liveness().values()),
}))
"""


def test_worker_death_reaches_the_telemetry_spool(tmp_path):
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    completed = subprocess.run(
        [sys.executable, "-c", _DEATH_TELEMETRY_SCRIPT, str(tmp_path / "telemetry")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["failures"] == 1
    assert (report["totals"]["tasks"], report["totals"]["errors"]) == (4, 1)
    # The dead worker stays dead in `repro dash`; the others finished.
    assert report["liveness"].count("dead") == 1
    assert set(report["liveness"]) == {"dead", "done"}


# The same death without keep_going aborts the run; its spool must
# still end with a run-end line, or `repro dash` shows it running.
_DEATH_ABORT_SCRIPT = r"""
import json, os, signal, sys

from repro.analysis.engine import ExperimentSpec, Task, run_experiment
from repro.errors import WorkerDied
from repro.observe.stream import TelemetryAggregator

root = sys.argv[1]

def run_task(task, options):
    if task.key == "b":
        os.kill(os.getpid(), signal.SIGKILL)
    return task.key

spec = ExperimentSpec(
    name="death-abort",
    title="death abort",
    build_tasks=lambda options: [Task(key=key) for key in "abcd"],
    run_task=run_task,
    reduce=lambda data, options: data,
)
try:
    run_experiment(spec, jobs=2, telemetry=root)
    raised = None
except WorkerDied as exc:
    raised = type(exc).__name__
(spool,) = os.listdir(root)
aggregator = TelemetryAggregator(os.path.join(root, spool))
aggregator.poll()
print(json.dumps({
    "raised": raised,
    "run": [json.loads(line) for line in open(os.path.join(root, spool, "run.jsonl"))],
    "finished": aggregator.finished,
}))
"""


def test_aborted_run_still_ends_its_telemetry_spool(tmp_path):
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    completed = subprocess.run(
        [sys.executable, "-c", _DEATH_ABORT_SCRIPT, str(tmp_path / "telemetry")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["raised"] == "WorkerDied"
    assert report["run"][-1]["type"] == "run-end"
    assert report["run"][-1]["completed"] is False
    assert report["finished"] is not None
    assert report["finished"]["completed"] is False
