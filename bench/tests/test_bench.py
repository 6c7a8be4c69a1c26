"""Tests of the benchmark itself: declared metrics, determinism, tracer
boundaries, closure, hermeticity, and the A/B comparison.

Run from the repository root::

    python -m pytest bench/tests -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

from bench import ROOT, compare, run, workloads
from bench.hostspeed import HostSpeed
from bench.trace import (
    BOUNDARIES,
    INSTANCE_BOUNDARIES,
    LAYERS,
    PHASES,
    Tracer,
    resolve,
    summarize,
)

#: Reduced unit counts: attack pairs, tiny sweep machines, campaign
#: shards per cell.
SMALL = {"attack": 1, "noisy-attack": 1, "sweeps": 2, "campaign": 1}

#: The band a traced attack's closure must land in, and the most its
#: traced run may cost over the untraced one.
CLOSURE_BAND = (0.9, 1.1)
MAX_OVERHEAD = 1.5


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in config[section]}


def test_benchmark_json_lists_every_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    assert [entry["name"] for entry in config["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_workload_emits_declared_metrics(workload, trace, tmp_path):
    document = run.measure(
        workload, seed=1, seconds=0, trace=trace, tmp=str(tmp_path),
        units=SMALL[workload],
    )
    assert document["correct"], document["problems"]
    assert document["attempted"] >= (2 if trace else 1)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: metric["unit"] for name, metric in document["metrics"].items()} == declared
    if not trace:
        assert all(metric["value"] > 0 for metric in document["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_calls_give_equal_digests(workload, tmp_path):
    digests = []
    for attempt in range(2):
        scratch = tmp_path / str(attempt)
        scratch.mkdir()
        result = workloads.prepare(workload, 1, str(scratch), units=SMALL[workload])()
        assert result["problems"] == []
        digests.append(result["digest"])
    assert digests[0] == digests[1]


def test_every_boundary_resolves_to_an_existing_function():
    layers = set()
    for boundary, layer, phase in BOUNDARIES:
        owner, attribute, function = resolve(boundary)
        assert callable(function), boundary
        assert layer in LAYERS and (phase is None or phase in PHASES + ("task", "shard"))
        layers.add(layer)
    assert set(PHASES) <= {phase for _, _, phase in BOUNDARIES}
    from repro.machine import Machine
    from repro.machine.configs import tiny_test_config

    machine = Machine(tiny_test_config())
    for component, method, layer in INSTANCE_BOUNDARIES:
        assert callable(getattr(getattr(machine, component), method))
        layers.add(layer)
    assert layers == set(LAYERS) - {"driver"}


def test_tracing_leaves_the_simulation_unchanged(tmp_path):
    plain = workloads.prepare("attack", 1, str(tmp_path), units=1)()
    tracer = Tracer(str(tmp_path)).install().calibrate()
    try:
        traced = workloads.prepare("attack", 1, str(tmp_path), units=1)()
    finally:
        tracer.uninstall()
    assert traced["digest"] == plain["digest"]
    assert resolve("repro.machine.machine:Machine.access")[2].__name__ == "access"
    assert not hasattr(resolve("repro.machine.machine:Machine.access")[2], "__wrapped__")


def _timed_attack(tmp, sampler, tracer=None):
    """Reference seconds of one full attack, and the span summary (in
    reference seconds too) if traced."""
    attack = workloads.prepare("attack", 1, tmp)
    if tracer is not None:
        tracer.reset()
    sampler.lap()
    started = time.perf_counter()
    attack()
    seconds = time.perf_counter() - started
    speed = sampler.lap()
    if tracer is None:
        return seconds * speed, None
    return seconds * speed, summarize(tracer.collect(seconds))["total"] * speed


def test_traced_attack_closure_and_overhead_stay_within_bounds(tmp_path):
    """Compensated self time accounts for the untraced time, and tracing
    costs at most half as much again.

    Untraced and traced runs of the same attack alternate in this
    process, timed in reference seconds so that host-speed swings hit
    neither side; the median of three pairs is judged.
    """
    closures = []
    overheads = []
    sampler = HostSpeed().start()
    try:
        for round_number in range(3):
            seconds = {}
            for traced in (False, True) if round_number % 2 == 0 else (True, False):
                if not traced:
                    seconds[traced], _ = _timed_attack(str(tmp_path), sampler)
                    continue
                tracer = Tracer(str(tmp_path)).install().calibrate()
                try:
                    seconds[traced], total = _timed_attack(str(tmp_path), sampler, tracer)
                finally:
                    tracer.uninstall()
                assert tracer.calls() > 0
            closures.append(total / seconds[False])
            overheads.append(seconds[True] / seconds[False])
    finally:
        sampler.stop()
    low, high = CLOSURE_BAND
    assert low <= statistics.median(closures) <= high, closures
    assert statistics.median(overheads) <= MAX_OVERHEAD, overheads


def test_host_speed_samples_every_forked_worker():
    """More concurrent workers than cores each sample into their own
    slot: a shared slot would show as one empty slot."""
    import multiprocessing

    def busy():
        deadline = time.monotonic() + 0.4
        while time.monotonic() < deadline:
            pass

    sampler = HostSpeed().start()
    try:
        context = multiprocessing.get_context("fork")
        workers = [context.Process(target=busy) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive() and worker.exitcode == 0
        samples = [sampler.slot_samples(slot) for slot in range(1, 5)]
        speed = sampler.lap()
    finally:
        sampler.stop()
    assert min(samples) >= 5, samples
    assert 0.05 < speed < 20


def _tree(root):
    entries = set()
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}
    for directory, names, files in os.walk(root):
        names[:] = [name for name in names if name not in skip]
        relative = os.path.relpath(directory, root)
        entries.add((relative, "dir"))
        for name in files:
            stat = os.stat(os.path.join(directory, name))
            entries.add((os.path.join(relative, name), stat.st_size, stat.st_mtime_ns))
    return entries


def test_run_leaves_the_repository_unchanged(capsys):
    before = _tree(ROOT)
    assert run.main(["--workload", "campaign", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert _tree(ROOT) == before


def test_run_without_source_tree_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"),
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "attack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def _document(values, tier="fast", seed=1):
    q1, median, q3 = run.quartiles(values)
    return {
        "bench_version": 1, "seed": seed, "tier": [tier], "trace": 0,
        "workloads": {"attack": {"metrics": {"wall_s": {
            "value": median, "q1": q1, "q3": q3, "n": len(values), "values": values,
            "unit": "s",
        }}}},
    }


def test_spread_of_a_median_shrinks_with_repetitions():
    metric = {"value": 10.0, "q1": 9.0, "q3": 11.0}
    assert compare.spread(dict(metric, n=4)) == pytest.approx(0.2 * 1.2533 / 2)
    assert compare.spread(dict(metric, n=16)) == pytest.approx(0.2 * 1.2533 / 4)


@pytest.mark.parametrize(
    "after, verdict",
    [
        ([10.0, 10.1, 10.2, 10.1], "unchanged"),
        ([12.0, 12.1, 12.2, 12.1], "regressed"),
        ([8.0, 8.1, 8.2, 8.1], "improved"),
        ([6.0, 10.0, 14.0, 10.0], "unresolved"),
    ],
)
def test_compare_verdicts(after, verdict):
    config = {"end_to_end": [{"name": "wall_s", "bound": 0.1, "better": "lower"}]}
    rows = compare.compare(_document([10.0, 10.1, 10.0, 10.1]), _document(after), config)
    assert [row[5] for row in rows] == [verdict]


def test_compare_refuses_different_tiers():
    config = {"end_to_end": [{"name": "wall_s", "bound": 0.1, "better": "lower"}]}
    with pytest.raises(ValueError):
        compare.compare(_document([1.0]), _document([1.0], tier="columnar"), config)


def test_compare_refuses_traced_or_disjoint_documents():
    config = {"end_to_end": [{"name": "wall_s", "bound": 0.1, "better": "lower"}]}
    traced = dict(_document([1.0]), trace=1)
    with pytest.raises(ValueError):
        compare.compare(traced, traced, config)
    other = {"end_to_end": [{"name": "setup_s", "bound": 0.25, "better": "lower"}]}
    with pytest.raises(ValueError):
        compare.compare(_document([1.0]), _document([1.0]), other)
