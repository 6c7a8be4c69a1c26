"""Command line and parent process of the benchmark.

Usage (from the repository root)::

    python -m bench --workload attack --seed 1 --seconds 30 --trace 0
    python -m bench --seed 1                # every workload in turn
    python -m bench --seed 1 --trace        # per-layer metrics
    python -m bench --seed 1 --out a.json   # full result document

For ``--seconds`` the parent spawns one fresh ``python -m bench.unit``
process per repetition, one at a time, and starts another only while
it expects it to finish in time (at least one always runs).  A traced
run spawns untraced and traced repetitions of the same input in pairs.
Set-up time is also sampled by set-up-only spawns, after one discarded
warm-up spawn that absorbs bytecode compilation.

Every time metric is in reference seconds: the host seconds a
repetition measured, times the mean host speed its processes sampled
meanwhile (:mod:`bench.hostspeed`).  The host seconds and speeds are
kept beside them in the ``--out`` document and the table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable table with quartiles and sample counts.  The
exit code is 0 when every repetition was correct, 1 when one was not,
and 2 when the repository's ``src/repro`` tree is missing.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from bench import BENCH_VERSION, ROOT
from bench.trace import LAYERS, PHASES, WRAPPED_LAYERS
from bench.workloads import JOBS, ORCHESTRATION, SIMULATED, WORKLOADS

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_loads_per_s": "1/s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = dict(SIMULATED)
PER_LAYER.update(("phase.%s_share" % phase, "share") for phase in PHASES)
for _layer in LAYERS:
    PER_LAYER["%s.self_share" % _layer] = "share"
    if _layer in WRAPPED_LAYERS:
        PER_LAYER["%s.calls" % _layer] = "count"
PER_LAYER.update(
    {"tasks.busy_share": "share", "tasks.p50_s": "s", "tasks.p95_s": "s"}
)
PER_LAYER.update(ORCHESTRATION)
PER_LAYER.update({"trace.overhead": "ratio", "trace.closure": "ratio"})

#: Set-up samples per run (repetitions count; set-up-only spawns top up).
SETUP_SAMPLES = 11

#: Host seconds one workload may take, and one invocation in all (shared
#: out among its workloads), so that a run of one workload ends within
#: three minutes and a run of all four within five, even when a
#: repetition hangs.
BUDGET_SECONDS = 170.0
TOTAL_BUDGET_SECONDS = 280.0

EXPECTED_PATH = os.path.join(ROOT, "bench", "expected.json")

#: Scratch space for checkpoints, spools and campaign state.  It lives
#: in the checkout (the benchmark writes nowhere else), one directory per
#: invocation, named after its process id and removed when it ends.
SCRATCH = os.path.join(ROOT, ".bench_tmp")


def benchmark_config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def nearest_rank(values, share):
    """The nearest-rank percentile: the smallest value with at least
    ``share`` of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _scratch_dir():
    """A fresh directory under :data:`SCRATCH` for this invocation.

    Directories left by invocations that were killed before they could
    clean up (their process is gone) are removed first.
    """
    os.makedirs(SCRATCH, exist_ok=True)
    for name in os.listdir(SCRATCH):
        owner = name.split("-")[0]
        if owner.isdigit() and not _alive(int(owner)):
            shutil.rmtree(os.path.join(SCRATCH, name), ignore_errors=True)
    return tempfile.mkdtemp(prefix="%d-" % os.getpid(), dir=SCRATCH)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # someone else's process
    return True


def _child_env(tmp):
    env = dict(os.environ)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [source] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The default engine tier, whatever the caller's shell selects.
    env.pop("REPRO_FAST_PATH", None)
    # Hermetic: anything that would record or spool lands in scratch.
    env["TMPDIR"] = tmp
    env["REPRO_LEDGER_DIR"] = os.path.join(tmp, "ledger")
    env["REPRO_CAMPAIGNS_DIR"] = os.path.join(tmp, "campaigns")
    return env


class Runner:
    """Spawns repetitions of one workload and folds their results."""

    def __init__(self, workload, seed, seconds, trace, tmp, units=None,
                 budget=BUDGET_SECONDS):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.units = units
        self.spawns = 0
        self.deadline = time.monotonic() + budget

    def spawn(self, traced=False, setup_only=False):
        """Run one repetition to completion; returns its result dict."""
        self.spawns += 1
        scratch = os.path.join(self.tmp, "rep-%d" % self.spawns)
        os.makedirs(scratch)
        result_path = os.path.join(scratch, "result.json")
        command = [
            sys.executable, "-m", "bench.unit",
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--tmp", scratch,
            "--result", result_path,
        ]
        if self.units is not None:
            command += ["--units", str(self.units)]
        if traced:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        result = {"traced": traced, "problems": []}
        spawned = time.monotonic()
        # Child output goes to our stderr: stdout carries only results.
        process = subprocess.Popen(
            command, cwd=ROOT, env=_child_env(scratch), stdout=2,
            start_new_session=True,
        )
        try:
            process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            result["problems"].append("repetition timed out")
        finally:
            # Kill anything the repetition left behind (its process
            # group: pool and campaign workers), then reap.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        try:
            with open(result_path, encoding="utf-8") as handle:
                payload = json.load(handle)
            result["host_setup"] = payload.pop("started") - spawned
            result["setup"] = result["host_setup"] * payload["setup_speed"]
            payload["problems"] = result["problems"] + payload.get("problems", [])
            result.update(payload)
        except (OSError, ValueError, KeyError):
            result["problems"].append(
                "repetition exited %s without a result" % process.returncode
            )
        shutil.rmtree(scratch, ignore_errors=True)
        return result

    def run(self):
        """Repetitions for ``seconds``, then set-up samples.

        Returns ``(repetitions, set-up samples)``, both result dicts; in
        a traced run the repetitions alternate untraced and traced, pair
        by pair, and there are no set-up samples.
        """
        self.spawn(setup_only=True)  # warm-up: bytecode, page cache
        reps = []
        started = time.monotonic()
        rounds = 0
        while True:
            if self.trace:
                order = (False, True) if rounds % 2 == 0 else (True, False)
                pair = {traced: self.spawn(traced=traced) for traced in order}
                reps.extend((pair[False], pair[True]))
            else:
                reps.append(self.spawn())
            rounds += 1
            elapsed = time.monotonic() - started
            per_round = elapsed / rounds
            if elapsed + per_round > self.seconds:
                break
            if time.monotonic() + 2 * per_round > self.deadline:
                break
        setups = []
        if not self.trace:
            setups = [rep for rep in reps if "setup" in rep]
            while len(setups) < SETUP_SAMPLES and time.monotonic() < self.deadline:
                probe = self.spawn(setup_only=True)
                if probe["problems"]:
                    reps.append(probe)  # a broken set-up is a failed repetition
                    break
                setups.append(probe)
        return reps, setups


def _judge(workload, seed, reps, units):
    """Add digest mismatches to each repetition's problems.

    Every repetition of a run has the same inputs, so every digest must
    agree, and match ``bench/expected.json`` where it pins this seed (at
    the benchmark's own size: ``units`` is ``None``).
    """
    expected = None
    if units is None:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            expected = json.load(handle).get(workload, {}).get(str(seed))
    reference = expected
    for rep in reps:
        value = rep.get("digest")
        if value is None:
            continue
        if reference is None:
            reference = value
        elif value != reference:
            rep["problems"].append(
                "digest %s differs from %s"
                % (value, "bench/expected.json" if expected else "the first repetition")
            )


def _summary(values, unit):
    values = list(values) or [0.0]
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _good(rep):
    return not rep["problems"] and "wall" in rep


def _end_to_end(reps, setups):
    """End-to-end metrics, and the host seconds and speeds behind them."""
    good = [rep for rep in reps if _good(rep)]
    walls = [rep["wall"] * rep["speed"] for rep in good]
    samples = {
        "wall_s": walls,
        "setup_s": [rep["setup"] for rep in setups],
        "sim_loads_per_s": [rep["loads"] / wall for rep, wall in zip(good, walls)],
        "tasks_per_s": [rep["tasks"] / wall for rep, wall in zip(good, walls)],
        "peak_rss_mb": [rep["rss_kb"] / 1024.0 for rep in good],
    }
    host = {
        "host_wall_s": _summary([rep["wall"] for rep in good], "s"),
        "host_setup_s": _summary([rep["host_setup"] for rep in setups], "s"),
        "host_speed": _summary([rep["speed"] for rep in good], "ratio"),
    }
    return {name: _summary(samples[name], unit) for name, unit in END_TO_END.items()}, host


def _per_layer(reps):
    """Per-layer metrics of a traced run: ``reps`` alternates untraced
    and traced repetitions of the same input."""
    good = [rep for rep in reps if _good(rep)]
    plain = [rep for rep in good if not rep["traced"]]
    traced = [rep for rep in good if rep["traced"]]
    samples = {name: [] for name in PER_LAYER}
    if plain:
        for name in SIMULATED:
            samples[name].append(plain[0]["simulated"][name])
        for name in ORCHESTRATION:
            samples[name] = [rep["orchestration"][name] for rep in plain]
        seconds = []
        for rep in plain:
            tasks = rep["task_seconds"] or [rep["wall"]]
            seconds.extend(task * rep["speed"] for task in tasks)
            samples["tasks.busy_share"].append(
                sum(tasks) / (rep["wall"] * rep["workers"])
            )
        samples["tasks.p50_s"].append(statistics.median(seconds))
        samples["tasks.p95_s"].append(nearest_rank(seconds, 0.95))
    for rep in traced:
        summary = rep["trace"]
        total = summary["total"] or 1.0
        for layer in LAYERS:
            samples["%s.self_share" % layer].append(
                summary["layers"][layer]["self"] / total
            )
        for layer in WRAPPED_LAYERS:
            samples["%s.calls" % layer].append(summary["layers"][layer]["calls"])
        for phase in PHASES:
            samples["phase.%s_share" % phase].append(summary["phases"][phase] / total)
    for rep, twin in zip(reps[0::2], reps[1::2]):
        if _good(rep) and _good(twin):
            # Reference seconds on both sides: the pair ran minutes apart
            # at most, but host speed moves within seconds.
            untraced = rep["wall"] * rep["speed"]
            samples["trace.overhead"].append(twin["wall"] * twin["speed"] / untraced)
            samples["trace.closure"].append(
                twin["trace"]["total"] * twin["speed"] / untraced
            )
    return {name: _summary(samples[name], unit) for name, unit in PER_LAYER.items()}


def measure(workload, seed, seconds, trace, tmp, units=None, budget=BUDGET_SECONDS):
    """Run one workload for ``seconds`` (stopping early, with a failed
    repetition, after ``budget`` host seconds); returns its result
    document."""
    reps, setups = Runner(workload, seed, seconds, trace, tmp, units, budget).run()
    _judge(workload, seed, reps, units)
    failed = sum(1 for rep in reps if rep["problems"])
    if trace:
        metrics, host = _per_layer(reps), {}
    else:
        metrics, host = _end_to_end(reps, setups)
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "tier": sorted({rep["tier"] for rep in reps if "tier" in rep}),
        "digest": next((rep["digest"] for rep in reps if rep.get("digest")), None),
        "problems": [problem for rep in reps for problem in rep["problems"]],
        "metrics": metrics,
        "host": host,
    }


def _table(document):
    lines = [
        "%s: seed %d, tier %s, %d attempted, %d failed%s"
        % (
            document["workload"],
            document["seed"],
            ",".join(document["tier"]) or "?",
            document["attempted"],
            document["failed"],
            "" if document["correct"] else "  INCORRECT",
        )
    ]
    for name, metric in list(document["metrics"].items()) + list(
        document["host"].items()
    ):
        lines.append(
            "  %-26s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%d"
            % (name, metric["value"], metric["unit"], metric["q1"], metric["q3"],
               metric["n"])
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m bench", description="The PThammer reproduction's benchmark."
    )
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 for the traced run that reports per-layer metrics",
    )
    parser.add_argument("--out", help="also write the full result document here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("bench: no repro source tree under %s" % ROOT, file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = benchmark_config()["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    # On SIGTERM, unwind: the finally blocks kill the running repetition's
    # process group and remove the scratch directory.
    on_term = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = _scratch_dir()
    deadline = time.monotonic() + TOTAL_BUDGET_SECONDS
    try:
        documents = {}
        for index, workload in enumerate(workloads):
            budget = min(
                BUDGET_SECONDS,
                (deadline - time.monotonic()) / (len(workloads) - index),
            )
            document = measure(
                workload, args.seed, seconds, bool(args.trace), tmp, budget=budget
            )
            documents[workload] = document
            for line in _table(document):
                print(line, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run is using it
        signal.signal(signal.SIGTERM, on_term)

    if args.out:
        tiers = sorted({tier for doc in documents.values() for tier in doc["tier"]})
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "bench_version": BENCH_VERSION,
                    "seed": args.seed,
                    "seconds": seconds,
                    "trace": args.trace,
                    "tier": tiers,
                    "jobs": JOBS,
                    "nproc": os.cpu_count(),
                    "workloads": documents,
                },
                handle,
                indent=1,
                sort_keys=True,
            )
    single = len(documents) == 1
    line = {
        "correct": all(doc["correct"] for doc in documents.values()),
        "attempted": sum(doc["attempted"] for doc in documents.values()),
        "failed": sum(doc["failed"] for doc in documents.values()),
        "metrics": {
            (name if single else "%s.%s" % (workload, name)): {
                "value": metric["value"], "unit": metric["unit"],
            }
            for workload, doc in documents.items()
            for name, metric in doc["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1
