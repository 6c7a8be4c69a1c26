"""Parallel experiment engine: specs, a registry, fan-out, checkpoints.

Every paper artifact decomposes into independent *(machine config,
trial, seed)* tasks; this module executes such task lists — serially or
across a process pool — behind one API (see
``docs/EXPERIMENT_ENGINE.md`` for the full protocol, the
seed-derivation scheme, and the checkpoint schema):

    from repro.analysis.engine import run_experiment

    outcome = run_experiment("figure3", jobs=4)
    print(outcome.result.render())

Design points:

* **ExperimentSpec** — one experiment's tasks, run function and reduce
  function, registered by name (:func:`register_experiment`); the CLI
  and the benchmark harness dispatch through the registry.
* **Determinism** — tasks carry deterministically derived seeds
  (:func:`derive_seed`), run on freshly booted machines, and share no
  state, so ``jobs=N`` produces bit-identical aggregated results for
  every ``N``.  Per-task data is canonicalised through a JSON round
  trip even when no checkpoint is written, so resumed and uninterrupted
  runs cannot diverge on representation (e.g. int vs str dict keys).
* **Checkpoints** — with ``checkpoint=PATH`` every finished task is
  streamed to a JSONL file as it completes; ``resume=True`` skips the
  tasks already on disk, and a torn final line (a killed run) is
  ignored, so resuming after a crash is always safe.
* **Metrics** — machines booted inside a task report their metrics
  (:func:`observe_machine`); the run aggregates every task's snapshot.

With ``jobs > 1`` tasks run on a :class:`~repro.utils.pool.WorkerPool`
of forked workers that persist across tasks, so spec options may hold
any callable; only task payloads and results must be picklable and
JSON-serialisable.  Without ``fork`` the engine runs serially, with
identical results.
"""

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.observe.stream as stream
from repro.errors import ConfigError, TaskTimeout, WorkerDied
from repro.observe import CycleHistogram, MetricsRegistry
from repro.utils.pool import DONE, RAISED, WorkerPool, backoff_delay, exit_reason
from repro.utils.serialize import read_json_lines

#: Bump when the checkpoint line format changes incompatibly.
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# Tasks and specs


@dataclass(frozen=True)
class Task:
    """One independent unit of experiment work.

    ``key`` must be unique within the experiment's task list and stable
    across runs — it is how checkpoints recognise finished work.
    ``payload`` is spec-defined (keep it JSON-serialisable); ``seed``
    is filled by the engine via :func:`derive_seed` when left ``None``.
    """

    key: str
    payload: Any = None
    seed: Optional[int] = None


@dataclass
class ExperimentSpec:
    """The unified experiment protocol: name, tasks, run fn, reduce fn.

    * ``build_tasks(options)`` returns the full task list.
    * ``run_task(task, options)`` executes one task and returns plain
      JSON-serialisable data (no machine objects, no dataclasses).
    * ``reduce(data, options)`` folds the per-task data — always in
      task-list order, regardless of completion order — into the
      experiment's result object.

    The CLI hooks are optional: ``cli_configure(parser)`` adds the
    experiment's own flags to its subparser, ``cli_options(args)``
    translates parsed flags into an options dict, and ``smoke_argv``
    lists tiny-scale CLI arguments used by the registry smoke test
    (``tests/test_cli_smoke.py``) so every registered experiment stays
    runnable end-to-end.
    """

    name: str
    title: str
    build_tasks: Callable[[dict], List[Task]]
    run_task: Callable[[Task, dict], Any]
    reduce: Callable[[List[Any], dict], Any]
    defaults: Dict[str, Any] = field(default_factory=dict)
    cli_configure: Optional[Callable] = None
    cli_options: Optional[Callable] = None
    smoke_argv: Tuple[str, ...] = ()


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(spec):
    """Add a spec to the global registry; returns it for chaining."""
    if spec.name in _REGISTRY:
        raise ConfigError("experiment %r is already registered" % spec.name)
    _REGISTRY[spec.name] = spec
    return spec


def get_experiment(name):
    """Look a registered spec up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            "unknown experiment %r (registered: %s)"
            % (name, ", ".join(sorted(_REGISTRY)) or "none")
        )


def experiment_names():
    """Sorted names of every registered experiment."""
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Deterministic seed derivation


def derive_seed(root_seed, *parts, bits=32):
    """Derive a per-task seed from a root seed and identifying parts.

    SHA-256 over ``root:part:part:...`` truncated to ``bits`` bits —
    stable across processes, platforms, and Python versions (unlike
    ``hash()``), and statistically independent for different part
    tuples, so fanned-out trials never share RNG streams by accident.
    """
    material = ":".join([str(root_seed)] + [str(part) for part in parts])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << bits) - 1)


# ----------------------------------------------------------------------
# Per-task machine observation

#: Stack of active machine capture lists; ExperimentContext reports
#: into it.
_ACTIVE_MACHINES = []


def observe_machine(machine):
    """Register a machine with the running task.

    Called by ``ExperimentContext`` (and anything else that boots
    machines inside ``run_task``); a no-op outside the engine.  After
    the task finishes the engine merges the machine's metrics into the
    task's snapshot and reads its ground-truth flip count, virtual
    cycles, and always-on hammer-round spans, feeding the
    streaming-telemetry pipeline (:mod:`repro.observe.stream`).
    """
    for capture in _ACTIVE_MACHINES:
        capture.append(machine)


@contextlib.contextmanager
def machines_observed():
    """Collect every machine that tasks running in this process observe.

    Serial runs (``jobs=1``) run their tasks here; pooled workers keep
    theirs.  The quick benches read a run's virtual cycles off them.
    """
    machines = []
    _ACTIVE_MACHINES.append(machines)
    try:
        yield machines
    finally:
        _ACTIVE_MACHINES.pop()


def _telemetry_observation(machines):
    """Fold observed machines into one task's telemetry delta.

    Flips come from DRAM ground truth, the latency sketch from the
    unconditional ``hammer-round`` spans — both already recorded, so
    telemetry adds zero cost to the machine's hot paths.
    """
    from repro.core.hammer import HAMMER_ROUND_SPAN
    from repro.machine import Inspector

    flips = 0
    cycles = 0
    latency = CycleHistogram()
    for machine in machines:
        flips += Inspector(machine).flip_count()
        cycles += machine.cycles
        for span in machine.trace.spans_named(HAMMER_ROUND_SPAN):
            latency.observe(span.end - span.start)
    return flips, cycles, latency


# ----------------------------------------------------------------------
# Task execution


@dataclass
class TaskOutcome:
    """One finished task: canonical data plus its metrics snapshot.

    ``error`` is ``None`` for a successful task; under
    ``keep_going=True`` a task whose ``run_task`` raised is captured
    here (``"ExceptionType: message"``) with ``data=None`` instead of
    aborting the run.  ``worker`` is the pid of the process that ran
    the task — serial runs report the parent's own pid.
    """

    key: str
    seed: Optional[int]
    data: Any
    metrics: Optional[dict]
    host_seconds: float
    resumed: bool = False
    error: Optional[str] = None
    worker: Optional[int] = None
    #: In-place retries spent on retryable faults before success (or
    #: before the error above was recorded).
    retries: int = 0


def _alarm_scope(timeout):
    """Arm a SIGALRM-based timeout; returns a restore callable.

    A no-op (returns ``None``) where SIGALRM is unavailable (non-POSIX)
    or off the main thread — in pooled runs the watchdog of
    :func:`_run_pooled` is the backstop there.
    """
    if timeout is None or not hasattr(signal, "SIGALRM"):
        return None
    try:
        old = signal.signal(
            signal.SIGALRM,
            lambda signum, frame: (_ for _ in ()).throw(
                TaskTimeout("task exceeded %.1fs" % timeout)
            ),
        )
    except ValueError:  # not the main thread
        return None
    signal.setitimer(signal.ITIMER_REAL, timeout)

    def restore():
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)

    return restore


def _execute_task(
    spec, options, task, capture_errors=False, retries=0, retry_backoff=0.05,
    task_timeout=None,
):
    """Run one task, capturing metrics and canonicalising the data.

    Exceptions whose ``retryable`` attribute is true (e.g.
    :class:`~repro.errors.TransientFault` from a chaos profile) are
    retried in place up to ``retries`` times, sleeping
    :func:`~repro.utils.pool.backoff_delay` between attempts (jitter
    from the task seed, so two runs back off alike); other exceptions
    — and a retryable one that exhausts its retries — propagate (or
    are captured when ``capture_errors``).
    ``task_timeout`` bounds each *attempt* in host seconds via SIGALRM
    where available; a timed-out attempt raises
    :class:`~repro.errors.TaskTimeout` (not retryable).

    Captured machines are reset at each attempt, so a retried task
    reports only its *successful* attempt's metrics and telemetry —
    byte-identical to the same task succeeding first try.
    (The task itself re-runs from its original derived seed; retrying
    never reseeds.)
    """
    started = time.time()
    machines = []
    spent = 0
    error = None
    emitter = stream.current_emitter()
    group = _task_group(task)
    if emitter is not None:
        emitter.heartbeat(task.key)
    _ACTIVE_MACHINES.append(machines)
    try:
        while True:
            del machines[:]  # drop captures from a failed attempt
            restore = _alarm_scope(task_timeout)
            try:
                data = spec.run_task(task, options)
                break
            except Exception as exc:
                if getattr(exc, "retryable", False) and spent < retries:
                    spent += 1
                    time.sleep(backoff_delay(retry_backoff, task.seed or 0, spent))
                    continue
                if not capture_errors:
                    raise
                data, error = None, "%s: %s" % (type(exc).__name__, exc)
                del machines[:]  # a failed task reports no metrics
                break
            finally:
                if restore is not None:
                    restore()
    finally:
        _ACTIVE_MACHINES.pop()
    if emitter is not None:
        flips, cycles, latency = _telemetry_observation(machines)
        emitter.task_done(
            task.key,
            seconds=time.time() - started,
            flips=flips,
            cycles=cycles,
            latency=latency,
            group=group,
            ok=error is None,
        )
    try:
        data = json.loads(json.dumps(data))
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            "experiment %r task %r returned non-JSON-serialisable data: %s"
            % (spec.name, task.key, exc)
        )
    metrics = None
    if machines:
        merged = MetricsRegistry()
        for machine in machines:
            merged.merge_snapshot(machine.metrics.snapshot_values())
        metrics = merged.snapshot_values()
    return TaskOutcome(
        key=task.key,
        seed=task.seed,
        data=data,
        metrics=metrics,
        host_seconds=time.time() - started,
        error=error,
        worker=os.getpid(),
        retries=spent,
    )


def _task_group(task):
    """The telemetry group of a task: its machine, when it names one."""
    return task.payload.get("machine") if isinstance(task.payload, dict) else None


def _run_pooled(
    handler, pending, jobs, record, keep_going, watchdog, name, spool_dir=None
):
    """Fan ``pending`` out over a :class:`WorkerPool`; ``record`` each outcome.

    ``handler`` runs one task in a worker.  A worker death fails its
    task at once: captured as the task's error under ``keep_going``,
    raised as :class:`~repro.errors.WorkerDied` otherwise, and with a
    telemetry ``spool_dir`` reported there as the dead worker's failed
    task (:func:`~repro.observe.stream.report_death`).  With a
    ``watchdog``, a task still running that many host seconds after it
    started has its worker killed, and that death is handled like any
    other.
    """
    queue = pending[::-1]
    running = {}  # key -> (task, worker pid, start time)
    hung = set()  # keys whose worker the watchdog killed
    with WorkerPool(handler, jobs) as pool:
        while queue or running:
            while queue and len(running) < jobs:
                task = queue.pop()
                running[task.key] = (task, pool.submit(task.key, task), time.time())
            timeout = None
            if watchdog is not None:
                now = time.time()
                for key, (_, _, start) in running.items():
                    if key not in hung and now - start >= watchdog:
                        pool.kill(key)
                        hung.add(key)
                due = [start + watchdog - now
                       for key, (_, _, start) in running.items() if key not in hung]
                timeout = max(0.0, min(due)) if due else None
            for key, kind, value in pool.wait(timeout):
                task, pid, started = running.pop(key)
                if kind == DONE:
                    record(value)
                    continue
                if kind == RAISED:
                    raise value
                if spool_dir is not None:
                    stream.report_death(
                        spool_dir, pid, key, time.time() - started, _task_group(task)
                    )
                error = WorkerDied(
                    "experiment %r task %r: worker %d %s" % (
                        name, key, pid,
                        "hung past the %.0fs watchdog and was killed" % watchdog
                        if key in hung else exit_reason(value),
                    )
                )
                if not keep_going:
                    raise error
                record(
                    TaskOutcome(
                        key=key,
                        seed=task.seed,
                        data=None,
                        metrics=None,
                        host_seconds=time.time() - started,
                        error="WorkerDied: %s" % error,
                        worker=pid,
                    )
                )


# ----------------------------------------------------------------------
# Checkpoints


def _fingerprint(spec_name, tasks):
    """Hash identifying a (spec, task list) shape for resume safety."""
    digest = hashlib.sha256(spec_name.encode("utf-8"))
    for task in tasks:
        digest.update(b"\x00")
        digest.update(task.key.encode("utf-8"))
    return digest.hexdigest()[:16]


def load_checkpoint(path):
    """Read a checkpoint: ``(header, {key: record})``.

    A torn final line (a killed run) is ignored; a corrupt line with
    intact lines after it means the file was damaged, and skipping it
    would make ``--resume`` recompute or mis-merge work that looked
    recorded (:func:`~repro.utils.serialize.read_json_lines`).  That
    case raises a :class:`ConfigError` naming the file and line, as does
    an unusable header.
    """
    header = None
    records = {}
    damaged = lambda number: ConfigError(
        "checkpoint %s line %d is corrupt (not valid JSON) but is "
        "followed by intact lines; the file was damaged after "
        "writing — restore it or rerun without --resume" % (path, number)
    )
    for _, entry in read_json_lines(path, damaged):
        if entry.get("kind") == "header":
            header = entry
        elif entry.get("kind") == "task" and "key" in entry and "data" in entry:
            records[entry["key"]] = entry
    if header is None:
        raise ConfigError("checkpoint %s has no header line" % path)
    if header.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(
            "checkpoint %s is version %r; this engine writes version %d"
            % (path, header.get("version"), CHECKPOINT_VERSION)
        )
    return header, records


class _CheckpointWriter:
    """Streams header and task lines to a JSONL file, flushing each."""

    def __init__(self, path, append):
        self._handle = open(path, "a" if append else "w", encoding="utf-8")

    def write(self, kind, **fields):
        fields["kind"] = kind
        self._handle.write(json.dumps(fields, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self):
        self._handle.close()


def _load_resume_state(path, spec, tasks):
    """Outcomes recoverable from ``path`` for this exact task list."""
    if not os.path.exists(path):
        return {}
    header, records = load_checkpoint(path)
    if header.get("experiment") != spec.name:
        raise ConfigError(
            "checkpoint %s belongs to experiment %r, not %r"
            % (path, header.get("experiment"), spec.name)
        )
    if header.get("fingerprint") != _fingerprint(spec.name, tasks):
        raise ConfigError(
            "checkpoint %s was written for a different task list; "
            "rerun without --resume to start fresh" % path
        )
    keys = {task.key for task in tasks}
    return {
        key: TaskOutcome(
            key=key,
            seed=record.get("seed"),
            data=record["data"],
            metrics=record.get("metrics"),
            host_seconds=record.get("host_seconds", 0.0),
            resumed=True,
            retries=record.get("retries", 0),
        )
        for key, record in records.items()
        if key in keys
    }


# ----------------------------------------------------------------------
# The engine


@dataclass
class RunOutcome:
    """Everything one engine invocation produced.

    ``result`` is the spec's reduced result object (``None`` when the
    run is incomplete — ``max_tasks`` stopped it early or
    ``keep_going`` swallowed task failures); ``metrics`` aggregates
    every completed task's machine-metrics snapshots.  ``run_id`` is
    set when the run was recorded into a ledger.
    """

    experiment: str
    result: Any
    completed: bool
    outcomes: List[TaskOutcome]
    tasks_total: int
    tasks_run: int
    tasks_resumed: int
    jobs: int
    host_seconds: float
    metrics: MetricsRegistry
    failures: int = 0
    run_id: Optional[str] = None
    #: The streaming-telemetry summary (:mod:`repro.observe.stream`)
    #: when the run had a telemetry session: rolling time-series,
    #: per-worker totals, per-config flip counters.
    telemetry: Optional[Dict[str, Any]] = None

    def summary(self):
        """One-line recap for progress displays and logs."""
        state = "complete" if self.completed else (
            "incomplete (%d/%d tasks)" % (len(self.outcomes), self.tasks_total)
        )
        failed = ", %d failed" % self.failures if self.failures else ""
        return (
            "%s: %s; ran %d task(s) (%d resumed%s) with %d job(s) in %.1fs"
            % (
                self.experiment,
                state,
                self.tasks_run,
                self.tasks_resumed,
                failed,
                self.jobs,
                self.host_seconds,
            )
        )

    def ledger_record(self, label=None, command=None):
        """A :class:`~repro.observe.ledger.RunRecord` for this run."""
        from repro.observe.ledger import EXPERIMENT_RUN, RunRecord

        return RunRecord.new(
            EXPERIMENT_RUN,
            self.experiment,
            label=label,
            command=command,
            timings={"host_seconds": round(self.host_seconds, 6)},
            metrics=self.metrics.snapshot_values(),
            outcome={
                "completed": self.completed,
                "tasks_total": self.tasks_total,
                "tasks_run": self.tasks_run,
                "tasks_resumed": self.tasks_resumed,
                "failures": self.failures,
                "jobs": self.jobs,
            },
            extra={"telemetry": self.telemetry} if self.telemetry else {},
        )


def run_experiment(
    spec,
    options=None,
    jobs=1,
    checkpoint=None,
    resume=False,
    max_tasks=None,
    progress=None,
    keep_going=False,
    ledger=None,
    label=None,
    task_timeout=None,
    retries=2,
    retry_backoff=0.05,
    telemetry=None,
):
    """Execute an experiment through the engine; returns a RunOutcome.

    ``spec`` is a registered experiment name or an
    :class:`ExperimentSpec` instance (ad-hoc specs need not be
    registered).  ``options`` overrides the spec's defaults.  ``jobs``
    is the worker-process count (1 = in-process serial; results are
    bit-identical either way).  ``checkpoint``/``resume`` stream and
    recover per-task results as JSONL.  ``max_tasks`` bounds how many
    *pending* tasks this invocation runs — an intentionally partial
    run returns ``completed=False`` with ``result=None`` and can be
    finished later with ``resume=True``.

    ``progress`` is a ``callback(done_count, total, outcome)`` — a
    plain callable, or a
    :class:`~repro.analysis.telemetry.ProgressReporter` (anything with
    ``begin``/``end`` methods), which additionally receives run
    start/finish notifications for live status displays.

    ``keep_going=True`` captures a task exception into its
    ``TaskOutcome.error`` (progress still fires; the run finishes the
    remaining tasks) instead of aborting; failed tasks are not written
    to the checkpoint, so a later ``--resume`` retries exactly them.
    A run with failures has ``completed=False`` and ``result=None``.

    ``ledger`` (a :class:`~repro.observe.ledger.RunLedger` or a
    directory path) appends a summary record of this run — labeled
    ``label`` — and sets ``RunOutcome.run_id``.

    Resilience knobs: ``retries`` bounds *in-place* retries of a task
    whose exception is marked ``retryable`` (chaos-injected
    :class:`~repro.errors.TransientFault`\\ s) under jittered
    exponential backoff starting at ``retry_backoff`` host seconds —
    these fire on every run, not only under ``--resume``, and land in
    ``TaskOutcome.retries``.  ``task_timeout`` bounds each attempt in
    host seconds (SIGALRM where available).  In pooled runs a worker
    that dies fails its task at once, and a task that outlives the
    whole timeout-plus-retries envelope has its worker killed: either
    death is the task's :class:`~repro.errors.WorkerDied` error under
    ``keep_going``, and is raised otherwise.

    ``telemetry`` (``True``, a spool-root path, or a
    :class:`~repro.observe.stream.TelemetrySession`) makes every worker
    stream heartbeats and per-task deltas to a per-worker spool file
    (docs/TELEMETRY.md); the parent aggregates them live, and the
    rolling time-series lands in ``RunOutcome.telemetry`` and the ledger
    record's ``extra``.  Rendered results stay byte-identical either way.
    """
    if isinstance(spec, str):
        spec = get_experiment(spec)
    merged_options = dict(spec.defaults)
    merged_options.update(options or {})
    options = merged_options

    started = time.time()
    tasks = list(spec.build_tasks(options))
    if not tasks:
        raise ConfigError("experiment %r built an empty task list" % spec.name)
    seen = set()
    for task in tasks:
        if task.key in seen:
            raise ConfigError(
                "experiment %r has a duplicate task key %r" % (spec.name, task.key)
            )
        seen.add(task.key)
    root_seed = options.get("seed", 0)
    tasks = [
        task if task.seed is not None
        else replace(task, seed=derive_seed(root_seed, spec.name, task.key))
        for task in tasks
    ]

    done = {}
    if checkpoint and resume:
        done = _load_resume_state(checkpoint, spec, tasks)
    pending = [task for task in tasks if task.key not in done]
    if max_tasks is not None:
        pending = pending[: max(0, max_tasks)]

    writer = None
    if checkpoint:
        writer = _CheckpointWriter(checkpoint, append=bool(done))
        if not done:
            writer.write(
                "header",
                version=CHECKPOINT_VERSION,
                experiment=spec.name,
                tasks=len(tasks),
                fingerprint=_fingerprint(spec.name, tasks),
            )

    effective_jobs = max(1, min(jobs, len(pending))) if pending else 1
    if "fork" not in multiprocessing.get_all_start_methods():
        effective_jobs = 1
    outcomes_by_key = dict(done)
    finished = len(done)
    failures = 0
    total = len(tasks)

    if progress is not None and hasattr(progress, "begin"):
        progress.begin(
            spec.name, total=total, jobs=effective_jobs, resumed=len(done)
        )

    session = None
    if telemetry:
        if isinstance(telemetry, stream.TelemetrySession):
            session = telemetry
        elif telemetry is True:
            session = stream.TelemetrySession()
        else:
            session = stream.TelemetrySession(str(telemetry))
        # Must begin before any fork: pool workers inherit the armed
        # emitter configuration copy-on-write, exactly like the task
        # handler.
        session.begin(spec.name, total=total, jobs=effective_jobs)

    def _record(outcome):
        nonlocal finished, failures
        outcomes_by_key[outcome.key] = outcome
        finished += 1
        if outcome.error is not None:
            failures += 1
        elif writer is not None:
            # Failed tasks stay out of the checkpoint so --resume
            # retries exactly them.
            writer.write(
                "task",
                key=outcome.key,
                seed=outcome.seed,
                host_seconds=round(outcome.host_seconds, 6),
                data=outcome.data,
                metrics=outcome.metrics,
                retries=outcome.retries,
            )
        if progress is not None:
            progress(finished, total, outcome)
        if session is not None:
            session.poll()

    handler = partial(
        _execute_task, spec, options,
        capture_errors=keep_going,
        retries=retries,
        retry_backoff=retry_backoff,
        task_timeout=task_timeout,
    )
    # A task running for a full attempt envelope (every attempt plus
    # every backoff, with slack) is stuck: its SIGALRM should have fired.
    watchdog = None if task_timeout is None else (
        task_timeout * (retries + 1) + retry_backoff * 2 ** (retries + 1) + 30.0
    )
    try:
        if effective_jobs > 1:
            _run_pooled(
                handler, pending, effective_jobs, _record, keep_going,
                watchdog, spec.name,
                spool_dir=session.spool_dir if session is not None else None,
            )
        else:
            for task in pending:
                _record(handler(task))
    except BaseException:
        if session is not None:
            # Seal the spool, so `repro dash` shows the run ended.
            session.finish(completed=False)
        raise
    finally:
        if writer is not None:
            writer.close()
        if session is not None:
            # Disarm the parent's emitters before the reduce;
            # ``session.finish`` below is a no-op repeat.
            stream.deactivate_emitters()

    completed = len(outcomes_by_key) == total and failures == 0
    ordered = [outcomes_by_key[task.key] for task in tasks if task.key in outcomes_by_key]
    metrics = MetricsRegistry()
    for outcome in ordered:
        if outcome.metrics:
            metrics.merge_snapshot(outcome.metrics)
    result = spec.reduce([o.data for o in ordered], options) if completed else None
    run = RunOutcome(
        experiment=spec.name,
        result=result,
        completed=completed,
        outcomes=ordered,
        tasks_total=total,
        tasks_run=len(pending),
        tasks_resumed=len(done),
        jobs=effective_jobs,
        host_seconds=time.time() - started,
        metrics=metrics,
        failures=failures,
    )
    if session is not None:
        run.telemetry = session.finish(completed=completed)
    if ledger is not None:
        from repro.observe.ledger import RunLedger

        if isinstance(ledger, str):
            ledger = RunLedger(ledger)
        record = run.ledger_record(label=label)
        ledger.record(record)
        run.run_id = record.run_id
    if progress is not None and hasattr(progress, "end"):
        progress.end(run)
    return run
