"""Streaming telemetry: per-worker spools and a parent-side aggregator.

The experiment engine fans tasks across forked worker processes; until
now the only live signal crossing that boundary was the per-task
progress callback.  This module adds a *streaming* channel sized for
campaign-scale runs (docs/TELEMETRY.md):

* :class:`TelemetryEmitter` — lives in each worker process and appends
  bounded JSON lines (heartbeats and per-task deltas: phase, flips,
  virtual cycles, a mergeable latency sketch) to its own spool file
  ``worker-<pid>.jsonl``.  One file per pid means no cross-process
  locking; each line is flushed whole, so a killed worker never leaves
  more than one torn line.
* :class:`TelemetryAggregator` — lives in the parent (or in a separate
  ``repro dash`` process) and incrementally tails every spool file,
  folding the deltas into rolling time-series (throughput, flips/sec,
  p50/p95/p99 hammer-round latency via
  :class:`~repro.observe.metrics.CycleHistogram` merges) plus
  per-worker liveness and per-config flip counters.
* :class:`TelemetrySession` — the parent-side lifecycle object the
  engine drives: ``begin`` creates the spool directory and arms the
  (fork-inherited) worker emitter configuration *before* the pool
  forks, ``poll`` advances the aggregator, and ``finish`` writes the
  ``run-end`` marker and returns the summary persisted into the run
  ledger (``RunRecord.extra["telemetry"]``).

Spool directories live under ``.repro/telemetry`` next to the run
ledger; ``REPRO_TELEMETRY_DIR`` relocates the root.  Everything here
writes to files and reads clocks only — never to stdout — so rendered
experiment results stay byte-identical with telemetry on or off.
"""

import json
import os
import time

from repro.errors import ConfigError
from repro.observe.ledger import DEFAULT_LEDGER_DIR, LEDGER_ENV_VAR, new_run_id
from repro.observe.metrics import CycleHistogram

#: Bump when the spool line format changes incompatibly.
STREAM_SCHEMA_VERSION = 1

#: Environment override for the telemetry spool root directory.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY_DIR"


def default_spool_root():
    """The spool root: env override, else a sibling of the run ledger.

    With the stock ledger at ``.repro/runs`` this is
    ``.repro/telemetry``; with ``REPRO_LEDGER_DIR`` relocated (as the
    test suite does per-test) the spool root follows it, so isolated
    ledgers get isolated telemetry for free.
    """
    override = os.environ.get(TELEMETRY_ENV_VAR)
    if override:
        return override
    ledger_root = os.environ.get(LEDGER_ENV_VAR) or DEFAULT_LEDGER_DIR
    parent = os.path.dirname(os.path.normpath(ledger_root))
    return os.path.join(parent or ".", "telemetry")


def discover_spool(root=None):
    """Newest spool directory under ``root`` (or ``None`` when empty).

    Spool directory names start with a sortable run id, so the
    lexicographically last entry holding a ``run.jsonl`` is the most
    recently started run — what ``repro dash`` attaches to by default.
    """
    root = root or default_spool_root()
    if not os.path.isdir(root):
        return None
    for name in sorted(os.listdir(root), reverse=True):
        candidate = os.path.join(root, name)
        if os.path.isfile(os.path.join(candidate, "run.jsonl")):
            return candidate
    return None


def _append_line(path, entry):
    """Append one JSON line, flushed whole (crash leaves <= 1 torn line)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Worker side: the emitter


class TelemetryEmitter:
    """Appends one worker's telemetry deltas to its own spool file.

    One emitter per process; the spool file is keyed by pid so forked
    pool workers never contend.  ``heartbeat`` is rate-limited to
    ``heartbeat_interval`` host seconds; ``task_done`` always writes
    (it is the bounded metric delta the aggregator folds in).  A pool's
    parent passes the ``pid`` of a worker that died mid-task to write
    the failed ``task`` line the worker never could (:func:`report_death`).
    """

    def __init__(self, spool_dir, heartbeat_interval=1.0, clock=time.time, pid=None):
        self.spool_dir = spool_dir
        self.pid = os.getpid() if pid is None else pid
        self.path = os.path.join(spool_dir, "worker-%d.jsonl" % self.pid)
        self.heartbeat_interval = heartbeat_interval
        self.clock = clock
        self._last_heartbeat = None

    def heartbeat(self, phase=None):
        """Announce liveness (and the task being chewed on), rate-limited."""
        now = self.clock()
        if (
            self._last_heartbeat is not None
            and now - self._last_heartbeat < self.heartbeat_interval
        ):
            return False
        self._last_heartbeat = now
        _append_line(
            self.path,
            {"type": "heartbeat", "t": now, "pid": self.pid, "phase": phase},
        )
        return True

    def task_done(
        self,
        key,
        seconds,
        flips=0,
        cycles=0,
        latency=None,
        group=None,
        ok=True,
        died=False,
    ):
        """Record one finished task's delta.

        ``latency`` is a :class:`CycleHistogram` (or its ``state_dict``)
        of this task's hammer-round span lengths — mergeable, so the
        aggregator can fold sketches from any number of workers into
        exact combined percentile estimates.  ``died`` marks the failed
        task of a worker that is gone.
        """
        if isinstance(latency, CycleHistogram):
            latency = latency.state_dict() if latency.count else None
        now = self.clock()
        self._last_heartbeat = now  # a task line proves liveness too
        entry = {
            "type": "task",
            "t": now,
            "pid": self.pid,
            "key": key,
            "group": group,
            "ok": bool(ok),
            "seconds": round(seconds, 6),
            "flips": flips,
            "cycles": cycles,
            "latency": latency,
        }
        if died:
            entry["died"] = True
        _append_line(self.path, entry)


def report_death(spool_dir, pid, key, seconds, group=None):
    """Append a dead worker's failed ``task`` line to its spool file.

    A worker killed mid-task writes no line of its own, so without this
    the task would be missing from the totals and the worker would read
    as alive until its heartbeats went stale.  The pool's parent calls
    it once per :data:`~repro.utils.pool.DIED` outcome; the worker is
    gone, so its file still has one writer at a time.
    """
    TelemetryEmitter(spool_dir, pid=pid).task_done(
        key, seconds, group=group, ok=False, died=True
    )


#: Spool directory armed by the parent before its pool forks workers;
#: they inherit it and lazily build their own emitter (same pattern as
#: the engine's task handler).
_EMITTER_CONFIG = None
_EMITTERS = {}


def activate_emitters(spool_dir):
    """Arm per-process emitters (call in the parent, pre-fork)."""
    global _EMITTER_CONFIG
    _EMITTER_CONFIG = spool_dir


def deactivate_emitters():
    """Disarm emitters in this process (workers die with the pool)."""
    global _EMITTER_CONFIG
    _EMITTER_CONFIG = None
    _EMITTERS.clear()


def current_emitter():
    """This process's emitter, or ``None`` when telemetry is off.

    Keyed by pid so a process forked *after* activation (a pool
    worker) builds its own emitter on first use instead of inheriting
    the parent's file handle or heartbeat state.
    """
    if _EMITTER_CONFIG is None:
        return None
    pid = os.getpid()
    emitter = _EMITTERS.get(pid)
    if emitter is None or emitter.spool_dir != _EMITTER_CONFIG:
        emitter = TelemetryEmitter(_EMITTER_CONFIG)
        _EMITTERS.clear()  # entries from before a fork belong to the parent
        _EMITTERS[pid] = emitter
    return emitter


# ----------------------------------------------------------------------
# Rolling time-series with bounded memory


class SeriesBuckets:
    """Fixed-size time-bucketed series; width doubles instead of growing.

    Observations land in the bucket ``int(t / width)``.  When an
    observation falls beyond ``max_buckets``, adjacent buckets are
    pairwise-merged and the width doubles — deterministic, O(1)
    amortised, and memory stays bounded however long the run is.  Each
    bucket folds tasks, flips, cycles, task-seconds, and a mergeable
    latency sketch.
    """

    def __init__(self, max_buckets=120, initial_width=0.5):
        if max_buckets < 2:
            raise ConfigError("SeriesBuckets needs at least 2 buckets")
        self.max_buckets = max_buckets
        self.width = float(initial_width)
        self._buckets = {}

    @staticmethod
    def _empty():
        return {
            "tasks": 0,
            "flips": 0,
            "cycles": 0,
            "seconds": 0.0,
            "errors": 0,
            "latency": CycleHistogram(),
        }

    def add(self, t, tasks=1, flips=0, cycles=0, seconds=0.0, errors=0,
            latency_state=None):
        """Fold one task delta observed at relative time ``t``."""
        t = max(0.0, t)
        while int(t / self.width) >= self.max_buckets:
            self._halve()
        bucket = self._buckets.setdefault(int(t / self.width), self._empty())
        bucket["tasks"] += tasks
        bucket["flips"] += flips
        bucket["cycles"] += cycles
        bucket["seconds"] += seconds
        bucket["errors"] += errors
        if latency_state:
            bucket["latency"].merge_snapshot(latency_state)

    def _halve(self):
        merged = {}
        for index, bucket in self._buckets.items():
            target = merged.setdefault(index // 2, self._empty())
            for key in ("tasks", "flips", "cycles", "errors"):
                target[key] += bucket[key]
            target["seconds"] += bucket["seconds"]
            if bucket["latency"].count:
                target["latency"].merge_snapshot(bucket["latency"].state_dict())
        self._buckets = merged
        self.width *= 2.0

    def snapshot(self):
        """JSON-serialisable bucket list with derived per-bucket rates."""
        rows = []
        for index in sorted(self._buckets):
            bucket = self._buckets[index]
            latency = bucket["latency"]
            rows.append(
                {
                    "t": round(index * self.width, 3),
                    "tasks": bucket["tasks"],
                    "flips": bucket["flips"],
                    "cycles": bucket["cycles"],
                    "errors": bucket["errors"],
                    "tasks_per_sec": round(bucket["tasks"] / self.width, 4),
                    "flips_per_sec": round(bucket["flips"] / self.width, 4),
                    "latency": latency.snapshot() if latency.count else None,
                }
            )
        return {"width": self.width, "buckets": rows}


# ----------------------------------------------------------------------
# Parent side: the aggregator


#: A worker is presumed dead after this many heartbeat intervals of
#: silence (a display concern only: the worker pool sees deaths, and
#: kills hung work at each item's deadline).
LIVENESS_FACTOR = 3.0


class TelemetryAggregator:
    """Incrementally merges a spool directory into rolling statistics.

    ``poll()`` tails ``run.jsonl`` plus every ``worker-*.jsonl`` from
    the byte offset it last reached, re-reading only the files that
    grew since — cheap enough to call once per finished task or
    supervisor wake, and safe to call from a different process than
    the writers (``repro dash`` attaches to a live run's spool).  Torn
    trailing lines (a worker killed mid-write) are retried on the next
    poll and never abort aggregation.
    """

    def __init__(self, spool_dir, clock=time.time, max_buckets=120):
        if not os.path.isdir(spool_dir):
            raise ConfigError("no telemetry spool at %s" % spool_dir)
        self.spool_dir = spool_dir
        self.clock = clock
        self.meta = {}
        self.finished = None  # the run-end entry, once seen
        self.workers = {}
        self.groups = {}
        self.series = SeriesBuckets(max_buckets=max_buckets)
        self.latency = CycleHistogram()
        self.tasks = 0
        self.flips = 0
        self.cycles = 0
        self.errors = 0
        self.started_at = None
        self.last_event_at = None
        self._offsets = {}

    # -- ingest ----------------------------------------------------------

    def poll(self):
        """Ingest new spool lines; returns how many were applied.

        One directory scan finds the spool files that grew past the
        byte offset already consumed, and only those are opened: a file
        that has not grown costs a ``stat``, not a read.
        """
        grown = []
        try:
            with os.scandir(self.spool_dir) as entries:
                for entry in entries:
                    name = entry.name
                    if name == "run.jsonl" or (
                        name.startswith("worker-") and name.endswith(".jsonl")
                    ):
                        try:
                            size = entry.stat().st_size
                        except OSError:
                            continue
                        if size > self._offsets.get(name, 0):
                            grown.append(name)
        except OSError:
            return 0
        # Sorted, run.jsonl drains first, then the worker files by name.
        return sum(self._drain(name) for name in sorted(grown))

    def _drain(self, name):
        path = os.path.join(self.spool_dir, name)
        offset = self._offsets.get(name, 0)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            return 0
        applied = 0
        consumed = 0
        for line in chunk.splitlines(keepends=True):
            if not line.endswith("\n"):
                break  # torn trailing write; retry on the next poll
            consumed += len(line.encode("utf-8"))
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # a damaged line is skipped, never fatal
            self._apply(entry)
            applied += 1
        self._offsets[name] = offset + consumed
        return applied

    def _apply(self, entry):
        kind = entry.get("type")
        timestamp = entry.get("t")
        if isinstance(timestamp, (int, float)):
            if self.started_at is None:
                self.started_at = timestamp
            self.last_event_at = timestamp
        if kind == "run-begin":
            self.meta = entry
            self.started_at = entry.get("t", self.started_at)
        elif kind == "run-end":
            self.finished = entry
        elif kind == "heartbeat":
            worker = self._worker(entry.get("pid"))
            worker["last_seen"] = timestamp
            worker["phase"] = entry.get("phase")
            worker["dead"] = False  # a reused pid speaks again
        elif kind == "task":
            self._apply_task(entry, timestamp)

    def _worker(self, pid):
        worker = self.workers.get(pid)
        if worker is None:
            worker = self.workers[pid] = {
                "tasks": 0,
                "flips": 0,
                "errors": 0,
                "seconds": 0.0,
                "last_seen": None,
                "phase": None,
                "dead": False,
            }
        return worker

    def _apply_task(self, entry, timestamp):
        ok = entry.get("ok", True)
        flips = entry.get("flips") or 0
        cycles = entry.get("cycles") or 0
        seconds = entry.get("seconds") or 0.0
        latency = entry.get("latency")
        worker = self._worker(entry.get("pid"))
        worker["tasks"] += 1
        worker["flips"] += flips
        worker["seconds"] += seconds
        worker["last_seen"] = timestamp
        worker["phase"] = entry.get("key")
        worker["dead"] = bool(entry.get("died"))
        if not ok:
            worker["errors"] += 1
            self.errors += 1
        self.tasks += 1
        self.flips += flips
        self.cycles += cycles
        if latency:
            self.latency.merge_snapshot(latency)
        group = entry.get("group")
        if group:
            stats = self.groups.setdefault(group, {"tasks": 0, "flips": 0})
            stats["tasks"] += 1
            stats["flips"] += flips
        relative = 0.0
        if timestamp is not None and self.started_at is not None:
            relative = timestamp - self.started_at
        self.series.add(
            relative,
            flips=flips,
            cycles=cycles,
            seconds=seconds,
            errors=0 if ok else 1,
            latency_state=latency,
        )

    # -- derived views ---------------------------------------------------

    def elapsed(self):
        """Seconds from run-begin to the last event (or now, if live)."""
        if self.started_at is None:
            return 0.0
        end = self.last_event_at if self.finished else self.clock()
        return max(0.0, (end or self.started_at) - self.started_at)

    def tasks_total(self):
        return self.meta.get("tasks")

    def throughput(self):
        """Mean finished tasks per second over the run so far."""
        elapsed = self.elapsed()
        return self.tasks / elapsed if elapsed > 0 else 0.0

    def flips_per_sec(self):
        elapsed = self.elapsed()
        return self.flips / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self):
        """Estimated seconds to completion (``None`` when unknowable)."""
        total = self.tasks_total()
        rate = self.throughput()
        if total is None or rate <= 0 or self.finished:
            return None
        return max(0.0, (total - self.tasks) / rate)

    def worker_liveness(self, interval=1.0):
        """``{pid: "alive"|"silent"|"dead"|"done"}`` from heartbeat
        recency; "dead" once a death line (:func:`report_death`) is the
        worker's last."""
        status = {}
        now = self.clock()
        for pid, worker in self.workers.items():
            if worker["dead"]:
                status[pid] = "dead"
            elif self.finished:
                status[pid] = "done"
            elif worker["last_seen"] is None:
                status[pid] = "silent"
            elif now - worker["last_seen"] <= LIVENESS_FACTOR * interval:
                status[pid] = "alive"
            else:
                status[pid] = "silent"
        return status

    def summary(self):
        """The JSON document persisted into ``RunRecord.extra``."""
        elapsed = self.elapsed()
        series = self.series.snapshot()
        peak_tasks = max(
            (bucket["tasks_per_sec"] for bucket in series["buckets"]), default=0.0
        )
        peak_flips = max(
            (bucket["flips_per_sec"] for bucket in series["buckets"]), default=0.0
        )
        percentiles = self.latency.percentiles()
        totals = {
            "tasks": self.tasks,
            "flips": self.flips,
            "cycles": self.cycles,
            "errors": self.errors,
            "duration_seconds": round(elapsed, 3),
            "throughput_mean": round(self.throughput(), 4),
            "throughput_peak": peak_tasks,
            "flips_per_sec_mean": round(self.flips_per_sec(), 4),
            "flips_per_sec_peak": peak_flips,
        }
        for name, value in percentiles.items():
            totals["latency_%s" % name] = round(value, 1)
        return {
            "schema": STREAM_SCHEMA_VERSION,
            "experiment": self.meta.get("experiment"),
            "jobs": self.meta.get("jobs"),
            "tasks_total": self.tasks_total(),
            "bucket_seconds": series["width"],
            "buckets": series["buckets"],
            "workers": {
                str(pid): {
                    "tasks": worker["tasks"],
                    "flips": worker["flips"],
                    "errors": worker["errors"],
                    "seconds": round(worker["seconds"], 3),
                }
                for pid, worker in self.workers.items()
            },
            "groups": self.groups,
            "totals": totals,
        }


# ----------------------------------------------------------------------
# Parent side: the session lifecycle


class TelemetrySession:
    """One run's telemetry lifecycle, driven by the engine.

    ``begin`` must run *before* the worker pool forks: it creates the
    spool directory, writes the ``run-begin`` marker, arms the
    fork-inherited emitter configuration, and builds the aggregator.
    ``finish`` disarms the emitters, drains the spools one final time,
    writes ``run-end``, and returns the summary document.
    """

    def __init__(self, root=None, clock=time.time):
        self.root = root or default_spool_root()
        self.clock = clock
        self.spool_dir = None
        self.aggregator = None

    def begin(self, experiment, total, jobs=1):
        if self.spool_dir is not None:
            raise ConfigError("telemetry session already began")
        name = "%s-%s" % (new_run_id(), experiment)
        self.spool_dir = os.path.join(self.root, name)
        os.makedirs(self.spool_dir, exist_ok=True)
        _append_line(
            os.path.join(self.spool_dir, "run.jsonl"),
            {
                "type": "run-begin",
                "schema": STREAM_SCHEMA_VERSION,
                "experiment": experiment,
                "tasks": total,
                "jobs": jobs,
                "pid": os.getpid(),
                "t": self.clock(),
            },
        )
        activate_emitters(self.spool_dir)
        self.aggregator = TelemetryAggregator(self.spool_dir, clock=self.clock)
        return self.spool_dir

    def poll(self):
        """Advance the aggregator (called per finished task)."""
        if self.aggregator is not None:
            self.aggregator.poll()

    def finish(self, completed=True):
        """Seal the spool and return the summary for the run ledger."""
        if self.spool_dir is None:
            return None
        deactivate_emitters()
        _append_line(
            os.path.join(self.spool_dir, "run.jsonl"),
            {"type": "run-end", "completed": bool(completed), "t": self.clock()},
        )
        self.aggregator.poll()
        summary = self.aggregator.summary()
        self.spool_dir = None
        return summary
