"""Campaign store and supervisor: the fault-tolerant control plane.

:class:`Campaign` owns the durable layout under
``.repro/campaigns/<id>/`` (override the root with
``REPRO_CAMPAIGNS_DIR``)::

    journal.jsonl     the WAL — sole authority on state (journal.py)
    spool/            PR 8 telemetry spool (workers write, dash reads)
    results/          per-shard result files, atomically renamed in
    control/          pause/cancel request markers from the CLI
    results.json      the final, deterministic results document
    quarantine.json   poison-shard report (degraded campaigns)

:class:`Supervisor` is the run loop: it hands ready shards to a
:class:`~repro.utils.pool.WorkerPool` of persistent workers, reaps
their outcomes, checks liveness against the telemetry spool, backs off
and retries failures, quarantines poison shards, degrades parallelism
when workers keep dying abnormally, and turns SIGTERM / SIGINT /
control markers into a clean checkpoint-and-pause.  Every
decision it makes is journaled *before* its effects matter, so a
``kill -9`` at any instant loses at most in-flight shard attempts —
which re-run deterministically on resume.
"""

import os
import signal
import time

from repro.campaign.journal import (
    CampaignJournal,
    CANCELLED,
    COMPLETED,
    DEGRADED,
    PAUSED,
    RUNNING,
    check_transition,
    fold,
    replay,
)
from repro.campaign.scheduler import Scheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import load_result, worker_main
from repro.errors import CampaignError, ConfigError
from repro.observe.ledger import CAMPAIGN_RUN, RunLedger, RunRecord
from repro.observe.stream import TelemetryAggregator, _append_line, report_death
from repro.utils.pool import DIED, DONE, RAISED, WorkerPool, exit_reason
from repro.utils.serialize import write_json_atomic

#: Environment override for the campaigns root directory.
CAMPAIGNS_ENV_VAR = "REPRO_CAMPAIGNS_DIR"

#: Default campaigns root, relative to the current working directory.
DEFAULT_CAMPAIGNS_DIR = os.path.join(".repro", "campaigns")

#: Result-document format version.
RESULTS_VERSION = 1


def campaigns_root(root=None):
    return root or os.environ.get(CAMPAIGNS_ENV_VAR) or DEFAULT_CAMPAIGNS_DIR


def _pid_alive(pid):
    if not pid:
        return False
    try:
        os.kill(pid, 0)
    except (OSError, ProcessLookupError):
        return False
    return True


def _tick(spec):
    """The longest the supervisor sleeps before it checks its control
    markers, signals and worker liveness again: ``poll_interval``,
    capped at 0.25 s.  A shard that ends wakes it at once."""
    return max(0.001, min(spec.supervisor.poll_interval, 0.25))


class Campaign:
    """One campaign's durable directory: journal, spools, results."""

    def __init__(self, campaign_id, root=None):
        self.id = campaign_id
        self.root = campaigns_root(root)
        self.dir = os.path.join(self.root, campaign_id)
        self.journal_path = os.path.join(self.dir, "journal.jsonl")
        self.spool_dir = os.path.join(self.dir, "spool")
        self.results_dir = os.path.join(self.dir, "results")
        self.control_dir = os.path.join(self.dir, "control")
        self.results_path = os.path.join(self.dir, "results.json")
        self.quarantine_path = os.path.join(self.dir, "quarantine.json")
        self.journal = CampaignJournal(self.journal_path)

    # -- store ------------------------------------------------------------

    @classmethod
    def create(cls, spec, campaign_id=None, root=None):
        """Lay out the directory and journal the campaign's birth."""
        campaign_id = campaign_id or spec.name
        campaign = cls(campaign_id, root=root)
        if os.path.exists(campaign.journal_path):
            raise CampaignError(
                "campaign %r already exists at %s (resume it, or pick "
                "another --id)" % (campaign_id, campaign.dir)
            )
        for directory in (
            campaign.dir,
            campaign.spool_dir,
            campaign.results_dir,
            campaign.control_dir,
        ):
            os.makedirs(directory, exist_ok=True)
        campaign.journal.append(
            {
                "type": "campaign-created",
                "id": campaign_id,
                "spec": spec.to_dict(),
                "fingerprint": spec.fingerprint(),
            }
        )
        return campaign

    @classmethod
    def open(cls, campaign_id, root=None):
        campaign = cls(campaign_id, root=root)
        if not os.path.exists(campaign.journal_path):
            known = ", ".join(cls.list(root=root)) or "none"
            raise CampaignError(
                "no campaign %r under %s (known: %s)"
                % (campaign_id, campaign.root, known)
            )
        return campaign

    @classmethod
    def list(cls, root=None):
        """Campaign ids present under the root, sorted."""
        root = campaigns_root(root)
        if not os.path.isdir(root):
            return []
        return sorted(
            name
            for name in os.listdir(root)
            if os.path.exists(os.path.join(root, name, "journal.jsonl"))
        )

    # -- durable state ----------------------------------------------------

    def folded(self):
        """Replay the journal and fold it to current state."""
        return fold(replay(self.journal_path))

    def spec(self, folded=None):
        folded = folded or self.folded()
        if not folded.get("spec"):
            raise CampaignError(
                "campaign %s journal has no spec (truncated at birth?); "
                "delete the directory and resubmit" % self.id
            )
        return CampaignSpec.from_dict(folded["spec"])

    def status(self):
        """The ``repro campaign status`` document (plain dict)."""
        folded = self.folded()
        spec = self.spec(folded)
        plan = spec.compile_plan()
        shards = folded["shards"]
        done = sum(1 for s in shards.values() if s["status"] == "done")
        quarantined = sum(
            1 for s in shards.values() if s["status"] == "quarantined"
        )
        failures = sum(s["failed"] for s in shards.values())
        pid = folded["supervisor_pid"]
        return {
            "id": self.id,
            "state": folded["state"],
            "shards_total": len(plan.shards),
            "shards_done": done,
            "shards_quarantined": quarantined,
            "failed_attempts": failures,
            "cells_total": len(plan.cells),
            "cells_done": len(folded["cells_done"]),
            "supervisor_pid": pid,
            "supervisor_alive": _pid_alive(pid),
            "jobs": folded["jobs"] or spec.supervisor.jobs,
            "events": folded["events"],
        }

    # -- control markers --------------------------------------------------

    def _control_path(self, kind):
        return os.path.join(self.control_dir, kind)

    def request(self, kind):
        """Drop a pause/cancel marker for the live supervisor to honour."""
        folded = self.folded()
        target = PAUSED if kind == "pause" else CANCELLED
        check_transition(folded["state"], target)
        os.makedirs(self.control_dir, exist_ok=True)
        with open(self._control_path(kind), "w", encoding="utf-8") as handle:
            handle.write("%d\n" % os.getpid())
        if not _pid_alive(folded["supervisor_pid"]):
            # No live supervisor to honour the marker: settle it here.
            if kind == "cancel":
                self.journal.append({"type": "state", "state": CANCELLED})
                self.journal.append(
                    {"type": "campaign-finished", "state": CANCELLED}
                )
            elif folded["state"] == RUNNING:
                # A dead supervisor left "running"; record the pause.
                self.journal.append({"type": "state", "state": PAUSED})
            self.clear_control()
            return "settled"
        return "requested"

    def control_requested(self):
        """Which marker is pending: ``"cancel"``, ``"pause"``, or None."""
        for kind in ("cancel", "pause"):  # cancel wins if both are down
            if os.path.exists(self._control_path(kind)):
                return kind
        return None

    def clear_control(self):
        for kind in ("pause", "cancel"):
            try:
                os.unlink(self._control_path(kind))
            except OSError:
                pass


class Supervisor:
    """The run loop: launch, reap, retry, quarantine, degrade, finish."""

    def __init__(self, campaign, jobs=None, pause_after=None, clock=time.time):
        self.campaign = campaign
        self.jobs_override = jobs
        self.pause_after = pause_after
        self.clock = clock
        self.spec = None  # bound by run()
        self.plan = None
        self.pool = None  # the run's WorkerPool
        self.inflight = {}  # shard key -> {"pid", "attempt", "launched"}
        self.results = {}  # shard key -> deterministic data payload
        self.quarantine = {}  # shard key -> reason
        self.abnormal_deaths = 0  # signal deaths since the last halving
        self._stop_request = None  # "pause" | "cancel" once decided

    # -- startup ----------------------------------------------------------

    def _take_ownership(self, folded):
        state = folded["state"]
        pid = folded["supervisor_pid"]
        if state == RUNNING and _pid_alive(pid) and pid != os.getpid():
            raise CampaignError(
                "campaign %s is already owned by live supervisor pid %d"
                % (self.campaign.id, pid)
            )
        check_transition(state, RUNNING)
        self.campaign.journal.append(
            {"type": "state", "state": RUNNING, "pid": os.getpid()}
        )

    def _restore(self, folded, spec):
        plan = spec.compile_plan()
        scheduler = Scheduler(
            plan, spec.supervisor.max_attempts, spec.supervisor.backoff
        )
        scheduler.restore(folded)
        for key, record in folded["shards"].items():
            if record["status"] == "done":
                self.results[key] = record["data"]
            elif record["status"] == "quarantined":
                reason = (record.get("meta") or {}).get("reason")
                self.quarantine[key] = reason or "retry budget exhausted"
        # The scheduler may infer quarantine the journal never recorded
        # (a crash during a shard's final attempt); adopt its verdict so
        # final_state, results.json, and quarantine.json stay consistent.
        for state in scheduler.quarantined():
            key = state.shard.key
            if key not in self.quarantine:
                reason = (
                    "retry budget exhausted (%d attempt(s), supervisor "
                    "crashed during the last)" % state.attempts
                )
                self.campaign.journal.append(
                    {"type": "shard-quarantined", "key": key, "reason": reason}
                )
                self.quarantine[key] = reason
        return plan, scheduler

    # -- the loop ---------------------------------------------------------

    def run(self, no_record=False):
        """Drive the campaign to pause, cancellation, or completion.

        Returns the campaign's state when this supervisor let go of
        it: ``paused``, ``cancelled``, ``completed``, or ``degraded``.
        """
        campaign = self.campaign
        folded = campaign.folded()
        spec = self.spec = campaign.spec(folded)
        self._take_ownership(folded)
        plan, scheduler = self._restore(folded, spec)
        self.plan = plan
        jobs = self.jobs_override or folded["jobs"] or spec.supervisor.jobs
        self.current_jobs = max(1, jobs)
        started = self.clock()
        self._announce_run(spec, plan)
        aggregator = TelemetryAggregator(campaign.spool_dir, clock=self.clock)
        cells_done = set(folded["cells_done"])
        tick = _tick(spec)

        def run_shard(item):
            shard, attempt = item
            return worker_main(shard, spec, campaign.dir, attempt)

        self.pool = WorkerPool(run_shard, self.current_jobs)
        ended = []
        previous = {
            signal.SIGTERM: signal.signal(signal.SIGTERM, self._on_signal),
            signal.SIGINT: signal.signal(signal.SIGINT, self._on_signal),
        }
        try:
            while True:
                now = self.clock()
                aggregator.poll()
                self._reap(ended, scheduler, plan, cells_done)
                self._check_liveness(aggregator, spec, now)
                self._poll_control()
                if (
                    self.pause_after is not None
                    and self._stop_request is None
                    and len(self.results) >= self.pause_after
                ):
                    self._stop_request = "pause"
                if self._stop_request:
                    return self._stop(scheduler, spec, aggregator)
                if scheduler.settled():
                    return self._finish(
                        spec, plan, scheduler, started, no_record
                    )
                self._launch(scheduler, now)
                ended = self.pool.wait(tick)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._kill_inflight(scheduler)
            self.pool.close()

    def _announce_run(self, spec, plan):
        """Dash-compatible run-begin marker (idempotent across resumes)."""
        _append_line(
            os.path.join(self.campaign.spool_dir, "run.jsonl"),
            {
                "type": "run-begin",
                "experiment": "campaign:%s" % spec.name,
                "tasks": len(plan.shards),
                "jobs": self.current_jobs,
                "pid": os.getpid(),
                "t": self.clock(),
            },
        )

    def _on_signal(self, signum, frame):
        """SIGTERM/SIGINT mean checkpoint-and-pause, never data loss."""
        self._stop_request = self._stop_request or "pause"

    def _poll_control(self):
        requested = self.campaign.control_requested()
        if requested == "cancel":
            self._stop_request = "cancel"
        elif requested == "pause" and self._stop_request is None:
            self._stop_request = "pause"

    # -- workers ----------------------------------------------------------

    def _launch(self, scheduler, now):
        while len(self.inflight) < self.current_jobs:
            state = scheduler.next_ready(now)
            if state is None:
                return
            shard = state.shard
            attempt = scheduler.mark_running(shard.key)
            self.campaign.journal.append(
                {"type": "shard-start", "key": shard.key, "attempt": attempt}
            )
            self.inflight[shard.key] = {
                "pid": self.pool.submit(shard.key, (shard, attempt)),
                "attempt": attempt,
                "launched": now,
            }

    def _reap(self, ended, scheduler, plan, cells_done):
        """Journal the shards that :meth:`WorkerPool.wait` saw end; a
        dead worker's attempt also goes to the spool as a failed task."""
        for key, kind, value in ended:
            entry = self.inflight.pop(key)
            shard = scheduler.states[key].shard
            result = load_result(self.campaign.dir, shard.index)
            if kind == DONE and result is not None and (
                result.get("attempt"), result.get("key")
            ) == (entry["attempt"], key):
                self.campaign.journal.append(
                    {
                        "type": "shard-done",
                        "key": key,
                        "data": result["data"],
                        "meta": result.get("meta"),
                    }
                )
                scheduler.mark_done(key)
                self.results[key] = result["data"]
                self._maybe_finish_cell(plan, scheduler, key, cells_done)
                continue
            if kind == DIED:
                reason = exit_reason(value)
                if value < 0:  # a signal, not an exit
                    self.abnormal_deaths += 1
                report_death(
                    self.campaign.spool_dir, entry["pid"], key,
                    self.clock() - entry["launched"], group=shard.cell,
                )
            elif kind == RAISED:
                reason = "%s: %s" % (type(value).__name__, value)
            else:
                reason = "finished without a result"
            self._record_failure(scheduler, plan, key, reason, cells_done)
            self._maybe_degrade()

    def _record_failure(self, scheduler, plan, key, reason, cells_done):
        self.campaign.journal.append(
            {"type": "shard-failed", "key": key, "reason": reason}
        )
        status = scheduler.mark_failed(key, self.clock())
        if status == "quarantined":
            attempts = scheduler.states[key].attempts
            full_reason = "%s after %d attempt(s)" % (reason, attempts)
            self.campaign.journal.append(
                {
                    "type": "shard-quarantined",
                    "key": key,
                    "reason": full_reason,
                }
            )
            self.quarantine[key] = full_reason
            self._maybe_finish_cell(plan, scheduler, key, cells_done)

    def _maybe_finish_cell(self, plan, scheduler, shard_key, cells_done):
        cell = plan.cell_of(shard_key)
        if cell.key not in cells_done and scheduler.cell_settled(cell):
            cells_done.add(cell.key)
            self.campaign.journal.append({"type": "cell-done", "cell": cell.key})

    def _check_liveness(self, aggregator, spec, now):
        """Kill the workers of shards silent beyond the liveness window.

        Silence counts from the shard's launch or its worker's last
        spool line, whichever is later: a worker's lines from earlier
        shards say nothing about this one."""
        timeout = spec.supervisor.liveness_timeout
        if timeout <= 0:
            return
        for key, entry in self.inflight.items():
            silence = now - entry["launched"]
            spoken = aggregator.worker_silence(entry["pid"])
            if spoken is not None:
                silence = min(silence, spoken)
            if silence > timeout:
                self.pool.kill(key)

    def _maybe_degrade(self):
        """Halve parallelism after every ``degrade_after`` signal deaths.

        Completed shards do not reset the count, so whether a run
        degrades depends on how many of its attempts die, not on the
        order in which deaths and completions arrive."""
        threshold = self.spec.supervisor.degrade_after
        if self.abnormal_deaths >= threshold and self.current_jobs > 1:
            self.current_jobs = max(1, self.current_jobs // 2)
            self.abnormal_deaths = 0
            self.campaign.journal.append(
                {"type": "degrade", "jobs_to": self.current_jobs}
            )

    def _kill_inflight(self, scheduler):
        for key in list(self.inflight):
            self.pool.kill(key)
            del self.inflight[key]
            self.campaign.journal.append({"type": "shard-released", "key": key})
            scheduler.release_running(key)

    # -- endings ----------------------------------------------------------

    def _stop(self, scheduler, spec, aggregator):
        """Honour a pause/cancel: grace-drain in-flight work, checkpoint."""
        request = self._stop_request
        deadline = self.clock() + spec.supervisor.grace
        tick = _tick(spec)
        cells_done = set()  # cell-done entries re-derive on resume
        while self.inflight and self.clock() < deadline:
            ended = self.pool.wait(min(tick, deadline - self.clock()))
            aggregator.poll()
            self._reap(ended, scheduler, self.plan, cells_done)
        self._kill_inflight(scheduler)
        self.campaign.clear_control()
        if request == "cancel":
            self.campaign.journal.append({"type": "state", "state": CANCELLED})
            self.campaign.journal.append(
                {"type": "campaign-finished", "state": CANCELLED}
            )
            return CANCELLED
        self.campaign.journal.append({"type": "state", "state": PAUSED})
        return PAUSED

    def _finish(self, spec, plan, scheduler, started, no_record):
        """Every shard settled: write the documents and seal the journal."""
        final_state = DEGRADED if self.quarantine else COMPLETED
        self._write_results(spec, plan, final_state)
        self._write_quarantine_report(scheduler)
        self.campaign.journal.append(
            {"type": "campaign-finished", "state": final_state}
        )
        _append_line(
            os.path.join(self.campaign.spool_dir, "run.jsonl"),
            {
                "type": "run-end",
                "completed": final_state == COMPLETED,
                "t": self.clock(),
            },
        )
        if not no_record:
            self._record_run(spec, plan, final_state, started)
        return final_state

    def _write_results(self, spec, plan, final_state):
        """The deterministic results document — the byte-identity anchor.

        Pure function of (spec, shard data payloads, quarantine set):
        no timestamps, pids, attempt counts, or host timings, so an
        interrupted-and-resumed campaign writes the same bytes as an
        uninterrupted one.
        """
        cells = []
        totals = {"shards": 0, "done": 0, "quarantined": 0, "flips": 0}
        for cell in plan.cells:
            shard_rows = []
            done = quarantined = 0
            for shard in cell.shards:
                if shard.key in self.quarantine:
                    status, data = "quarantined", None
                    quarantined += 1
                else:
                    status, data = "done", self.results.get(shard.key)
                    done += 1
                shard_rows.append(
                    {
                        "key": shard.key,
                        "seed": shard.seed,
                        "status": status,
                        "data": data,
                    }
                )
                totals["flips"] += (data or {}).get("flips", 0)
            cells.append(
                {
                    "key": cell.key,
                    "machine": cell.machine,
                    "defense": cell.defense,
                    "chaos": cell.chaos,
                    "pattern": cell.pattern,
                    "done": done,
                    "quarantined": quarantined,
                    "shards": shard_rows,
                }
            )
            totals["shards"] += len(cell.shards)
            totals["done"] += done
            totals["quarantined"] += quarantined
        document = {
            "v": RESULTS_VERSION,
            "name": spec.name,
            "seed": spec.seed,
            "fingerprint": spec.fingerprint(),
            "state": final_state,
            "cells": cells,
            "totals": totals,
        }
        write_json_atomic(self.campaign.results_path, document, indent=1)

    def _write_quarantine_report(self, scheduler):
        report = {
            "v": RESULTS_VERSION,
            "quarantined": [
                {
                    "key": state.shard.key,
                    "attempts": state.attempts,
                    "reason": self.quarantine.get(state.shard.key),
                }
                for state in scheduler.quarantined()
            ],
        }
        write_json_atomic(self.campaign.quarantine_path, report, indent=1)

    def _record_run(self, spec, plan, final_state, started):
        try:
            record = RunRecord.new(
                CAMPAIGN_RUN,
                spec.name,
                machine=",".join(spec.machines),
                config_fingerprint=spec.fingerprint(),
                command="repro campaign resume %s" % self.campaign.id,
                timings={"host_seconds": round(self.clock() - started, 6)},
                outcome={
                    "state": final_state,
                    "shards": len(plan.shards),
                    "done": len(self.results),
                    "quarantined": len(self.quarantine),
                },
                extra={"campaign_id": self.campaign.id},
            )
            RunLedger().record(record)
        except (OSError, ConfigError):
            pass  # the ledger is advisory; the campaign documents are not
