"""Shard scheduling: retry backoff, quarantine, and readiness.

The scheduler is deliberately pure state — no processes, no clocks of
its own — so it can be rebuilt from a journal fold after a crash and
unit-tested without a supervisor.  Each shard walks::

    pending -> running -> done
                   \\-> failed (awaiting retry, after a backoff)
                   \\-> quarantined (retry budget exhausted)

Backoff is :func:`~repro.utils.pool.backoff_delay`: exponential with
jitter seeded per shard, so herds of failures spread out but test runs
can predict the schedule exactly.  Backoff is host time — it shapes
*when* work reruns, never *what* it computes — so it is excluded from
the determinism contract on results.
"""

from repro.utils.pool import backoff_delay

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"


class ShardState:
    """One shard's scheduling bookkeeping (not its results)."""

    __slots__ = ("shard", "status", "attempts", "not_before")

    def __init__(self, shard):
        self.shard = shard
        self.status = PENDING
        self.attempts = 0  # attempts started so far
        self.not_before = 0.0  # host time gate for the next launch


class Scheduler:
    """Tracks every shard of a plan through retries to a verdict."""

    def __init__(self, plan, max_attempts, backoff):
        self.plan = plan
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.states = {shard.key: ShardState(shard) for shard in plan.shards}

    # -- restore ----------------------------------------------------------

    def restore(self, folded):
        """Adopt a journal fold's view of shard progress.

        Shards the dead supervisor had *started* but never finished
        fold back to ``pending`` (their attempt counts as spent —
        a shard that keeps killing its worker still hits the
        quarantine budget across resumes).  Already-quarantined
        shards stay quarantined; done shards stay done.
        """
        for key, record in folded.get("shards", {}).items():
            state = self.states.get(key)
            if state is None:
                continue  # journal from a larger spec; validated upstream
            started = record.get("started", 0)
            failed = record.get("failed", 0)
            state.attempts = max(started, failed)
            if record.get("status") == "done":
                state.status = DONE
            elif record.get("status") == "quarantined":
                state.status = QUARANTINED
            elif state.attempts >= self.max_attempts:
                state.status = QUARANTINED
            elif state.attempts > 0:
                state.status = FAILED
                state.not_before = 0.0  # the crash already cost wall time

    # -- transitions ------------------------------------------------------

    def next_ready(self, now):
        """The next launchable shard (plan order), or ``None``."""
        for shard in self.plan.shards:
            state = self.states[shard.key]
            if state.status in (PENDING, FAILED) and now >= state.not_before:
                return state
        return None

    def mark_running(self, key):
        state = self.states[key]
        state.status = RUNNING
        state.attempts += 1
        return state.attempts

    def mark_done(self, key):
        self.states[key].status = DONE

    def mark_failed(self, key, now):
        """Record a failed attempt; returns the new status."""
        state = self.states[key]
        if state.attempts >= self.max_attempts:
            state.status = QUARANTINED
        else:
            state.status = FAILED
            state.not_before = now + backoff_delay(
                self.backoff, state.shard.seed, state.attempts
            )
        return state.status

    def release_running(self, key):
        """Put an interrupted (paused/cancelled) shard back in the queue.

        The launch attempt stays counted — an interrupted attempt did
        consume a slot of the retry budget only if it *failed*; a
        clean pause should not, so the attempt is refunded here.
        """
        state = self.states[key]
        if state.status == RUNNING:
            state.status = PENDING
            state.attempts = max(0, state.attempts - 1)

    # -- queries ----------------------------------------------------------

    def quarantined(self):
        return [
            self.states[shard.key]
            for shard in self.plan.shards
            if self.states[shard.key].status == QUARANTINED
        ]

    def settled(self):
        """True when every shard reached a verdict (done or quarantined)."""
        return all(
            s.status in (DONE, QUARANTINED) for s in self.states.values()
        )

    def cell_settled(self, cell):
        return all(
            self.states[shard.key].status in (DONE, QUARANTINED)
            for shard in cell.shards
        )
