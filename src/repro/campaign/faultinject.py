"""Deterministic crash/fault injection for campaign recovery testing.

The orchestrator's recovery paths — worker restarts, retry backoff,
quarantine, journal-tail replay, deadline kills — are only trustworthy
if they run in CI, not just in war stories.  This module is the
harness: a :class:`FaultPlan` (plain data, embedded in the campaign
spec under ``"faults"``) tells *workers* to die, hang, or go silent at
deterministic points, and gives tests a :func:`truncate_journal`
helper that chops bytes off the WAL tail the way a torn write would.

Determinism rides on the same seed discipline as :mod:`repro.chaos`:
the decision for (shard, attempt) hashes the plan seed — defaulting to
the shard's chaos-profile seed (:func:`repro.chaos.profile_seed`) —
through :func:`~repro.utils.rng.hash_to_unit`, so a fault schedule
replays identically across runs, hosts, and ``--jobs`` values.

Fault kinds:

* ``kill``  — the worker SIGKILLs itself at ``point`` (``"start"``:
  before any work; ``"mid"``: after computing the shard result but
  before persisting it, i.e. the work is lost).  With ``attempts: N``
  the first N attempts die and the retry succeeds; with ``attempts:
  null`` every attempt dies — a poison shard the supervisor must
  quarantine.
* ``hang``  — the worker stops heartbeating and sleeps until the
  worker pool kills it at the attempt's ``liveness_timeout``.
* ``drop-heartbeats`` — the worker does its work but emits no
  heartbeats: a shard's fate rests on its result file and its
  deadline, never on what reaches the spool.
"""

import os
import signal
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.chaos import profile_seed
from repro.utils.rng import hash_to_unit

#: Where a ``kill`` fires inside the worker.
POINTS = ("start", "mid")

KINDS = ("kill", "hang", "drop-heartbeats")

#: Seed material when a shard has no chaos profile attached.
_NO_CHAOS_SEED = 0xFA017


@dataclass
class FaultRule:
    """One deterministic fault: what fires, where, and for whom."""

    kind: str
    #: Substring of the shard key; "" matches every shard.
    match: str = ""
    #: Fire while attempt <= attempts; ``None`` = every attempt (poison).
    attempts: Optional[int] = None
    point: str = "mid"
    probability: float = 1.0
    hang_seconds: float = 3600.0


@dataclass
class FaultPlan:
    """A seeded set of fault rules, replayable across runs."""

    rules: List[FaultRule] = field(default_factory=list)
    #: Overrides the per-shard chaos-profile seed when set.
    seed: Optional[int] = None

    @classmethod
    def from_dict(cls, payload):
        """Build a plan from a spec's ``faults`` section, checked first by
        :func:`repro.campaign.spec.check_faults` (a ConfigError)."""
        from repro.campaign.spec import check_faults  # spec imports this module

        check_faults(payload)
        return cls(
            rules=[FaultRule(**rule) for rule in payload.get("rules", [])],
            seed=payload.get("seed"),
        )

    # -- decisions --------------------------------------------------------

    def _shard_seed(self, shard):
        if self.seed is not None:
            return self.seed
        if shard.chaos and shard.chaos != "none":
            return profile_seed(shard.chaos)
        return _NO_CHAOS_SEED

    def _fires(self, rule, shard, attempt):
        if rule.match and rule.match not in shard.key:
            return False
        if rule.attempts is not None and attempt > rule.attempts:
            return False
        if rule.probability >= 1.0:
            return True
        draw = hash_to_unit(
            self._shard_seed(shard), shard.seed, rule.kind, attempt
        )
        return draw < rule.probability

    def heartbeats_dropped(self, shard, attempt):
        """Whether this (shard, attempt) must stay silent."""
        return any(
            self._fires(rule, shard, attempt)
            for rule in self.rules
            if rule.kind in ("hang", "drop-heartbeats")
        )

    def fire(self, shard, attempt, point):
        """Inject whatever the plan schedules at ``point``.

        ``kill`` rules SIGKILL the calling process — callers must be
        campaign *workers*, never the supervisor.  ``hang`` rules sleep
        (at the start point only); the attempt's ``liveness_timeout``
        is expected to kill the worker long before the sleep ends.
        """
        for rule in self.rules:
            if not self._fires(rule, shard, attempt):
                continue
            if rule.kind == "kill" and rule.point == point:
                os.kill(os.getpid(), signal.SIGKILL)
            if rule.kind == "hang" and point == "start":
                time.sleep(rule.hang_seconds)


def truncate_journal(journal_path, nbytes=32):
    """Chop ``nbytes`` off the journal tail, simulating a torn write.

    Returns the number of bytes actually removed.  Used by the
    recovery tests and the CI crash-injection job to prove that
    :func:`repro.campaign.journal.replay` survives tail damage and
    that a resumed campaign recomputes exactly the acknowledged-but-
    torn work.
    """
    size = os.path.getsize(journal_path)
    keep = max(0, size - max(0, nbytes))
    with open(journal_path, "r+b") as handle:
        handle.truncate(keep)
    return size - keep
