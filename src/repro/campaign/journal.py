"""The campaign WAL: an append-only, torn-write-tolerant journal.

Every state transition of a campaign — creation, supervisor start,
shard attempts and completions, quarantines, degradations, pauses, the
final verdict — is one fsynced JSON line in
``.repro/campaigns/<id>/journal.jsonl``.  The journal is the *only*
authority on campaign state: ``repro campaign resume`` after a
``kill -9`` replays it and continues exactly where the dead supervisor
left off, and because shard results are journaled in canonical JSON
with deterministic seeds, the resumed campaign's results are
byte-identical to an uninterrupted run.

Single-writer discipline: only the supervisor process appends (workers
persist their results to per-shard files the supervisor folds in), so
lines never interleave.  The journal is the log format the experiment
engine's checkpoints share (:mod:`repro.utils.serialize`): an entry
counts once its newline is on disk, :func:`replay` skips the
unterminated tail a crash leaves, and the next append cuts that tail
off.  A damaged committed line raises :class:`~repro.errors.CampaignError`.
"""

from repro.errors import CampaignError
from repro.utils.serialize import append_entry, replay_entries

#: Campaign lifecycle states.
CREATED = "created"
RUNNING = "running"
PAUSED = "paused"
COMPLETED = "completed"
DEGRADED = "degraded"
CANCELLED = "cancelled"

#: States a campaign can never leave.
TERMINAL_STATES = (COMPLETED, DEGRADED, CANCELLED)

#: Legal state-machine transitions (see docs/CAMPAIGNS.md).  RUNNING ->
#: RUNNING is legal on purpose: a supervisor killed with ``kill -9``
#: leaves the journal saying "running", and resume takes over.
_TRANSITIONS = {
    CREATED: (RUNNING, CANCELLED),
    RUNNING: (RUNNING, PAUSED, COMPLETED, DEGRADED, CANCELLED),
    PAUSED: (RUNNING, CANCELLED),
    COMPLETED: (),
    DEGRADED: (),
    CANCELLED: (),
}


def check_transition(current, target):
    """Raise :class:`CampaignError` unless ``current -> target`` is legal."""
    if target not in _TRANSITIONS.get(current, ()):
        raise CampaignError(
            "campaign cannot go from %r to %r%s"
            % (
                current,
                target,
                " (terminal state)" if current in TERMINAL_STATES else "",
            )
        )


class CampaignJournal:
    """Appends journal entries, each fsynced whole."""

    def __init__(self, path):
        self.path = path

    def append(self, entry):
        """Durably append one entry; returns it with its version field."""
        return append_entry(self.path, entry)


def replay(path):
    """Read a journal back as a list of entries.

    Skips an unterminated final line (a killed supervisor, or an
    injected tail truncation); a damaged committed line raises, because
    acknowledged state must never be silently dropped.
    """
    return replay_entries(path, "campaign journal", CampaignError)


def fold(entries):
    """Fold journal entries into the campaign's current state.

    Returns a plain dict::

        {
          "id": str | None,
          "spec": dict | None,          # the journaled spec snapshot
          "fingerprint": str | None,
          "state": one of the lifecycle states,
          "supervisor_pid": int | None, # pid of the last run attempt
          "jobs": int | None,           # after any degradations
          "shards": {key: {"status": "done"|"quarantined" | None,
                           "started": int, "failed": int,
                           "data": ..., "meta": ...}},
          "cells_done": set of cell keys,
          "events": int,
        }

    Shards that were *started* but neither finished nor failed are
    left with ``status None`` — after a crash they simply run again
    (deterministic seeds make the re-run byte-identical).
    """
    state = {
        "id": None,
        "spec": None,
        "fingerprint": None,
        "state": CREATED,
        "supervisor_pid": None,
        "jobs": None,
        "shards": {},
        "cells_done": set(),
        "events": 0,
    }

    def shard(key):
        return state["shards"].setdefault(
            key,
            {"status": None, "started": 0, "failed": 0, "data": None, "meta": None},
        )

    for entry in entries:
        state["events"] += 1
        kind = entry.get("type")
        if kind == "campaign-created":
            state["id"] = entry.get("id")
            state["spec"] = entry.get("spec")
            state["fingerprint"] = entry.get("fingerprint")
        elif kind == "state":
            state["state"] = entry.get("state", state["state"])
            if entry.get("pid") is not None:
                state["supervisor_pid"] = entry["pid"]
        elif kind == "shard-start":
            shard(entry["key"])["started"] += 1
        elif kind == "shard-released":
            # A clean pause/cancel interrupted this attempt; refund it
            # so checkpointing never burns retry budget.
            record = shard(entry["key"])
            record["started"] = max(0, record["started"] - 1)
        elif kind == "shard-done":
            record = shard(entry["key"])
            record["status"] = "done"
            record["data"] = entry.get("data")
            record["meta"] = entry.get("meta")
        elif kind == "shard-failed":
            shard(entry["key"])["failed"] += 1
        elif kind == "shard-quarantined":
            record = shard(entry["key"])
            record["status"] = "quarantined"
            record["meta"] = {"reason": entry.get("reason")}
        elif kind == "cell-done":
            state["cells_done"].add(entry.get("cell"))
        elif kind == "degrade":
            state["jobs"] = entry.get("jobs_to", state["jobs"])
        elif kind == "campaign-finished":
            state["state"] = entry.get("state", state["state"])
    return state
