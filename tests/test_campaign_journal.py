"""The campaign WAL: append, replay, torn tails, fold, transitions.

The commit rule is shared with the experiment engine's checkpoints,
which use the same append and replay (:mod:`repro.utils.serialize`).
"""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.campaign import (
    CampaignJournal,
    CANCELLED,
    COMPLETED,
    CREATED,
    DEGRADED,
    PAUSED,
    RUNNING,
    check_transition,
    fold,
    replay,
)
from repro.errors import CampaignError, ConfigError
from repro.utils.serialize import append_entry, replay_entries


@pytest.fixture
def journal(tmp_path):
    return CampaignJournal(str(tmp_path / "journal.jsonl"))


def test_append_replay_round_trip(journal):
    journal.append({"type": "campaign-created", "id": "a", "spec": {"x": 1}})
    journal.append({"type": "state", "state": RUNNING, "pid": 42})
    entries = replay(journal.path)
    assert [entry["type"] for entry in entries] == ["campaign-created", "state"]
    assert all(entry["v"] == 1 for entry in entries)


def test_replay_tolerates_a_torn_final_line(journal):
    journal.append({"type": "campaign-created", "id": "a"})
    journal.append({"type": "state", "state": RUNNING})
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "shard-done", "key": "k", "da')  # torn write
    entries = replay(journal.path)
    assert len(entries) == 2


#: (append, replay) of each log: the campaign journal and the engine's
#: experiment checkpoints.
LOGS = {
    "campaign journal": (
        lambda path, entry: CampaignJournal(path).append(entry),
        replay,
    ),
    "checkpoint": (
        append_entry,
        lambda path: replay_entries(path, "checkpoint", ConfigError),
    ),
}

_ENTRIES = st.lists(
    st.fixed_dictionaries(
        {"type": st.text(max_size=8)},
        optional={"data": st.one_of(st.integers(), st.text(max_size=20))},
    ),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(log=st.sampled_from(sorted(LOGS)), entries=_ENTRIES, torn=st.integers(0))
@example(log="checkpoint", entries=[{"type": "a"}, {"type": "b"}], torn=1)
@example(log="campaign journal", entries=[{"type": "a"}], torn=1)
def test_any_cut_replays_the_committed_entries_then_appends_cleanly(
    log, entries, torn
):
    append, read = LOGS[log]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "log.jsonl")
        open(path, "wb").close()
        written = [append(path, entry) for entry in entries]
        with open(path, "rb") as handle:
            data = handle.read()
        # Tear ``torn`` bytes off the end, as ``truncate -s -N`` would:
        # 1 leaves the last entry whole but without its newline.
        cut = len(data) - torn % (len(data) + 1)
        with open(path, "r+b") as handle:
            handle.truncate(cut)
        # An entry counts once its newline is on disk.
        committed = written[: data[:cut].count(b"\n")]
        assert read(path) == committed
        new = append(path, {"type": "after-cut"})
        assert read(path) == committed + [new]


def test_replay_rejects_mid_file_damage(journal):
    journal.append({"type": "campaign-created", "id": "a"})
    journal.append({"type": "state", "state": RUNNING})
    lines = open(journal.path, encoding="utf-8").read().splitlines()
    lines[0] = lines[0][:10]  # damage a non-final line
    with open(journal.path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(CampaignError, match="damaged after writing"):
        replay(journal.path)


def test_replay_rejects_unknown_versions_and_non_objects(journal):
    with open(journal.path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "state", "v": 99}) + "\n")
        handle.write(json.dumps({"type": "state", "v": 1}) + "\n")
    with pytest.raises(CampaignError, match="version"):
        replay(journal.path)
    with open(journal.path, "w", encoding="utf-8") as handle:
        handle.write('["list", "line"]\n')
        handle.write(json.dumps({"type": "state", "v": 1}) + "\n")
    with pytest.raises(CampaignError, match="not an object"):
        replay(journal.path)


def test_replay_missing_journal_is_an_error(tmp_path):
    with pytest.raises(CampaignError, match="no campaign journal"):
        replay(str(tmp_path / "nope.jsonl"))


def test_fold_tracks_the_shard_lifecycle(journal):
    journal.append(
        {"type": "campaign-created", "id": "a", "spec": {"name": "a"},
         "fingerprint": "f00d"}
    )
    journal.append({"type": "state", "state": RUNNING, "pid": 7})
    journal.append({"type": "shard-start", "key": "s1", "attempt": 1})
    journal.append({"type": "shard-failed", "key": "s1", "reason": "boom"})
    journal.append({"type": "shard-start", "key": "s1", "attempt": 2})
    journal.append({"type": "shard-done", "key": "s1", "data": {"flips": 3},
                    "meta": {"attempt": 2}})
    journal.append({"type": "shard-start", "key": "s2", "attempt": 1})
    journal.append({"type": "cell-done", "cell": "c1"})
    journal.append({"type": "degrade", "jobs_to": 1})
    state = fold(replay(journal.path))
    assert state["id"] == "a" and state["fingerprint"] == "f00d"
    assert state["state"] == RUNNING and state["supervisor_pid"] == 7
    assert state["shards"]["s1"]["status"] == "done"
    assert state["shards"]["s1"]["data"] == {"flips": 3}
    assert state["shards"]["s1"] == {
        "status": "done", "started": 2, "failed": 1,
        "data": {"flips": 3}, "meta": {"attempt": 2},
    }
    # s2 started but never finished: re-runs after a crash
    assert state["shards"]["s2"]["status"] is None
    assert state["cells_done"] == {"c1"}
    assert state["jobs"] == 1


def test_fold_refunds_released_attempts(journal):
    journal.append({"type": "shard-start", "key": "s1", "attempt": 1})
    journal.append({"type": "shard-released", "key": "s1"})
    state = fold(replay(journal.path))
    assert state["shards"]["s1"]["started"] == 0


def test_fold_quarantine_and_finish(journal):
    journal.append({"type": "shard-quarantined", "key": "s1", "reason": "poison"})
    journal.append({"type": "campaign-finished", "state": DEGRADED})
    state = fold(replay(journal.path))
    assert state["shards"]["s1"]["status"] == "quarantined"
    assert state["state"] == DEGRADED


def test_lifecycle_transitions():
    check_transition(CREATED, RUNNING)
    check_transition(RUNNING, RUNNING)  # resume after kill -9
    check_transition(RUNNING, PAUSED)
    check_transition(PAUSED, RUNNING)
    check_transition(PAUSED, CANCELLED)
    for terminal in (COMPLETED, DEGRADED, CANCELLED):
        with pytest.raises(CampaignError, match="terminal"):
            check_transition(terminal, RUNNING)
    with pytest.raises(CampaignError):
        check_transition(CREATED, PAUSED)
