"""Campaign specs: validation, compilation, and fingerprints."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.campaign import CampaignSpec, FaultPlan, SupervisorConfig
from repro.campaign.spec import NO_CHAOS, NO_PATTERN
from repro.errors import ConfigError

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _spec_dict(**overrides):
    payload = {
        "name": "study",
        "seed": 3,
        "machines": ["tiny"],
        "defenses": ["none", "catt"],
        "chaos": [NO_CHAOS, "quiet"],
        "patterns": [NO_PATTERN],
        "shards_per_cell": 2,
        "attack": {"workload": "probe"},
    }
    payload.update(overrides)
    return payload


def test_from_dict_round_trips_through_to_dict():
    spec = CampaignSpec.from_dict(_spec_dict())
    again = CampaignSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()


def test_unknown_spec_keys_are_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        CampaignSpec.from_dict(_spec_dict(surprise=1))


def test_unknown_axis_values_fail_eagerly():
    with pytest.raises(ConfigError, match="unknown machine preset"):
        CampaignSpec.from_dict(_spec_dict(machines=["mainframe"]))
    with pytest.raises(ConfigError, match="unknown defense"):
        CampaignSpec.from_dict(_spec_dict(defenses=["prayer"]))
    with pytest.raises(ConfigError, match="unknown chaos profile"):
        CampaignSpec.from_dict(_spec_dict(chaos=["tornado"]))
    with pytest.raises(ConfigError):
        CampaignSpec.from_dict(_spec_dict(patterns=["no-such-pattern"]))


def test_unknown_workload_and_version_are_rejected():
    with pytest.raises(ConfigError, match="workload"):
        CampaignSpec.from_dict(_spec_dict(attack={"workload": "meditate"}))
    with pytest.raises(ConfigError, match="version"):
        CampaignSpec.from_dict(_spec_dict(version=99))


def test_supervisor_knobs_are_validated():
    with pytest.raises(ConfigError, match="jobs"):
        CampaignSpec.from_dict(_spec_dict(supervisor={"jobs": 0}))
    with pytest.raises(ConfigError, match="max_attempts"):
        CampaignSpec.from_dict(_spec_dict(supervisor={"max_attempts": 0}))
    assert SupervisorConfig().validate()


def test_misspelled_supervisor_key_is_config_error():
    with pytest.raises(ConfigError, match="supervisor section is malformed"):
        CampaignSpec.from_dict(_spec_dict(supervisor={"jobz": 2}))


def test_compile_plan_covers_the_full_matrix():
    plan = CampaignSpec.from_dict(_spec_dict()).compile_plan()
    # 1 machine x 2 defenses x 2 chaos x 1 pattern = 4 cells, 2 shards each
    assert len(plan.cells) == 4
    assert len(plan.shards) == 8
    assert [shard.index for shard in plan.shards] == list(range(8))
    assert len({shard.key for shard in plan.shards}) == 8
    assert len({shard.seed for shard in plan.shards}) == 8


def test_shard_seeds_are_stable_and_index_independent():
    plan_a = CampaignSpec.from_dict(_spec_dict()).compile_plan()
    plan_b = CampaignSpec.from_dict(_spec_dict()).compile_plan()
    assert [s.seed for s in plan_a.shards] == [s.seed for s in plan_b.shards]
    # Adding an axis value must not change the seeds of existing cells:
    # seeds derive from (root seed, cell key, shard number), not from
    # the shard's position in the flattened plan.
    wider = CampaignSpec.from_dict(
        _spec_dict(defenses=["none", "catt", "cta"])
    ).compile_plan()
    seeds_by_key = {s.key: s.seed for s in wider.shards}
    for shard in plan_a.shards:
        assert seeds_by_key[shard.key] == shard.seed


def test_fingerprint_ignores_supervision_knobs():
    base = CampaignSpec.from_dict(_spec_dict())
    tuned = CampaignSpec.from_dict(
        _spec_dict(supervisor={"jobs": 7, "max_attempts": 9})
    )
    assert base.fingerprint() == tuned.fingerprint()
    reseeded = CampaignSpec.from_dict(_spec_dict(seed=4))
    assert base.fingerprint() != reseeded.fingerprint()


def test_plan_lookups():
    plan = CampaignSpec.from_dict(_spec_dict()).compile_plan()
    shard = plan.shards[3]
    assert plan.shard(shard.key) is shard
    assert shard.key.startswith(plan.cell_of(shard.key).key)
    with pytest.raises(ConfigError):
        plan.shard("m=nope")


def test_fault_plan_validation():
    spec = CampaignSpec.from_dict(
        _spec_dict(faults={"rules": [{"kind": "kill", "attempts": 1}]})
    )
    plan = FaultPlan.from_dict(spec.faults)
    assert plan.rules[0].kind == "kill"
    with pytest.raises(ConfigError, match="unknown"):
        CampaignSpec.from_dict(
            _spec_dict(faults={"rules": [{"kind": "explode"}]})
        )
    with pytest.raises(ConfigError, match="point"):
        FaultPlan.from_dict({"rules": [{"kind": "kill", "point": "end"}]})
    with pytest.raises(ConfigError, match="unknown keys"):
        FaultPlan.from_dict({"rules": [], "extra": 1})


def test_every_spec_in_the_campaign_docs_loads():
    docs = os.path.join(os.path.dirname(REPO_SRC), "docs", "CAMPAIGNS.md")
    with open(docs, encoding="utf-8") as handle:
        blocks = re.findall(r"```json\n(.*?)```", handle.read(), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        CampaignSpec.from_dict(json.loads(block))


_DRAW_SCRIPT = """
import json
from repro.campaign.faultinject import FaultPlan
from repro.campaign.spec import ShardSpec

plan = FaultPlan.from_dict(
    {"seed": 7, "rules": [{"kind": "kill", "probability": 0.5}]}
)
shards = [
    ShardSpec(key="k%d" % i, cell="c", machine="tiny", defense="none",
              chaos="none", pattern="-", index=i, seed=1000 + i)
    for i in range(32)
]
print(json.dumps([
    [plan._fires(plan.rules[0], shard, attempt) for attempt in (1, 2, 3)]
    for shard in shards
]))
"""


def test_fault_probability_draws_ignore_python_hash_seed():
    """Probabilistic fault rules must replay identically across
    processes: the draw may never mix in the salted built-in str hash,
    or resumes would see a different fault schedule than the run they
    are resuming.
    """
    outputs = []
    for hash_seed in ("0", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=REPO_SRC)
        outputs.append(
            subprocess.check_output(
                [sys.executable, "-c", _DRAW_SCRIPT], env=env, text=True
            )
        )
    assert outputs[0] == outputs[1]
    fired = [fire for row in json.loads(outputs[0]) for fire in row]
    assert any(fired) and not all(fired)  # probability 0.5 really mixes
