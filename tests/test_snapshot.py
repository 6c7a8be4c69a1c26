"""Snapshot/restore/fork round-trip equivalence (docs/SNAPSHOTS.md).

The contract under test: a machine restored from a snapshot is
byte-for-byte the machine that was captured.  Continuing both — the
original and a restore into a fresh machine — must produce identical
traces, cycle counts, metrics, and ground-truth bit flips, on either
engine (``fast_path`` on or off) and under chaos page-table churn.
Machine state is the same on both engines, so a snapshot of one
restores into the other.  Anything weaker would let warm-started
engine runs drift from cold ones.

Alongside the equivalence suites sit unit tests for the pieces: the
``pack``/``unpack`` codec, the :class:`MachineSnapshot` container
(versioning, JSON round trip, ``ensure_matches``), ``Machine.fork``
semantics, and the engine's warm-start path.
"""

import json

import pytest

from repro.chaos import ChaosInjector, chaos_profile
from repro.core.hammer import HammerTarget, PatternHammer
from repro.core.llc_pool import EvictionSet
from repro.errors import SnapshotError
from repro.machine import (
    SNAPSHOT_VERSION,
    AttackerView,
    Inspector,
    Machine,
    MachineSnapshot,
)
from repro.machine.configs import tiny_test_config
from repro.machine.snapshot import config_from_dict
from repro.patterns import compile_pattern, get
from repro.utils.serialize import pack, unpack


def _boot(seed=3, fast=True, chaos=None):
    machine = Machine(tiny_test_config(seed=seed), fast_path=fast)
    if chaos is not None:
        machine.attach_chaos(ChaosInjector(chaos_profile(chaos)))
    process = machine.boot_process()
    return machine, AttackerView(machine, process)


def _hammer_for(machine, attacker, base):
    """The fast-path suite's double-sided workload, from a fixed base."""
    sets = machine.config.tlb.l1d_sets
    targets = []
    for t in (0, 1):
        tlb_set = [base + (i * sets + t) * 4096 + 2048 for i in range(12)]
        lines = [
            base + (12 * sets + 13 * t + i) * 4096 + 17 * 64 for i in range(13)
        ]
        va = base + (12 * sets + 26 + t) * 4096
        targets.append(HammerTarget(va, tlb_set, EvictionSet(lines, 17)))
    return PatternHammer(attacker, compile_pattern(get("double_sided"), targets))


def _metrics(machine):
    return json.dumps(machine.metrics.snapshot_values(), sort_keys=True)


def _events(machine):
    return [
        (event.kind, event.component, event.cycle, tuple(sorted(event.fields.items())))
        for event in machine.trace.events
    ]


# ----------------------------------------------------------------------
# the core contract: restore-then-continue == never-interrupted


@pytest.mark.parametrize("fast", [False, True])
def test_restore_then_hammer_is_byte_identical(fast):
    """Snapshot mid-hammer, continue the original, and continue a
    restore into a fresh machine: cycles, metrics, flips, trace events,
    and the final state fingerprints must all agree."""
    machine, attacker = _boot(seed=3, fast=fast)
    sets = machine.config.tlb.l1d_sets
    base = attacker.mmap(12 * sets + 40, populate=True)
    _hammer_for(machine, attacker, base).run(rounds=30)
    snap = machine.snapshot(meta={"pid": attacker.process.pid, "base": base})

    machine.trace.enable()
    _hammer_for(machine, attacker, base).run(rounds=30)

    clone = Machine(tiny_test_config(seed=3), fast_path=fast).restore(snap)
    clone_attacker = AttackerView(
        clone, clone.kernel.processes[snap.meta["pid"]]
    )
    clone.trace.enable()
    _hammer_for(clone, clone_attacker, snap.meta["base"]).run(rounds=30)

    assert clone.cycles == machine.cycles
    assert _metrics(clone) == _metrics(machine)
    assert len(clone.trace.events) > 0
    assert _events(clone) == _events(machine)
    assert Inspector(clone).flip_count() == Inspector(machine).flip_count()
    assert clone.snapshot().fingerprint() == machine.snapshot().fingerprint()


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("profile,rounds", [("desktop", 30), ("server", 150)])
def test_restore_under_chaos_churn_is_byte_identical(fast, profile, rounds):
    """Same contract with a chaos injector attached: the churn streams
    (page-table migrations and drops) and the churn schedule are part of the state and must resume
    mid-stream.  ``server`` snapshots after its first churn (due at
    150,000 cycles), so a restore that forgot when the next one is due
    would churn on its first access."""
    machine, attacker = _boot(seed=7, fast=fast, chaos=profile)
    sets = machine.config.tlb.l1d_sets
    base = attacker.mmap(12 * sets + 40, populate=True)
    _hammer_for(machine, attacker, base).run(rounds=rounds)
    snap = machine.snapshot(meta={"pid": attacker.process.pid})

    _hammer_for(machine, attacker, base).run(rounds=rounds)

    clone = Machine(tiny_test_config(seed=7), fast_path=fast)
    clone.attach_chaos(ChaosInjector(chaos_profile(profile)))
    clone.restore(snap)
    clone_attacker = AttackerView(clone, clone.kernel.processes[snap.meta["pid"]])
    _hammer_for(clone, clone_attacker, base).run(rounds=rounds)

    assert clone.cycles == machine.cycles
    assert _metrics(clone) == _metrics(machine)
    assert clone.snapshot().fingerprint() == machine.snapshot().fingerprint()


def test_snapshot_capture_does_not_perturb_the_machine():
    """Taking a snapshot is observational: fingerprints taken twice in
    a row are identical, and so is the machine's continuation."""
    machine, attacker = _boot(seed=5)
    base = attacker.mmap(4, populate=True)
    attacker.touch(base)
    first = machine.snapshot().fingerprint()
    second = machine.snapshot().fingerprint()
    assert first == second
    attacker.touch(base + 4096)
    assert machine.snapshot().fingerprint() != first  # state moved on


def test_env_gated_fast_path_round_trips(monkeypatch):
    """REPRO_FAST_PATH=0/1 machines running the same steps take equal
    snapshots, and each snapshot restores under the other tier."""
    snaps = {}
    for value in ("0", "1"):
        monkeypatch.setenv("REPRO_FAST_PATH", value)
        machine = Machine(tiny_test_config(seed=3))
        assert machine.fast_path is (value == "1")
        attacker = AttackerView(machine, machine.boot_process())
        base = attacker.mmap(4, populate=True)
        attacker.touch(base)
        attacker.read_bulk([base + page * 4096 for page in range(4)])
        snaps[value] = machine.snapshot()
    assert snaps["0"].fingerprint() == snaps["1"].fingerprint()
    for value, other in (("0", "1"), ("1", "0")):
        monkeypatch.setenv("REPRO_FAST_PATH", other)
        clone = Machine(tiny_test_config(seed=3)).restore(snaps[value])
        assert clone.fast_path is (other == "1")
        assert clone.snapshot().fingerprint() == snaps[value].fingerprint()


# ----------------------------------------------------------------------
# the container: JSON round trip, versioning, compatibility gates


def test_snapshot_json_and_file_round_trip(tmp_path):
    machine, attacker = _boot(seed=2)
    attacker.touch(attacker.mmap(2, populate=True))
    snap = machine.snapshot(meta={"note": "round-trip"})

    decoded = MachineSnapshot.from_json(snap.to_json())
    assert decoded.fingerprint() == snap.fingerprint()
    assert decoded.meta == {"note": "round-trip"}

    path = tmp_path / "machine.snap.json"
    snap.save(path)
    loaded = MachineSnapshot.load(path)
    assert loaded.fingerprint() == snap.fingerprint()
    clone = Machine(tiny_test_config(seed=2)).restore(loaded)
    # meta is part of the hashed payload, so re-attach it to compare.
    assert clone.snapshot(meta=snap.meta).fingerprint() == snap.fingerprint()


def test_snapshot_config_round_trips_through_the_codec():
    config = tiny_test_config(seed=8)
    snap = Machine(config).snapshot()
    rebuilt = snap.config()
    from repro.observe.ledger import config_fingerprint

    assert config_fingerprint(rebuilt) == config_fingerprint(config)
    assert rebuilt.tlb.l2s_mapping == config.tlb.l2s_mapping  # tuples survive
    assert isinstance(rebuilt.tlb.l2s_mapping, type(config.tlb.l2s_mapping))


def test_unsupported_version_is_refused():
    machine, _ = _boot()
    payload = dict(machine.snapshot().payload)
    payload["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(SnapshotError, match="version"):
        MachineSnapshot(payload)


def test_malformed_json_is_refused():
    with pytest.raises(SnapshotError, match="valid JSON"):
        MachineSnapshot.from_json("{not json")
    with pytest.raises(SnapshotError, match="object"):
        MachineSnapshot.from_json("[1, 2]")
    with pytest.raises(SnapshotError, match="state"):
        MachineSnapshot.from_json(
            json.dumps(
                {
                    "version": SNAPSHOT_VERSION,
                    "machine": "tiny-test",
                    "config": {},
                    "config_fingerprint": "0" * 16,
                    "meta": {},
                }
            )
        )


def test_restore_rejects_config_mismatch():
    snap = Machine(tiny_test_config(seed=1)).snapshot()
    with pytest.raises(SnapshotError, match="config"):
        Machine(tiny_test_config(seed=2)).restore(snap)


def test_older_snapshot_version_is_refused(tmp_path, capsys):
    """A version-2 file (it carried the tier flag and the fast tier's
    address memo) is refused before anything reads its state, and
    ``repro snapshot info`` says so in one ``repro:`` line."""
    from repro.cli import main

    payload = dict(Machine(tiny_test_config(seed=1)).snapshot().payload)
    payload["version"] = 2
    with pytest.raises(SnapshotError, match="version 2 not supported"):
        MachineSnapshot.from_json(json.dumps(payload))
    path = tmp_path / "v2.snap.json"
    path.write_text(json.dumps(payload))
    assert main(["snapshot", "info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("repro:") == 1 and "version 2" in captured.err


def test_restore_rejects_chaos_presence_mismatch():
    machine, _ = _boot(seed=4, chaos="desktop")
    snap = machine.snapshot()
    with pytest.raises(SnapshotError, match="chaos"):
        Machine(tiny_test_config(seed=4)).restore(snap)

    bare_snap = Machine(tiny_test_config(seed=4)).snapshot()
    chaotic = Machine(tiny_test_config(seed=4))
    chaotic.attach_chaos(ChaosInjector(chaos_profile("desktop")))
    with pytest.raises(SnapshotError, match="chaos"):
        chaotic.restore(bare_snap)


def test_info_summarises_the_payload():
    machine, attacker = _boot(seed=6)
    attacker.touch(attacker.mmap(2, populate=True))
    info = machine.snapshot(meta={"boot_pid": attacker.process.pid}).info()
    assert info["version"] == SNAPSHOT_VERSION
    assert info["machine"] == "tiny-test"
    assert info["cycles"] == machine.cycles
    assert info["processes"] == len(machine.kernel.processes)
    assert info["chaos"] is False
    assert info["meta"]["boot_pid"] == attacker.process.pid
    assert len(info["fingerprint"]) == 16


def test_config_from_dict_rejects_unknown_fields():
    from dataclasses import asdict

    payload = asdict(tiny_test_config())
    payload["not_a_field"] = 1
    with pytest.raises(SnapshotError, match="MachineConfig"):
        config_from_dict(payload)


# ----------------------------------------------------------------------
# fork


def test_fork_leaves_the_parent_untouched_and_diverges_cleanly():
    machine, attacker = _boot(seed=9)
    base = attacker.mmap(4, populate=True)
    attacker.touch(base)
    before = machine.snapshot().fingerprint()

    fork = machine.fork()
    assert machine.snapshot().fingerprint() == before  # parent unperturbed
    assert fork.snapshot().fingerprint() == before  # fork starts equal

    # Both continuations run the same ops: they stay in lockstep...
    fork_attacker = AttackerView(fork, fork.kernel.processes[attacker.process.pid])
    attacker.touch(base + 4096)
    fork_attacker.touch(base + 4096)
    assert fork.snapshot().fingerprint() == machine.snapshot().fingerprint()
    # ...and an extra op on the fork diverges only the fork.
    fork_attacker.touch(base + 2 * 4096)
    assert fork.snapshot().fingerprint() != machine.snapshot().fingerprint()


def test_fork_with_a_placement_policy_needs_a_fresh_instance():
    from repro.defenses import DEFENSE_PRESETS

    machine = Machine(tiny_test_config(seed=1), policy=DEFENSE_PRESETS["catt"]())
    machine.boot_process()
    with pytest.raises(SnapshotError, match="policy"):
        machine.fork()
    fork = machine.fork(policy=DEFENSE_PRESETS["catt"]())
    assert fork.cycles == machine.cycles


# ----------------------------------------------------------------------
# the engine's warm-start path


@pytest.mark.slow
def test_warm_started_engine_runs_match_cold_at_any_jobs():
    """The tentpole acceptance check: a warm-started run renders the
    same result and aggregates the same metrics as a cold run, serial
    or pooled, and records which snapshots trials started from."""
    import repro.analysis.warmstart as warmstart
    from repro.analysis import run_experiment

    warmstart.clear()
    options = {"config_fns": (tiny_test_config,), "sizes": (8, 12), "trials": 10}

    def view(run):
        return (
            run.result.render(),
            json.dumps(run.metrics.snapshot_values(), sort_keys=True),
        )

    cold = run_experiment("figure3", dict(options))
    warm = run_experiment("figure3", dict(options), warm_start=True)
    pooled = run_experiment("figure3", dict(options), jobs=2, warm_start=True)

    assert view(cold) == view(warm) == view(pooled)
    assert cold.warm_start is None
    assert warm.warm_start and pooled.warm_start == warm.warm_start
    for config_print, snap_print in warm.warm_start.items():
        assert len(config_print) == 16 and len(snap_print) == 16
    assert warmstart.is_active() is False  # deactivated on the way out


def test_warmstart_lookup_is_gated_and_cached():
    import repro.analysis.warmstart as warmstart

    warmstart.clear()
    config = tiny_test_config(seed=12)
    assert warmstart.lookup(config) is None  # inactive: always a miss
    warmstart.activate()
    try:
        first = warmstart.lookup(config)
        assert first is not None
        assert warmstart.lookup(tiny_test_config(seed=12)) is first  # cached
    finally:
        warmstart.deactivate()
        warmstart.clear()


def test_warmstart_prime_reads_both_option_conventions():
    import repro.analysis.warmstart as warmstart
    from repro.observe.ledger import config_fingerprint

    warmstart.clear()
    try:
        primed = warmstart.prime_from_options(
            {
                "config_fn": lambda: tiny_test_config(seed=1),
                "config_fns": (lambda: tiny_test_config(seed=2),),
            }
        )
        expected = {
            config_fingerprint(tiny_test_config(seed=1)),
            config_fingerprint(tiny_test_config(seed=2)),
        }
        assert set(primed) == expected
    finally:
        warmstart.clear()


# ----------------------------------------------------------------------
# the codec


def test_pack_round_trips_tuples_and_tupled_keys():
    tree = {
        "tags": {(1, 0x200): "a", (2, 0x400): "b"},
        "order": [(3, 4), (5, 6)],
        "mask": (1, 2, 3),
        "plain": {"x": 1, "nested": {"y": (7,)}},
        "ints": {0: "zero", 1: "one"},
    }
    packed = pack(tree)
    assert unpack(json.loads(json.dumps(packed))) == tree


def test_pack_preserves_dict_order():
    tree = {(2, 2): "second", (1, 1): "first"}
    round_tripped = unpack(json.loads(json.dumps(pack(tree))))
    assert list(round_tripped) == [(2, 2), (1, 1)]


def test_pack_escapes_marker_keyed_dicts():
    tree = {"__tuple__": [1, 2]}
    assert unpack(json.loads(json.dumps(pack(tree)))) == tree


def test_snapshot_values_is_the_only_registry_dump():
    # The one-release deprecation aliases from the snapshot() ->
    # snapshot_values() rename are gone; the old name must not quietly
    # reappear and shadow the machine-state protocol of docs/SNAPSHOTS.md.
    from repro.observe import MetricsRegistry

    assert not hasattr(MetricsRegistry(), "snapshot")
