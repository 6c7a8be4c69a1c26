"""System-noise injection layer: profiles, sources, determinism."""

import pytest

from repro.chaos import (
    CHAOS_PROFILES,
    ChaosConfig,
    ChaosInjector,
    chaos_profile,
)
from repro.campaign import CampaignSpec
from repro.campaign.worker import execute_shard
from repro.chaos.sources import (
    SOURCE_TYPES,
    CachePollution,
    NoiseSource,
    PageTableChurn,
    TimingJitter,
    TLBPollution,
    TransientFaultInjector,
)
from repro.errors import ConfigError, TransientFault
from repro.machine import AttackerView, Machine
from repro.machine.configs import tiny_test_config


# ----------------------------------------------------------------------
# construction-time validation (satellite: fail fast, not mid-run)


def test_source_rejects_negative_rate():
    with pytest.raises(ConfigError):
        CachePollution(rate=-0.1)
    with pytest.raises(ConfigError):
        TLBPollution(rate=1.5)
    with pytest.raises(ConfigError):
        TimingJitter(rate=-1e-9)
    with pytest.raises(ConfigError):
        TransientFaultInjector(probability=2.0)


def test_source_rejects_empty_ranges():
    with pytest.raises(ConfigError):
        CachePollution(rate=0.1, lines=0)
    with pytest.raises(ConfigError):
        TimingJitter(rate=0.1, max_cycles=0)
    with pytest.raises(ConfigError):
        PageTableChurn(period_cycles=0)
    with pytest.raises(ConfigError):
        PageTableChurn(fraction=-0.5)


def test_profile_rejects_unknown_source():
    config = ChaosConfig(name="bad", sources={"cosmic_rays": {}})
    with pytest.raises(ConfigError, match="cosmic_rays"):
        config.validate()


def test_profile_rejects_bad_source_params():
    config = ChaosConfig(
        name="bad", sources={"cache_pollution": {"rate": -1.0}}
    )
    with pytest.raises(ConfigError):
        config.validate()


def test_unknown_profile_name():
    with pytest.raises(ConfigError, match="unknown chaos profile"):
        chaos_profile("datacenter")


def test_builtin_profiles_validate():
    for name in CHAOS_PROFILES:
        profile = chaos_profile(name)
        assert profile.name == name
        assert profile.describe()


def test_injector_serves_one_machine():
    injector = ChaosInjector(chaos_profile("quiet"))
    m1 = Machine(tiny_test_config(seed=1))
    m2 = Machine(tiny_test_config(seed=2))
    m1.attach_chaos(injector)
    with pytest.raises(ConfigError):
        m2.attach_chaos(injector)


# ----------------------------------------------------------------------
# behaviour


def _boot(seed, profile=None):
    machine = Machine(tiny_test_config(seed=seed))
    if profile is not None:
        machine.attach_chaos(ChaosInjector(chaos_profile(profile)))
    return machine, AttackerView(machine, machine.boot_process())


def _workload(attacker, accesses=4000):
    base = attacker.mmap(8, populate=True)
    for index in range(accesses):
        attacker.touch(base + (index * 104) % (8 << 12))
    return attacker.rdtsc()


def test_quiet_profile_injects_nothing():
    machine, attacker = _boot(5, "quiet")
    _workload(attacker)
    assert not any(
        name.startswith("chaos.") and value
        for name, value in machine.metrics.counters().items()
    )


def test_no_chaos_run_is_byte_identical():
    # Attaching nothing must reproduce the historical machine exactly;
    # two fresh same-seed machines agree cycle-for-cycle.
    cycles = [_workload(_boot(9)[1]) for _ in range(2)]
    assert cycles[0] == cycles[1]


def test_chaos_same_seed_is_deterministic():
    runs = []
    for _ in range(2):
        machine, attacker = _boot(9, "desktop")
        end = _workload(attacker)
        runs.append((end, dict(machine.metrics.counters())))
    assert runs[0] == runs[1]


def test_chaos_perturbs_the_run():
    quiet_end = _workload(_boot(9)[1])
    machine, attacker = _boot(9, "server")
    try:
        noisy_end = _workload(attacker)
    except TransientFault:
        noisy_end = None  # an injected fault is itself a perturbation
    counters = machine.metrics.counters()
    assert noisy_end != quiet_end
    assert any(
        name.startswith("chaos.") and value
        for name, value in counters.items()
    )


def test_transient_fault_is_retryable():
    source = TransientFaultInjector(probability=1.0)
    machine, attacker = _boot(3)
    config = ChaosConfig(
        name="faulty", sources={"transient_faults": {"probability": 1.0}}
    )
    va = attacker.mmap(1, populate=True)
    machine.attach_chaos(ChaosInjector(config))
    with pytest.raises(TransientFault) as info:
        attacker.touch(va)
    assert info.value.retryable
    assert machine.metrics.counters()["chaos.faults_injected"] >= 1
    assert source.params() == {"probability": 1.0}


def test_churn_decays_page_tables_without_crashing():
    machine, attacker = _boot(7)
    config = ChaosConfig(
        name="churny",
        seed=77,
        sources={
            "page_table_churn": {
                "period_cycles": 5_000,
                "fraction": 0.5,
                "drop_fraction": 0.5,
            }
        },
    )
    machine.attach_chaos(ChaosInjector(config))
    base = attacker.mmap(64, populate=True)
    for index in range(4000):
        attacker.touch(base + (index * 4160) % (64 << 12))
    counters = machine.metrics.counters()
    assert counters.get("chaos.churn.migrated", 0) or counters.get(
        "chaos.churn.dropped", 0
    )


def test_migration_returns_the_vacated_frame_to_the_allocator():
    # Sustained churn must not bleed the zone dry (regression: the
    # vacated frame is freed after the modelled shootdown).
    machine, attacker = _boot(13)
    base = attacker.mmap(4, populate=True)
    space = attacker.process.address_space
    region = base & ~((1 << 21) - 1)
    old = machine.ptm.l1pt_frame_of(space.cr3, base)
    freed = []
    original_free = machine.ptm.free_table_frame
    machine.ptm.free_table_frame = lambda frame: (
        freed.append(frame),
        original_free(frame),
    )
    new = machine.ptm.migrate_l1pt(space.cr3, region)
    assert new is not None and new != old
    assert freed == [old]


# ----------------------------------------------------------------------
# hook binding: the injector calls only the hooks a source overrides


def test_inert_base_hooks_are_never_called(monkeypatch):
    """A ``desktop`` probe completes with the base class's hooks rigged
    to raise: ``timing_jitter`` inherits ``on_access`` and the other
    four inherit ``jitter``, and attach binds none of those."""

    def inert(*args):
        raise AssertionError("an inert NoiseSource hook was called")

    monkeypatch.setattr(NoiseSource, "on_access", inert)
    monkeypatch.setattr(NoiseSource, "jitter", inert)
    spec = CampaignSpec.from_dict(
        {
            "name": "hooks",
            "seed": 7,
            "machines": ["tiny"],
            "defenses": ["none"],
            "chaos": ["desktop"],
            "shards_per_cell": 1,
            "attack": {"workload": "probe", "probe_reads": 1500},
        }
    )
    (shard,) = spec.compile_plan().shards
    assert execute_shard(shard, spec.attack)["reads"] == 1500


class _AccessOnly(NoiseSource):
    def __init__(self, log):
        self.log = log

    def on_access(self, machine, rng, vaddr):
        self.log.append((self.name, vaddr))


class _JitterOnly(NoiseSource):
    def __init__(self, log):
        self.log = log

    def jitter(self, machine, rng):
        self.log.append((self.name, None))
        return 0


class _FirstAccess(_AccessOnly):
    name = "a_access"


class _MiddleJitter(_JitterOnly):
    name = "b_jitter"


class _LastAccess(_AccessOnly):
    name = "c_access"


@pytest.mark.parametrize("fast", [False, True], ids=["reference", "fast"])
def test_single_hook_sources_run_once_per_access_in_profile_order(fast, monkeypatch):
    """Sources that override only ``on_access`` or only ``jitter`` are
    each called once per access, scalar or batched, in profile order."""
    for source in (_FirstAccess, _MiddleJitter, _LastAccess):
        monkeypatch.setitem(SOURCE_TYPES, source.name, source)
    log = []
    config = ChaosConfig(
        name="hooks",
        sources={name: {"log": log} for name in ("c_access", "b_jitter", "a_access")},
    )
    machine = Machine(tiny_test_config(seed=4), fast_path=fast)
    attacker = AttackerView(machine, machine.boot_process())
    base = attacker.mmap(2, populate=True)
    machine.attach_chaos(ChaosInjector(config))
    vaddrs = [base, base + 4096, base + 64]
    attacker.touch(vaddrs[0])
    attacker.read_many(vaddrs[1:])
    assert log == [
        entry
        for vaddr in vaddrs
        for entry in (("a_access", vaddr), ("c_access", vaddr), ("b_jitter", None))
    ]
