"""Machine composition: timing, clflush, nop, bulk reads, perf."""

import pytest

from repro.errors import SegmentationFault
from repro.machine import AttackerView, Inspector, Machine
from repro.machine.configs import tiny_test_config
from repro.machine.perf import LLC_MISS, PAGE_FAULTS


@pytest.fixture
def setup():
    machine = Machine(tiny_test_config())
    process = machine.boot_process()
    return machine, process, AttackerView(machine, process)


def test_clock_advances(setup):
    machine, process, attacker = setup
    before = machine.cycles
    va = attacker.mmap(1, populate=True)
    attacker.touch(va)
    assert machine.cycles > before


def test_latency_orders(setup):
    machine, process, attacker = setup
    va = attacker.mmap(2, populate=True)
    cold = attacker.timed_read(va)
    warm = attacker.timed_read(va)
    assert warm < cold
    attacker.clflush(va)
    flushed = attacker.timed_read(va)
    assert flushed > warm


def test_clflush_gives_up_on_an_unrepairable_mapping():
    """A paging-structure-cache entry that outlives its dropped L1PT
    makes every walk fault again after the kernel repairs the tables.
    ``clflush`` must end that loop with ``access``'s SIGSEGV, and both
    tiers must charge the same cycles and counters on the way."""
    machines = []
    for fast in (False, True):
        machine = Machine(tiny_test_config(seed=5), fast_path=fast)
        attacker = AttackerView(machine, machine.boot_process())
        va = attacker.mmap(4, populate=True)
        attacker.touch(va)
        machine.tlb.flush_all()  # the PDE-cache entry survives
        machine.ptm.drop_l1pt(attacker.process.address_space.cr3, va)
        handle_page_fault = machine.kernel.handle_page_fault
        calls = []

        def bounded(*args, **kwargs):
            calls.append(args)
            if len(calls) > 50:
                raise AssertionError("clflush retried the fault forever")
            return handle_page_fault(*args, **kwargs)

        machine.kernel.handle_page_fault = bounded
        with pytest.raises(SegmentationFault, match="fault loop"):
            attacker.clflush(va)
        machines.append(machine)
    reference, fast = machines
    assert fast.cycles == reference.cycles
    assert fast.metrics.snapshot_values() == reference.metrics.snapshot_values()


def test_write_read_through_va(setup):
    machine, process, attacker = setup
    va = attacker.mmap(1, populate=True)
    attacker.write(va + 24, 0xABCDEF)
    assert attacker.read(va + 24) == 0xABCDEF


def test_nop_burns_cycles(setup):
    machine, _, attacker = setup
    before = attacker.rdtsc()
    attacker.nop(123)
    assert attacker.rdtsc() == before + 123
    with pytest.raises(ValueError):
        attacker.nop(-1)


def test_llc_miss_counter(setup):
    machine, process, attacker = setup
    va = attacker.mmap(1, populate=True)
    attacker.touch(va)
    before = machine.metrics.read(LLC_MISS)
    attacker.clflush(va)
    attacker.touch(va)
    assert machine.metrics.read(LLC_MISS) > before


def test_page_fault_counter(setup):
    machine, process, attacker = setup
    va = attacker.mmap(1)
    before = machine.metrics.read(PAGE_FAULTS)
    attacker.touch(va)
    assert machine.metrics.read(PAGE_FAULTS) == before + 1


def test_bulk_read_values_match_access(setup):
    machine, process, attacker = setup
    va = attacker.mmap(4, populate=True)
    for i in range(4):
        attacker.write(va + i * 4096, i + 100)
    values = attacker.read_bulk([va + i * 4096 for i in range(4)])
    assert values == [100, 101, 102, 103]


def test_bulk_read_charges_cycles_and_flushes(setup):
    machine, process, attacker = setup
    va = attacker.mmap(8, populate=True)
    attacker.touch(va)
    before = machine.cycles
    attacker.read_bulk([va + i * 4096 for i in range(8)])
    assert machine.cycles >= before + 8 * Machine.BULK_READ_CYCLES
    # Scan displaced the TLB: the next access walks again.
    result = machine.access(process, va)
    assert result.translation_source == "walk"


def test_bulk_read_unmapped_gives_none(setup):
    machine, process, attacker = setup
    va = attacker.mmap(1, populate=True)
    values = attacker.read_bulk([va, 0x7FFF_0000_0000])
    assert values[0] == 0
    assert values[1] is None


def test_stray_access_segfaults(setup):
    machine, process, attacker = setup
    with pytest.raises(SegmentationFault):
        attacker.touch(0x7FFF_0000_0000)


def test_paddr_wraps_modulo_dram(setup):
    machine, process, attacker = setup
    # The physical-address mask keeps flipped-bit frames in range.
    level, latency = machine._phys_access(machine.config.dram.size_bytes + 64)
    assert latency > 0


def test_inspector_ground_truth(setup):
    machine, process, attacker = setup
    inspector = Inspector(machine)
    va = attacker.mmap(1, populate=True)
    frame = inspector.frame_of(process, va)
    assert frame is not None
    pte = inspector.l1pte_paddr(process, va)
    location = inspector.dram_location(pte)
    assert 0 <= location.bank < machine.geometry.banks
    assert inspector.l1pt_count() >= 1


def test_inspector_quiesce(setup):
    machine, process, attacker = setup
    inspector = Inspector(machine)
    va = attacker.mmap(1, populate=True)
    attacker.touch(va)
    assert inspector.tlb_holds(process, va)
    inspector.quiesce_caches()
    assert not inspector.tlb_holds(process, va)


def test_deterministic_replay():
    config_a = tiny_test_config(seed=123)
    config_b = tiny_test_config(seed=123)
    cycles = []
    for config in (config_a, config_b):
        machine = Machine(config)
        attacker = AttackerView(machine, machine.boot_process())
        va = attacker.mmap(8, populate=True)
        for i in range(50):
            attacker.touch(va + (i % 8) * 4096)
        cycles.append(machine.cycles)
    assert cycles[0] == cycles[1]
