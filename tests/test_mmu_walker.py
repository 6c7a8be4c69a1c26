"""Page-table walker: Figure-2 path, paging-structure caches, faults."""

import pytest

from repro.errors import SegmentationFault
from repro.machine import Machine
from repro.machine.configs import tiny_test_config
from repro.machine.perf import DTLB_MISS_WALK
from repro.mmu.paging_cache import PagingStructureCache
from repro.mmu.walker import PageFault


@pytest.fixture
def booted():
    machine = Machine(tiny_test_config())
    process = machine.boot_process()
    return machine, process


def test_first_access_walks_then_tlb_hits(booted):
    machine, process = booted
    va = machine.kernel.sys_mmap(process, 1, populate=True)
    first = machine.access(process, va)
    assert first.translation_source == "walk"
    second = machine.access(process, va)
    assert second.translation_source in ("tlb_l1", "tlb_l2")
    assert second.latency < first.latency


def test_walk_counts_pmc(booted):
    machine, process = booted
    va = machine.kernel.sys_mmap(process, 1, populate=True)
    before = machine.metrics.read(DTLB_MISS_WALK)
    machine.access(process, va)
    assert machine.metrics.read(DTLB_MISS_WALK) == before + 1


def test_pde_cache_shortens_second_walk(booted):
    machine, process = booted
    va = machine.kernel.sys_mmap(process, 2, populate=True)
    machine.access(process, va)  # warms PML4E/PDPTE/PDE caches
    result = machine.access(process, va + 4096)  # same 2 MiB region
    # The neighbour's walk found the PDE cached: only the L1PTE fetched.
    assert result.translation_source == "walk"
    walk = machine.walker.translate(
        process.as_id, process.cr3, va + 4096
    )  # now a TLB hit; inspect the caches directly instead
    assert machine.walker.pde_cache.peek((process.as_id, va >> 21)) is not None


def test_unmapped_access_segfaults(booted):
    machine, process = booted
    with pytest.raises(SegmentationFault):
        machine.access(process, 0x7123_0000_0000)


def test_demand_paging_on_first_touch(booted):
    machine, process = booted
    va = machine.kernel.sys_mmap(process, 1)  # no populate
    result = machine.access(process, va)  # faults, then retries
    assert result.value == 0
    assert machine.kernel.page_fault_count >= 1


def test_superpage_translation(booted):
    machine, process = booted
    va = machine.kernel.sys_mmap(process, 1, huge=True, populate=True)
    result = machine.access(process, va + 0x12345 * 8)
    assert result.paddr % 8 == 0
    again = machine.access(process, va)
    assert again.translation_source in ("tlb_huge", "walk")


def test_walk_result_l1pte_paddr_matches_ground_truth(booted):
    machine, process = booted
    va = machine.kernel.sys_mmap(process, 1, populate=True)
    walk = machine.walker.translate(process.as_id, process.cr3, va + 8)
    if walk.source == "walk":
        assert walk.l1pte_paddr == machine.ptm.l1pte_paddr_of(process.cr3, va)


def test_paging_structure_cache_lru():
    cache = PagingStructureCache(2, "t")
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh
    cache.put("c", 3)  # evicts b (LRU)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert len(cache) == 2


def test_paging_structure_cache_flush():
    cache = PagingStructureCache(4, "t")
    cache.put("a", 1)
    cache.flush_all()
    assert cache.get("a") is None
    assert cache.hits == 0
    assert cache.misses == 1


def test_page_fault_exception_fields():
    fault = PageFault(0x1234, 2, True)
    assert fault.vaddr == 0x1234
    assert fault.level == 2
    assert fault.for_write
