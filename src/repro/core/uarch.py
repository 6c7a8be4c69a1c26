"""Public microarchitectural facts the attack is allowed to know.

The paper's attacker uses *reverse-engineered, published* knowledge:
the TLB set mappings (Gras et al.), LLC geometry and slice-hash
existence (Hund/Irazoqui/Maurice), and the DRAM row span (Pessl et
al.).  None of this is secret per machine model, so carrying it into
the attack does not violate the threat model — what stays hidden are
*runtime* secrets: physical addresses, the attacker's own page-table
locations, and slice indices of particular lines.

:class:`UarchFacts` packages exactly those public facts;
``from_config`` plays the role of looking the numbers up in a datasheet
for the machine under attack.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.params import LINE_SIZE, PAGE_SIZE


def _mapping_fn(spec, sets):
    mask = sets - 1
    if spec == "linear":
        return lambda vpn: vpn & mask
    if isinstance(spec, tuple) and spec[0] == "secret":
        # Secure-TLB randomisation (Section V): the real mapping is
        # keyed and unpublished, so the attacker's best datasheet guess
        # is the conventional linear one — which is wrong, and that is
        # the defense.
        return lambda vpn: vpn & mask
    shift = spec[1]
    return lambda vpn: (vpn ^ (vpn >> shift)) & mask


@dataclass
class UarchFacts:
    """Datasheet-level knowledge about the victim machine."""

    tlb_l1_sets: int
    tlb_l1_ways: int
    tlb_l2_sets: int
    tlb_l2_ways: int
    tlb_l1_set_of: Callable[[int], int]
    tlb_l2_set_of: Callable[[int], int]
    tlb_huge_sets: int
    tlb_huge_ways: int
    tlb_huge_set_of: Callable[[int], int]
    llc_ways: int
    llc_sets_per_slice: int
    llc_slices: int
    row_span_bytes: int
    #: Standard DRAM refresh period in core cycles (64 ms at the core
    #: clock) — public per DDR3 spec; the attack uses it only to size
    #: its hammer bursts.
    refresh_interval_cycles: int = 166_000_000
    line_size: int = LINE_SIZE
    page_size: int = PAGE_SIZE

    @classmethod
    def from_config(cls, machine_config):
        """Read the public facts out of a machine configuration."""
        tlb = machine_config.tlb
        cache = machine_config.cache
        dram = machine_config.dram
        return cls(
            tlb_l1_sets=tlb.l1d_sets,
            tlb_l1_ways=tlb.l1d_ways,
            tlb_l2_sets=tlb.l2s_sets,
            tlb_l2_ways=tlb.l2s_ways,
            tlb_l1_set_of=_mapping_fn(tlb.l1d_mapping, tlb.l1d_sets),
            tlb_l2_set_of=_mapping_fn(tlb.l2s_mapping, tlb.l2s_sets),
            tlb_huge_sets=tlb.l1d_huge_sets,
            tlb_huge_ways=tlb.l1d_huge_ways,
            tlb_huge_set_of=_mapping_fn(tlb.l1d_huge_mapping, tlb.l1d_huge_sets),
            llc_ways=cache.llc_ways,
            llc_sets_per_slice=cache.llc_sets_per_slice,
            llc_slices=cache.llc_slices,
            row_span_bytes=dram.banks * dram.chunk_bytes,
            refresh_interval_cycles=dram.refresh_interval_cycles,
        )

    @property
    def tlb_total_ways(self) -> int:
        """Combined L1+L2 associativity, the Algorithm-1 starting point."""
        return self.tlb_l1_ways + self.tlb_l2_ways

    @property
    def llc_bytes(self) -> int:
        """Total LLC capacity."""
        return self.llc_sets_per_slice * self.llc_slices * self.llc_ways * self.line_size

    def pair_stride_bytes(self) -> Tuple[int, int]:
        """(virtual stride, physical L1PTE stride) for double-sided pairs.

        Two virtual addresses ``2 * row_span * 512`` bytes apart have
        L1PTEs ``2 * row_span`` bytes apart — two row indices, same
        bank, sandwiching one victim row (Section IV-D).
        """
        return 2 * self.row_span_bytes * 512, 2 * self.row_span_bytes
