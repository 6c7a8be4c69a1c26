"""Architectural constants shared across the simulator.

These mirror the fixed parameters of the x86-64 machines in the paper's
Table I.  Anything that varies between machines lives in
:mod:`repro.machine.configs` instead.
"""

#: Size of a regular (Level-1) page in bytes.
PAGE_SIZE = 4096
PAGE_SHIFT = 12

#: Size of a 2 MiB superpage mapped directly by a Level-2 entry.
SUPERPAGE_SIZE = 2 * 1024 * 1024
SUPERPAGE_SHIFT = 21

#: Number of entries in one page-table page (any level).
PTES_PER_TABLE = 512

#: Bytes per page-table entry.
PTE_SIZE = 8

#: Size of a cache line in bytes on every modelled machine.
LINE_SIZE = 64
LINE_SHIFT = 6

#: Width of the modelled virtual address space (4-level paging).
VA_BITS = 48

#: Number of page-table levels (PML4 = 4 ... L1PT = 1).
PT_LEVELS = 4

#: Number of virtual-address bits translated per page-table level.
BITS_PER_LEVEL = 9


def table_index(vaddr, level):
    """Return the page-table index used at ``level`` (4..1) for ``vaddr``.

    Level 4 selects the PML4 entry, level 1 the L1PTE.
    """
    shift = PAGE_SHIFT + BITS_PER_LEVEL * (level - 1)
    return (vaddr >> shift) & (PTES_PER_TABLE - 1)


def vpn(vaddr):
    """Virtual page number of ``vaddr`` (4 KiB granularity)."""
    return vaddr >> PAGE_SHIFT

