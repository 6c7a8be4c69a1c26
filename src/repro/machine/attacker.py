"""The attacker's view of the machine.

This facade is the *entire* interface the attack code in
:mod:`repro.core` is allowed to use, enforcing the paper's threat model
(Section III-A): an unprivileged process that can map memory, load and
store within its mappings, read the timestamp counter, and nothing
else.  No pagemap, no physical addresses, no performance counters, no
TLB flush instruction.  ``clflush`` is exposed because x86 allows it on
user-accessible data — the explicit-hammer baselines use it; PThammer
cannot flush kernel lines with it.
"""

from repro.params import PAGE_SIZE, SUPERPAGE_SIZE


class AttackerView:
    """Unprivileged process handle: syscalls, loads/stores, and rdtsc."""

    def __init__(self, machine, process):
        self._machine = machine
        self.process = process

    # -- syscalls -------------------------------------------------------

    def mmap(self, npages, shm=None, shm_offset=0, huge=False, at=None, populate=False):
        """Map ``npages`` pages; returns the virtual address."""
        return self._machine.kernel.sys_mmap(
            self.process,
            npages,
            shm=shm,
            shm_offset=shm_offset,
            huge=huge,
            fixed_addr=at,
            populate=populate,
        )

    def munmap(self, vaddr):
        """Unmap the VMA starting at ``vaddr``."""
        self._machine.kernel.sys_munmap(self.process, vaddr)

    def mprotect(self, vaddr, writable):
        """Toggle write permission on one of our VMAs."""
        self._machine.kernel.sys_mprotect(self.process, vaddr, writable)

    def create_shm(self, npages):
        """Create a shared-memory object (tmpfs-file analog)."""
        return self._machine.kernel.sys_create_shm(npages)

    def spawn(self):
        """Spawn a child process (used for the cred spray)."""
        return self._machine.kernel.sys_spawn(self.process)

    def syscall(self):
        """Invoke a trivial system call (the Section-V implicit-hammer
        candidate); returns its cycle cost."""
        return self._machine.syscall_touch(self.process)

    def getuid(self):
        """The attacker's effective uid, per the kernel's cred data."""
        return self._machine.kernel.sys_getuid(self.process)

    # -- memory operations ----------------------------------------------

    def read(self, vaddr):
        """Load the qword at ``vaddr``."""
        return self._machine.access(self.process, vaddr).value

    def write(self, vaddr, value):
        """Store a qword at ``vaddr``."""
        self._machine.access(self.process, vaddr, write=True, value=value)

    def read_many(self, vaddrs):
        """Load the qword at every address in ``vaddrs``, in order.

        The batch form of ``[read(va) for va in vaddrs]``: the same
        values, cycles, trace events and metrics (see
        ``Machine.access_many``), with per-access dispatch amortised.
        Unlike :meth:`read_bulk`, every read is simulated.
        """
        return self._machine.access_many(self.process, vaddrs, collect=True)

    def read_bulk(self, vaddrs):
        """Stream qword reads over many addresses (spray scanning).

        Returns one value per address; unreadable pages give ``None``.
        No per-read microarchitectural state is simulated: each read
        costs a flat streaming charge (``Machine.bulk_read``).
        """
        return self._machine.bulk_read(self.process, vaddrs)

    def timed_read(self, vaddr):
        """Load and return the access latency in cycles (rdtsc-fenced)."""
        return self._machine.access(self.process, vaddr).latency

    def touch(self, vaddr):
        """Load without caring about value or latency.

        For loops over address lists, prefer :meth:`touch_many`, which
        batches the whole sweep through the machine's fast access path.
        """
        self._machine.access(self.process, vaddr)

    def touch_many(self, vaddrs):
        """Load every address in ``vaddrs``, in order (batched touch).

        The batch form of a ``for va in vaddrs: touch(va)`` loop —
        behaviourally identical (same cycles, trace events, and
        metrics; see ``Machine.access_many``), but amortising
        per-access dispatch.  The hammer rounds and eviction sweeps go
        through this.
        """
        self._machine.access_many(self.process, vaddrs)

    def clflush(self, vaddr):
        """Flush the cache line of one of *our own* addresses."""
        self._machine.clflush(self.process, vaddr)

    def nop(self, count):
        """Execute ``count`` single-cycle NOPs."""
        self._machine.nop(count)

    def rdtsc(self):
        """Read the timestamp counter."""
        return self._machine.cycles

    # -- convenience ----------------------------------------------------

    @property
    def page_size(self):
        return PAGE_SIZE

    @property
    def superpage_size(self):
        return SUPERPAGE_SIZE

    def map_pages(self, npages, populate=True):
        """Map and optionally fault in an anonymous buffer."""
        return self.mmap(npages, populate=populate)
