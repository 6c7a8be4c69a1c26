"""Host-speed sampling: host seconds scaled to a reference host.

On a shared machine the same work takes a different number of host
seconds from one moment to the next: other tenants slow a core down by
up to half, for seconds to minutes at a time, and each core on its own.
To measure the program rather than its neighbours, every process of a
repetition samples the speed of the core it runs on while it runs.

Every :data:`INTERVAL` seconds of wall time a ``SIGALRM`` handler runs
:func:`kernel`, a fixed pure-Python loop that shares no code with
``repro``, and times it in thread CPU time (so time spent waiting for
a core does not count).  One sample's speed is
:data:`REFERENCE_SECONDS` over that time: 1.0 on a core that runs the
kernel in exactly :data:`REFERENCE_SECONDS`, 0.7 on one that is 30%
slower.  A span's host seconds times the mean speed of the samples taken
during it are its *reference seconds*: what the span would have taken
on the reference core.  The mean of speeds (not of times) is the right
one: fixed work over a stretch of varying speed takes the host seconds
that the stretch's mean speed gives.

Forked workers (engine pool, campaign shards) sample too: at fork the
child takes its own slot of a table in anonymous shared memory and arms
its own timer, so a repetition's mean covers every core it ran on.
Only one process writes a slot at a time, so no lock is needed.

The sampler owns ``SIGALRM`` and ``ITIMER_REAL`` in every process of a
repetition: workloads must not use the engine's SIGALRM task timeouts.
Its own cost is about one percent of a core.
"""

import mmap
import os
import signal
import time

#: Wall seconds between two samples in each process.
INTERVAL = 0.02

#: Thread CPU seconds :func:`kernel` takes on the reference core: about
#: what it takes on an idle core of the 2-core host the baseline in
#: ``bench/README.md`` was measured on.
REFERENCE_SECONDS = 1e-4

#: Process slots in the shared table.  Slot 0 is the repetition's own
#: process; forked children reuse slots 1 and up round-robin, so only
#: processes alive at the same time need distinct ones.
SLOTS = 1024


def kernel():
    """The reference work: small-dict stores and integer arithmetic,
    the interpreter's bread and butter, in about 0.1 ms."""
    table = {}
    value = 0
    for step in range(1000):
        table[step & 63] = value
        value = (value + step * 7) & 0xFFFF
    return value


class HostSpeed:
    """Samples the speed of every core a process tree runs on."""

    def __init__(self):
        # table[0]: slots handed out so far; table[1 + 2 * slot] and
        # table[2 + 2 * slot]: the slot's sum of speeds and sample count.
        self._memory = mmap.mmap(-1, 8 * (1 + 2 * SLOTS))
        self._table = memoryview(self._memory).cast("d")
        self._slot = 0
        self._child_slot = 0
        self._lap = (0.0, 0.0)
        self._running = False
        self._hooked = False

    def start(self):
        """Install the handler and start sampling in this process and
        in every process it forks from now on."""
        if not self._hooked:
            # Fork hooks cannot be removed; a stopped sampler's do nothing.
            os.register_at_fork(
                before=self._before_fork, after_in_child=self._after_fork_in_child
            )
            self._hooked = True
        self._running = True
        for _ in range(3):
            kernel()  # warm the interpreter's specialised bytecode
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        """Stop sampling in this process."""
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self):
        """Time one run of :func:`kernel` and record its speed."""
        start = time.thread_time()
        kernel()
        seconds = time.thread_time() - start
        if seconds > 0:
            base = 1 + 2 * self._slot
            self._table[base] += REFERENCE_SECONDS / seconds
            self._table[base + 1] += 1

    def _on_alarm(self, signum, frame):
        self.sample()

    def lap(self):
        """Mean speed of every process's samples since the last lap (or
        since :meth:`start`); takes one sample first, so never empty."""
        self.sample()
        table = self._table
        speeds = sum(table[1::2])
        count = sum(table[2::2])
        first_speeds, first_count = self._lap
        self._lap = (speeds, count)
        return (speeds - first_speeds) / (count - first_count)

    # -- fork hooks -------------------------------------------------------

    def _before_fork(self):
        if self._running:
            self._table[0] += 1
            self._child_slot = 1 + (int(self._table[0]) - 1) % (SLOTS - 1)

    def _after_fork_in_child(self):
        if self._running:
            self._slot = self._child_slot
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def slot_samples(self, slot):
        """Samples recorded in ``slot`` (0: the process that started
        sampling; 1, 2, ...: its forked children in order)."""
        return int(self._table[2 + 2 * slot])
