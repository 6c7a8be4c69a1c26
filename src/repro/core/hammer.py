"""The implicit hammer (Sections III-B, IV-D, IV-E).

One hammer of a target (:func:`hammer_batch`):

1. sweep the target's TLB eviction set (drop the translation),
2. sweep the target's LLC eviction set (drop the cached L1PTE line),
3. touch the target — the walk misses the TLB, hits the PDE
   paging-structure cache, misses the data caches on the L1PTE, and
   fetches it from DRAM: one implicit activation of a kernel row.

PThammer's round hammers each side of a pair once — the
``double_sided`` built-in of :mod:`repro.patterns`.  The two targets'
L1PTEs sit in the same bank two rows apart, so their alternating
activations row-conflict (clearing the row buffer — explicit hammer's
requirement 2 for free) and double-side the victim row between them.
:class:`PatternHammer` runs any compiled pattern round after round;
``nop_padding`` inflates the per-round cost for the Figure-5 sweep.
"""

from repro.core.layout import PROBE_DATA_OFFSET

#: Span name under which each round lands on the trace bus.
HAMMER_ROUND_SPAN = "hammer-round"


class HammerTarget:
    """One aggressor with its eviction sets."""

    __slots__ = ("va", "tlb_set", "llc_set")

    def __init__(self, va, tlb_set, llc_set):
        self.va = va
        self.tlb_set = tlb_set
        self.llc_set = llc_set


def hammer_batch(target, llc_sweeps=1):
    """The implicit-activation address batch for one hammer of a target.

    TLB-eviction sweep, ``llc_sweeps`` LLC-eviction sweep(s), then the
    probe touch whose page-table walk performs the kernel-row
    activation.  ``llc_sweeps`` is 1 on the paper's inclusive LLCs; 2
    is needed on non-inclusive LLCs, where the first pass only demotes
    the L1PTE line from L2 into the victim LLC (Section V).
    """
    addrs = list(target.tlb_set)
    for _ in range(llc_sweeps):
        addrs.extend(target.llc_set.lines)
    addrs.append(target.va + PROBE_DATA_OFFSET)
    return addrs


class PatternHammer:
    """Runs hammer rounds and records per-round cycle costs.

    One round executes ``executable`` once — a
    :class:`~repro.patterns.CompiledPattern` normally, a
    :class:`~repro.patterns.PatternInterpreter` when running the
    oracle — bracketed by ``rdtsc`` and followed by the optional
    ``nop_padding``.
    """

    def __init__(self, attacker, executable, trace=None, guard=None):
        self.attacker = attacker
        self.executable = executable
        #: Optional trace bus; when set, every round is recorded as a
        #: ``hammer-round`` span (PThammerAttack passes the machine's).
        self.trace = trace
        #: Optional per-round retry hook (see LLCPoolBuilder): a burst
        #: spans far too many accesses for burst-level retry to survive
        #: realistic fault rates, so the self-healing pipeline retries
        #: one round at a time.  None runs rounds plainly.
        self._guard = guard if guard is not None else lambda operation: operation()

    def round(self, nop_padding=0):
        """One pattern instance; returns its cost in cycles."""
        attacker = self.attacker
        start = attacker.rdtsc()
        self.executable.execute(attacker)
        if nop_padding:
            attacker.nop(nop_padding)
        end = attacker.rdtsc()
        if self.trace is not None:
            self.trace.add_span(HAMMER_ROUND_SPAN, start, end)
        return end - start

    def run(self, rounds, nop_padding=0):
        """``rounds`` iterations; returns the per-round cycle costs."""
        return [
            self._guard(lambda: self.round(nop_padding)) for _ in range(rounds)
        ]

    def run_for_cycles(self, budget_cycles, nop_padding=0):
        """Hammer until ``budget_cycles`` have elapsed; returns costs."""
        attacker = self.attacker
        deadline = attacker.rdtsc() + budget_cycles
        costs = []
        while attacker.rdtsc() < deadline:
            costs.append(self._guard(lambda: self.round(nop_padding)))
        return costs


#: Kept only for the benchmark tracer (bench/trace.py), which wraps
#: this name's ``run_for_cycles`` as the attack's hammer phase.
DoubleSidedHammer = PatternHammer
