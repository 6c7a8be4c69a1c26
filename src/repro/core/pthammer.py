"""The end-to-end PThammer attack (the paper's Section III/IV pipeline).

Phases, each timed on the virtual clock for the Table-II breakdown:

1. *Calibrate* — learn the cached/DRAM latency boundary (own memory).
2. *TLB preparation* — map the pages backing the TLB eviction sets.
3. *LLC pool preparation* — partition a buffer (superpages or 4 KiB
   pages, per the system setting) into the eviction-set pool.
4. *Spray* — fill kernel memory with Level-1 page tables.
5. *Pair search* — stride-paired slots, Algorithm-2 eviction-set
   selection, and row-buffer-conflict verification.
6. *Hammer/check loop* — double-sided implicit hammering of each
   verified pair, scanning the spray for flips, escalating on capture.

The hot phases (hammer rounds, eviction sweeps, pair scoring) issue
their address sweeps through the batched ``AttackerView.touch_many``
API, so a fast-path machine amortises per-access dispatch without
changing behaviour (docs/PERFORMANCE.md); ``REPRO_FAST_PATH=0`` runs
the same pipeline against the reference engine.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.hammer import HAMMER_ROUND_SPAN, HammerTarget, PatternHammer
from repro.core.llc_eviction import (
    l1pte_line_offset,
    select_llc_eviction_set,
    verify_eviction_set,
)
from repro.core.llc_pool import LLCPoolBuilder
from repro.core.massage import MemoryMassage
from repro.core.pair_finding import CandidatePair, PairFinder
from repro.core.privesc import EscalationOutcome, PrivilegeEscalator
from repro.core.resilience import PhaseBudget, RetryPolicy, run_with_retry
from repro.core.spray import PageTableSpray
from repro.core.timing_probe import calibrate_latency_threshold
from repro.core.tlb_eviction import TLBEvictionSetBuilder
from repro.core.uarch import UarchFacts
from repro.errors import PhaseBudgetExceeded
from repro.observe import (
    ATTACK,
    NULL_TRACE,
    RECOVERY_FALLBACK,
    RECOVERY_REBUILD,
    RECOVERY_RESUME,
    TraceBus,
)
from repro.patterns import compile_pattern
from repro.patterns import get as get_pattern
from repro.utils.stats import RunningStats

#: The pipeline's phases, in execution order.  ``run`` walks them as a
#: state machine: completed phases are skipped on re-entry, so a run
#: interrupted by an unrecoverable fault (or a blown phase budget) can
#: be resumed by calling ``run`` again on the same attack object.
ATTACK_PHASES = ("calibrate", "spray", "llc-prep", "pair-search", "hammer-check")


@dataclass
class PThammerConfig:
    """Attack knobs; defaults suit the scaled machine presets."""

    #: Use 2 MiB superpages for the LLC eviction buffer (the paper's
    #: two system settings; Table II shows the pool-prep speedup).
    superpages: bool = True
    #: Sprayed 2 MiB slots (each costs the kernel one fully-populated
    #: L1PT page).
    spray_slots: int = 768
    #: Distinct shared user pages cycled through the spray.  More pages
    #: spread the physical targets of frame-bit flips over more distinct
    #: frames, improving the odds that a corrupted L1PTE lands on
    #: another sprayed L1PT (the capture the escalation needs).
    shm_pages: int = 24
    #: TLB eviction-set size; the offline Algorithm-1 answer (12).
    tlb_eviction_size: int = 12
    #: LLC eviction-set size; None means associativity + 1.
    llc_eviction_size: Optional[int] = None
    #: Build the complete 64-offset pool instead of only the offsets the
    #: spray needs (slower; what the paper does).
    full_pool: bool = False
    #: Candidate pairs to score, and verified pairs to hammer.
    pair_sample: int = 24
    max_pairs: int = 12
    #: Hammer burst length per pair, in refresh windows.
    windows_per_pair: float = 2.2
    #: Frames the escalation probe may scan for the attacker's cred.
    max_probe_frames: int = 4096
    #: Child processes to spawn before hammering (cred spray; only
    #: useful against CTA but harmless elsewhere).
    cred_spray_processes: int = 0
    #: LLC eviction sweeps per hammer round and per Algorithm-2 probe;
    #: 1 on the paper's inclusive LLCs, 2 for non-inclusive designs
    #: (Section V, hardware variations).
    llc_sweeps: int = 1
    #: Exhaust fragmented small buddy blocks before spraying (Cheng et
    #: al.'s massaging, used by the paper against CATT in IV-G1) so the
    #: page-table spray comes out physically contiguous.
    massage: bool = False
    #: Self-healing (repro.core.resilience).  ``None`` auto-enables
    #: recovery exactly when a chaos injector is attached to the
    #: machine, keeping the quiet simulation byte-for-byte identical
    #: to earlier releases; True/False force it either way.
    resilience: Optional[bool] = None
    #: Recoverable-fault retries per pipeline operation, and the base
    #: of their exponential virtual-cycle backoff.
    retry_attempts: int = 4
    retry_base_cycles: int = 20_000
    #: Per-phase budgets; a blown budget ends the run gracefully (the
    #: report carries the partial progress) instead of thrashing.
    phase_cycle_budget: Optional[int] = None
    phase_wall_seconds: Optional[float] = None
    #: Degradations: fall back to single-sided hammering when no
    #: same-bank pair survives verification, and grow the LLC eviction
    #: sets by ``set_size_growth`` lines when pool construction finds
    #: no congruent groups (noise drowning the conflict tests).
    allow_single_sided: bool = True
    set_size_growth: int = 2
    #: Registered hammer-pattern name (repro.patterns) compiled for
    #: every hammer burst; None means ``double_sided``, the paper's
    #: round.  Aggressor roles bind to the pair's targets round-robin,
    #: so on a single-sided pair every role aims at the lone target.
    pattern: Optional[str] = None


@dataclass
class PairRecord:
    """Per-pair measurements for the report."""

    slot_a: int
    slot_b: int
    conflict_score: float
    selection_cycles: int = 0
    hammer_cycles: int = 0
    rounds: int = 0
    round_cost_mean: float = 0.0
    check_cycles: int = 0
    flips_found: int = 0


@dataclass
class PThammerReport:
    """Everything the attack measured, on the virtual clock."""

    machine_name: str
    superpages: bool
    calibrate_cycles: int = 0
    tlb_prep_cycles: int = 0
    llc_prep_cycles: int = 0
    spray_cycles: int = 0
    pair_search_cycles: int = 0
    pairs: List[PairRecord] = field(default_factory=list)
    candidate_pairs: int = 0
    same_bank_pairs: int = 0
    cycles_to_first_flip: Optional[int] = None
    cycles_to_escalation: Optional[int] = None
    outcome: Optional[EscalationOutcome] = None
    round_costs: List[int] = field(default_factory=list)
    #: (phase name, start cycle, end cycle) for every attack phase, in
    #: execution order — the machine-readable Table-II breakdown.
    timeline: List[Tuple[str, int, int]] = field(default_factory=list)
    #: Phase names that ran to completion (the state-machine record;
    #: checkpointed into the run ledger by the CLI).
    phases_completed: List[str] = field(default_factory=list)
    #: Human-readable notes about graceful degradations taken (larger
    #: eviction sets, single-sided fallback, ...); empty on clean runs.
    degradations: List[str] = field(default_factory=list)

    @property
    def escalated(self):
        return bool(self.outcome and self.outcome.success)

    @property
    def total_flips(self):
        return self.outcome.flips_observed if self.outcome else 0

    def mean_selection_cycles(self):
        stats = RunningStats()
        stats.extend(p.selection_cycles for p in self.pairs)
        return stats.mean if stats.count else 0.0

    def mean_check_cycles(self):
        stats = RunningStats()
        stats.extend(p.check_cycles for p in self.pairs)
        return stats.mean if stats.count else 0.0

    def mean_hammer_cycles(self):
        stats = RunningStats()
        stats.extend(p.hammer_cycles for p in self.pairs)
        return stats.mean if stats.count else 0.0

    def timeline_summary(self):
        """One line per phase with its virtual-cycle span."""
        return "\n".join(
            "  %-12s %12d .. %-12d (%d cycles)"
            % (name, start, end, end - start)
            for name, start, end in self.timeline
        )

    def summary(self):
        lines = [
            "PThammer on %s (%s pages)"
            % (self.machine_name, "super" if self.superpages else "regular"),
            "  prep: tlb=%d llc=%d spray=%d pair-search=%d cycles"
            % (
                self.tlb_prep_cycles,
                self.llc_prep_cycles,
                self.spray_cycles,
                self.pair_search_cycles,
            ),
            "  pairs: %d candidates, %d same-bank, %d hammered"
            % (self.candidate_pairs, self.same_bank_pairs, len(self.pairs)),
            "  flips: %d (first at %s cycles)"
            % (self.total_flips, self.cycles_to_first_flip),
            "  escalated: %s (%s)"
            % (self.escalated, self.outcome.method if self.outcome else None),
        ]
        if self.degradations:
            lines.append("  degraded: %s" % "; ".join(self.degradations))
        return "\n".join(lines)


class PThammerAttack:
    """Drives the whole attack against one machine via its AttackerView.

    Phase boundaries are recorded as span scopes on the machine's trace
    bus (:mod:`repro.observe`): the depth-0 spans become
    ``report.timeline`` and the per-round ``hammer-round`` spans become
    ``report.round_costs`` — when full event tracing is enabled
    (``machine.trace.enable()``), the same spans let
    :func:`repro.analysis.profile_trace` attribute every TLB/LLC/DRAM
    event to the phase that caused it.
    """

    def __init__(self, attacker, config=None, facts=None):
        self.attacker = attacker
        self.config = config if config is not None else PThammerConfig()
        machine = getattr(attacker, "_machine", None)
        #: The machine's trace bus; spans are recorded even when event
        #: tracing is off (they cost a handful of appends per phase).
        self.trace = getattr(machine, "trace", None)
        if self.trace is None or self.trace is NULL_TRACE:
            self.trace = TraceBus()
        # Datasheet knowledge for the machine under attack; reading it
        # from the machine config mirrors looking it up in published
        # reverse-engineering results (see repro.core.uarch).
        self.facts = (
            facts
            if facts is not None
            else UarchFacts.from_config(attacker._machine.config)
        )
        self.tlb_builder = TLBEvictionSetBuilder(attacker, self.facts)
        self.threshold = None
        self.pool = None
        self.spray = None
        self.children = []
        #: Self-healing state.  Resilience defaults to "on exactly when
        #: chaos is attached": the quiet path then takes precisely the
        #: accesses it always took, while noisy runs retry, re-verify,
        #: and degrade instead of aborting.
        self.metrics = getattr(machine, "metrics", None)
        self.resilient = (
            self.config.resilience
            if self.config.resilience is not None
            else getattr(machine, "chaos", None) is not None
        )
        self.retry_policy = RetryPolicy(
            max_attempts=self.config.retry_attempts,
            base_cycles=self.config.retry_base_cycles,
        )
        #: phase name -> "done"; the resumable state-machine record.
        self.phase_state = {}
        self._budget = None
        self._llc_builder = None
        self._llc_set_size = None
        self._massaged = False
        self._pairs = None
        self._llc_sets = None
        self._last_candidates = None

    # -- recovery plumbing -------------------------------------------------

    def _run_phase(self, name, body):
        """State-machine step: skip if done, retry-on-fault if resilient."""
        if self.phase_state.get(name) == "done":
            if self.metrics is not None:
                self.metrics.inc("recovery.resume")
            if self.trace.enabled:
                self.trace.emit(RECOVERY_RESUME, ATTACK, phase=name)
            return
        if self.resilient:
            config = self.config
            # Every phase gets a fresh budget; cleared even on a blown
            # budget so a resumed run is not poisoned by the stale one.
            self._budget = None
            if config.phase_cycle_budget or config.phase_wall_seconds:
                self._budget = PhaseBudget(
                    self.attacker,
                    config.phase_cycle_budget,
                    config.phase_wall_seconds,
                )
            try:
                run_with_retry(
                    self.attacker,
                    body,
                    self.retry_policy,
                    name,
                    metrics=self.metrics,
                    trace=self.trace,
                    budget=self._budget,
                )
            finally:
                self._budget = None
        else:
            body()
        self.phase_state[name] = "done"

    def _guard(self, operation, phase):
        """Run one pipeline operation; retry recoverable faults when
        resilient, plain call otherwise (zero quiet-path overhead)."""
        if not self.resilient:
            return operation()
        return run_with_retry(
            self.attacker,
            operation,
            self.retry_policy,
            phase,
            metrics=self.metrics,
            trace=self.trace,
            budget=self._budget,
        )

    def _note_recovery(self, event, counter, **details):
        """Record one recovery action as counter + (optional) event.

        Both the family counter (``recovery.rebuild``) and the specific
        one (``recovery.rebuild.llc``) are incremented, so dashboards
        can aggregate without knowing every leaf name.
        """
        if self.metrics is not None:
            family = counter.split(".", 1)[0]
            self.metrics.inc("recovery.%s" % family)
            if family != counter:
                self.metrics.inc("recovery.%s" % counter)
        if self.trace.enabled:
            self.trace.emit(event, ATTACK, **details)

    def checkpoint(self):
        """JSON-safe progress snapshot for the run ledger."""
        return {
            "phases_completed": [
                name for name in ATTACK_PHASES
                if self.phase_state.get(name) == "done"
            ],
            "resilient": self.resilient,
        }

    # -- phases -----------------------------------------------------------

    def prepare(self, report):
        """Phases 1-4: calibration, eviction machinery, spray.

        Composes the granular phase bodies; kept public because the
        experiments and benchmarks drive the phases directly.
        """
        self._phase_calibrate(report)
        self._phase_spray(report)
        self._phase_llc_prep(report)

    def _phase_calibrate(self, report):
        attacker = self.attacker
        config = self.config
        trace = self.trace
        with trace.span("calibrate") as span:
            self.threshold = calibrate_latency_threshold(attacker)
        report.calibrate_cycles = span.cycles

        while len(self.children) < config.cred_spray_processes:
            self.children.append(attacker.spawn())

        if config.massage and not self._massaged:
            with trace.span("massage"):
                MemoryMassage(attacker).soak_small_blocks()
            self._massaged = True

    def _phase_spray(self, report):
        attacker = self.attacker
        config = self.config
        with self.trace.span("spray"):
            if self.spray is None:
                self.spray = PageTableSpray(
                    attacker, config.spray_slots, shm_pages=config.shm_pages
                )
            self.spray.execute()
        # The spray's own cumulative clock, so an execute() resumed
        # after a fault reports the cost of every attempt.
        report.spray_cycles = self.spray.spray_cycles

    def _phase_llc_prep(self, report):
        attacker = self.attacker
        config = self.config
        if self._llc_set_size is None:
            self._llc_set_size = (
                config.llc_eviction_size
                if config.llc_eviction_size is not None
                else self.facts.llc_ways + 1
            )
        # One builder for the attack's lifetime: its region cursor only
        # moves forward, so a retried (or re-grown) preparation claims a
        # fresh buffer instead of colliding with a half-built one.  The
        # guard retries each bounded probe unit individually — pool
        # preparation makes far too many accesses for whole-phase retry
        # to survive realistic per-access fault rates.
        if self._llc_builder is None:
            guard = (
                (lambda operation: self._guard(operation, "llc-prep"))
                if self.resilient
                else None
            )
            self._llc_builder = LLCPoolBuilder(
                attacker, self.facts, self.threshold, self._llc_set_size, guard=guard
            )
        builder = self._llc_builder
        offsets = None if config.full_pool else [
            l1pte_line_offset(self.spray.target_va(0))
        ]
        with self.trace.span("llc-prep"):
            self.pool = builder.prepare(
                superpages=config.superpages, line_offsets=offsets
            )
        report.llc_prep_cycles = self.pool.prep_cycles
        report.tlb_prep_cycles = self.tlb_builder.prep_cycles

    def _grow_llc_pool(self, report, attempts=2):
        """Degradation: retry pool construction with larger sets.

        An empty pool under noise usually means the conflict tests
        misfired (jitter blurring the cached/DRAM boundary), which
        larger-than-minimal eviction sets tolerate.  Distinct from the
        randomised-cache failure mode, where growth cannot help — the
        budget-bounded attempts keep that case from spinning.
        """
        config = self.config
        for _ in range(attempts):
            if self.pool.set_count() > 0:
                return
            self._llc_set_size += config.set_size_growth
            self._note_recovery(
                RECOVERY_FALLBACK,
                "fallback",
                action="grow-llc-sets",
                set_size=self._llc_set_size,
            )
            report.degradations.append(
                "llc eviction sets grown to %d lines" % self._llc_set_size
            )
            builder = self._llc_builder
            builder.set_size = self._llc_set_size
            offsets = None if config.full_pool else [
                l1pte_line_offset(self.spray.target_va(0))
            ]
            with self.trace.span("llc-prep"):
                self.pool = builder.prepare(
                    superpages=config.superpages, line_offsets=offsets
                )
            report.llc_prep_cycles += self.pool.prep_cycles

    def find_pairs(self, report):
        """Phase 5: stride pairs, Algorithm 2, bank verification."""
        attacker = self.attacker
        config = self.config
        start = attacker.rdtsc()
        finder = PairFinder(
            attacker, self.facts, self.spray, self.tlb_builder, config.tlb_eviction_size
        )
        candidates = finder.candidate_pairs(limit=config.pair_sample)
        self._last_candidates = candidates
        report.candidate_pairs = len(candidates)
        llc_sets = {}
        conflict_level = self._guard(finder.conflict_level, "pair-search")
        for pair in candidates:
            def score_pair(pair=pair):
                llc_a = self._llc_set_for(pair.va_a, llc_sets)
                llc_b = self._llc_set_for(pair.va_b, llc_sets)
                if self.resilient:
                    # Ambiguous medians are re-sampled instead of
                    # letting one jittered window flip the verdict.
                    finder.conflict_score_adaptive(
                        pair, llc_a, llc_b, conflict_level
                    )
                else:
                    finder.conflict_score(pair, llc_a, llc_b)
            self._guard(score_pair, "pair-search")
        if finder.resamples and self.metrics is not None:
            self.metrics.inc("recovery.resample", finder.resamples)
        same_bank, _ = PairFinder.split_by_conflict(candidates, conflict_level)
        if not same_bank:
            # The stride construction found nothing — a bank-hashed
            # DRAM mapping, most likely.  Fall back to DRAMA-style
            # timing-guided pair search (slower, no row-distance
            # guarantee, but bank-correct).
            same_bank = self._guard(
                lambda: finder.search_pairs_by_timing(
                    lambda va: self._llc_set_for(va, llc_sets), conflict_level
                ),
                "pair-search",
            )
        same_bank.sort(key=lambda p: -p.conflict_score)
        report.same_bank_pairs = len(same_bank)
        report.pair_search_cycles = attacker.rdtsc() - start
        report.tlb_prep_cycles = self.tlb_builder.prep_cycles
        return same_bank, llc_sets

    def _llc_set_for(self, target_va, cache):
        """Algorithm-2 selection for one target, memoised per VA."""
        if target_va in cache:
            return cache[target_va]
        chosen, _ = select_llc_eviction_set(
            self.attacker,
            self.pool,
            self.tlb_builder.build(target_va, self.config.tlb_eviction_size),
            target_va,
            sweeps=self.config.llc_sweeps,
        )
        cache[target_va] = chosen
        return chosen

    def hammer_pairs(self, report, pairs, llc_sets):
        """Phase 6: hammer, check, escalate.

        Per-round costs land on the trace bus as ``hammer-round`` spans
        (Figure 6's data); ``report.round_costs`` is derived from them
        on the way out, including the early escalation return.
        """
        first_span = len(self.trace.spans)
        try:
            self._hammer_pairs(report, pairs, llc_sets)
        finally:
            report.round_costs = [
                span.cycles
                for span in self.trace.spans_named(HAMMER_ROUND_SPAN, first_span)
            ]

    def _hammer_pairs(self, report, pairs, llc_sets):
        attacker = self.attacker
        config = self.config
        # Re-entrant: a retried/resumed phase keeps its outcome and
        # skips pairs that were already hammered and recorded.
        outcome = report.outcome if report.outcome is not None else EscalationOutcome()
        report.outcome = outcome
        escalator = PrivilegeEscalator(
            attacker,
            self.spray,
            self.tlb_builder,
            config.tlb_eviction_size,
            max_probe_frames=config.max_probe_frames,
        )
        budget = int(config.windows_per_pair * self.facts.refresh_interval_cycles)
        done = {(record.slot_a, record.slot_b) for record in report.pairs}
        for pair in pairs[: config.max_pairs]:
            if (pair.slot_a, pair.slot_b) in done:
                continue
            if self._guard(
                lambda pair=pair: self._hammer_one(
                    report, pair, llc_sets, escalator, outcome, budget
                ),
                "hammer-check",
            ):
                return
        return

    def hammer_for(self, pair, llc_sets, guard=None):
        """The hammer for one pair: ``config.pattern`` (default
        ``double_sided``) compiled against the pair's targets.

        A single-sided pair (``va_a == va_b``) has one target, and
        round-robin role binding aims every role at it: a
        ``double_sided`` round then activates that one kernel row
        twice, the sweeps between the touches making the second miss
        the TLB and caches again.  Rounds land on the attack's trace
        bus; ``guard`` wraps each round (see :meth:`_hammer_one`).
        """
        config = self.config
        vas = (pair.va_a,) if pair.va_a == pair.va_b else (pair.va_a, pair.va_b)
        targets = [
            HammerTarget(
                va,
                self.tlb_builder.build(va, config.tlb_eviction_size),
                llc_sets[va],
            )
            for va in vas
        ]
        compiled = compile_pattern(
            get_pattern(config.pattern or "double_sided"),
            targets,
            llc_sweeps=config.llc_sweeps,
            refresh_interval=self.facts.refresh_interval_cycles,
        )
        return PatternHammer(self.attacker, compiled, trace=self.trace, guard=guard)

    def _hammer_one(self, report, pair, llc_sets, escalator, outcome, budget):
        """Hammer/check one pair; returns True on escalation."""
        attacker = self.attacker
        record = PairRecord(pair.slot_a, pair.slot_b, pair.conflict_score)
        start = attacker.rdtsc()
        if self.resilient:
            # Pre-hammer health check: noise may have decayed the
            # eviction machinery since selection.
            self._reverify_target(pair.va_a, llc_sets)
            if pair.va_b != pair.va_a:
                self._reverify_target(pair.va_b, llc_sets)
        # Faults inside a burst are retried one round at a time (a whole
        # burst is too many accesses for burst-level retry to survive).
        guard = (
            (lambda operation: self._guard(operation, "hammer-check"))
            if self.resilient
            else None
        )
        hammer = self.hammer_for(pair, llc_sets, guard=guard)
        record.selection_cycles = attacker.rdtsc() - start

        start = attacker.rdtsc()
        costs = hammer.run_for_cycles(budget)
        record.hammer_cycles = attacker.rdtsc() - start
        record.rounds = len(costs)
        if costs:
            record.round_cost_mean = sum(costs) / len(costs)

        start = attacker.rdtsc()
        mismatches = self._safe_scan()
        record.check_cycles = attacker.rdtsc() - start
        record.flips_found = len(mismatches)
        report.pairs.append(record)
        if mismatches and report.cycles_to_first_flip is None:
            report.cycles_to_first_flip = attacker.rdtsc()
        if escalator.process_mismatches(mismatches, outcome):
            report.cycles_to_escalation = attacker.rdtsc()
            return True
        return False

    def _reverify_target(self, target_va, llc_sets):
        """Re-verify (and rebuild on failure) one target's eviction sets."""
        config = self.config
        tlb_set = self.tlb_builder.build(target_va, config.tlb_eviction_size)
        if not self.tlb_builder.verify(target_va, tlb_set):
            tlb_set = self.tlb_builder.rebuild(target_va, config.tlb_eviction_size)
            self._note_recovery(
                RECOVERY_REBUILD, "rebuild.tlb", target=target_va, kind="tlb-set"
            )
        llc_set = llc_sets.get(target_va)
        if llc_set is None:
            return
        flood = self.tlb_builder.build_flood()
        if verify_eviction_set(
            self.attacker,
            self.threshold,
            llc_set,
            lambda: self.tlb_builder.flush(flood),
            target_va,
            sweeps=config.llc_sweeps,
        ):
            return
        # The chosen set stopped evicting the target's L1PTE (e.g. the
        # L1PT migrated under churn).  Rebuild the offset's pool sets
        # and re-select; keep the stale set if the rebuild comes up
        # empty — weaker pressure still beats aborting.
        offset = l1pte_line_offset(target_va)
        if self._llc_builder is not None:
            fresh = self._llc_builder.rebuild_offset(config.superpages, offset)
            if fresh:
                self.pool.replace_offset(offset, fresh)
        llc_sets.pop(target_va, None)
        try:
            self._llc_set_for(target_va, llc_sets)
        except LookupError:
            llc_sets[target_va] = llc_set
        self._note_recovery(
            RECOVERY_REBUILD, "rebuild.llc", target=target_va, kind="llc-set"
        )

    def _safe_scan(self):
        """Spray scan; unreadable pages surface as value-None mismatches."""
        return self.spray.scan()

    def _do_pair_search(self, report):
        self._pairs, self._llc_sets = self.find_pairs(report)

    def _single_sided_candidates(self, report):
        """Degradation: one-sided targets from the best-scored candidates.

        When no same-bank pair survives verification (bank-hashed DRAM
        plus a failed timing search, or noise drowning the row-conflict
        channel), hammering the strongest candidates single-sided still
        accrues disturbance — weaker than the double-sided construction
        but strictly better than aborting.
        """
        scored = [
            pair
            for pair in (self._last_candidates or [])
            if pair.conflict_score is not None
        ]
        scored.sort(key=lambda pair: -pair.conflict_score)
        if not scored:
            return []
        self._note_recovery(RECOVERY_FALLBACK, "fallback", action="single-sided")
        report.degradations.append("single-sided hammering (no verified pairs)")
        singles = []
        for pair in scored[: self.config.max_pairs]:
            single = CandidatePair(pair.slot_a, pair.slot_a, pair.va_a, pair.va_a)
            single.conflict_score = pair.conflict_score
            singles.append(single)
        return singles

    # -- entry point --------------------------------------------------------

    def run(self):
        """Run the complete attack; returns the :class:`PThammerReport`.

        The phases of :data:`ATTACK_PHASES` run as a resumable state
        machine: with resilience on, recoverable faults are retried
        under backoff, decayed eviction sets are re-verified and
        rebuilt, and the pipeline degrades (larger eviction sets,
        single-sided hammering) instead of aborting.  Calling ``run``
        again on the same object after an interruption skips completed
        phases (``recovery.resume``).

        A machine whose caches defeat eviction-set construction (e.g.
        CEASER/ScatterCache-style index randomisation, Section V) makes
        the attack fail gracefully: the report carries the reason and
        ``escalated`` stays False.
        """
        report = PThammerReport(
            machine_name=self.facts_name(), superpages=self.config.superpages
        )
        trace = self.trace
        first_span = len(trace.spans)
        try:
            with trace.span("prepare"):
                self._run_phase("calibrate", lambda: self._phase_calibrate(report))
                self._run_phase("spray", lambda: self._phase_spray(report))
                self._run_phase("llc-prep", lambda: self._phase_llc_prep(report))
            if self.resilient and self.pool.set_count() == 0:
                self._grow_llc_pool(report)
            if self.pool.set_count() == 0:
                report.outcome = EscalationOutcome()
                report.outcome.note(
                    "LLC eviction-set construction failed: no congruent line "
                    "groups found (randomised cache indexing defeats the attack)"
                )
                return report
            try:
                with trace.span("pair-search"):
                    self._run_phase(
                        "pair-search", lambda: self._do_pair_search(report)
                    )
            except LookupError as error:
                report.outcome = EscalationOutcome()
                report.outcome.note("eviction-set selection failed: %s" % error)
                return report
            pairs, llc_sets = self._pairs, self._llc_sets
            if not pairs and self.resilient and self.config.allow_single_sided:
                pairs = self._single_sided_candidates(report)
            with trace.span("hammer-check"):
                self._run_phase(
                    "hammer-check",
                    lambda: self.hammer_pairs(report, pairs, llc_sets),
                )
            return report
        except PhaseBudgetExceeded as error:
            # A blown budget ends the run cleanly with partial progress;
            # the phase state is kept, so a later run() resumes.
            if report.outcome is None:
                report.outcome = EscalationOutcome()
            report.outcome.note("phase budget exhausted: %s" % error)
            return report
        finally:
            report.phases_completed = [
                name
                for name in ATTACK_PHASES
                if self.phase_state.get(name) == "done"
            ]
            # The machine-readable Table-II breakdown: this run's
            # top-level phase scopes, straight off the trace.
            report.timeline = [
                (span.name, span.start, span.end)
                for span in trace.spans[first_span:]
                if span.depth == 0 and span.end is not None
            ]

    def facts_name(self):
        """Best-effort machine name for reports."""
        machine = getattr(self.attacker, "_machine", None)
        return machine.config.name if machine is not None else "unknown"
