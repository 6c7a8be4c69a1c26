"""The paper's contribution: PThammer and its building blocks."""

from repro.core.drama import reverse_engineer_row_span
from repro.core.explicit import ExplicitHammer, RowhammerTestTool, syscall_hammer
from repro.core.hammer import HammerTarget, PatternHammer
from repro.core.llc_eviction import (
    l1pte_line_offset,
    select_llc_eviction_set,
    selection_false_positive_rate,
    verify_eviction_set,
)
from repro.core.llc_offline import (
    find_minimal_llc_eviction_size,
    llc_miss_rate_by_size,
)
from repro.core.llc_pool import EvictionSet, LLCEvictionPool, LLCPoolBuilder
from repro.core.massage import MemoryMassage
from repro.core.pair_finding import CandidatePair, PairFinder, slot_stride_for_pairs
from repro.core.privesc import (
    CAPTURE_CRED,
    CAPTURE_JUNK,
    CAPTURE_L1PT,
    EscalationOutcome,
    PrivilegeEscalator,
)
from repro.core.pthammer import (
    ATTACK_PHASES,
    PairRecord,
    PThammerAttack,
    PThammerConfig,
    PThammerReport,
)
from repro.core.resilience import (
    RECOVERABLE,
    PhaseBudget,
    RetryPolicy,
    run_with_retry,
)
from repro.core.spray import PageTableSpray, SprayMismatch, marker_value
from repro.core.timing_probe import LatencyThreshold, calibrate_latency_threshold
from repro.core.tlb_eviction import (
    TLBEvictionSetBuilder,
    find_minimal_tlb_eviction_size,
    tlb_miss_rate_by_size,
)
from repro.core.uarch import UarchFacts

__all__ = [
    "ATTACK_PHASES",
    "CAPTURE_CRED",
    "CAPTURE_JUNK",
    "CAPTURE_L1PT",
    "CandidatePair",
    "EscalationOutcome",
    "EvictionSet",
    "ExplicitHammer",
    "HammerTarget",
    "LLCEvictionPool",
    "LLCPoolBuilder",
    "LatencyThreshold",
    "MemoryMassage",
    "PThammerAttack",
    "PThammerConfig",
    "PThammerReport",
    "PageTableSpray",
    "PairFinder",
    "PairRecord",
    "PatternHammer",
    "PhaseBudget",
    "PrivilegeEscalator",
    "RECOVERABLE",
    "RetryPolicy",
    "RowhammerTestTool",
    "SprayMismatch",
    "TLBEvictionSetBuilder",
    "UarchFacts",
    "calibrate_latency_threshold",
    "find_minimal_llc_eviction_size",
    "find_minimal_tlb_eviction_size",
    "l1pte_line_offset",
    "llc_miss_rate_by_size",
    "marker_value",
    "reverse_engineer_row_span",
    "run_with_retry",
    "select_llc_eviction_set",
    "selection_false_positive_rate",
    "slot_stride_for_pairs",
    "syscall_hammer",
    "tlb_miss_rate_by_size",
    "verify_eviction_set",
]
