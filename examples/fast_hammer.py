"""The fast access path, demonstrated: same physics, fewer host cycles.

Walks the two-engine design from docs/PERFORMANCE.md:

1. build two machines from the *same seed* — one on the reference
   engine (``fast_path=False``), one on the fast engine (the
   default) — and run identical double-sided hammer rounds (the
   compiled ``double_sided`` pattern, one ``AttackerView.touch_many``
   batch per round) on both;
2. prove equivalence — virtual cycles, metrics snapshots, and DRAM
   flip counts must match exactly (the fast engine is required to be
   behaviourally invisible);
3. show the speedup — time only the hot loop with
   ``time.process_time``, the way the ``hammer-loop`` bench does;
4. peek at the machinery — the ``AddressMap`` memo's hit/invalidation
   counters, and a page-table migration bumping a region's generation.

Run time is a few seconds at tiny scale:

    python examples/fast_hammer.py
"""

import json
import time

from repro.core.hammer import HammerTarget, PatternHammer
from repro.core.llc_pool import EvictionSet
from repro.machine import AttackerView, Machine
from repro.machine.addrmap import ADDRMAP_MISS
from repro.machine.configs import tiny_test_config
from repro.patterns import compile_pattern, get

ROUNDS = 400
SEED = 11


def build_hammer(machine, attacker):
    """double_sided over two targets with real TLB and LLC eviction sets."""
    sets = machine.config.tlb.l1d_sets
    base = attacker.mmap(12 * sets + 40, populate=True)
    targets = []
    for t in (0, 1):
        # 12 pages congruent in one L1-dTLB set, 13 LLC lines, a probe page.
        tlb_set = [base + (i * sets + t) * 4096 + 2048 for i in range(12)]
        lines = [base + (12 * sets + 13 * t + i) * 4096 + 17 * 64 for i in range(13)]
        va = base + (12 * sets + 26 + t) * 4096
        targets.append(HammerTarget(va, tlb_set, EvictionSet(lines, 17)))
    return PatternHammer(attacker, compile_pattern(get("double_sided"), targets))


def run_engine(fast):
    machine = Machine(tiny_test_config(seed=SEED), fast_path=fast)
    attacker = AttackerView(machine, machine.boot_process())
    hammer = build_hammer(machine, attacker)
    started = time.process_time()
    hammer.run(rounds=ROUNDS)
    elapsed = time.process_time() - started
    flips = machine.dram.flip_count()
    return machine, elapsed, flips


def main():
    print("== 1+2. same seed, both engines: behaviour must match ==")
    (reference, ref_seconds, ref_flips) = run_engine(fast=False)
    (fast, fast_seconds, fast_flips) = run_engine(fast=True)
    print("reference engine: %8d cycles  %3d flips" % (reference.cycles, ref_flips))
    print("fast engine:      %8d cycles  %3d flips" % (fast.cycles, fast_flips))
    same_metrics = json.dumps(reference.metrics.snapshot_values(), sort_keys=True) == json.dumps(
        fast.metrics.snapshot_values(), sort_keys=True
    )
    assert fast.cycles == reference.cycles, "fast path changed the virtual clock!"
    assert fast_flips == ref_flips, "fast path changed the DRAM physics!"
    assert same_metrics, "fast path changed the metrics!"
    print("virtual cycles equal: %s   metrics snapshots equal: %s" % (
        fast.cycles == reference.cycles, same_metrics,
    ))

    print()
    print("== 3. the same %d hammer rounds, host time ==" % ROUNDS)
    print("reference: %6.3f s" % ref_seconds)
    print("fast:      %6.3f s   (%.2fx)" % (fast_seconds, ref_seconds / fast_seconds))

    print()
    print("== 4. the AddressMap memo underneath ==")
    attacker = AttackerView(fast, fast.boot_process())
    base = attacker.mmap(8, populate=True)
    cr3 = attacker.process.address_space.cr3
    pages = [base + i * 4096 for i in range(8)]
    attacker.read_bulk(pages)  # first sweep resolves the region's L1PT
    attacker.read_bulk(pages)  # later sweeps hit the memo
    stats = fast.addrmap.stats()
    print("addrmap after two 8-page bulk sweeps: %(entries)d entries, "
          "%(hits)d hits, %(misses)d misses, %(invalidations)d invalidations"
          % stats)
    # A page-table migration (what repro.chaos churn does) invalidates
    # exactly the affected 2 MiB region; the next lookup re-resolves.
    assert fast.addrmap.cached_l1pt(cr3, base) is not ADDRMAP_MISS
    fast.ptm.migrate_l1pt(cr3, base)
    print("after migrate_l1pt: cached entry stale -> %s" % (
        "miss" if fast.addrmap.cached_l1pt(cr3, base) is ADDRMAP_MISS else "hit",
    ))
    attacker.read_bulk([base])
    print("after re-resolution: %s" % (
        "miss" if fast.addrmap.cached_l1pt(cr3, base) is ADDRMAP_MISS else "hit",
    ))
    print()
    print("REPRO_FAST_PATH=0 runs everything on the reference engine;")
    print("see docs/PERFORMANCE.md for the invariants and the CI gate.")


if __name__ == "__main__":
    main()
