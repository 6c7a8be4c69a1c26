"""The hammer-pattern DSL, end to end: write, compile, verify, fuzz.

Walks the pattern pipeline from docs/PATTERNS.md:

1. write a pattern — parse DSL text into a validated AST, print its
   canonical form and the op stream it unrolls to;
2. compile it — lower the ops to merged ``touch_many`` batches
   against real hammer targets, and show the step listing
   ``repro patterns show`` prints;
3. trust it — run the compiled program and the scalar reference
   interpreter on same-seed machines and demand identical virtual
   cycles and metrics (the oracle ``tests/test_pattern_equivalence.py``
   enforces event-for-event);
4. fuzz — generate a deterministic Blacksmith-style population with
   ``PatternFuzzer`` and run each candidate through the full tiny
   attack, ranking patterns by the flips they induce (the
   ``repro patternfuzz`` campaign at miniature scale).

Run time is a few seconds at tiny scale:

    python examples/pattern_fuzzing.py
"""

import json

from repro.core import PThammerAttack, PThammerConfig
from repro.core.hammer import HammerTarget
from repro.core.llc_pool import EvictionSet
from repro.machine import AttackerView, Machine
from repro.machine.configs import tiny_test_config
from repro.patterns import (
    PatternFuzzer,
    PatternHammer,
    PatternInterpreter,
    compile_pattern,
    parse,
    register,
    unroll,
)

SEED = 11
ROUNDS = 60
FUZZ_SEED = 7
FUZZ_COUNT = 4

#: A non-uniform pattern: lean on one aggressor, pause, then rotate
#: the emphasis across repetitions.
CUSTOM = """\
pattern leaning_tower:
  aggressors near far
  repeat 3 rotate 1:
    hammer near
    hammer near
    hammer far
    nop 32
"""


def build_targets(machine, attacker):
    """Two hammer targets with real TLB and LLC eviction sets."""
    sets = machine.config.tlb.l1d_sets
    base = attacker.mmap(12 * sets + 40, populate=True)
    targets = []
    for t in (0, 1):
        tlb_set = [base + (i * sets + t) * 4096 + 2048 for i in range(12)]
        lines = [base + (12 * sets + 13 * t + i) * 4096 + 17 * 64 for i in range(13)]
        va = base + (12 * sets + 26 + t) * 4096
        targets.append(HammerTarget(va, tlb_set, EvictionSet(lines, 17)))
    return targets


def run_rounds(executable_for):
    """Boot a fresh machine, hammer ROUNDS of the executable, return it."""
    machine = Machine(tiny_test_config(seed=SEED))
    attacker = AttackerView(machine, machine.boot_process())
    targets = build_targets(machine, attacker)
    PatternHammer(attacker, executable_for(targets)).run(rounds=ROUNDS)
    return machine


def main():
    print("== 1. write a pattern ==")
    pattern = parse(CUSTOM)
    print(pattern.unparse(), end="")
    ops = unroll(pattern)
    print("unrolls to %d ops: %s ..." % (
        len(ops), " ".join(op[0] for op in ops[:6]),
    ))

    print()
    print("== 2. compile it against real targets ==")
    machine = Machine(tiny_test_config(seed=SEED))
    attacker = AttackerView(machine, machine.boot_process())
    compiled = compile_pattern(pattern, build_targets(machine, attacker))
    for line in compiled.describe():
        print("  " + line)

    print()
    print("== 3. compiled batches vs the scalar interpreter ==")
    fast = run_rounds(lambda targets: compile_pattern(pattern, targets))
    oracle = run_rounds(lambda targets: PatternInterpreter(pattern, targets))
    same_metrics = json.dumps(fast.metrics.snapshot_values(), sort_keys=True) == json.dumps(
        oracle.metrics.snapshot_values(), sort_keys=True
    )
    assert fast.cycles == oracle.cycles, "compiler changed the virtual clock!"
    assert same_metrics, "compiler changed the machine state!"
    print("compiled:    %8d cycles" % fast.cycles)
    print("interpreter: %8d cycles   equal: %s   metrics equal: %s" % (
        oracle.cycles, fast.cycles == oracle.cycles, same_metrics,
    ))

    print()
    print("== 4. a seeded fuzzing campaign (seed %d) ==" % FUZZ_SEED)
    fuzzer = PatternFuzzer(seed=FUZZ_SEED)
    rows = []
    for index in range(FUZZ_COUNT):
        candidate = fuzzer.pattern(index)
        register(candidate, replace=True)
        attack_machine = Machine(tiny_test_config(seed=1))
        attack_attacker = AttackerView(
            attack_machine, attack_machine.boot_process()
        )
        config = PThammerConfig(
            spray_slots=256, pair_sample=12, max_pairs=12, pattern=candidate.name
        )
        report = PThammerAttack(attack_attacker, config).run()
        rows.append((report.total_flips, candidate, report.escalated))
    rows.sort(key=lambda row: (-row[0], row[1].name))
    print("%-12s %5s %5s %6s %s" % ("pattern", "roles", "ops", "flips", "escalated"))
    for flips, candidate, escalated in rows:
        print("%-12s %5d %5d %6d %s" % (
            candidate.name, len(candidate.roles),
            len(unroll(candidate)), flips, escalated,
        ))
    print()
    print("`repro patternfuzz --fuzz-seed %d --count N` runs this campaign" % FUZZ_SEED)
    print("in parallel; docs/PATTERNS.md has the grammar and the pipeline.")


if __name__ == "__main__":
    main()
