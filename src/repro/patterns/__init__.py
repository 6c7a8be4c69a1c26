"""Declarative hammer-pattern DSL compiled onto the fast path.

PThammer's double-sided round is one point in a family of
implicit-hammer patterns (TeleHammer's framing); this package makes
the family first-class, and every hammer round the attack runs is a
compiled pattern.  A pattern is parsed from a small DSL
(:mod:`~repro.patterns.parser`), validated as an AST
(:mod:`~repro.patterns.model`), then resolved → unrolled → compiled
(:mod:`~repro.patterns.compiler`) down to batched ``touch_many``
calls, with a scalar reference interpreter kept as the equivalence
oracle; :class:`~repro.core.hammer.PatternHammer` runs the result.
Built-ins register by name (:mod:`~repro.patterns.builtins`) and a
seeded randomizer (:mod:`~repro.patterns.fuzz`) draws novel patterns
for fuzzing campaigns.  Grammar reference and tutorial:
``docs/PATTERNS.md``.
"""

from repro.core.hammer import PatternHammer, hammer_batch
from repro.patterns.builtins import get, names, register, register_text
from repro.patterns.compiler import (
    CompiledPattern,
    PatternInterpreter,
    compile_pattern,
    resolve,
    unroll,
)
from repro.patterns.fuzz import PatternFuzzer
from repro.patterns.model import (
    Hammer,
    Interleave,
    Nop,
    Pattern,
    Repeat,
    Rotate,
    SyncRef,
    unparse,
)
from repro.patterns.parser import parse

__all__ = [
    "CompiledPattern",
    "Hammer",
    "Interleave",
    "Nop",
    "Pattern",
    "PatternFuzzer",
    "PatternHammer",
    "PatternInterpreter",
    "Repeat",
    "Rotate",
    "SyncRef",
    "compile_pattern",
    "get",
    "hammer_batch",
    "names",
    "parse",
    "register",
    "register_text",
    "resolve",
    "unparse",
    "unroll",
]
