"""Resolve → unroll → compile pipeline, plus the reference interpreter.

The pipeline takes a validated :class:`~repro.patterns.model.Pattern`
from abstract roles down to concrete address batches:

1. **resolve** — bind each aggressor role to a
   :class:`~repro.core.hammer.HammerTarget` (round-robin over the
   supplied targets, so a two-role pattern binds ``a``/``b`` to a
   double-sided pair and aims both at a lone target when only one
   survived pair construction);
2. **unroll** — flatten the combinator tree (``repeat``/``rotate``/
   ``interleave``) into a linear op stream of ``hammer``/``nop``/
   ``sync`` ops;
3. **compile** — lower each ``hammer`` op to its implicit-activation
   address batch (:func:`~repro.core.hammer.hammer_batch`: TLB-eviction
   sweep, LLC-eviction sweep(s), probe touch) and merge adjacent
   batches into single ``touch_many`` calls for the fast path.
   Merging is sound because ``access_many`` is batch-shape invariant:
   splitting or merging batches produces identical cycles, events,
   and state (verified by ``tests/test_fast_path.py``).

:class:`PatternInterpreter` executes the *unrolled* op stream with
scalar ``attacker.touch`` calls — no batching, no merging — and is
the equivalence oracle the compiled path is tested against
event-for-event.  :class:`~repro.core.hammer.PatternHammer` runs either
executable round after round.
"""

from repro.core.hammer import hammer_batch
from repro.errors import PatternError
from repro.patterns.model import (
    Hammer,
    Interleave,
    Nop,
    Repeat,
    Rotate,
    SyncRef,
)


# ---------------------------------------------------------------------------
# resolve


def resolve(pattern, targets):
    """Bind each aggressor role to a target, round-robin.

    Role ``i`` binds to ``targets[i % len(targets)]``: a two-role
    pattern over a double-sided pair gets one side each, and the same
    pattern over a single surviving target aims both roles at it, so
    each round activates that one kernel row twice (the single-sided
    fallback).
    """
    targets = list(targets)
    if not targets:
        raise PatternError(
            "pattern %r: no hammer targets to bind aggressors to" % pattern.name
        )
    return {
        role: targets[index % len(targets)]
        for index, role in enumerate(pattern.roles)
    }


# ---------------------------------------------------------------------------
# unroll


def _rotated(ops, shift):
    if not ops:
        return list(ops)
    shift %= len(ops)
    return ops[shift:] + ops[:shift]


def _unroll_block(body):
    ops = []
    for stmt in body:
        if isinstance(stmt, Hammer):
            ops.append(("hammer", stmt.role))
        elif isinstance(stmt, Nop):
            ops.append(("nop", stmt.count))
        elif isinstance(stmt, SyncRef):
            ops.append(("sync",))
        elif isinstance(stmt, Repeat):
            inner = _unroll_block(stmt.body)
            for iteration in range(stmt.count):
                ops.extend(_rotated(inner, iteration * stmt.rotate))
        elif isinstance(stmt, Rotate):
            ops.extend(_rotated(_unroll_block(stmt.body), stmt.shift))
        elif isinstance(stmt, Interleave):
            streams = [_unroll_block(branch) for branch in stmt.branches]
            position = 0
            while any(position < len(stream) for stream in streams):
                for stream in streams:
                    if position < len(stream):
                        ops.append(stream[position])
                position += 1
        else:  # pragma: no cover - Pattern.validate rejects these
            raise PatternError("cannot unroll %r" % (stmt,))
    return ops


def unroll(pattern):
    """Flatten the pattern body to a linear op stream.

    Ops are tuples: ``("hammer", role)``, ``("nop", count)``, and
    ``("sync",)``.  Rotation is *op-level* (it applies to the unrolled
    stream of its block, not the statement list), and ``repeat N
    rotate K`` rotates iteration ``i`` left by ``i * K`` — so the
    aggressor order walks through the round, Blacksmith-style.
    """
    return _unroll_block(pattern.body)


# ---------------------------------------------------------------------------
# compile


class CompiledPattern:
    """A pattern lowered to ``touch_many``/``nop``/``sync`` steps.

    ``steps`` is the executable program: ``("touch", addrs)`` runs one
    ``attacker.touch_many(addrs)`` batch, ``("nop", count)``
    burns cycles, ``("sync", interval)`` spins to the next multiple of
    ``interval`` cycles.  ``ops`` keeps the unrolled op stream the
    steps were lowered from, for inspection and the oracle tests.
    """

    __slots__ = ("pattern", "binding", "ops", "steps", "llc_sweeps")

    def __init__(self, pattern, binding, ops, steps, llc_sweeps):
        self.pattern = pattern
        self.binding = binding
        self.ops = ops
        self.steps = steps
        self.llc_sweeps = llc_sweeps

    def execute(self, attacker):
        """Run one instance of the pattern through the fast path."""
        for step in self.steps:
            kind = step[0]
            if kind == "touch":
                attacker.touch_many(step[1])
            elif kind == "nop":
                attacker.nop(step[1])
            else:  # sync
                remainder = (-attacker.rdtsc()) % step[1]
                if remainder:
                    attacker.nop(remainder)

    def describe(self):
        """Human-readable step listing (``repro patterns show``)."""
        lines = []
        for step in self.steps:
            if step[0] == "touch":
                lines.append("touch_many  %5d addresses" % len(step[1]))
            elif step[0] == "nop":
                lines.append("nop         %5d cycles" % step[1])
            else:
                lines.append("sync_ref    %5d-cycle boundary" % step[1])
        return lines


def compile_pattern(pattern, targets, llc_sweeps=1, refresh_interval=None):
    """Lower a pattern against concrete targets to a :class:`CompiledPattern`.

    Adjacent hammer batches merge into single ``touch_many`` steps.
    ``refresh_interval`` (cycles) is required only when the pattern
    uses ``sync_ref``; omitting it for such a pattern is a
    :class:`PatternError` at compile time rather than a surprise at
    run time.
    """
    binding = resolve(pattern, targets)
    ops = unroll(pattern)
    steps = []
    for op in ops:
        if op[0] == "hammer":
            addrs = hammer_batch(binding[op[1]], llc_sweeps)
            if steps and steps[-1][0] == "touch":
                steps[-1] = ("touch", steps[-1][1] + addrs)
            else:
                steps.append(("touch", addrs))
        elif op[0] == "nop":
            steps.append(("nop", op[1]))
        else:  # sync
            if refresh_interval is None:
                raise PatternError(
                    "pattern %r uses sync_ref but no refresh interval "
                    "was supplied to the compiler" % pattern.name
                )
            if not isinstance(refresh_interval, int) or refresh_interval < 1:
                raise PatternError(
                    "refresh interval must be a positive integer, got %r"
                    % (refresh_interval,)
                )
            steps.append(("sync", refresh_interval))
    return CompiledPattern(pattern, binding, ops, steps, llc_sweeps)


# ---------------------------------------------------------------------------
# reference interpreter


class PatternInterpreter:
    """Executes the unrolled op stream with scalar accesses.

    The equivalence oracle: no batching, no merging, one
    ``attacker.touch`` per address in the hammer batch.  The compiled
    path must produce the same machine events, cycle counts, and state
    as this — ``tests/test_pattern_equivalence.py`` holds the pair to
    it under both ``REPRO_FAST_PATH`` settings.
    """

    __slots__ = ("pattern", "binding", "ops", "llc_sweeps", "refresh_interval")

    def __init__(self, pattern, targets, llc_sweeps=1, refresh_interval=None):
        self.pattern = pattern
        self.binding = resolve(pattern, targets)
        self.ops = unroll(pattern)
        self.llc_sweeps = llc_sweeps
        if refresh_interval is None and any(op[0] == "sync" for op in self.ops):
            raise PatternError(
                "pattern %r uses sync_ref but no refresh interval "
                "was supplied to the interpreter" % pattern.name
            )
        self.refresh_interval = refresh_interval

    def execute(self, attacker):
        touch = attacker.touch
        for op in self.ops:
            if op[0] == "hammer":
                for addr in hammer_batch(self.binding[op[1]], self.llc_sweeps):
                    touch(addr)
            elif op[0] == "nop":
                attacker.nop(op[1])
            else:  # sync
                remainder = (-attacker.rdtsc()) % self.refresh_interval
                if remainder:
                    attacker.nop(remainder)
