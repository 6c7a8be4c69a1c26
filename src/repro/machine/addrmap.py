"""The access-engine tier selector and the batch loop's counter buffer.

:func:`resolve_tier` decides whether a machine runs the reference or
the fast tier (docs/PERFORMANCE.md).  The fast tier memoizes only the
address mappings that are pure for a machine's lifetime — physical
line -> LLC (set, slice) inside
:class:`~repro.cache.hierarchy.CacheHierarchy`, physical address ->
DRAM (bank, row) inside :class:`~repro.dram.module.DRAMModule` — so its
machine state is the reference tier's, and a snapshot restores into a
machine of either tier (docs/SNAPSHOTS.md).  The mapping that can go
stale, virtual 2 MiB region -> L1 page-table frame, is walked rather
than memoized: the fast tier's bulk read resolves it once per run of
addresses.

:class:`CounterBatch` buffers counter increments for
:meth:`Machine.access_many <repro.machine.machine.Machine.access_many>`.
"""

import os

#: Environment variable selecting the access path; ``0`` forces the
#: reference path everywhere (the escape hatch documented in
#: docs/PERFORMANCE.md).  :func:`resolve_tier` is its only parser.
FAST_PATH_ENV = "REPRO_FAST_PATH"

#: Access-engine tiers (docs/PERFORMANCE.md).  ``reference`` is the
#: oracle the equivalence suite compares against; ``fast`` is the
#: memoizing/batching engine (the default).
TIER_REFERENCE = "reference"
TIER_FAST = "fast"
TIERS = (TIER_REFERENCE, TIER_FAST)

#: ``REPRO_FAST_PATH`` spellings that force the reference engine.
_OFF_VALUES = ("0", "false", "no", "off", TIER_REFERENCE)


def resolve_tier(value=None):
    """Resolve an access-engine tier from a flag, tier name, or the env.

    ``value`` may be ``None`` (consult ``REPRO_FAST_PATH``; unset means
    fast), a bool (the historical ``fast_path`` flag: ``True`` →
    fast, ``False`` → reference), or a tier name from :data:`TIERS`.
    Unknown environment spellings fall back to the fast tier — the
    variable was historically truthy/falsy and every truthy value meant
    "accelerated" — but an unknown *explicit* tier name raises, so a
    typo in ``Machine(fast_path="refrence")`` fails loudly.
    """
    if value is None:
        env = os.environ.get(FAST_PATH_ENV)
        if env is not None and env.strip().lower() in _OFF_VALUES:
            return TIER_REFERENCE
        return TIER_FAST
    if isinstance(value, str):
        text = value.strip().lower()
        if text in _OFF_VALUES:
            return TIER_REFERENCE
        if text in (TIER_FAST, "1", "true", "yes", "on"):
            return TIER_FAST
        from repro.errors import ConfigError

        raise ConfigError(
            "unknown access-engine tier %r (have: %s)" % (value, ", ".join(TIERS))
        )
    return TIER_FAST if value else TIER_REFERENCE


class CounterBatch:
    """Accumulates counter increments for one deferred flush.

    Duck-types the ``inc`` side of
    :class:`~repro.observe.metrics.MetricsRegistry` so
    :class:`~repro.mmu.walker.PageTableWalker` can count into it while
    a batch is in flight; :meth:`Machine.access_many
    <repro.machine.machine.Machine.access_many>` flushes the totals
    into the real registry in a ``finally`` block, so mid-batch faults
    (chaos transients, SIGSEGV) never lose counts.
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def inc(self, name, amount=1):
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount

    def flush_into(self, metrics):
        """Add every batched total to ``metrics`` and clear the batch."""
        for name, amount in self.counts.items():
            if amount:
                metrics.inc(name, amount)
        self.counts.clear()
