"""Shared low-level utilities: deterministic RNG, bit tricks, units, stats.

Also here, imported from their own modules: JSON helpers
(:mod:`repro.utils.serialize`), checked CLI argument types
(:mod:`repro.utils.cliargs`) and the worker pool both executors run on
(:mod:`repro.utils.pool`).
"""

from repro.utils.bitops import bit, parity, set_bit, toggle_bit
from repro.utils.rng import DeterministicRng, hash64, hash_to_unit
from repro.utils.stats import RunningStats, Histogram, median, percentile, percentile_summary
from repro.utils.units import KiB, MiB, GiB, cycles_to_seconds, format_duration

__all__ = [
    "DeterministicRng",
    "GiB",
    "Histogram",
    "KiB",
    "MiB",
    "RunningStats",
    "bit",
    "cycles_to_seconds",
    "format_duration",
    "hash64",
    "hash_to_unit",
    "median",
    "parity",
    "percentile",
    "percentile_summary",
    "set_bit",
    "toggle_bit",
]
