"""Statistical rowhammer fault model.

The substitution for real DRAM disturbance physics (see DESIGN.md):

* A sparse set of cells is *vulnerable*.  Vulnerability is a pure
  function of ``(seed, bank, row, bit)`` via a hash PRNG, so the model
  needs no per-cell storage and every experiment is reproducible.
* Each vulnerable cell has an *activation threshold*: the effective
  disturbance its row must accumulate **within one refresh window**
  before the cell flips.  Thresholds are sampled uniformly from a
  configured range.
* Each cell has an orientation: a *true cell* flips 1 -> 0 only, an
  *anti cell* 0 -> 1 only (Kim et al.).  The CTA defense depends on
  rows that contain true cells exclusively; the model supports marking
  row ranges as true-cell-only.
* Effective disturbance of a victim row combines both neighbouring
  aggressors super-linearly: ``a + b + synergy * min(a, b)``.  With the
  default ``synergy = 2`` a perfect double-sided pattern accumulates
  4x faster than single-sided with the same access rate, matching the
  paper's reliance on double-sided hammering.

Figure 5's cliff is a direct corollary: a hammering loop that costs
``c`` cycles per iteration reaches at most
``(2 + synergy) * window / c`` effective disturbance per refresh
window, so once ``c`` exceeds ``(2 + synergy) * window / min_threshold``
no cell can ever flip.
"""

import math

from repro.errors import ConfigError
from repro.utils.rng import DeterministicRng, hash64


class VulnerableCell:
    """One flippable DRAM cell within a (bank, row) chunk."""

    __slots__ = ("bit_index", "threshold", "one_to_zero")

    def __init__(self, bit_index, threshold, one_to_zero):
        self.bit_index = bit_index  # bit offset within the row's chunk
        self.threshold = threshold  # effective disturbance needed to flip
        self.one_to_zero = one_to_zero  # True cell (1->0) vs anti cell (0->1)

    def __repr__(self):
        kind = "true" if self.one_to_zero else "anti"
        return "VulnerableCell(bit=%d, threshold=%d, %s)" % (
            self.bit_index,
            self.threshold,
            kind,
        )


class FaultModel:
    """Per-row vulnerable-cell sampler with lazy, cached materialisation."""

    def __init__(
        self,
        chunk_bytes,
        cells_per_row_mean=5.0,
        threshold_lo=4000,
        threshold_hi=12000,
        true_cell_fraction=0.55,
        synergy=2,
        seed=1,
    ):
        if cells_per_row_mean < 0:
            raise ConfigError("cells_per_row_mean must be non-negative")
        if threshold_lo <= 0 or threshold_hi < threshold_lo:
            raise ConfigError("bad threshold range [%s, %s]" % (threshold_lo, threshold_hi))
        if not 0.0 <= true_cell_fraction <= 1.0:
            raise ConfigError("true_cell_fraction must be a probability")
        self.chunk_bytes = chunk_bytes
        self.bits_per_row = chunk_bytes * 8
        self.cells_per_row_mean = cells_per_row_mean
        self.threshold_lo = threshold_lo
        self.threshold_hi = threshold_hi
        self.true_cell_fraction = true_cell_fraction
        self.synergy = synergy
        self.seed = seed
        self._cache = {}
        #: (bank, row) -> ascending threshold tuple (packed column of
        #: the cell list; see :meth:`thresholds_for_row`).
        self._threshold_cache = {}
        #: (start_row, end_row) ranges forced to contain only true cells,
        #: used to model the DRAM region CTA selects for page tables.
        self._true_cell_row_ranges = []

    def mark_true_cell_rows(self, start_row, end_row):
        """Force rows in [start_row, end_row) to hold only true cells.

        CTA screens DRAM for rows whose vulnerable cells all flip 1 -> 0
        and places L1 page tables there; this hook models the screened
        region.  Must be called before the rows are first hammered.
        """
        if end_row <= start_row:
            raise ConfigError("empty true-cell row range")
        self._true_cell_row_ranges.append((start_row, end_row))
        # Drop any cached rows now covered by the new constraint (the
        # forced-true short circuit shifts the row's RNG stream, so the
        # threshold column changes too, not just orientations).
        stale = [
            key for key in self._cache if start_row <= key[1] < end_row
        ]
        for key in stale:
            del self._cache[key]
            self._threshold_cache.pop(key, None)

    def _row_forced_true(self, row):
        return any(lo <= row < hi for lo, hi in self._true_cell_row_ranges)

    def cells_for_row(self, bank, row):
        """Vulnerable cells of (bank, row), sorted by ascending threshold.

        Deterministic in (seed, bank, row); cached after first use.
        """
        key = (bank, row)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        rng = DeterministicRng(hash64(self.seed, 0xD3A17, bank, row))
        # Poisson-like count: mean + small deterministic jitter.
        count = self._sample_count(rng)
        forced_true = self._row_forced_true(row)
        cells = []
        used_bits = set()
        for _ in range(count):
            bit_index = rng.randint(self.bits_per_row)
            if bit_index in used_bits:
                continue
            used_bits.add(bit_index)
            threshold = rng.randrange(self.threshold_lo, self.threshold_hi + 1)
            one_to_zero = forced_true or rng.chance(self.true_cell_fraction)
            cells.append(VulnerableCell(bit_index, threshold, one_to_zero))
        cells.sort(key=lambda cell: cell.threshold)
        self._cache[key] = cells
        return cells

    def thresholds_for_row(self, bank, row):
        """Ascending threshold column of (bank, row): a flat int tuple.

        The flat companion of :meth:`cells_for_row` for the activation
        hot path (docs/PERFORMANCE.md): the row's flip scan
        runs off this tuple — one int compare per check — and only
        materialises :class:`VulnerableCell` objects once a threshold is
        actually crossed.  Same cache lifetime as the cell list.
        """
        key = (bank, row)
        cached = self._threshold_cache.get(key)
        if cached is None:
            cached = tuple(cell.threshold for cell in self.cells_for_row(bank, row))
            self._threshold_cache[key] = cached
        return cached

    def _sample_count(self, rng):
        """Approximate Poisson(mean) using inversion on a small support."""
        mean = self.cells_per_row_mean
        if mean == 0:
            return 0
        # Knuth's algorithm is fine for small means and avoids scipy here.
        limit = math.exp(-mean)
        count = 0
        product = rng.random()
        while product > limit and count < 10 * int(mean + 1) + 20:
            count += 1
            product *= rng.random()
        return count

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        """Only the true-cell row constraints; sampling is pure.

        Cells are a pure function of ``(seed, bank, row, bit)`` plus the
        constraint list, so ``_cache`` is derivable and not captured.
        """
        return {"true_cell_row_ranges": list(self._true_cell_row_ranges)}

    def load_state(self, state):
        """Restore state captured by :meth:`state_dict`."""
        self._true_cell_row_ranges = [
            (lo, hi) for lo, hi in state["true_cell_row_ranges"]
        ]
        self._cache.clear()
        self._threshold_cache.clear()

    def effective_disturbance(self, acts_low, acts_high):
        """Combine per-side aggressor activations into effective disturbance.

        ``acts_low``/``acts_high`` are activation counts of the rows
        below/above the victim inside the current refresh window.
        """
        if acts_low > acts_high:
            acts_low, acts_high = acts_high, acts_low
        return acts_low + acts_high + self.synergy * acts_low

    def max_iteration_cycles(self, refresh_interval_cycles):
        """Largest per-iteration cost (cycles) that can still flip a bit.

        A double-sided loop activates each aggressor once per iteration,
        so per window it reaches ``(2 + synergy) * window / c`` effective
        disturbance; solving for the minimum threshold gives the Figure-5
        cliff position.
        """
        return (2 + self.synergy) * refresh_interval_cycles // self.threshold_lo

    def __repr__(self):
        return (
            "FaultModel(mean_cells=%.2f, thresholds=[%d, %d], true=%.2f, synergy=%d)"
            % (
                self.cells_per_row_mean,
                self.threshold_lo,
                self.threshold_hi,
                self.true_cell_fraction,
                self.synergy,
            )
        )
