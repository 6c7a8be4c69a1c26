"""The DRAM module: row-buffer timing plus rowhammer disturbance.

Disturbance is only accumulated on *row activations*, never on row-buffer
hits — which is exactly why rowhammer attacks must both bypass the CPU
caches (requirement 1 in Section II-A) and clear the row buffer between
accesses (requirement 2): an access that hits in cache never reaches the
module, and an access that hits the open row does not re-activate it.
Double-sided hammering satisfies requirement 2 for free because the two
aggressors conflict in the same bank and close each other's rows.
"""

from repro.dram.bank import BankState
from repro.observe import (
    DRAM_ACTIVATE,
    DRAM_FLIP,
    DRAM_HIT,
    DRAM_REFRESH,
    NULL_TRACE,
)
from repro.observe import DRAM as DRAM_COMPONENT


class FlipEvent:
    """Record of one disturbance-induced bit flip (for evaluation only).

    The attack itself never sees these; it must detect flips by reading
    memory contents, as in the paper.
    """

    __slots__ = ("paddr", "bit", "bank", "row", "cycle", "one_to_zero")

    def __init__(self, paddr, bit, bank, row, cycle, one_to_zero):
        self.paddr = paddr
        self.bit = bit
        self.bank = bank
        self.row = row
        self.cycle = cycle
        self.one_to_zero = one_to_zero

    def __repr__(self):
        direction = "1->0" if self.one_to_zero else "0->1"
        return "FlipEvent(paddr=0x%x, bit=%d, bank=%d, row=%d, %s, cycle=%d)" % (
            self.paddr,
            self.bit,
            self.bank,
            self.row,
            direction,
            self.cycle,
        )

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        return {
            "paddr": self.paddr,
            "bit": self.bit,
            "bank": self.bank,
            "row": self.row,
            "cycle": self.cycle,
            "one_to_zero": self.one_to_zero,
        }

    @classmethod
    def from_state(cls, state):
        return cls(
            state["paddr"],
            state["bit"],
            state["bank"],
            state["row"],
            state["cycle"],
            state["one_to_zero"],
        )


class DRAMModule:
    """A DRAM module with per-bank row buffers and a fault model."""

    def __init__(
        self,
        geometry,
        timings,
        fault_model,
        physmem,
        refresh_interval_cycles,
        rng,
        trr_threshold=0,
        staggered_refresh=False,
        trace=None,
        memoize_geometry=False,
    ):
        #: Trace bus for structured events (docs/OBSERVABILITY.md).
        self._trace = trace if trace is not None else NULL_TRACE
        self.geometry = geometry
        self.timings = timings
        self.fault_model = fault_model
        self.physmem = physmem
        self.refresh_interval_cycles = refresh_interval_cycles
        self._rng = rng
        #: Target-Row-Refresh: when a row accumulates this many
        #: activations within one window, its neighbours are refreshed
        #: (0 disables the mitigation).  See Section V / TWiCe.
        self.trr_threshold = trr_threshold
        self.trr_refreshes = 0
        #: Per-row phase-shifted refresh (closer to real rolling tREFI
        #: refresh) instead of the default global window.  The global
        #: approximation is cheaper and is what the presets use; the
        #: staggered mode exists for fidelity experiments.
        self.staggered_refresh = staggered_refresh
        self._banks = [BankState() for _ in range(geometry.banks)]
        #: chunk index -> (bank, row) memo.  Both coordinates are
        #: constant per 8 KiB chunk (``paddr >> chunk_bits``) for the
        #: module's lifetime; gated so REPRO_FAST_PATH=0 measures the
        #: true reference cost (docs/PERFORMANCE.md).
        self._location_memo = {} if memoize_geometry else None
        self._chunk_bits = geometry.chunk_bits
        #: All flips the module has produced, in order (evaluation only).
        self.flips = []
        #: Row-buffer outcome counts (evaluation/statistics).
        self.case_counts = {"hit": 0, "empty": 0, "conflict": 0}
        self._now = 0

    def access(self, paddr, now):
        """Serve one memory request at cycle ``now``.

        Returns ``(case, latency)`` where case is 'hit', 'empty', or
        'conflict'.  Advances the bank's row-buffer state, accumulates
        disturbance on activation, and applies any bit flips whose
        thresholds are crossed.
        """
        self._now = now
        memo = self._location_memo
        if memo is not None:
            chunk = paddr >> self._chunk_bits
            location = memo.get(chunk)
            if location is None:
                location = (self.geometry.bank_of(paddr), self.geometry.row_of(paddr))
                memo[chunk] = location
            bank_index, row = location
        else:
            bank_index = self.geometry.bank_of(paddr)
            row = self.geometry.row_of(paddr)
        bank = self._banks[bank_index]

        if self.staggered_refresh:
            self._staggered_refresh(bank, row, now)
        else:
            window = now // self.refresh_interval_cycles
            if bank.window_index != window:
                bank.begin_window(window)
                if self._trace.enabled:
                    self._trace.emit(
                        DRAM_REFRESH,
                        DRAM_COMPONENT,
                        bank=bank_index,
                        mode="window",
                        window=window,
                    )

        idle_close = self.timings.idle_close_cycles
        if (
            idle_close
            and bank.open_row is not None
            and now - bank.last_access > idle_close
        ):
            bank.open_row = None  # controller precharged the idle bank
        bank.last_access = now

        if bank.open_row == row:
            case = "hit"
        else:
            case = "empty" if bank.open_row is None else "conflict"
            self._activate(bank_index, bank, row)
        self.case_counts[case] += 1

        if self.timings.row_policy == "closed" or (
            self.timings.preemptive_close_probability
            and self._rng.chance(self.timings.preemptive_close_probability)
        ):
            bank.open_row = None

        latency = self.timings.latency(case)
        if self._trace.enabled:
            self._trace.emit(
                DRAM_HIT if case == "hit" else DRAM_ACTIVATE,
                DRAM_COMPONENT,
                bank=bank_index,
                row=row,
                case=case,
                cycles=latency,
            )
        return case, latency

    def _staggered_refresh(self, bank, row, now):
        """Reset disturbance of victims whose rolling refresh passed.

        Each row refreshes at phase ``row/rows`` into every interval; a
        victim's counters clear once its own refresh slot elapses
        (tracked per victim as a rolling epoch).
        """
        interval = self.refresh_interval_cycles
        rows = self.geometry.rows
        stale = []
        for victim_row, state in bank.victims.items():
            epoch = (now - (victim_row * interval) // rows) // interval
            if state.epoch is None:
                state.epoch = epoch
            elif state.epoch != epoch:
                stale.append(victim_row)
        for victim_row in stale:
            del bank.victims[victim_row]

    def _activate(self, bank_index, bank, row):
        """Open ``row`` in ``bank`` and disturb its neighbours."""
        bank.open_row = row
        bank.activations += 1
        if self.trr_threshold:
            count = bank.act_counts.get(row, 0) + 1
            if count >= self.trr_threshold:
                # The counter tripped: refresh the neighbours before the
                # disturbance below can push any cell over threshold.
                self.refresh_rows(bank_index, (row - 1, row + 1))
                self.trr_refreshes += 1
                if self._trace.enabled:
                    self._trace.emit(
                        DRAM_REFRESH,
                        DRAM_COMPONENT,
                        bank=bank_index,
                        mode="trr",
                        row=row,
                    )
                count = 0
            bank.act_counts[row] = count
        geometry = self.geometry
        if row + 1 < geometry.rows:
            victim = bank.victim(row + 1)
            victim.acts_low += 1  # aggressor is the row below this victim
            self._scan_flips(bank_index, row + 1, victim)
        if row > 0:
            victim = bank.victim(row - 1)
            victim.acts_high += 1  # aggressor is the row above this victim
            self._scan_flips(bank_index, row - 1, victim)

    def _scan_flips(self, bank_index, victim_row, state):
        """Flip every not-yet-visited cell whose threshold is now crossed.

        The hot no-flip case — nearly every activation — runs off the
        row's packed threshold column (one tuple index and one int
        compare); :class:`~repro.dram.faults.VulnerableCell` objects are
        only materialised once a threshold actually crosses.
        """
        fault_model = self.fault_model
        thresholds = fault_model.thresholds_for_row(bank_index, victim_row)
        next_cell = state.next_cell
        if next_cell >= len(thresholds):
            return
        effective = fault_model.effective_disturbance(
            state.acts_low, state.acts_high
        )
        if thresholds[next_cell] > effective:
            return
        cells = fault_model.cells_for_row(bank_index, victim_row)
        while next_cell < len(cells):
            cell = cells[next_cell]
            if cell.threshold > effective:
                break
            next_cell += 1
            state.next_cell = next_cell
            self._apply_flip(bank_index, victim_row, cell)

    def _apply_flip(self, bank_index, victim_row, cell):
        """Materialise one crossed-threshold cell flip in physical memory.

        The flip only happens when the cell's stored charge matches its
        orientation: a true cell needs a stored 1, an anti cell a stored
        0.  Otherwise the disturbance is harmless for this content.
        """
        paddr = self.geometry.encode(bank_index, victim_row, cell.bit_index >> 3)
        bit = cell.bit_index & 7
        current = self.physmem.read_bit(paddr, bit)
        wanted = 1 if cell.one_to_zero else 0
        if current != wanted:
            return
        self.physmem.toggle_bit(paddr, bit)
        if self._trace.enabled:
            self._trace.emit(
                DRAM_FLIP,
                DRAM_COMPONENT,
                paddr=paddr,
                bit=bit,
                bank=bank_index,
                row=victim_row,
            )
        self.flips.append(
            FlipEvent(paddr, bit, bank_index, victim_row, self._now, cell.one_to_zero)
        )

    def refresh_rows(self, bank_index, rows):
        """Targeted refresh: recharge specific rows' cells (mitigations).

        Clears the accumulated disturbance of the given victim rows —
        what counter-based hardware schemes (TRR/TWiCe) and
        detection-based software schemes (ANVIL) do when they decide a
        row is being hammered.
        """
        bank = self._banks[bank_index]
        for row in rows:
            bank.victims.pop(row, None)

    def activations_of_bank(self, bank_index):
        """Lifetime activation count of one bank (statistics)."""
        return self._banks[bank_index].activations

    def flip_count(self):
        """Number of flips produced so far."""
        return len(self.flips)

    def row_buffer_hit_rate(self):
        """Fraction of requests served by an open row (statistics)."""
        total = sum(self.case_counts.values())
        return self.case_counts["hit"] / total if total else 0.0

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        """Banks, flips, counters, and the row-close RNG stream.

        The chunk->(bank, row) memo is omitted: geometry decoding is a
        pure function of the address, so the memo re-warms after
        restore with no behavioural difference.
        """
        return {
            "rng": self._rng.state_dict(),
            "banks": [bank.state_dict() for bank in self._banks],
            "trr_refreshes": self.trr_refreshes,
            "flips": [flip.state_dict() for flip in self.flips],
            "case_counts": dict(self.case_counts),
            "now": self._now,
        }

    def load_state(self, state):
        """Restore state captured by :meth:`state_dict`."""
        self._rng.load_state(state["rng"])
        for bank, bank_state in zip(self._banks, state["banks"]):
            bank.load_state(bank_state)
        self.trr_refreshes = state["trr_refreshes"]
        self.flips = [FlipEvent.from_state(item) for item in state["flips"]]
        self.case_counts = dict(state["case_counts"])
        self._now = state["now"]
