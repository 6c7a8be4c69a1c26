"""Section V's mitigation matrix: what actually stops PThammer?

Explicit (clflush) hammering and PThammer each run against no
mitigation and stock ANVIL; PThammer also runs against the paper's
extended ANVIL (watching page-table-walk fetches too) and an
in-controller TRR/TWiCe-style counter.  ``repro mitigations``, the
Section V benchmark and ``examples/mitigation_matrix.py`` all print
these rows.
"""

from repro.core import PThammerAttack, PThammerConfig, RowhammerTestTool, UarchFacts
from repro.defenses import AnvilDetector
from repro.machine import AttackerView, Inspector, Machine
from repro.machine.configs import tiny_test_config


def _explicit_flips(monitor=None):
    """Double-sided clflush hammering: tiny seed 4, a 256-page buffer,
    six refresh windows."""
    machine = Machine(tiny_test_config(seed=4))
    attacker = AttackerView(machine, machine.boot_process())
    if monitor:
        machine.attach_monitor(monitor(machine))
    tool = RowhammerTestTool(
        attacker, Inspector(machine), UarchFacts.from_config(machine.config),
        buffer_pages=256,
    )
    tool.time_to_first_flip(0, 6 * machine.config.dram.refresh_interval_cycles)
    return Inspector(machine).flip_count()


def _pthammer_flips(monitor=None, trr=0):
    """The attack on tiny seed 1: 256 slots, 12 sampled pairs, 6
    hammered; ``trr`` is the DRAM's TRR threshold (0 disables it)."""
    config = tiny_test_config(seed=1)
    config.dram.trr_threshold = trr
    machine = Machine(config)
    attacker = AttackerView(machine, machine.boot_process())
    if monitor:
        machine.attach_monitor(monitor(machine))
    PThammerAttack(
        attacker, PThammerConfig(spray_slots=256, pair_sample=12, max_pairs=6)
    ).run()
    return Inspector(machine).flip_count()


def mitigation_matrix():
    """Ground-truth flips per cell, as ``(attack, mitigation, flips)``
    rows in the order ``repro mitigations`` prints them."""
    return [
        ("explicit", "none", _explicit_flips()),
        ("explicit", "ANVIL (loads)", _explicit_flips(AnvilDetector)),
        ("pthammer", "none", _pthammer_flips()),
        ("pthammer", "ANVIL (loads)", _pthammer_flips(AnvilDetector)),
        ("pthammer", "ANVIL (loads+walks)",
         _pthammer_flips(lambda m: AnvilDetector(m, watch_walks=True))),
        ("pthammer", "TRR counter", _pthammer_flips(trr=150)),
    ]
