"""Section IV-D: double-sided pair construction hit rates.

Paper: over 95 % of the address pairs that show slow access are in the
same bank, and 90 % of those are one (victim) row apart.
"""

from conftest import emit, run_registered

from repro.machine.configs import lenovo_t420_scaled


def test_pair_construction_rates(once, benchmark):
    result = emit(
        once(
            run_registered,
            "sec4d",
            {"config_fn": lenovo_t420_scaled, "sample": 24, "spray_slots": 512},
        )
    )
    assert result.flagged_slow >= result.candidates // 2
    assert result.slow_same_bank_rate >= 0.9  # paper: > 95 %
    assert result.same_bank_victim_rate >= 0.85  # paper: 90 %
    benchmark.extra_info["slow_same_bank"] = result.slow_same_bank_rate
    benchmark.extra_info["victim_apart"] = result.same_bank_victim_rate
