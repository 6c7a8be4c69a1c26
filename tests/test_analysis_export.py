"""CSV export of experiment results: ``result.write_csv`` on a path or a file."""

import io

import pytest

from repro.analysis.experiments import (
    DefenseMatrixResult,
    EscalationResult,
    EvictionSweepResult,
    Figure5Result,
    Figure6Result,
    Table2Result,
    Table2Row,
)
from repro.errors import ConfigError


def csv_text(result):
    buffer = io.StringIO()
    result.write_csv(buffer)
    return buffer.getvalue()


def test_sweep_csv(tmp_path):
    result = EvictionSweepResult("f", {"m1": {12: 0.9, 8: 0.5}, "m2": {12: 1.0}})
    path = str(tmp_path / "sweep.csv")
    assert result.write_csv(path) == 3
    lines = open(path).read().splitlines()
    assert lines[0] == "machine,size,miss_rate"
    assert "m1,8,0.5" in lines


def test_sweep_csv_rejects_empty():
    with pytest.raises(ConfigError):
        EvictionSweepResult("f", {}).write_csv("/dev/null")


def test_figure5_csv_handles_none():
    result = Figure5Result("m", {0: 0.5, 800: None}, cliff_cycles=2000)
    text = csv_text(result)
    lines = text.splitlines()
    assert lines[1] == "0,0.5"
    assert lines[2] == "800,"


def test_figure6_csv():
    result = Figure6Result("m", "super", [100, 110, 105])
    text = csv_text(result)
    assert text.splitlines()[1] == "m,super,0,100"
    assert len(text.splitlines()) == 4


def test_table2_csv():
    row = Table2Row("m", "superpage", 0.001, 0.5, 1e-6, 0.01, 0.02, 0.1, None)
    text = csv_text(Table2Result([row]))
    assert text.splitlines()[1].endswith(",")  # empty first-flip column


def test_defense_matrix_csv():
    result = EscalationResult(
        machine="m",
        defense="catt",
        escalated=True,
        method="l1pt",
        flips_observed=8,
        captures={"l1pt": 1, "cred": 0, "junk": 7},
        ground_truth_flips=44,
        first_flip_s=0.01,
        host_seconds=1.0,
    )
    text = csv_text(DefenseMatrixResult("m", [result]))
    assert "catt,1,l1pt,8,1,0,44" in text
