"""Registry smoke: every registered experiment runs end-to-end via CLI.

Each spec declares tiny-scale ``smoke_argv``; this suite runs
``python -m repro <experiment> <smoke_argv> --jobs 2`` for every name
in the registry, so an experiment that drifts out of the registry, the
CLI wiring, or the engine breaks loudly here.  ``--checkpoint`` and
``--resume`` are driven the same way, over intact and damaged files.
"""

import json

import pytest

from repro.analysis.engine import experiment_names, get_experiment
from repro.cli import main


@pytest.mark.slow
@pytest.mark.parametrize("name", experiment_names())
def test_registered_experiment_smokes_through_cli(name, capsys):
    spec = get_experiment(name)
    assert spec.smoke_argv, "spec %r must declare smoke_argv" % name
    code = main([name] + list(spec.smoke_argv) + ["--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0, name
    assert out.strip(), "experiment %r rendered nothing" % name


@pytest.mark.slow
def test_smoke_checkpoint_resume_through_cli(tmp_path, capsys):
    path = str(tmp_path / "smoke.jsonl")
    argv = ["figure3", "--machines", "tiny", "--sizes", "8,12", "--trials", "10"]
    assert main(argv + ["--checkpoint", path]) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--checkpoint", path, "--resume"]) == 0
    second = capsys.readouterr().out
    assert first == second


#: figure3 on the three scaled machines: three tasks, well under a second.
TORN_ARGV = ["figure3", "--sizes", "8-12", "--trials", "5"]


def test_resume_after_a_torn_checkpoint_twice_prints_the_fresh_run(
    tmp_path, capsys
):
    path = tmp_path / "ck.jsonl"
    argv = TORN_ARGV + ["--checkpoint", str(path)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    header, first, second = path.read_bytes().split(b"\n")[:3]
    path.write_bytes(header + b"\n" + first + b"\n" + second[:60])
    # The first resume must not append onto the torn bytes, or the
    # second one reads a corrupt line before intact ones.
    for _ in range(2):
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == fresh


#: A header as checkpoints were written before they shared the campaign
#: journal's format: ``kind`` and ``version``, no ``v``.
OLD_HEADER = json.dumps(
    {"experiment": "figure3", "fingerprint": "3301cc9b88a7deec",
     "kind": "header", "tasks": 3, "version": 1},
    sort_keys=True,
).encode()


@pytest.mark.parametrize(
    "line, replaces, message",
    [
        (b"[1, 2]", False, "line 2 is not an object"),
        (OLD_HEADER, True, "line 1 has version None"),
    ],
    ids=["non-object-line", "pre-journal-header"],
)
def test_unreadable_checkpoint_line_is_one_repro_line(
    tmp_path, capsys, line, replaces, message
):
    path = tmp_path / "ck.jsonl"
    argv = TORN_ARGV + ["--checkpoint", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    header, rest = path.read_bytes().split(b"\n", 1)
    kept = [line] if replaces else [header, line]
    path.write_bytes(b"\n".join(kept + [rest]))
    assert main(argv + ["--resume"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: checkpoint %s " % path)
    assert message in captured.err and captured.err.count("\n") == 1
