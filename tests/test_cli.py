"""The command-line interface."""

import argparse
import contextlib
import io
import json
import os
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import DEFENSES, MACHINES, build_parser, main
from repro.defenses import CTAPolicy
from repro.errors import OutOfMemory
from repro.machine import Machine
from repro.machine.snapshot import SNAPSHOT_VERSION


def test_machine_and_defense_registries():
    assert "tiny" in MACHINES and "t420-scaled" in MACHINES
    for factory in MACHINES.values():
        factory().validate()
    for factory in DEFENSES.values():
        assert factory() is not None


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Lenovo T420" in out and "Dell E6420" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_rejects_unknown_machine():
    with pytest.raises(SystemExit):
        main(["attack", "--machine", "pdp11"])


@pytest.mark.slow
def test_attack_command_end_to_end(capsys):
    code = main(
        ["attack", "--machine", "tiny", "--seed", "1", "--slots", "256",
         "--pairs", "14"]
    )
    out = capsys.readouterr().out
    assert "escalated: True" in out
    assert "uid after attack: 0" in out
    assert code == 0


class _CrowdedCTA(CTAPolicy):
    """CTA whose page-table zone keeps only a few frames free at boot,
    so a modest spray exhausts it the way an over-sized one does."""

    FREE_TABLES = 64

    def attach(self, *args):
        super().attach(*args)
        zone = self.zone("pagetable")
        taken = []
        while True:
            try:
                taken.append(zone.alloc())
            except OutOfMemory:
                break
        for frame in taken[: self.FREE_TABLES]:
            zone.free(frame)


@pytest.mark.parametrize(
    "command", [["attack", "--no-record"], ["trace", "--sample", "*=0.01"]]
)
def test_attack_out_of_memory_is_a_clean_exit(command, capsys, monkeypatch):
    """A spray the page-table zone cannot hold ends with one ``repro:``
    line and exit 2, not a traceback."""
    monkeypatch.setitem(DEFENSES, "cta", _CrowdedCTA)
    code = main(
        command
        + ["--machine", "tiny", "--defense", "cta", "--slots", "200", "--pairs", "1"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("repro:") == 1
    assert "ran out of simulated memory (cta-pt: zone exhausted" in err
    assert "Traceback" not in err


@pytest.mark.slow
def test_sec4d_command(capsys):
    assert main(["sec4d", "--machine", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Section IV-D" in out


@pytest.mark.slow
def test_validate_command(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_chaos_list_command(capsys):
    assert main(["chaos", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("quiet", "desktop", "server"):
        assert name in out


def test_chaos_show_command(capsys):
    assert main(["chaos", "show", "desktop"]) == 0
    out = capsys.readouterr().out
    assert "desktop" in out
    assert "transient_faults" in out


def test_chaos_show_unknown_profile(capsys):
    assert main(["chaos", "show", "datacenter"]) == 2
    err = capsys.readouterr().err
    assert "unknown chaos profile" in err


@pytest.mark.slow
def test_attack_with_chaos_profile(capsys):
    code = main(
        ["attack", "--machine", "tiny", "--seed", "1", "--slots", "256",
         "--pairs", "14", "--chaos", "desktop"]
    )
    out = capsys.readouterr().out
    assert "chaos: desktop" in out
    assert "chaos/recovery:" in out
    assert "recovery." in out
    assert code == 0


def test_patterns_list_command(capsys):
    assert main(["patterns", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("double_sided", "four_sided", "delay_slotted"):
        assert name in out


def test_patterns_show_command(capsys):
    assert main(["patterns", "show", "double_sided"]) == 0
    out = capsys.readouterr().out
    assert "pattern double_sided:" in out
    assert "aggressors a b" in out
    assert "unrolled" in out


def test_patterns_show_unknown_name(capsys):
    assert main(["patterns", "show", "sledgehammer"]) == 2
    err = capsys.readouterr().err
    assert "sledgehammer" in err
    assert "double_sided" in err  # the error names what is registered


def test_attack_rejects_unknown_pattern(capsys):
    with pytest.raises(SystemExit) as exit_info:  # an argparse usage error
        main(["attack", "--machine", "tiny", "--pattern", "sledgehammer"])
    assert exit_info.value.code == 2
    assert "sledgehammer" in capsys.readouterr().err


@pytest.mark.slow
def test_attack_with_pattern_flag(capsys):
    code = main(
        ["attack", "--machine", "tiny", "--seed", "1", "--slots", "256",
         "--pairs", "14", "--pattern", "double_sided", "--no-record"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pattern: double_sided" in out


# ----------------------------------------------------------------------
# Bad invocations, generated from the live parser: every one exits 2
# through argparse or main's error boundary, with no traceback and
# nothing on stdout.

_NOT_NUMBERS = ("", "abc", "nan")
#: Bad values per typed flag, by what the code does with the value.
_BAD_NUMBERS = {
    **dict.fromkeys(
        ("--slots", "--pairs", "--trials", "--sample", "--targets", "--rounds",
         "--buffer-pages", "--count", "--max-roles", "--max-ops", "--jobs",
         "--task-timeout", "--interval", "--sizes"),
        ("0", "-1") + _NOT_NUMBERS,
    ),
    # 0 is a real choice here: no retries, no padding, keep no events.
    **dict.fromkeys(
        ("--cred-spray", "--retries", "--limit", "--pause-after",
         "--tolerance", "--paddings", "--sample-budget"),
        ("-1",) + _NOT_NUMBERS,
    ),
    **dict.fromkeys(("--seed", "--fuzz-seed", "--base-seed", "--dense-seed"),
                    _NOT_NUMBERS),
    "--gate": ("(", "[a-"),
}
#: ``trace --sample`` is a rate spec, not sec4d's pair count.
_BAD_RATES = ("-1", "2") + _NOT_NUMBERS
#: Options and operands naming a registered thing (checked at run time).
_NAMES = {"--machines", "--only", "run_id", "before", "after", "campaign_id",
          "name", "profile"}
_UNREADABLE = ("<missing>", "<directory>", "<not-json>", "<empty>", "<binary>")
#: Operands naming an input file.
_INPUT_FILES = {
    (("snapshot", "info"), "file"),
    (("snapshot", "load"), "file"),
    (("campaign", "submit"), "spec"),
}

#: The invocations that crashed, or exited 0 or 1, before the boundary.
_REGRESSIONS = [
    ("attack", "--slots", "0"),
    ("attack", "--slots", "-5"),
    ("attack", "--pairs", "0"),
    ("attack", "--chaos", "nosuch"),
    ("figure3", "--trials", "0"),
    ("sec4d", "--sample", "0"),
    ("figure3", "--sizes", "-3"),
    ("figure3", "--sizes", "abc"),
    ("figure5", "--paddings", "-100"),
    ("sec4d", "--machine", "tiny", "--slots", "0"),
    ("figure3", "--machines", "tiny", "--trials", "-1"),
    ("trace", "--sample", "nan"),
    ("trace", "--sample-budget", "-5"),
    ("bench", "--only", "sec4d-tiny", "--compare", "x", "--gate", "("),
    ("trace", "--sample", "abc"),
]
_UNWRITABLE_TRACES = [
    ("trace", "--out", "/nonexistent/d/x.jsonl"),
    ("attack", "--trace", "/nonexistent/d/x.jsonl"),
    ("trace", "--export-chrome", "/nonexistent/d/x.json"),
]
#: Invocations that did their work before finding a bad input.
_LATE_CHECKS = [
    ("snapshot", "info", "<bad-snapshot>"),
    ("snapshot", "load", "<bad-snapshot>"),
    ("bench", "--only", "sec4d-tiny", "--compare", "nosuch"),
]


def _subcommands(parser, path=()):
    """(command path, parser) for every runnable (leaf) subcommand."""
    nested = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not nested:
        yield path, parser
        return
    for name, sub in sorted(nested[0].choices.items()):
        yield from _subcommands(sub, path + (name,))


def _bad_values(command, action):
    """(value, usage) pairs for one flag or operand.

    ``usage`` means argparse itself must reject the value; otherwise
    the command may, through main's boundary.
    """
    name = action.option_strings[0] if action.option_strings else action.dest
    if action.nargs == 0:
        return []
    if action.choices is not None:
        return [("nosuch", True)]
    if action.type is not None:
        if (command, name) == (("trace",), "--sample"):
            return [(value, True) for value in _BAD_RATES]
        assert name in _BAD_NUMBERS, "classify the typed flag %s" % name
        return [(value, True) for value in _BAD_NUMBERS[name]]
    if name in _NAMES:
        return [("nosuch", False)]
    if name == "--checkpoint":  # with --resume; a missing file starts fresh
        return [(kind, False) for kind in _UNREADABLE if kind != "<missing>"]
    if name == "--spool":  # any directory is a (possibly empty) spool
        return [(kind, False) for kind in _UNREADABLE if kind != "<directory>"]
    if name in ("--trace", "--out"):
        return [("<unwritable>", False)]
    if (command, name) in _INPUT_FILES:
        return [(kind, False) for kind in _UNREADABLE]
    return []  # free text: filters, labels, output paths


def _bad_invocations():
    """One list of (argv, usage) per (subcommand, flag or operand)."""
    slots = []
    for command, parser in _subcommands(build_parser()):
        operands = [
            action for action in parser._actions if not action.option_strings
        ]
        for action in parser._actions:
            cases = []
            for value, usage in _bad_values(command, action):
                if action.option_strings:
                    argv = [*command, *("<missing>" for _ in operands),
                            action.option_strings[0], value]
                    if action.dest == "checkpoint":
                        argv.append("--resume")
                else:
                    argv = [*command, *(value if operand is action else "<missing>"
                                        for operand in operands)]
                cases.append((tuple(argv), usage))
            if cases:
                slots.append(cases)
    return slots


@pytest.fixture(scope="module")
def bad_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("bad-inputs")
    (root / "directory").mkdir()
    (root / "not-json").write_text("{not json")
    (root / "empty").write_text("")
    (root / "binary").write_bytes(b"\x80\x81 not utf-8\n")
    # Every top-level field present, but a config and state of the
    # wrong shape.
    (root / "bad-snapshot").write_text(json.dumps({
        "version": SNAPSHOT_VERSION, "machine": "tiny", "config": "abc",
        "config_fingerprint": "0" * 16, "state": {},
        "meta": {},
    }))
    paths = {
        "<%s>" % name: str(root / name)
        for name in ("directory", "not-json", "empty", "binary", "missing",
                     "bad-snapshot")
    }
    paths["<unwritable>"] = str(root / "missing" / "trace.jsonl")
    return paths


def _refuse_boot(self, *args, **kwargs):
    raise AssertionError("a rejected invocation booted a machine")


def _pin_examples(test):
    for argv in _REGRESSIONS:
        test = example(case=(argv, True))(test)
    for argv in _UNWRITABLE_TRACES + _LATE_CHECKS:
        test = example(case=(argv, False))(test)
    return test


@_pin_examples
@given(
    case=st.deferred(lambda: st.sampled_from(_bad_invocations())).flatmap(
        st.sampled_from
    )
)
@settings(max_examples=300, deadline=timedelta(seconds=2))
def test_bad_invocations_exit_2_cleanly(bad_paths, tmp_path_factory, case):
    template, usage = case
    argv = [bad_paths.get(token, token) for token in template]
    out, err = io.StringIO(), io.StringIO()
    telemetry = str(tmp_path_factory.getbasetemp() / "telemetry")
    with mock.patch.object(Machine, "__init__", _refuse_boot), \
            mock.patch.dict(os.environ, {"REPRO_TELEMETRY_DIR": telemetry}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            assert not usage, "argparse accepted %r" % (argv,)
    assert code == 2, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == "", argv
