"""The command-line interface."""

import pytest

from repro.cli import DEFENSES, MACHINES, main
from repro.defenses import CTAPolicy
from repro.errors import OutOfMemory


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
    assert main(
        ["attack", "--machine", "tiny", "--pattern", "sledgehammer"]
    ) == 2
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
