"""The docs link checker — and the repo's own docs passing it."""

import os

from repro.tools import check_docs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(root, relpath, text):
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)


def test_repository_docs_have_no_broken_references():
    broken = check_docs.check_repository(REPO_ROOT)
    assert broken == [], "broken intra-repo doc references: %r" % broken


def test_detects_broken_markdown_link(tmp_path):
    root = str(tmp_path)
    _write(root, "README.md", "see [the API](docs/API.md)\n")
    assert check_docs.check_repository(root) == [("README.md", "docs/API.md")]
    _write(root, "docs/API.md", "# api\n")
    assert check_docs.check_repository(root) == []


def test_links_resolve_relative_to_their_file(tmp_path):
    root = str(tmp_path)
    _write(root, "docs/GUIDE.md", "[up](../README.md) and [sib](OTHER.md)\n")
    _write(root, "docs/OTHER.md", "x\n")
    _write(root, "README.md", "x\n")
    assert check_docs.check_repository(root) == []


def test_external_urls_are_ignored(tmp_path):
    root = str(tmp_path)
    _write(
        root,
        "README.md",
        "# Section\n[a](https://example.com/x.md) [b](#section) [c](mailto:x@y.z)\n",
    )
    assert check_docs.check_repository(root) == []


def test_anchor_fragments_resolve_against_real_headings(tmp_path):
    root = str(tmp_path)
    _write(root, "README.md", "[a](docs/GUIDE.md#the-section)\n")
    _write(root, "docs/GUIDE.md", "# guide\n\n## The section\n")
    assert check_docs.check_repository(root) == []


def test_dead_anchor_fragment_is_reported_with_its_fragment(tmp_path):
    root = str(tmp_path)
    _write(root, "README.md", "[a](docs/GUIDE.md#no-such-heading)\n")
    _write(root, "docs/GUIDE.md", "# guide\n")
    assert check_docs.check_repository(root) == [
        ("README.md", "docs/GUIDE.md#no-such-heading")
    ]


def test_pure_anchor_links_check_the_referencing_file(tmp_path):
    root = str(tmp_path)
    _write(root, "README.md", "# Top\n\n[ok](#top) [bad](#nowhere)\n")
    assert check_docs.check_repository(root) == [("README.md", "#nowhere")]


def test_anchor_slugs_follow_github_rules(tmp_path):
    root = str(tmp_path)
    _write(
        root,
        "docs/GUIDE.md",
        "\n".join(
            [
                "# `repro bench` — record & compare!",
                "## Tier_2: columnar",
                "## Repeated",
                "## Repeated",
                "```",
                "# not a heading (inside a fence)",
                "```",
                "[a](#repro-bench--record--compare)",
                "[b](#tier_2-columnar)",
                "[c](#repeated) [d](#repeated-1)",
                "[bad](#not-a-heading-inside-a-fence)",
                "",
            ]
        ),
    )
    assert check_docs.check_repository(root) == [
        ("docs/GUIDE.md", "#not-a-heading-inside-a-fence")
    ]


def test_anchors_on_non_markdown_targets_are_ignored(tmp_path):
    root = str(tmp_path)
    # Line-style fragments into source files are not heading anchors.
    _write(root, "README.md", "[code](src/thing.py#L10)\n")
    _write(root, "src/thing.py", "pass\n")
    assert check_docs.check_repository(root) == []


def test_backtick_paths_are_checked(tmp_path):
    root = str(tmp_path)
    _write(root, "README.md", "outputs live in `docs/missing/` here\n")
    _write(root, "docs/present.md", "x\n")
    assert check_docs.check_repository(root) == [("README.md", "docs/missing")]


def test_backtick_prose_is_not_claimed(tmp_path):
    root = str(tmp_path)
    # Module paths, flags, and expressions must not be treated as files.
    _write(root, "README.md", "`repro.observe.TraceBus` and `--profile` and `a/b`\n")
    assert check_docs.check_repository(root) == []


def test_runtime_output_paths_are_not_claimed(tmp_path):
    root = str(tmp_path)
    # A local run creates the gitignored .repro/ tree; the docs naming
    # its subdirectories must check the same with or without it.
    _write(root, "README.md", "spools land in `.repro/telemetry/`\n")
    assert check_docs.check_repository(root) == []
    os.makedirs(os.path.join(root, ".repro", "runs"))
    assert check_docs.check_repository(root) == []


def test_main_exit_codes(tmp_path, capsys):
    root = str(tmp_path)
    _write(root, "README.md", "[bad](nope.md)\n")
    assert check_docs.main(["--root", root]) == 1
    assert "nope.md" in capsys.readouterr().out
    _write(root, "nope.md", "x\n")
    assert check_docs.main(["--root", root]) == 0
    assert "docs ok" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI-invocation validation


def _fence(*lines):
    return "```console\n" + "\n".join(lines) + "\n```\n"


def test_repository_docs_have_no_stale_cli_invocations():
    stale = check_docs.check_cli_invocations(REPO_ROOT)
    assert stale == [], "stale CLI invocations in docs: %r" % stale


def test_invocations_extracted_from_fences_only(tmp_path):
    root = str(tmp_path)
    # Prose mentioning `repro attack` outside a fence is not an example.
    _write(root, "README.md", "run repro frobnicate often\n")
    assert check_docs.check_cli_invocations(root) == []


def test_detects_unknown_subcommand(tmp_path):
    root = str(tmp_path)
    _write(root, "README.md", _fence("repro frobnicate --machine tiny"))
    stale = check_docs.check_cli_invocations(root)
    assert stale == [
        ("README.md", "repro frobnicate --machine tiny", "unknown subcommand 'frobnicate'")
    ]


def test_detects_unknown_flag_and_bad_choice(tmp_path):
    root = str(tmp_path)
    _write(root, "docs/A.md", _fence("repro attack --no-such-flag"))
    _write(root, "docs/B.md", _fence("repro attack --machine warehouse"))
    stale = {problem for _path, _inv, problem in check_docs.check_cli_invocations(root)}
    assert any("unknown flag '--no-such-flag'" in p for p in stale)
    assert any("--machine='warehouse' not in choices" in p for p in stale)


def test_detects_unknown_nested_subcommand(tmp_path):
    root = str(tmp_path)
    _write(root, "README.md", _fence("repro patterns frobnicate"))
    stale = check_docs.check_cli_invocations(root)
    assert len(stale) == 1
    assert "unknown 'patterns' subcommand 'frobnicate'" in stale[0][2]


def test_valid_invocations_pass(tmp_path):
    root = str(tmp_path)
    _write(
        root,
        "README.md",
        _fence(
            "$ PYTHONPATH=src python -m repro attack --machine tiny --seed 1",
            "repro patterns show double_sided",
            "repro bench --record --baseline main",
            "repro attack --machine tiny \\",
            "  --slots 256 --pairs 14",
            "repro attack --seed 1 | tee out.log",
        ),
    )
    assert check_docs.check_cli_invocations(root) == []


def test_placeholders_are_skipped(tmp_path):
    root = str(tmp_path)
    _write(
        root,
        "README.md",
        _fence(
            "repro runs show RUN_ID",
            "repro chaos show <profile>",
            "repro attack --machine MACHINE --seed N",
        ),
    )
    assert check_docs.check_cli_invocations(root) == []


def test_main_reports_stale_invocations(tmp_path, capsys):
    root = str(tmp_path)
    _write(root, "README.md", _fence("repro attack --frobnicate"))
    assert check_docs.main(["--root", root]) == 1
    out = capsys.readouterr().out
    assert "stale CLI invocations" in out
    assert "--frobnicate" in out
