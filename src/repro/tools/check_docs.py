"""Docs checker: broken intra-repo references and stale CLI examples.

Usage (CI and local)::

    python -m repro.tools.check_docs [--root PATH]

Scans every Markdown file in the repository root and ``docs/``
(recursively) for three kinds of rot:

* Markdown links ``[text](target)`` whose target is not an external
  URL — resolved relative to the referencing file, then against the
  repository root; ``#fragment`` suffixes (and pure ``#fragment``
  links) are validated against the target file's actual headings
  using GitHub's anchor-slug rules;
* backtick-quoted paths like ```docs/API.md``` or ```src/repro/observe/```
  whose first segment is a top-level repository entry — these are how
  the prose refers to files, and they rot just as easily as links;
* fenced ``repro ...`` / ``python -m repro ...`` CLI invocations whose
  subcommand, nested subcommand, or ``--flags`` no longer exist —
  validated against the live argparse surface
  (:func:`repro.cli.build_parser`), including flag ``choices`` where
  the example passes a concrete value.

Exit status 0 when everything resolves, 1 with a listing of broken
references otherwise.  Kept dependency-free so it runs anywhere the
package does; wired into the test suite (``tests/test_tools_check_docs.py``)
so a broken reference fails tier-1, and into CI as the dedicated
``docs`` job.
"""

import argparse
import os
import re
import shlex
import sys

#: [text](target) — target captured; images share the syntax.
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: `path/like/this` — conservative: no spaces, at least one slash or a
#: .md suffix, characters that occur in paths only.
_BACKTICK_PATH = re.compile(r"`([A-Za-z0-9_.\-/]+)`")
#: Schemes (and pseudo-targets) that are not filesystem references.
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def _markdown_files(root):
    """Top-level *.md plus everything under docs/, sorted for stable output."""
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".md") and os.path.isfile(os.path.join(root, name)):
            found.append(os.path.join(root, name))
    docs = os.path.join(root, "docs")
    for dirpath, _dirnames, filenames in os.walk(docs):
        for name in sorted(filenames):
            if name.endswith(".md"):
                found.append(os.path.join(dirpath, name))
    return found


def _resolve_path(target, source_dir, root):
    """The filesystem path a reference resolves to, or None."""
    for base in (source_dir, root):
        candidate = os.path.join(base, target)
        if os.path.exists(candidate):
            return candidate
    return None


def _link_targets(text):
    """``(path, fragment)`` for every intra-repo Markdown link in ``text``.

    ``path`` is empty for pure ``#fragment`` links (which point into the
    referencing file itself); ``fragment`` is None when the link carries
    no anchor.
    """
    targets = []
    for target in _MD_LINK.findall(text):
        if target.startswith(_EXTERNAL):
            continue
        path, _, fragment = target.partition("#")
        if path or fragment:
            targets.append((path, fragment if "#" in target else None))
    return targets


#: ATX headings — the anchors GitHub derives slugs from.
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*$")
#: Inline Markdown inside a heading; the rendered text is what gets
#: slugged, so `code`, **bold**, *em*, and [text](url) all reduce to
#: their visible content first.
_HEADING_MARKUP = re.compile(
    r"`([^`]*)`|\*\*([^*]+)\*\*|\*([^*]+)\*|\[([^\]]*)\]\([^)]*\)"
)


def _slugify(heading):
    """GitHub's heading -> anchor id: lowercase, drop punctuation except
    ``-`` and ``_``, spaces become hyphens."""
    text = _HEADING_MARKUP.sub(
        lambda match: next(g for g in match.groups() if g is not None), heading
    )
    text = text.strip().lower()
    kept = []
    for ch in text:
        if ch.isalnum() or ch in "-_":
            kept.append(ch)
        elif ch in " \t":
            kept.append("-")
    return "".join(kept)


def _heading_anchors(text):
    """Every anchor id the rendered page exposes (fences excluded).

    Duplicate headings get ``-1``, ``-2``, ... suffixes, exactly as
    GitHub disambiguates them.
    """
    anchors = set()
    counts = {}
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if match is None:
            continue
        slug = _slugify(match.group(1))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else "%s-%d" % (slug, seen))
    return anchors


#: Gitignored default root of runtime output (the run ledger, the
#: telemetry spool, the campaign store).  Docs name paths under it that
#: no checkout holds and that a local run may or may not have created.
_RUNTIME_ROOT = ".repro"


def _backtick_targets(text, root):
    """Backticked tokens that look like repo paths (first segment exists)."""
    top_level = set(os.listdir(root))
    targets = []
    for token in _BACKTICK_PATH.findall(text):
        if "/" not in token and not token.endswith(".md"):
            continue
        if token.startswith("/") or ".." in token.split("/"):
            continue
        first = token.split("/", 1)[0]
        # Only claim tokens rooted at a real top-level entry; anything
        # else (module paths, URLs fragments, flags) is prose.
        if first not in top_level or first == _RUNTIME_ROOT:
            continue
        targets.append(token.rstrip("/"))
    return targets


#: Shell tokens that end the arguments of one invocation.
_SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>", "<", "2>", "2>&1", "&"}
#: Leading words an invocation line may carry before ``repro``.
_INVOCATION = re.compile(
    r"^(?:\$\s+)?(?:[A-Z_][A-Z0-9_]*=\S+\s+)*(?:python3?\s+-m\s+)?repro\s+(.*)$"
)


def _fenced_blocks(text):
    """The lines of every fenced code block, flattened."""
    lines = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            lines.append(line)
    return lines


def _cli_invocations(text):
    """``repro`` argument strings from fenced code blocks.

    Handles ``$`` prompts, ``ENV=value`` prefixes, ``python -m repro``
    spellings, and trailing-backslash line continuations.  Module
    invocations like ``python -m repro.tools.check_docs`` do not match
    (the pattern requires whitespace after ``repro``).
    """
    invocations = []
    pending = None
    for line in _fenced_blocks(text):
        stripped = line.strip()
        if pending is not None:
            pending += " " + stripped.rstrip("\\").strip()
            if not stripped.endswith("\\"):
                invocations.append(pending)
                pending = None
            continue
        match = _INVOCATION.match(stripped)
        if match is None:
            continue
        arguments = match.group(1).strip()
        if arguments.endswith("\\"):
            pending = arguments.rstrip("\\").strip()
        else:
            invocations.append(arguments)
    if pending is not None:
        invocations.append(pending)
    return invocations


def _invocation_tokens(arguments):
    """Shell-split ``arguments``, truncated at the first shell operator."""
    try:
        tokens = shlex.split(arguments)
    except ValueError:
        return None  # unbalanced quotes: not a checkable example
    kept = []
    for token in tokens:
        if token in _SHELL_OPERATORS:
            break
        kept.append(token)
    return kept


def _is_placeholder(token):
    """Doc-example placeholders (``RUN_ID``, ``<preset>``, ``...``)."""
    return (
        token in ("...", "…")
        or token.startswith("<")
        or (token.isupper() and any(ch.isalpha() for ch in token))
    )


def _subparsers_action(parser):
    import argparse as _argparse

    for action in parser._actions:
        if isinstance(action, _argparse._SubParsersAction):
            return action
    return None


def _check_invocation(arguments, parser):
    """Return a problem string for one invocation, or None if it is valid."""
    tokens = _invocation_tokens(arguments)
    if not tokens:
        return None
    commands = _subparsers_action(parser)
    command = tokens[0]
    if _is_placeholder(command):
        return None
    if command not in commands.choices:
        return "unknown subcommand %r" % command
    sub = commands.choices[command]
    rest = tokens[1:]
    nested = _subparsers_action(sub)
    if nested is not None:
        positional = next(
            (token for token in rest if not token.startswith("-")), None
        )
        if positional is None:
            return "%r needs a nested subcommand (%s)" % (
                command,
                ", ".join(sorted(nested.choices)),
            )
        if _is_placeholder(positional):
            return None
        if positional not in nested.choices:
            return "unknown %r subcommand %r" % (command, positional)
        index = rest.index(positional)
        sub = nested.choices[positional]
        rest = rest[:index] + rest[index + 1 :]
    options = sub._option_string_actions
    index = 0
    while index < len(rest):
        token = rest[index]
        index += 1
        if not token.startswith("--"):
            continue  # positionals and flag values are free-form
        name, _, value = token.partition("=")
        action = options.get(name)
        if action is None:
            return "unknown flag %r for %r" % (name, command)
        if action.nargs == 0:
            continue
        if not value:
            value = rest[index] if index < len(rest) else None
            index += 1
        if (
            action.choices is not None
            and value is not None
            and not _is_placeholder(value)
            and value not in action.choices
        ):
            return "flag %s=%r not in choices (%s)" % (
                name,
                value,
                ", ".join(sorted(str(c) for c in action.choices)),
            )
    return None


def check_cli_invocations(root):
    """(file, invocation, problem) for every stale CLI example."""
    from repro.cli import build_parser

    parser = build_parser()
    broken = []
    for path in _markdown_files(root):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        for invocation in _cli_invocations(text):
            problem = _check_invocation(invocation, parser)
            if problem is not None:
                broken.append(
                    (os.path.relpath(path, root), "repro " + invocation, problem)
                )
    return broken


def check_repository(root):
    """Return a list of (file, reference) pairs that do not resolve.

    A reference is broken when its path does not exist *or* when its
    ``#fragment`` names no heading in the resolved Markdown file; the
    reference string in the result keeps the fragment so the report
    pinpoints which of the two it was.
    """
    broken = []
    anchor_cache = {}

    def anchors_of(path):
        cached = anchor_cache.get(path)
        if cached is None:
            with open(path, "r", encoding="utf-8") as handle:
                cached = _heading_anchors(handle.read())
            anchor_cache[path] = cached
        return cached

    for path in _markdown_files(root):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        source_dir = os.path.dirname(path)
        seen = set()
        links = _link_targets(text)
        links += [(target, None) for target in _backtick_targets(text, root)]
        for target, fragment in links:
            reference = target if fragment is None else target + "#" + fragment
            if reference in seen:
                continue
            seen.add(reference)
            resolved = path if not target else _resolve_path(target, source_dir, root)
            if resolved is None:
                broken.append((os.path.relpath(path, root), reference))
                continue
            if fragment is None or not resolved.endswith(".md"):
                continue
            if fragment.lower() not in anchors_of(resolved):
                broken.append((os.path.relpath(path, root), reference))
    return broken


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.check_docs",
        description="fail on broken intra-repo references in docs/ and README",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repository root (default: auto-detected from this file)",
    )
    args = parser.parse_args(argv)
    root = args.root
    if root is None:
        # src/repro/tools/check_docs.py -> repository root, three up from src/.
        here = os.path.dirname(os.path.abspath(__file__))
        root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    files = _markdown_files(root)
    broken = check_repository(root)
    stale = check_cli_invocations(root)
    if broken:
        print("broken intra-repo references:")
        for path, target in broken:
            print("  %s -> %s" % (path, target))
    if stale:
        print("stale CLI invocations:")
        for path, invocation, problem in stale:
            print("  %s: `%s` — %s" % (path, invocation, problem))
    if broken or stale:
        print(
            "%d broken reference(s), %d stale invocation(s) in %d file(s) scanned"
            % (len(broken), len(stale), len(files))
        )
        return 1
    print(
        "docs ok: %d Markdown file(s), no broken references or stale "
        "CLI invocations" % len(files)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
