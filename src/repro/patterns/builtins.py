"""The named-pattern registry and the built-in pattern library.

Patterns register by name and are looked up by the CLI's ``--pattern``
flag, the experiment engine, and the fuzzing campaign.  The built-ins
are written in the DSL itself (and parsed at import time, so the text
below is continuously tested):

``double_sided``
    The canonical PThammer round — one implicit activation per side of
    the pair, alternating.  The attack's default: every burst runs it
    unless ``PThammerConfig.pattern`` names another.

``single_sided``
    Both activations aimed at role ``a`` — what ``double_sided``
    becomes over a single-sided pair, written out as a pattern.

``four_sided``
    An n-sided example: four aggressor roles hammered in order.  Over
    a two-target pair the roles rebind round-robin, making it a
    double-density double-sided round; over four targets it is a true
    four-sided sweep.

``delay_slotted``
    A non-uniform example: delay slots between activations, modelling
    the paced patterns refresh-aware defenses (SoftTRR) are probed
    with.

``refresh_synced``
    Synchronises to the refresh-interval boundary, then bursts — the
    sync-to-refresh barrier that Blacksmith-style patterns build on.
"""

from repro.errors import PatternError
from repro.patterns.parser import parse

_REGISTRY = {}


def register(pattern, replace=False):
    """Add a pattern to the registry under its own name."""
    if pattern.name in _REGISTRY and not replace:
        raise PatternError(
            "pattern %r is already registered (pass replace=True to override)"
            % pattern.name
        )
    _REGISTRY[pattern.name] = pattern
    return pattern


def register_text(text, replace=False):
    """Parse DSL text and register the result."""
    return register(parse(text), replace=replace)


def get(name):
    """Look up a registered pattern; PatternError names the known ones."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PatternError(
            "unknown pattern %r (registered: %s)" % (name, ", ".join(names()))
        )


def names():
    """Registered pattern names, sorted."""
    return sorted(_REGISTRY)


DOUBLE_SIDED = register_text(
    """\
pattern double_sided:
  aggressors a b
  hammer a
  hammer b
"""
)

SINGLE_SIDED = register_text(
    """\
pattern single_sided:
  aggressors a
  hammer a
  hammer a
"""
)

FOUR_SIDED = register_text(
    """\
pattern four_sided:
  aggressors a b c d
  hammer a
  hammer b
  hammer c
  hammer d
"""
)

DELAY_SLOTTED = register_text(
    """\
pattern delay_slotted:
  aggressors a b
  hammer a
  nop 64
  hammer b
  nop 64
"""
)

REFRESH_SYNCED = register_text(
    """\
pattern refresh_synced:
  aggressors a b
  sync_ref
  repeat 4:
    hammer a
    hammer b
"""
)
