"""Checked value types for command-line flags.

Each takes a flag's text and returns the value or raises ``ValueError``,
which argparse reports as a usage error (exit 2) naming the flag and the
value, before any machine boots.  No argparse import: the experiment
registry attaches these to its flags and must stay cheap to import.
"""

import math
import re


def _check(value, ok, text):
    if not ok(value):
        raise ValueError("%r is out of range" % text)
    return value


def positive_int(text):
    """A count of at least 1 (``--slots``, ``--trials``, ``--jobs``)."""
    return _check(int(text), lambda value: value >= 1, text)


def non_negative_int(text):
    """A count that may be 0 (``--retries``, ``--limit``, an event budget)."""
    return _check(int(text), lambda value: value >= 0, text)


def fraction(text):
    """A number in [0, 1], such as a sample rate; NaN is not."""
    return _check(float(text), lambda value: 0 <= value <= 1, text)


def positive_float(text):
    """A finite number above 0 (``--interval``, ``--task-timeout``)."""
    return _check(float(text), lambda value: 0 < value < math.inf, text)


def non_negative_float(text):
    """A finite number of at least 0 (``--tolerance``)."""
    return _check(float(text), lambda value: 0 <= value < math.inf, text)


def size_list(text):
    """Eviction-set sizes: an inclusive range ``8-16`` or a list ``8,12,16``."""
    low, dash, high = text.strip().partition("-")
    if not dash or "," in text:
        return _int_list(text, positive_int)
    sizes = tuple(range(positive_int(low), positive_int(high) + 1))
    return _check(sizes, bool, text)


def padding_list(text):
    """Comma-separated NOP paddings in cycles, each at least 0."""
    return _int_list(text, non_negative_int)


def _int_list(text, convert):
    values = tuple(convert(token) for token in text.split(",") if token.strip())
    return _check(values, bool, text)


def regex(text):
    """A compiled pattern; ``re.error`` is not a ``ValueError``, so convert it."""
    try:
        return re.compile(text)
    except re.error as exc:
        raise ValueError("%r is not a regular expression: %s" % (text, exc))
