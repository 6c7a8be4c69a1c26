"""JSON helpers: lossless packing of state trees, torn-tail-tolerant JSONL.

JSON has neither tuples nor non-string dict keys, but component
``state_dict()`` payloads use both: TLB tags are ``(as_id, vpn)``
tuples, memo tables are keyed by ``(cr3, region)``, cache sets by
integer index.  :func:`pack` rewrites such a tree into pure JSON —
tuples become ``{"__tuple__": [...]}`` markers and dicts with any
non-string key become ordered ``{"__pairs__": [[k, v], ...]}`` pair
lists — and :func:`unpack` inverts it exactly, so
``unpack(json.loads(json.dumps(pack(tree)))) == tree`` for every tree
the snapshot protocol produces (docs/SNAPSHOTS.md).

Dict iteration order survives both directions (plain dicts via JSON
object order, pair lists positionally), which matters for LRU
structures whose ordering *is* state.

:func:`read_json_lines` reads the append-only JSONL files the
experiment engine's checkpoints and the campaign journal are made of;
:func:`write_json_atomic` writes the documents readers must never see
half-written (snapshots, shard results, campaign reports).
"""

import json
import os

_MARKERS = ("__tuple__", "__pairs__")


def pack(value):
    """Rewrite ``value`` into a JSON-representable equivalent."""
    if isinstance(value, tuple):
        return {"__tuple__": [pack(item) for item in value]}
    if isinstance(value, list):
        return [pack(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and not any(
            marker in value for marker in _MARKERS
        ):
            return {key: pack(item) for key, item in value.items()}
        return {"__pairs__": [[pack(key), pack(item)] for key, item in value.items()]}
    return value


def unpack(value):
    """Invert :func:`pack` exactly."""
    if isinstance(value, dict):
        if len(value) == 1:
            if "__tuple__" in value:
                return tuple(unpack(item) for item in value["__tuple__"])
            if "__pairs__" in value:
                return {unpack(key): unpack(item) for key, item in value["__pairs__"]}
        return {key: unpack(item) for key, item in value.items()}
    if isinstance(value, list):
        return [unpack(item) for item in value]
    return value


def read_json_lines(path, damaged):
    """Parse a JSON-lines file that a crash may have cut short.

    Returns ``[(line number, value)]`` for every non-blank line.  A
    last line that does not parse is a write the crash tore, and is
    skipped; one with intact lines after it means the file was damaged
    after writing, and raises ``damaged(line number)``.  Lines are read
    as bytes, so one that is not UTF-8 is one more unparsable line.
    """
    with open(path, "rb") as handle:
        lines = [
            (number, line)
            for number, line in enumerate(handle.read().splitlines(), 1)
            if line.strip()
        ]
    parsed = []
    for number, line in lines:
        try:
            parsed.append((number, json.loads(line)))
        except ValueError:
            if number != lines[-1][0]:
                raise damaged(number)
    return parsed


def write_json_atomic(path, payload, indent=None):
    """Write ``payload`` as sorted-key JSON through an fsynced temp file
    and a rename: readers see the old file or the new one, never a tear."""
    temp = "%s.tmp.%d" % (path, os.getpid())
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=indent)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
