"""JSON helpers: lossless packing of state trees, the one durable log format.

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

The experiment engine's checkpoints and the campaign journal are one
log format, written only by :func:`append_entry` and read only by
:func:`replay_entries`: one sorted-key JSON object per line, each with
the format version ``v`` and a ``type``.  An entry is committed once
its newline is on disk.  Replay skips an unterminated tail, whether or
not it parses, and the append cuts that tail off before it writes, so
a crash mid-append costs only the entry being written.
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


#: The log format version every journal line carries as ``v``.
JOURNAL_VERSION = 1


def append_entry(path, entry):
    """Durably append ``entry`` to the log at ``path``; returns the entry
    as written, with its version field.

    Any unterminated tail a crash left is cut off first, so the entry
    starts on a line of its own; the write is fsynced before returning.
    Only one process may append to a log at a time.
    """
    entry = dict(entry, v=JOURNAL_VERSION)
    line = json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n"
    with open(path, "a+b") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":  # a crash cut the last append short
                handle.seek(0)
                handle.truncate(handle.read().rfind(b"\n") + 1)
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
    return entry


def replay_entries(path, what, error):
    """Read back every committed entry of the log at ``path``, in order.

    The bytes after the last newline are an append a crash cut short,
    and are skipped.  A committed line that is not a JSON object of
    this format version means the file was damaged or written by
    another format, and raises ``error`` naming ``what`` (e.g.
    ``"checkpoint"``), the file and the line; so does a missing file.
    Lines are read as bytes, so one that is not UTF-8 is corrupt too.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")[:-1]
    except FileNotFoundError:
        raise error("no %s at %s" % (what, path))
    entries = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            raise error(
                "%s %s line %d is corrupt (not valid JSON); the file was "
                "damaged after writing — restore it, or start afresh"
                % (what, path, number)
            )
        if not isinstance(entry, dict):
            raise error("%s %s line %d is not an object" % (what, path, number))
        if entry.get("v") != JOURNAL_VERSION:
            raise error(
                "%s %s line %d has version %r; this build reads version %d"
                % (what, path, number, entry.get("v"), JOURNAL_VERSION)
            )
        entries.append(entry)
    return entries


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
