"""Serializable machine state: the snapshot container and codec.

A :class:`MachineSnapshot` is a versioned, JSON-serialisable capture of
one machine's complete simulated state — DRAM contents and disturbance
counters, cache and TLB arrays with their replacement-policy bits,
paging-structure caches, kernel process/cred/allocator tables, RNG
stream positions, and the metrics registry.  It is assembled purely
from per-component ``state_dict()`` trees (docs/SNAPSHOTS.md); **no
live object is ever pickled**, so a snapshot written by one process
loads in any other — including pool workers with a different
interpreter lifetime — and two snapshots of identical machine states
are byte-identical.  Machine state is the same on both access-engine
tiers, so a snapshot carries no tier and restores into either.

The codec is two-layered:

* components return natural Python trees (tuple dict keys, tuple
  values) and :func:`repro.utils.serialize.pack` makes the whole tree
  JSON-lossless in one pass at this layer;
* :class:`~repro.mem.physmem.PhysicalMemory` pre-encodes its frames as
  hex strings, so the dominant payload skips the generic codec.

``Machine.snapshot()`` / ``Machine.restore()`` / ``Machine.fork()``
(:mod:`repro.machine.machine`) are the producing/consuming APIs; the
``repro snapshot`` CLI group is the main client.
"""

import hashlib
import json
from dataclasses import asdict

from repro.errors import SnapshotError
from repro.machine.configs import (
    CacheConfig,
    CPUTimings,
    DRAMConfig,
    FaultConfig,
    MachineConfig,
    PSCConfig,
    TLBConfig,
)
from repro.observe.ledger import config_fingerprint
from repro.utils.serialize import pack, unpack, write_json_atomic

#: Bump when the snapshot payload schema changes incompatibly.  A
#: snapshot from another version never half-loads: :class:`MachineSnapshot`
#: refuses it up front.  Version 2 added the chaos sources' schedules;
#: version 3 dropped the tier flag and the fast tier's address memo.
SNAPSHOT_VERSION = 3

#: Component sections of a snapshot's state (``chaos`` is optional).
_STATE_SECTIONS = (
    "machine", "physmem", "fault_model", "dram", "caches", "tlb", "walker",
    "policy", "ptm", "kernel", "metrics",
)

#: Sub-config dataclasses of :class:`MachineConfig`, keyed by field name
#: — the recipe for rebuilding a config from its serialized dict.
_SUBCONFIGS = {
    "cpu": CPUTimings,
    "tlb": TLBConfig,
    "psc": PSCConfig,
    "cache": CacheConfig,
    "dram": DRAMConfig,
    "fault": FaultConfig,
}


def config_from_dict(payload):
    """Rebuild a validated :class:`MachineConfig` from its dict form.

    Inverse of ``dataclasses.asdict`` for the machine-config tree;
    tuple-typed fields (TLB mappings, slice masks) must already be
    tuples — snapshots guarantee that by shipping the config through
    :func:`pack`/:func:`unpack` rather than bare JSON.
    """
    try:
        kwargs = {
            key: _SUBCONFIGS[key](**value) if key in _SUBCONFIGS else value
            for key, value in payload.items()
        }
        return MachineConfig(**kwargs).validate()
    except (AttributeError, TypeError) as exc:
        raise SnapshotError("snapshot config does not fit MachineConfig: %s" % exc)


class MachineSnapshot:
    """One machine's serialized state, plus enough context to check it.

    Wraps a JSON-safe payload dict::

        {"version": 3, "machine": <config name>,
         "config": <packed asdict(config)>,
         "config_fingerprint": <16-hex-char hash>,
         "state": <packed component trees>,
         "meta": {...caller extras, e.g. "boot_pid"...}}

    Construction validates the version; :meth:`ensure_matches` is the
    restore-time compatibility gate.  :meth:`fingerprint` hashes the
    canonical JSON form, so two byte-identical machine states — however
    they were reached — fingerprint identically.
    """

    __slots__ = ("payload",)

    def __init__(self, payload):
        version = payload.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                "snapshot version %r not supported (this build reads version %d)"
                % (version, SNAPSHOT_VERSION)
            )
        self.payload = payload

    @classmethod
    def capture(cls, config, state, meta=None):
        """Package component ``state_dict()`` trees into a snapshot.

        Called by ``Machine.snapshot()``; ``state`` is the raw tree of
        per-component dicts and is packed here, in one pass.
        """
        return cls(
            {
                "version": SNAPSHOT_VERSION,
                "machine": config.name,
                "config": pack(asdict(config)),
                "config_fingerprint": config_fingerprint(config),
                "state": pack(state),
                "meta": dict(meta) if meta else {},
            }
        )

    # -- payload accessors ----------------------------------------------

    @property
    def version(self):
        """Snapshot schema version (always :data:`SNAPSHOT_VERSION`)."""
        return self.payload["version"]

    @property
    def machine_name(self):
        """The ``config.name`` of the machine that was captured."""
        return self.payload["machine"]

    @property
    def config_fingerprint(self):
        """Fingerprint of the captured machine's config (ledger hash)."""
        return self.payload["config_fingerprint"]

    @property
    def meta(self):
        """Caller-supplied extras (e.g. ``repro snapshot save``'s ``boot_pid``)."""
        return self.payload["meta"]

    def config(self):
        """Rebuild the full :class:`MachineConfig` that was captured."""
        return config_from_dict(unpack(self.payload["config"]))

    def state(self):
        """The unpacked per-component state tree (fresh copy per call)."""
        return unpack(self.payload["state"])

    # -- integrity / identity -------------------------------------------

    def fingerprint(self):
        """Short stable hash of the canonical JSON form of the payload.

        Two snapshots with the same fingerprint hold byte-identical
        machine state (``repro snapshot info`` prints it).
        """
        blob = json.dumps(
            self.payload, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def ensure_matches(self, config):
        """Raise :class:`SnapshotError` unless this snapshot fits a machine.

        The machine must be parameterised identically (config
        fingerprint); its access-engine tier does not matter.
        """
        fingerprint = config_fingerprint(config)
        if fingerprint != self.config_fingerprint:
            raise SnapshotError(
                "snapshot of %r (config %s) cannot restore into a machine "
                "with config %s" % (self.machine_name, self.config_fingerprint, fingerprint)
            )

    # -- serialization ---------------------------------------------------

    def to_json(self, indent=None):
        """Canonical JSON text (sorted keys; ``indent`` for humans)."""
        return json.dumps(self.payload, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text):
        """Decode :meth:`to_json` output; version- and shape-checked.

        Checks what :meth:`info`, :meth:`config` and ``Machine.restore``
        read, so a damaged file fails here with a :class:`SnapshotError`
        rather than deep inside a restore.
        """
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise SnapshotError("snapshot is not valid JSON: %s" % exc)
        if not isinstance(payload, dict):
            raise SnapshotError("snapshot JSON must be an object")
        for key in ("version", "machine", "config", "config_fingerprint", "state", "meta"):
            if key not in payload:
                raise SnapshotError("snapshot JSON lacks the %r field" % key)
        for key in ("config", "state", "meta"):
            if not isinstance(payload[key], dict):
                raise SnapshotError("snapshot %r must be a JSON object" % key)
        state = payload["state"]
        for section in _STATE_SECTIONS:
            if not isinstance(state.get(section), dict):
                raise SnapshotError("snapshot state lacks the %r section" % section)
        for section, key in (
            ("machine", "cycles"), ("kernel", "processes"), ("physmem", "frames")
        ):
            if key not in state[section]:
                raise SnapshotError("snapshot state %r lacks %r" % (section, key))
        snap = cls(payload)
        snap.config()  # the captured config must rebuild
        return snap

    def save(self, path):
        """Write the snapshot to ``path`` as canonical JSON.

        Written via a temp file and atomic rename so a crash mid-write
        leaves either the old snapshot or the new one — never a torn
        file that :meth:`load` would reject.
        """
        write_json_atomic(path, self.payload)

    @classmethod
    def load(cls, path):
        """Read a snapshot written by :meth:`save`."""
        # Undecoded bytes: a file that is not UTF-8 fails in from_json too.
        with open(path, "rb") as handle:
            return cls.from_json(handle.read())

    # -- introspection ----------------------------------------------------

    def info(self):
        """Summary dict for ``repro snapshot info`` and run records."""
        state = self.payload["state"]
        return {
            "version": self.version,
            "machine": self.machine_name,
            "config_fingerprint": self.config_fingerprint,
            "fingerprint": self.fingerprint(),
            "cycles": state["machine"]["cycles"],
            "processes": len(state["kernel"]["processes"]),
            "resident_frames": len(state["physmem"]["frames"]),
            "chaos": "chaos" in state,
            "meta": dict(self.meta),
        }

    def __repr__(self):
        return "MachineSnapshot(%s, config=%s, fingerprint=%s)" % (
            self.machine_name,
            self.config_fingerprint,
            self.fingerprint(),
        )
