"""Campaign specs: the matrix a campaign runs and its compiled plan.

A campaign is described by pure data — a :class:`CampaignSpec` — and
compiled into a :class:`CampaignPlan`: the task DAG the supervisor
executes.  The matrix axes are the vocabularies the rest of the system
already speaks (machine presets, defense presets, chaos profiles,
registered hammer patterns); every cell of the cross product is
sharded by seed into ``shards_per_cell`` independent
:class:`ShardSpec` leaves, each carrying a deterministically derived
seed (:func:`repro.analysis.engine.derive_seed`), so results are
bit-identical however the shards are scheduled, retried, or resumed.

The DAG has three levels: shard leaves, per-cell aggregation nodes
(complete when every shard of the cell is done or quarantined), and
the campaign root (the final results document).  See
``docs/CAMPAIGNS.md`` for the on-disk spec format.
"""

import itertools
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import repro.core.pthammer  # noqa: F401 — breaks the patterns<->core import cycle
from repro.analysis.engine import derive_seed
from repro.chaos import CHAOS_PROFILES
from repro.defenses import DEFENSE_PRESETS
from repro.errors import ConfigError
from repro.machine.configs import MACHINE_PRESETS
from repro.observe.ledger import config_fingerprint

#: Bump when the spec format changes incompatibly.
SPEC_VERSION = 1

#: The chaos-axis value meaning "no injector attached at all" (distinct
#: from the all-zero ``quiet`` profile, which attaches one and enables
#: the self-healing pipeline).
NO_CHAOS = "none"

#: The pattern-axis value meaning "the attack's default pattern"
#: (``double_sided``).
NO_PATTERN = "-"

#: Shard workloads: the full escalation attack, or a lightweight
#: deterministic hammer probe (seconds vs milliseconds per shard — the
#: probe is what CI smoke and the fault-injection tests run).
WORKLOADS = ("attack", "probe")


@dataclass(frozen=True)
class ShardSpec:
    """One leaf of the campaign DAG: a (cell, seed) unit of work."""

    key: str
    cell: str
    machine: str
    defense: str
    chaos: str
    pattern: str
    index: int  # global shard index; names the result file
    seed: int


@dataclass(frozen=True)
class CellSpec:
    """One aggregation node: a point of the matrix and its shards."""

    key: str
    machine: str
    defense: str
    chaos: str
    pattern: str
    shards: tuple  # of ShardSpec


@dataclass
class SupervisorConfig:
    """Supervision knobs; all host-time, none result-affecting."""

    #: Concurrent worker processes (degraded downward when workers
    #: keep dying; never raised back within one run).
    jobs: int = 2
    #: Attempts per shard before it is quarantined as poison.
    max_attempts: int = 3
    #: Base of the exponential retry backoff, in host seconds.
    backoff: float = 0.25
    #: A worker silent (no heartbeat, no result) for this long is
    #: presumed hung and killed; must exceed the slowest shard.
    liveness_timeout: float = 60.0
    #: Longest the supervisor sleeps (host seconds, capped at 0.25)
    #: before it checks control markers, signals and liveness; a
    #: shard that ends wakes it at once.
    poll_interval: float = 0.05
    #: Seconds in-flight shards get to finish on pause/cancel before
    #: being killed (they re-run on resume; results are unaffected).
    grace: float = 5.0
    #: Worker deaths by a signal, counted since the last halving (shards
    #: that complete do not reset the count), that halve parallelism.
    degrade_after: int = 3
    #: Worker heartbeat rate limit, host seconds.
    heartbeat_interval: float = 0.2

    def validate(self):
        if self.jobs < 1:
            raise ConfigError("campaign supervisor needs jobs >= 1")
        if self.max_attempts < 1:
            raise ConfigError("campaign supervisor needs max_attempts >= 1")
        for name in ("backoff", "liveness_timeout", "poll_interval",
                     "grace", "heartbeat_interval"):
            if getattr(self, name) < 0:
                raise ConfigError("campaign supervisor %s must be >= 0" % name)
        if self.degrade_after < 1:
            raise ConfigError("campaign supervisor needs degrade_after >= 1")
        return self

    def to_dict(self):
        return asdict(self)


def _validate_pattern(name):
    from repro.patterns import get as get_pattern

    get_pattern(name)  # unknown names raise ConfigError


@dataclass
class CampaignSpec:
    """The campaign matrix plus attack, supervision, and fault knobs.

    ``attack`` is a plain dict of workload options (``workload``,
    ``slots``, ``pairs``, ``windows``, ``cred_spray``, ``superpages``,
    ``rounds``); ``faults`` is the optional fault-injection plan
    consumed by :mod:`repro.campaign.faultinject`.  Both stay plain
    JSON so the spec can be journaled verbatim and replayed.
    """

    name: str = "campaign"
    seed: int = 0
    machines: List[str] = field(default_factory=lambda: ["tiny"])
    defenses: List[str] = field(default_factory=lambda: ["none"])
    chaos: List[str] = field(default_factory=lambda: [NO_CHAOS])
    patterns: List[str] = field(default_factory=lambda: [NO_PATTERN])
    shards_per_cell: int = 1
    attack: Dict[str, Any] = field(default_factory=dict)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    faults: Optional[Dict[str, Any]] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, payload):
        """Build and validate a spec from plain (JSON-shaped) data."""
        if not isinstance(payload, dict):
            raise ConfigError(
                "campaign spec must be a JSON object, got %s"
                % type(payload).__name__
            )
        payload = dict(payload)
        version = payload.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigError(
                "campaign spec version %r is not supported (this build "
                "reads version %d)" % (version, SPEC_VERSION)
            )
        try:
            supervisor = SupervisorConfig(**payload.pop("supervisor", {}) or {})
        except TypeError as exc:
            raise ConfigError(
                "campaign spec supervisor section is malformed: %s" % exc
            )
        known = {
            "name", "seed", "machines", "defenses", "chaos", "patterns",
            "shards_per_cell", "attack", "faults",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError("campaign spec has unknown keys: %s" % unknown)
        spec = cls(supervisor=supervisor, **payload)
        return spec.validate()

    @classmethod
    def from_file(cls, path):
        """Load a spec from a JSON file; bad paths/JSON raise ConfigError."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ConfigError("cannot read campaign spec %s: %s" % (path, exc))
        except ValueError as exc:
            raise ConfigError("campaign spec %s is not valid JSON: %s" % (path, exc))
        return cls.from_dict(payload)

    def validate(self):
        """Resolve every axis value eagerly; fail before any work runs."""
        if not self.name or os.sep in str(self.name):
            raise ConfigError("campaign spec needs a non-empty, slash-free name")
        for axis, values in (
            ("machines", self.machines),
            ("defenses", self.defenses),
            ("chaos", self.chaos),
            ("patterns", self.patterns),
        ):
            if not values:
                raise ConfigError("campaign spec axis %r is empty" % axis)
        for machine in self.machines:
            if machine not in MACHINE_PRESETS:
                raise ConfigError(
                    "campaign spec references unknown machine preset %r "
                    "(known: %s)" % (machine, ", ".join(sorted(MACHINE_PRESETS)))
                )
        for defense in self.defenses:
            if defense not in DEFENSE_PRESETS:
                raise ConfigError(
                    "campaign spec references unknown defense %r (known: %s)"
                    % (defense, ", ".join(sorted(DEFENSE_PRESETS)))
                )
        for chaos in self.chaos:
            if chaos != NO_CHAOS and chaos not in CHAOS_PROFILES:
                raise ConfigError(
                    "campaign spec references unknown chaos profile %r "
                    "(known: %s, %s)"
                    % (chaos, NO_CHAOS, ", ".join(sorted(CHAOS_PROFILES)))
                )
        for pattern in self.patterns:
            if pattern != NO_PATTERN:
                _validate_pattern(pattern)
        if self.shards_per_cell < 1:
            raise ConfigError("campaign spec needs shards_per_cell >= 1")
        workload = self.attack.get("workload", "attack")
        if workload not in WORKLOADS:
            raise ConfigError(
                "campaign spec workload %r is unknown (known: %s)"
                % (workload, ", ".join(WORKLOADS))
            )
        self.supervisor.validate()
        if self.faults is not None:
            from repro.campaign.faultinject import FaultPlan

            FaultPlan.from_dict(self.faults)  # construction validates
        return self

    # -- serialisation ----------------------------------------------------

    def to_dict(self):
        """The journaled form; ``from_dict`` round-trips it."""
        payload = {
            "version": SPEC_VERSION,
            "name": self.name,
            "seed": self.seed,
            "machines": list(self.machines),
            "defenses": list(self.defenses),
            "chaos": list(self.chaos),
            "patterns": list(self.patterns),
            "shards_per_cell": self.shards_per_cell,
            "attack": dict(self.attack),
            "supervisor": self.supervisor.to_dict(),
        }
        if self.faults is not None:
            payload["faults"] = self.faults
        return payload

    def fingerprint(self):
        """Short stable hash of the spec (supervision knobs excluded:
        they cannot affect results, so re-running with different jobs
        or timeouts still resumes the same campaign)."""
        payload = self.to_dict()
        payload.pop("supervisor", None)
        return config_fingerprint(payload)

    # -- compilation ------------------------------------------------------

    def compile_plan(self):
        """Expand the matrix into the shard/cell DAG."""
        cells = []
        shards = []
        for axes in itertools.product(
            self.machines, self.defenses, self.chaos, self.patterns
        ):
            cell_key = "m=%s,d=%s,c=%s,p=%s" % axes
            cell_shards = tuple(
                ShardSpec(
                    "%s,s=%d" % (cell_key, shard_no),
                    cell_key,
                    *axes,
                    index=len(shards) + shard_no,
                    seed=derive_seed(self.seed, "campaign", cell_key, shard_no),
                )
                for shard_no in range(self.shards_per_cell)
            )
            shards.extend(cell_shards)
            cells.append(CellSpec(cell_key, *axes, shards=cell_shards))
        return CampaignPlan(spec=self, cells=cells, shards=shards)


@dataclass
class CampaignPlan:
    """The compiled DAG: shard leaves under cell aggregation nodes."""

    spec: CampaignSpec
    cells: List[CellSpec]
    shards: List[ShardSpec]

    def shard(self, key):
        for shard in self.shards:
            if shard.key == key:
                return shard
        raise ConfigError("campaign plan has no shard %r" % key)

    def cell_of(self, shard_key):
        for cell in self.cells:
            if any(shard.key == shard_key for shard in cell.shards):
                return cell
        raise ConfigError("campaign plan has no cell containing %r" % shard_key)
