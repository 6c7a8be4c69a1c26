"""Run ledger: a persistent, append-only store of structured run records.

PThammer is a measurement paper — Table II's per-phase costs and
Figure 6's per-round latencies only mean something *longitudinally*,
compared across machine configs and across code revisions.  The ledger
is where those longitudinal numbers live: every ``repro attack``,
every engine ``run_experiment``, and every benchmark appends one JSON
record (run id, git revision, machine-config fingerprint, wall and
virtual-cycle timings, the phase breakdown from the always-on spans, a
:class:`~repro.observe.MetricsRegistry` snapshot, and the outcome) to
a directory of one-file-per-run records — ``.repro/runs/`` by default,
``REPRO_LEDGER_DIR`` to relocate.

On top of the store sits a comparison layer: :func:`diff_records`
computes per-metric deltas between two records with direction-aware
regression detection (timings regress *up*, flip counts regress
*down*), which backs ``repro runs diff`` and ``repro bench
--compare BASELINE``.  See ``docs/RUN_LEDGER.md`` for the record
schema and the CLI workflows.

Layering note: like the rest of :mod:`repro.observe`, this module
knows nothing about machines or attacks.  Records are built *by* the
layers that own the data (the CLI, the experiment engine, the bench
suite) and handed down.
"""

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError
from repro.utils.serialize import write_json_atomic

#: Bump when the record schema changes incompatibly.
LEDGER_SCHEMA_VERSION = 1

#: Environment override for the ledger root directory.
LEDGER_ENV_VAR = "REPRO_LEDGER_DIR"

#: Default ledger root, relative to the current working directory.
DEFAULT_LEDGER_DIR = os.path.join(".repro", "runs")

#: Record kinds the ledger understands (free-form strings are allowed;
#: these are the ones the CLI writes).
ATTACK_RUN = "attack"
EXPERIMENT_RUN = "experiment"
BENCHMARK_RUN = "benchmark"
CAMPAIGN_RUN = "campaign"


# ----------------------------------------------------------------------
# Environment capture


def git_revision(root="."):
    """Best-effort commit hash of the repository containing ``root``.

    Reads ``.git/HEAD`` (and the ref / packed-refs it points at)
    directly — no subprocess, no git binary needed.  Returns ``None``
    outside a repository or on any parse trouble; a run record is
    never worth failing over provenance.
    """
    try:
        directory = os.path.abspath(root)
        while True:
            git_dir = os.path.join(directory, ".git")
            if os.path.isdir(git_dir):
                break
            parent = os.path.dirname(directory)
            if parent == directory:
                return None
            directory = parent
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref:"):
            return head or None
        ref = head.split(None, 1)[1]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                return handle.read().strip() or None
        packed = os.path.join(git_dir, "packed-refs")
        if os.path.exists(packed):
            with open(packed, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line.endswith(" " + ref):
                        return line.split(" ", 1)[0]
        return None
    except OSError:
        return None


def config_fingerprint(config):
    """Short stable hash of a machine config (or any dataclass/dict).

    Two runs with the same fingerprint ran on identically parameterised
    machines, so their virtual-cycle numbers are directly comparable;
    a fingerprint change explains a timing change before anyone blames
    the code.  Non-JSON field values fall back to ``repr``.
    """
    payload = asdict(config) if is_dataclass(config) else config
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Records


@dataclass
class RunRecord:
    """One run, as persisted: identity, provenance, timings, outcome.

    ``timings`` holds scalar numbers (``host_seconds``,
    ``virtual_cycles``); ``phases`` is the span-derived breakdown
    (``[{"name", "start", "end", "cycles"}, ...]``); ``metrics`` is a
    ``MetricsRegistry.snapshot_values()`` (with the derived percentile
    summaries); ``outcome`` and ``extra`` are free-form JSON objects.
    Use :meth:`new` rather than the bare constructor — it stamps the
    run id, timestamp, and git revision.
    """

    run_id: str
    kind: str
    name: str
    created_utc: str
    schema: int = LEDGER_SCHEMA_VERSION
    label: Optional[str] = None
    git_rev: Optional[str] = None
    machine: Optional[str] = None
    config_fingerprint: Optional[str] = None
    command: Optional[str] = None
    timings: Dict[str, float] = field(default_factory=dict)
    phases: List[dict] = field(default_factory=list)
    metrics: Optional[dict] = None
    outcome: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def new(cls, kind, name, **fields):
        """A record with identity and provenance filled in."""
        fields.setdefault("git_rev", git_revision())
        return cls(
            run_id=new_run_id(),
            kind=kind,
            name=name,
            created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **fields,
        )

    def to_json(self):
        """The persisted form (plain dict, JSON-serialisable)."""
        return asdict(self)

    @classmethod
    def from_json(cls, payload):
        """Inverse of :meth:`to_json`; tolerant of unknown keys.

        Malformed payloads — valid JSON that is not a record object, or
        one missing the identity fields — raise :class:`ConfigError`
        like every other ledger problem, so CLI callers report them
        cleanly instead of surfacing an internal traceback.
        """
        if not isinstance(payload, dict):
            raise ConfigError(
                "run record payload must be a JSON object, got %s"
                % type(payload).__name__
            )
        if payload.get("schema") != LEDGER_SCHEMA_VERSION:
            raise ConfigError(
                "run record %r has schema %r; this ledger reads schema %d"
                % (payload.get("run_id"), payload.get("schema"), LEDGER_SCHEMA_VERSION)
            )
        known = {f for f in cls.__dataclass_fields__}
        try:
            return cls(**{key: value for key, value in payload.items() if key in known})
        except TypeError as exc:
            raise ConfigError(
                "run record %r is malformed: %s" % (payload.get("run_id"), exc)
            )

    def comparable_metrics(self):
        """Flat ``{metric name: number}`` view for diffing.

        * ``time.*`` — the scalar timings;
        * ``phase.<name>.cycles`` — per-phase virtual-cycle costs;
        * ``counter.<name>`` — registry counters;
        * numeric ``outcome.*`` fields (booleans count as 0/1);
        * ``telemetry.*`` — the streaming-telemetry summary persisted
          in ``extra["telemetry"]`` (throughput and flip-rate
          mean/peak, merged latency percentiles, per-group flips), so
          ``repro runs diff`` compares two runs' live curves too.
        """
        flat = {}
        for key, value in self.timings.items():
            if isinstance(value, (int, float)):
                flat["time.%s" % key] = value
        for phase in self.phases:
            cycles = phase.get("cycles")
            if isinstance(cycles, (int, float)):
                flat["phase.%s.cycles" % phase.get("name")] = cycles
        snapshot = self.metrics or {}
        for name, value in snapshot.get("counters", {}).items():
            flat["counter.%s" % name] = value
        for key, value in self.outcome.items():
            if isinstance(value, bool):
                flat["outcome.%s" % key] = int(value)
            elif isinstance(value, (int, float)):
                flat["outcome.%s" % key] = value
        telemetry = (self.extra or {}).get("telemetry") or {}
        totals = telemetry.get("totals") or {}
        for key in (
            "throughput_mean",
            "throughput_peak",
            "flips_per_sec_mean",
            "flips_per_sec_peak",
            "latency_p50",
            "latency_p95",
            "latency_p99",
        ):
            value = totals.get(key)
            if isinstance(value, (int, float)):
                flat["telemetry.%s" % key] = value
        for group, stats in sorted((telemetry.get("groups") or {}).items()):
            flips = stats.get("flips") if isinstance(stats, dict) else None
            if isinstance(flips, (int, float)):
                flat["telemetry.group.%s.flips" % group] = flips
        return flat

    def summary_line(self):
        """One row for ``repro runs list``."""
        seconds = self.timings.get("host_seconds")
        return "%-22s %-10s %-14s %-12s %-20s %8s %s" % (
            self.run_id,
            self.kind,
            (self.name or "")[:14],
            (self.machine or "")[:12],
            self.created_utc,
            "%.2fs" % seconds if seconds is not None else "-",
            self.label or "",
        )


_RUN_ID_COUNTER = [0]


def new_run_id():
    """A sortable, collision-resistant run id.

    ``YYYYmmddTHHMMSS-xxxxxx``: a UTC timestamp prefix (records sort
    chronologically by filename) plus six hex chars hashed from the
    pid, a process-local counter, and the monotonic clock.
    """
    _RUN_ID_COUNTER[0] += 1
    material = "%d:%d:%d" % (
        os.getpid(),
        _RUN_ID_COUNTER[0],
        time.monotonic_ns(),
    )
    suffix = hashlib.sha256(material.encode("utf-8")).hexdigest()[:6]
    return time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + "-" + suffix


# ----------------------------------------------------------------------
# The store


class RunLedger:
    """Append-only directory of run records, one JSON file per run.

    The root resolves, in order: the ``root`` argument, the
    ``REPRO_LEDGER_DIR`` environment variable, ``.repro/runs`` under
    the current working directory.  Records are written atomically
    (temp file + rename) and never mutated or deleted by this class —
    the ledger is the project's longitudinal memory.
    """

    def __init__(self, root=None):
        self.root = root or os.environ.get(LEDGER_ENV_VAR) or DEFAULT_LEDGER_DIR

    def path(self, run_id):
        """The file a record with ``run_id`` lives (or would live) at."""
        return os.path.join(self.root, run_id + ".json")

    def record(self, record):
        """Persist one :class:`RunRecord`; returns the file path."""
        os.makedirs(self.root, exist_ok=True)
        path = self.path(record.run_id)
        if os.path.exists(path):
            raise ConfigError("run %s is already recorded at %s" % (record.run_id, path))
        write_json_atomic(path, record.to_json(), indent=1)
        return path

    def run_ids(self):
        """All recorded run ids, oldest first."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        )

    def load(self, run_id):
        """Load one record; unique prefixes of a run id are accepted."""
        path = self.path(run_id)
        if not os.path.exists(path):
            matches = [rid for rid in self.run_ids() if rid.startswith(run_id)]
            if len(matches) == 1:
                path = self.path(matches[0])
            elif len(matches) > 1:
                raise ConfigError(
                    "run id prefix %r is ambiguous (%s)" % (run_id, ", ".join(matches))
                )
            else:
                raise ConfigError(
                    "no run %r in ledger %s (%d record(s))"
                    % (run_id, self.root, len(self.run_ids()))
                )
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError as exc:
                raise ConfigError("run record %s is not valid JSON: %s" % (path, exc))
        return RunRecord.from_json(payload)

    def list(self, kind=None, name=None, label=None, limit=None, on_skip=None):
        """Records matching the filters, oldest first.

        ``limit`` keeps the *newest* N matches and — because run ids
        sort chronologically by filename — walks the directory newest
        first and stops loading files as soon as N matches are found,
        so ``repro runs list`` stays fast on campaign-scale ledgers.

        With ``on_skip`` given, a truncated or otherwise unreadable
        record never aborts the listing: it is skipped and
        ``on_skip(run_id, error)`` is called so the caller can warn —
        one damaged file (a disk-full tear, a record from a future
        schema) must not hide every healthy record around it.  Without
        ``on_skip`` a damaged record raises, as callers that *resolve*
        a specific record (baseline comparison) must see the damage.
        """
        records = []
        for run_id in reversed(self.run_ids()):
            if limit is not None and len(records) >= limit:
                break
            try:
                record = self.load(run_id)
            except ConfigError as exc:
                if on_skip is None:
                    raise
                on_skip(run_id, exc)
                continue
            if kind is not None and record.kind != kind:
                continue
            if name is not None and record.name != name:
                continue
            if label is not None and record.label != label:
                continue
            records.append(record)
        records.reverse()
        return records

    def latest(self, kind=None, name=None, label=None, on_skip=None):
        """Most recent matching record, or ``None``."""
        records = self.list(kind=kind, name=name, label=label, limit=1, on_skip=on_skip)
        return records[-1] if records else None


# ----------------------------------------------------------------------
# Comparison


#: Metric-name fragments whose *decrease* is the regression (an attack
#: reproduction that stops flipping bits got worse, not faster; an
#: equivalence flag dropping from 1 to 0 is a correctness failure).
_HIGHER_IS_BETTER_MARKERS = (
    "flip",
    "escalated",
    "throughput",
    "speedup",
    "_equal",
    "collapse",
)


def metric_direction(name):
    """``"down"`` when lower is better (timings), else ``"up"``."""
    lowered = name.lower()
    if any(marker in lowered for marker in _HIGHER_IS_BETTER_MARKERS):
        return "up"
    return "down"


@dataclass
class MetricDelta:
    """One metric compared across two records."""

    name: str
    before: float
    after: float
    direction: str  # "down" = lower is better, "up" = higher is better
    regressed: bool

    @property
    def delta(self):
        return self.after - self.before

    @property
    def ratio(self):
        """``after / before`` (``None`` when before is zero)."""
        return self.after / self.before if self.before else None


@dataclass
class RunDiff:
    """Per-metric comparison of two run records."""

    before_id: str
    after_id: str
    tolerance: float
    deltas: List[MetricDelta]
    only_before: List[str]
    only_after: List[str]

    def regressions(self):
        """Deltas that moved the wrong way beyond the tolerance."""
        return [delta for delta in self.deltas if delta.regressed]

    def render(self):
        """Plain-text comparison table, regressions flagged."""
        lines = [
            "run diff: %s -> %s (tolerance %.0f%%)"
            % (self.before_id, self.after_id, self.tolerance * 100),
            "%-44s %14s %14s %9s" % ("metric", "before", "after", "change"),
        ]
        for delta in self.deltas:
            if delta.ratio is None:
                change = "n/a" if delta.after == delta.before else "new!=0"
            else:
                change = "%+.1f%%" % ((delta.ratio - 1.0) * 100)
            flag = "  REGRESSED" if delta.regressed else ""
            lines.append(
                "%-44s %14s %14s %9s%s"
                % (delta.name, _fmt(delta.before), _fmt(delta.after), change, flag)
            )
        for name in self.only_before:
            lines.append("%-44s (only in %s)" % (name, self.before_id))
        for name in self.only_after:
            lines.append("%-44s (only in %s)" % (name, self.after_id))
        regressions = self.regressions()
        lines.append(
            "%d metric(s) compared, %d regression(s)"
            % (len(self.deltas), len(regressions))
        )
        return "\n".join(lines)


def _fmt(value):
    if isinstance(value, float) and not value.is_integer():
        return "%.3f" % value
    return "%d" % value


def _regressed(before, after, direction, tolerance):
    """Whether ``after`` is worse than ``before`` beyond ``tolerance``.

    Tolerance is a fraction of the baseline: with 0.1, a timing may
    grow up to 10% (a flip count may shrink up to 10%) before it
    counts.  A zero baseline regresses on any move in the wrong
    direction — there is no scale to be tolerant against.
    """
    if direction == "down":
        return after > before * (1.0 + tolerance) if before else after > 0
    return after < before * (1.0 - tolerance) if before else False


def diff_records(before, after, tolerance=0.1, metrics=None):
    """Compare two :class:`RunRecord`\\ s metric by metric.

    ``metrics`` restricts the comparison to names for which
    ``predicate(name)`` is true (a callable) or to an explicit
    collection of names; by default every metric present in both
    records is compared.
    """
    before_metrics = before.comparable_metrics()
    after_metrics = after.comparable_metrics()
    if metrics is not None:
        keep = metrics if callable(metrics) else (lambda name: name in set(metrics))
        before_metrics = {k: v for k, v in before_metrics.items() if keep(k)}
        after_metrics = {k: v for k, v in after_metrics.items() if keep(k)}
    shared = sorted(set(before_metrics) & set(after_metrics))
    deltas = []
    for name in shared:
        direction = metric_direction(name)
        deltas.append(
            MetricDelta(
                name=name,
                before=before_metrics[name],
                after=after_metrics[name],
                direction=direction,
                regressed=_regressed(
                    before_metrics[name], after_metrics[name], direction, tolerance
                ),
            )
        )
    return RunDiff(
        before_id=before.run_id,
        after_id=after.run_id,
        tolerance=tolerance,
        deltas=deltas,
        only_before=sorted(set(before_metrics) - set(after_metrics)),
        only_after=sorted(set(after_metrics) - set(before_metrics)),
    )
