"""Metrics registry: counters, histograms, and timers.

Three instrument types:

* **counters** — monotonic named integers; the PMC emulation
  (``dtlb_load_misses.miss_causes_a_walk`` etc.) lives here.
* **histograms** — power-of-two-bucketed distributions for latencies
  and costs; count/sum/min/max plus bucket counts, so percentilish
  summaries cost O(64) memory regardless of sample count.
* **timers** — context managers measuring a virtual-cycle span into a
  histogram.

All instruments are created on first use; names are free-form dotted
strings (``"hammer.round_cycles"``).  A registry belongs to one
machine (``machine.metrics``) but standalone use is fine too.
"""

from repro.errors import ConfigError


class CycleHistogram:
    """Power-of-two-bucketed distribution of non-negative values.

    Bucket ``i`` counts values with bit length ``i``, i.e. value 0 in
    bucket 0, values ``[2**(i-1), 2**i)`` in bucket ``i`` — the right
    resolution for cycle costs spanning decades (an L1 hit is ~4
    cycles, a row-conflict DRAM access ~hundreds).
    """

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None
        #: bucket index (``int.bit_length`` of the value) -> count.
        self.buckets = {}

    def observe(self, value):
        """Fold one observation in."""
        if value < 0:
            raise ConfigError("histograms take non-negative values, got %r" % value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        bucket = int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self):
        """Arithmetic mean (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction):
        """Estimated ``fraction``-quantile from the bucket counts.

        The rank convention matches :func:`repro.utils.stats.percentile`
        (``fraction * (count - 1)``, linear interpolation); since only
        bucket counts survive, the value is interpolated uniformly
        within the bucket containing the rank and clamped to the
        observed ``[minimum, maximum]``.  For buckets one power of two
        wide the estimate is within a factor of two of the exact value
        — plenty for regression tracking across runs.  Raises on an
        empty histogram, like its exact counterpart.
        """
        if not self.count:
            raise ConfigError("percentile of an empty histogram")
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError("fraction must be within [0, 1]")
        # The extremes are tracked exactly; don't approximate them.
        if fraction == 0.0:
            return float(self.minimum)
        if fraction == 1.0:
            return float(self.maximum)
        rank = fraction * (self.count - 1)
        cumulative = 0
        for bucket in sorted(self.buckets):
            in_bucket = self.buckets[bucket]
            if cumulative + in_bucket > rank:
                lo, hi = self.bucket_bounds(bucket)
                within = (rank - cumulative) / in_bucket
                estimate = lo + (hi - lo) * within
                return min(max(estimate, self.minimum), self.maximum)
            cumulative += in_bucket
        return float(self.maximum)

    #: The percentile summaries rendered and persisted everywhere.
    SUMMARY_PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

    def percentiles(self):
        """``{"p50": ..., "p95": ..., "p99": ...}`` (empty dict if no data)."""
        if not self.count:
            return {}
        return {
            name: self.percentile(fraction)
            for name, fraction in self.SUMMARY_PERCENTILES
        }

    def bucket_bounds(self, bucket):
        """The half-open value range ``[lo, hi)`` of one bucket."""
        if bucket == 0:
            return 0, 1
        return 1 << (bucket - 1), 1 << bucket

    def snapshot(self):
        """JSON-serialisable dump of this histogram's state.

        Bucket indices become strings (JSON object keys), so a snapshot
        survives a ``json.dumps``/``loads`` round trip unchanged —
        that is what the experiment engine ships across process
        boundaries and stores in run checkpoints.

        ``percentiles`` is derived (p50/p95/p99 estimates for run
        ledger records and dashboards); :meth:`merge_snapshot` ignores
        it and recomputes from the merged buckets.
        """
        return {
            "count": self.count,
            "total": self.total,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "buckets": {str(bucket): n for bucket, n in self.buckets.items()},
            "percentiles": self.percentiles(),
        }

    def merge_snapshot(self, snapshot):
        """Fold a :meth:`snapshot` (possibly from another process) in."""
        if not snapshot["count"]:
            return
        self.count += snapshot["count"]
        self.total += snapshot["total"]
        if self.minimum is None or snapshot["minimum"] < self.minimum:
            self.minimum = snapshot["minimum"]
        if self.maximum is None or snapshot["maximum"] > self.maximum:
            self.maximum = snapshot["maximum"]
        for bucket, n in snapshot["buckets"].items():
            bucket = int(bucket)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + n

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        """Exact histogram state (no derived percentiles)."""
        return {
            "count": self.count,
            "total": self.total,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "buckets": {str(bucket): n for bucket, n in self.buckets.items()},
        }

    def load_state(self, state):
        """Restore state captured by :meth:`state_dict`."""
        self.count = state["count"]
        self.total = state["total"]
        self.minimum = state["minimum"]
        self.maximum = state["maximum"]
        self.buckets = {int(bucket): n for bucket, n in state["buckets"].items()}

    def summary(self):
        """One-line human-readable recap."""
        if not self.count:
            return "empty"
        quantiles = self.percentiles()
        return "n=%d mean=%.1f p50=%.0f p95=%.0f p99=%.0f min=%d max=%d" % (
            self.count,
            self.mean,
            quantiles["p50"],
            quantiles["p95"],
            quantiles["p99"],
            self.minimum,
            self.maximum,
        )


class _Timer:
    """Context manager observing a clocked span into a histogram."""

    __slots__ = ("_histogram", "_clock", "_start")

    def __init__(self, histogram, clock):
        self._histogram = histogram
        self._clock = clock
        self._start = 0

    def __enter__(self):
        self._start = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._histogram.observe(self._clock() - self._start)
        return False


class MetricsRegistry:
    """Named counters and histograms with snapshot/delta support."""

    def __init__(self):
        self._counters = {}
        self._histograms = {}
        #: Bumped by :meth:`reset`; snapshots taken before a reset are
        #: recognisably stale (see ``Inspector.tlb_miss_delta``).
        self.generation = 0

    # -- counters --------------------------------------------------------

    def inc(self, name, amount=1):
        """Add to a counter, creating it at zero."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def read(self, name):
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    def counters(self):
        """Copy of all counters."""
        return dict(self._counters)

    # -- histograms ------------------------------------------------------

    def observe(self, name, value):
        """Fold a value into a histogram, creating it on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = CycleHistogram()
        histogram.observe(value)

    def histogram(self, name):
        """The histogram named ``name``, creating it empty on demand."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = CycleHistogram()
        return histogram

    def histograms(self):
        """Mapping of all live histograms (shared objects, not copies)."""
        return dict(self._histograms)

    def timer(self, name, clock):
        """Context manager timing a span of ``clock`` into ``name``."""
        return _Timer(self.histogram(name), clock)

    # -- snapshots -------------------------------------------------------

    def snapshot_values(self):
        """JSON-serialisable dump of every instrument.

        ``{"counters": {name: value}, "histograms": {name: histogram
        snapshot}}`` — the unit the experiment engine collects from each
        worker machine and folds into a run-level registry with
        :meth:`merge_snapshot`.

        (Renamed from ``snapshot()`` so that name unambiguously means
        the machine-state protocol of docs/SNAPSHOTS.md.)
        """
        return {
            "counters": dict(self._counters),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in self._histograms.items()
            },
        }

    def merge_snapshot(self, snapshot):
        """Fold a :meth:`snapshot` from another registry (or process) in.

        Counters add; histograms merge count/total/min/max and bucket
        counts.  Merging is associative and commutative, so any
        aggregation order over a set of worker snapshots produces the
        same run-level registry.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, histogram_snapshot in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_snapshot(histogram_snapshot)

    # -- snapshot protocol (docs/SNAPSHOTS.md) ---------------------------

    def state_dict(self):
        """Exact registry state, including the reset generation."""
        return {
            "counters": dict(self._counters),
            "histograms": {
                name: histogram.state_dict()
                for name, histogram in self._histograms.items()
            },
            "generation": self.generation,
        }

    def load_state(self, state):
        """Restore state captured by :meth:`state_dict`."""
        self._counters = dict(state["counters"])
        self._histograms = {}
        for name, histogram_state in state["histograms"].items():
            histogram = CycleHistogram()
            histogram.load_state(histogram_state)
            self._histograms[name] = histogram
        self.generation = state["generation"]

    # -- lifecycle -------------------------------------------------------

    def reset(self):
        """Zero all instruments and invalidate earlier snapshots."""
        self._counters.clear()
        self._histograms.clear()
        self.generation += 1

    def render(self):
        """Plain-text dump of every instrument, sorted by name."""
        lines = []
        for name in sorted(self._counters):
            lines.append("%-44s %12d" % (name, self._counters[name]))
        for name in sorted(self._histograms):
            lines.append("%-44s %s" % (name, self._histograms[name].summary()))
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def __repr__(self):
        return "MetricsRegistry(counters=%d, histograms=%d, generation=%d)" % (
            len(self._counters),
            len(self._histograms),
            self.generation,
        )
