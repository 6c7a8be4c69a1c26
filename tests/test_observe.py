"""The observability layer: trace bus, events, spans, metrics, export.

Covers the contracts documented in docs/OBSERVABILITY.md:

* tracing is off by default and an untraced machine records no events;
* each layer emits its taxonomy — a cold access produces the full
  TLB miss -> walk fetches -> DRAM activation causal chain;
* spans always record (timeline/round_costs work untraced);
* the metrics registry's counters/histograms/timers;
* the inspector's PMC deltas never go negative across ``reset()``;
* the JSONL trace file round-trips losslessly and profiles identically.
"""

import io

import pytest

from repro.analysis import (
    profile_trace,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.analysis.profile import TRACE_SCHEMA_VERSION
from repro.errors import ConfigError
from repro.machine import Inspector
from repro.machine.perf import DTLB_MISS_WALK, LOADS
from repro.observe import (
    ACCESS,
    ALL_KINDS,
    CACHE_EVICT,
    DRAM,
    DRAM_ACTIVATE,
    DRAM_FLIP,
    DRAM_HIT,
    NULL_TRACE,
    TLB_EVICT,
    TLB_HIT,
    TLB_MISS,
    WALK_FETCH,
    CycleHistogram,
    MetricsRegistry,
    TraceBus,
)


def _cold_vaddr(attacker):
    """A fresh, populated mapping nothing has touched through the MMU yet."""
    return attacker.mmap(1, populate=True)


# ----------------------------------------------------------------------
# default-off and the causal chain


def test_tracing_disabled_by_default(machine, attacker):
    assert machine.trace.enabled is False
    attacker.read(_cold_vaddr(attacker))
    assert machine.trace.events == []


def test_cold_access_emits_tlb_walk_dram_chain(machine, attacker):
    vaddr = _cold_vaddr(attacker)
    machine.trace.enable()
    attacker.read(vaddr)
    machine.trace.disable()

    kinds = [event.kind for event in machine.trace.events]
    assert TLB_MISS in kinds, "a cold access must miss the TLB"
    assert WALK_FETCH in kinds, "a TLB miss must trigger walk fetches"
    assert ACCESS in kinds

    # The chain is causally ordered within the access.
    assert kinds.index(TLB_MISS) < kinds.index(WALK_FETCH)

    # Every event carries the machine's virtual-clock timestamp.
    assert all(0 <= event.cycle <= machine.cycles for event in machine.trace.events)

    # Walk fetches record which memory level served each PTE and what
    # it cost; any fetch served by DRAM must have a matching DRAM event.
    fetches = [e for e in machine.trace.events if e.kind == WALK_FETCH]
    assert {f.fields["pt_level"] for f in fetches} <= {1, 2, 3, 4}
    assert all(f.fields["cycles"] >= 0 for f in fetches)
    dram_events = [
        e for e in machine.trace.events if e.kind in (DRAM_ACTIVATE, DRAM_HIT)
    ]
    if any(f.fields["served"] == "mem" for f in fetches):
        assert dram_events, "a memory-served fetch implies a DRAM command"
        assert all(e.component == DRAM for e in dram_events)


def test_access_event_fields(machine, attacker):
    vaddr = _cold_vaddr(attacker)
    machine.trace.enable()
    attacker.read(vaddr)
    accesses = [e for e in machine.trace.events if e.kind == ACCESS]
    assert len(accesses) == 1
    fields = accesses[0].fields
    assert fields["vaddr"] == vaddr
    assert fields["latency"] > 0
    assert fields["source"] in ("tlb", "walk")


def test_tlb_hit_and_eviction_events(machine, attacker):
    vaddr = _cold_vaddr(attacker)
    attacker.read(vaddr)  # install the translation untraced
    machine.trace.enable()
    attacker.read(vaddr)  # now a pure TLB hit
    kinds = [event.kind for event in machine.trace.events]
    assert TLB_HIT in kinds
    assert TLB_MISS not in kinds

    # Enough fresh pages must eventually evict TLB entries.
    base = attacker.mmap(64, populate=True)
    for i in range(64):
        attacker.read(base + i * attacker.page_size)
    assert any(e.kind == TLB_EVICT for e in machine.trace.events)


def test_eviction_pressure_reaches_cache_events(machine, attacker):
    machine.trace.enable()
    base = attacker.mmap(256, populate=True)
    for i in range(256):
        attacker.read(base + i * attacker.page_size)
    counts = machine.trace.counts_by_kind()
    assert counts.get(CACHE_EVICT, 0) > 0
    assert counts.get(DRAM_ACTIVATE, 0) > 0


def test_event_kinds_are_registered(machine, attacker):
    machine.trace.enable()
    base = attacker.mmap(64, populate=True)
    for i in range(64):
        attacker.read(base + i * attacker.page_size)
    assert set(machine.trace.counts_by_kind()) <= set(ALL_KINDS)


# ----------------------------------------------------------------------
# bus mechanics


def test_bus_buffer_limit_counts_drops():
    bus = TraceBus(limit=3)
    bus.enable()
    for i in range(5):
        bus.emit(ACCESS, "machine", i=i)
    assert len(bus.events) == 3
    assert bus.dropped == 2
    bus.clear()
    assert bus.events == [] and bus.dropped == 0


def test_bus_subscribers_stream_events():
    bus = TraceBus()
    bus.enable()
    seen = []
    bus.subscribe(seen.append)
    bus.emit(DRAM_FLIP, DRAM, paddr=4096, bit=3)
    assert len(seen) == 1 and seen[0].fields["bit"] == 3
    bus.unsubscribe(seen.append)
    bus.emit(DRAM_FLIP, DRAM, paddr=8192, bit=1)
    assert len(seen) == 1


def test_span_nesting_depth_and_queries():
    bus = TraceBus()
    ticks = iter(range(100))
    bus.clock = lambda: next(ticks)
    with bus.span("outer"):
        with bus.span("inner"):
            pass
    outer, inner = bus.spans
    assert (outer.name, outer.depth) == ("outer", 0)
    assert (inner.name, inner.depth) == ("inner", 1)
    assert inner.start >= outer.start and inner.end <= outer.end
    assert bus.spans_named("inner") == [inner]
    assert outer.contains(inner.start)


def test_null_trace_is_inert():
    assert NULL_TRACE.enabled is False
    assert NULL_TRACE.emit(ACCESS, "machine") is None
    with pytest.raises(RuntimeError):
        NULL_TRACE.enable()
    with pytest.raises(RuntimeError):
        NULL_TRACE.span("phase")


def test_standalone_components_default_to_null_trace(tiny_config):
    from repro.cache.hierarchy import CacheHierarchy
    from repro.utils.rng import DeterministicRng

    hierarchy = CacheHierarchy(tiny_config.cache, DeterministicRng(7))
    assert hierarchy._trace is NULL_TRACE


# ----------------------------------------------------------------------
# spans drive the report even untraced


@pytest.mark.slow
def test_untraced_attack_still_has_timeline_and_round_costs(machine, attacker):
    from repro.core import PThammerAttack, PThammerConfig

    report = PThammerAttack(
        attacker, PThammerConfig(spray_slots=192, pair_sample=8, max_pairs=4)
    ).run()
    assert machine.trace.events == []  # never enabled
    assert [name for name, _, _ in report.timeline] == [
        "prepare",
        "pair-search",
        "hammer-check",
    ]
    assert report.round_costs
    assert machine.trace.spans_named("hammer-round")
    assert report.round_costs == [
        span.cycles for span in machine.trace.spans_named("hammer-round")
    ]


# ----------------------------------------------------------------------
# metrics registry


def test_metrics_counters_and_histograms():
    registry = MetricsRegistry()
    registry.inc("walks")
    registry.inc("walks", 2)
    assert registry.read("walks") == 3
    assert registry.read("never") == 0
    registry.observe("lat", 4)
    registry.observe("lat", 300)
    histogram = registry.histogram("lat")
    assert histogram.count == 2
    assert histogram.minimum == 4 and histogram.maximum == 300
    assert histogram.mean == 152.0
    text = registry.render()
    assert "walks" in text and "lat" in text


def test_histogram_buckets_are_powers_of_two():
    histogram = CycleHistogram()
    for value in (0, 1, 2, 3, 4, 300):
        histogram.observe(value)
    # 0 -> bucket 0, 1 -> 1, {2,3} -> 2, 4 -> 3, 300 -> 9
    assert histogram.buckets == {0: 1, 1: 1, 2: 2, 3: 1, 9: 1}
    assert histogram.bucket_bounds(2) == (2, 4)
    assert histogram.bucket_bounds(9) == (256, 512)
    with pytest.raises(ConfigError):
        histogram.observe(-1)


def test_metrics_timer_uses_clock():
    registry = MetricsRegistry()
    ticks = iter([10, 25])
    with registry.timer("phase", lambda: next(ticks)):
        pass
    assert registry.histogram("phase").total == 15


def test_machine_metrics_back_perf_counters(machine, attacker):
    attacker.read(_cold_vaddr(attacker))
    assert machine.metrics.read(DTLB_MISS_WALK) >= 1
    assert machine.metrics.read(LOADS) >= 1
    counters = Inspector(machine).perf_snapshot().counters
    assert counters[DTLB_MISS_WALK] == machine.metrics.read(DTLB_MISS_WALK)


def test_histogram_snapshot_merge_round_trip():
    import json

    source = CycleHistogram()
    for value in (1, 3, 200):
        source.observe(value)
    # Snapshots are JSON-able (str bucket keys) and survive a round trip.
    snapshot = json.loads(json.dumps(source.snapshot()))
    target = CycleHistogram()
    target.observe(7)
    target.merge_snapshot(snapshot)
    assert target.count == 4
    assert target.minimum == 1 and target.maximum == 200
    assert target.total == 211
    # Merging an empty snapshot is a no-op (minimum must not clobber).
    before = target.snapshot()
    target.merge_snapshot(CycleHistogram().snapshot())
    assert target.snapshot() == before


def test_registry_snapshot_merge_is_commutative():
    a = MetricsRegistry()
    a.inc("walks", 3)
    a.observe("lat", 10)
    b = MetricsRegistry()
    b.inc("walks", 2)
    b.inc("loads", 1)
    b.observe("lat", 500)

    ab = MetricsRegistry()
    ab.merge_snapshot(a.snapshot_values())
    ab.merge_snapshot(b.snapshot_values())
    ba = MetricsRegistry()
    ba.merge_snapshot(b.snapshot_values())
    ba.merge_snapshot(a.snapshot_values())
    assert ab.snapshot_values() == ba.snapshot_values()
    assert ab.read("walks") == 5 and ab.read("loads") == 1
    assert ab.histogram("lat").count == 2
    assert ab.histogram("lat").maximum == 500


# ----------------------------------------------------------------------
# Inspector PMC deltas across reset


def test_perf_delta_normal_path(machine, inspector):
    machine.metrics.inc(DTLB_MISS_WALK, 5)
    before = inspector.perf_snapshot()
    machine.metrics.inc(DTLB_MISS_WALK, 7)
    assert inspector.tlb_miss_delta(before) == 7
    assert inspector.llc_miss_delta(before) == 0


def test_perf_delta_never_negative_after_reset(machine, inspector):
    machine.metrics.inc(DTLB_MISS_WALK, 100)
    before = inspector.perf_snapshot()
    machine.metrics.reset()
    machine.metrics.inc(DTLB_MISS_WALK, 3)
    # The naive subtraction would give 3 - 100 = -97; the generation
    # check recognises the stale snapshot and returns the post-reset
    # count instead.
    assert inspector.tlb_miss_delta(before) == 3


def test_perf_delta_clamps_when_a_restore_rewinds_counters(machine, inspector):
    snap = machine.snapshot()
    machine.metrics.inc(DTLB_MISS_WALK, 4)
    before = inspector.perf_snapshot()
    # Same generation, but the counter is back below the baseline.
    machine.restore(snap)
    assert inspector.tlb_miss_delta(before) == 0


# ----------------------------------------------------------------------
# JSONL round-trip and profiling


def _traced_workload(machine, attacker):
    machine.trace.enable()
    with machine.trace.span("workload"):
        base = attacker.mmap(32, populate=True)
        for i in range(32):
            attacker.read(base + i * attacker.page_size)
    machine.trace.disable()


def test_trace_jsonl_round_trip(machine, attacker):
    _traced_workload(machine, attacker)
    buffer = io.StringIO()
    lines = write_trace_jsonl(machine.trace, buffer, machine="tiny-test")
    assert lines == 1 + len(machine.trace.spans) + len(machine.trace.events)

    buffer.seek(0)
    record = read_trace_jsonl(buffer)
    assert record.meta["schema"] == TRACE_SCHEMA_VERSION
    assert record.meta["machine"] == "tiny-test"
    assert len(record.events) == len(machine.trace.events)
    assert len(record.spans) == len(machine.trace.spans)
    for original, restored in zip(machine.trace.events, record.events):
        assert restored.kind == original.kind
        assert restored.component == original.component
        assert restored.cycle == original.cycle
        assert restored.fields == original.fields
    for original, restored in zip(machine.trace.spans, record.spans):
        assert restored.to_dict() == original.to_dict()


def test_trace_jsonl_rejects_unknown_schema():
    bad = io.StringIO('{"type": "header", "schema": 999}\n')
    with pytest.raises(ConfigError):
        read_trace_jsonl(bad)


def test_profile_identical_from_bus_and_file(machine, attacker):
    _traced_workload(machine, attacker)
    buffer = io.StringIO()
    write_trace_jsonl(machine.trace, buffer)
    buffer.seek(0)
    record = read_trace_jsonl(buffer)

    live = profile_trace(machine.trace, machine="tiny-test")
    replayed = profile_trace(record, machine="tiny-test")
    assert live.render() == replayed.render()


def test_profile_attributes_events_to_phases(machine, attacker):
    _traced_workload(machine, attacker)
    result = profile_trace(machine.trace)
    names = [phase.name for phase in result.phases]
    assert "workload" in names
    workload = result.phases[names.index("workload")]
    assert workload.count(ACCESS) == 32
    assert workload.cycles > 0
    assert result.total_events == len(machine.trace.events)
    text = result.render()
    assert "workload" in text and "accesses" in text


def test_profile_of_empty_trace_hints_at_enabling():
    result = profile_trace(TraceBus())
    assert result.total_events == 0
    assert "enable tracing" in result.render()


def test_histogram_percentile_estimates_within_buckets():
    from repro.utils.stats import percentile

    histogram = CycleHistogram()
    values = [1, 2, 3, 4, 50, 60, 70, 200, 300, 1000]
    for value in values:
        histogram.observe(value)
    # Bucketed estimates track the exact rank statistic within the
    # resolution of the power-of-two buckets (same rank convention).
    for fraction in (0.0, 0.5, 0.95, 1.0):
        exact = percentile(values, fraction)
        estimate = histogram.percentile(fraction)
        lo, hi = sorted((exact, estimate))
        assert hi <= max(2 * lo, lo + 1)  # within one bucket's span
    assert histogram.percentile(0.0) >= histogram.minimum
    assert histogram.percentile(1.0) == histogram.maximum


def test_histogram_percentile_single_value_is_exact():
    histogram = CycleHistogram()
    histogram.observe(42)
    for fraction in (0.0, 0.5, 1.0):
        assert histogram.percentile(fraction) == 42


def test_histogram_percentile_errors():
    histogram = CycleHistogram()
    with pytest.raises(ConfigError):
        histogram.percentile(0.5)
    histogram.observe(1)
    with pytest.raises(ConfigError):
        histogram.percentile(1.5)


def test_histogram_percentiles_in_snapshot_and_summary():
    histogram = CycleHistogram()
    for value in (4, 8, 300):
        histogram.observe(value)
    summary = histogram.percentiles()
    assert sorted(summary) == ["p50", "p95", "p99"]
    snapshot = histogram.snapshot()
    assert snapshot["percentiles"] == summary
    assert "p95" in histogram.summary()
    assert CycleHistogram().percentiles() == {}
    # The derived key must not confuse a merge.
    other = CycleHistogram()
    other.merge_snapshot(snapshot)
    assert other.count == histogram.count
    assert other.percentiles() == summary
