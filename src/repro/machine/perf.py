"""Performance-monitoring counter names (PMC emulation).

The paper uses a small kernel module reading Intel PMCs —
``dtlb_load_misses.miss_causes_a_walk`` and
``longest_lat_cache.miss`` — to calibrate eviction-set sizes offline
(Algorithms in Section III).  The simulator counts those events into
the machine's :class:`repro.observe.metrics.MetricsRegistry`
(``machine.metrics``) under the names below;
:class:`repro.machine.inspector.Inspector` exposes snapshots and
deltas of them to evaluation code only.
"""

#: Counter names used across the simulator.
DTLB_MISS_WALK = "dtlb_load_misses.miss_causes_a_walk"
DTLB_HIT = "dtlb_load_hits"
LLC_MISS = "longest_lat_cache.miss"
LLC_REFERENCE = "longest_lat_cache.reference"
PAGE_FAULTS = "page_faults"
LOADS = "mem_uops_retired.all_loads"
