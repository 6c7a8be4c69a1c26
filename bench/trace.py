"""Outside-in layer tracing: timing wrappers at each layer boundary.

The tracer replaces the functions listed in :data:`BOUNDARIES` with
wrappers that time every call and attribute it to a layer.  Nothing
inside ``repro`` changes; the wrappers only call through, so a traced
run must produce the same simulated outputs as an untraced one (the
benchmark checks that their digests agree).

Hot boundaries are aggregated in memory per (span, parent) as call
count, total seconds and self seconds, where self time is a span's
duration minus the time its child spans cover.  Coarse spans — attack
phases, engine tasks, campaign shards — are also kept individually.

Forked engine and campaign workers inherit the wrappers.  After a fork
the tracer resets itself to a fresh per-process root and writes
``spans-<pid>.json`` into its spool directory whenever a top-level
coarse span ends and again at process exit, so pool workers that are
terminated rather than exited still leave their numbers behind.

Every wrapped call costs some host time of its own.  :meth:`Tracer.calibrate`
measures that cost on real boundary crossings, traced against untraced,
and :func:`summarize` subtracts it, so the reported self times are
"overhead-compensated".  Hot leaves such as ``PhysicalMemory.read_word``
stay unwrapped: their time counts in the caller's self time.
"""

import functools
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from importlib import import_module

#: Every layer a span can be attributed to.  ``driver`` is the
#: benchmark's own code and whatever runs outside any wrapped boundary.
LAYERS = (
    "core",
    "machine",
    "mmu",
    "cache",
    "dram",
    "kernel",
    "chaos",
    "engine",
    "campaign",
    "observe",
    "driver",
)

#: Attack phases reported as ``phase.<name>_share``.
PHASES = ("hammer", "scan", "spray", "pair_search")

#: (boundary, layer, phase) for every wrapped function.  A boundary is
#: ``module:qualified.name``; a phase marks a coarse span.  Two private
#: names are wrapped because the hot paths call them directly: the fast
#: engine's batch loop calls ``PageTableWalker._walk`` without going
#: through ``translate``, and engine pool workers enter each task through
#: ``_execute_task``.
BOUNDARIES = (
    ("repro.core.pthammer:PThammerAttack.run", "core", None),
    ("repro.core.pthammer:PThammerAttack.find_pairs", "core", "pair_search"),
    ("repro.core.spray:PageTableSpray.execute", "core", "spray"),
    ("repro.core.spray:PageTableSpray.scan", "core", "scan"),
    ("repro.core.hammer:DoubleSidedHammer.run_for_cycles", "core", "hammer"),
    ("repro.core.tlb_eviction:tlb_miss_rate_by_size", "core", None),
    ("repro.core.llc_offline:llc_miss_rate_by_size", "core", None),
    ("repro.machine.machine:Machine.__init__", "machine", None),
    ("repro.machine.machine:Machine.access", "machine", None),
    ("repro.machine.machine:Machine.access_many", "machine", None),
    ("repro.machine.machine:Machine.bulk_read", "machine", None),
    ("repro.mmu.walker:PageTableWalker.translate", "mmu", None),
    ("repro.mmu.walker:PageTableWalker._walk", "mmu", None),
    ("repro.dram.module:DRAMModule.access", "dram", None),
    ("repro.kernel.kernel:Kernel.create_process", "kernel", None),
    ("repro.kernel.kernel:Kernel.handle_page_fault", "kernel", None),
    ("repro.kernel.kernel:Kernel.sys_mmap", "kernel", None),
    ("repro.chaos.injector:ChaosInjector.on_access", "chaos", None),
    ("repro.chaos.injector:ChaosInjector.jitter_cycles", "chaos", None),
    ("repro.observe.stream:TelemetryEmitter.heartbeat", "observe", None),
    ("repro.observe.stream:TelemetryEmitter.task_done", "observe", None),
    ("repro.observe.stream:TelemetryAggregator.poll", "observe", None),
    ("repro.analysis.engine:run_experiment", "engine", None),
    ("repro.analysis.engine:_execute_task", "engine", "task"),
    ("repro.campaign.supervisor:Supervisor.run", "campaign", None),
    ("repro.campaign.journal:CampaignJournal.append", "campaign", None),
    ("repro.campaign.worker:worker_main", "campaign", "shard"),
)

#: Methods the fast engine rebinds per instance in ``__init__``
#: (``self.access = self._access_fast``), so a class-level wrapper would
#: never see them: the tracer wraps them on every new machine instead.
#: (machine attribute, method, layer)
INSTANCE_BOUNDARIES = (
    ("caches", "access", "cache"),
    ("tlb", "lookup", "mmu"),
)

#: Layer and phase of every span name.
LAYER_OF = {boundary: layer for boundary, layer, _ in BOUNDARIES}
LAYER_OF.update(
    ("instance:%s" % method, layer) for _, method, layer in INSTANCE_BOUNDARIES
)
PHASE_OF = {boundary: phase for boundary, _, phase in BOUNDARIES if phase}

#: Layers with at least one wrapped boundary: all but ``driver``, which
#: only has the root frame's self time.
WRAPPED_LAYERS = tuple(layer for layer in LAYERS if layer in LAYER_OF.values())

#: Name of each process's root frame.  Its self time is ``driver`` time
#: in the benchmark process; in forked workers it is idle time and is
#: not counted.
ROOT = "<root>"


def resolve(boundary):
    """``(owner, attribute name, function)`` for a boundary string.

    ``owner`` is the class or module that holds the attribute.  Raises
    ``AttributeError`` or ``ImportError`` when the boundary no longer
    exists, so a rename fails loudly instead of dropping a layer.
    """
    module_name, qualname = boundary.split(":")
    owner = import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    function = getattr(owner, attribute)
    if not callable(function):
        raise AttributeError("%s is not callable" % boundary)
    return owner, attribute, function


#: Pages the calibration workload maps and addresses it loads.
CALIBRATION_PAGES = 1024
CALIBRATION_LOADS = 2000


def calibration_workload():
    """Real boundary crossings for :meth:`Tracer.calibrate`: demand
    paging, batched loads and bulk reads on a fresh tiny machine."""
    from repro.machine import AttackerView, Machine
    from repro.machine.configs import tiny_test_config
    from repro.params import PAGE_SIZE

    machine = Machine(tiny_test_config(seed=1))
    attacker = AttackerView(machine, machine.boot_process())
    base = attacker.mmap(CALIBRATION_PAGES)
    attacker.touch_many([base + page * PAGE_SIZE for page in range(CALIBRATION_PAGES)])
    addresses = [
        base + (load * 7919 % CALIBRATION_PAGES) * PAGE_SIZE + load * 64 % PAGE_SIZE
        for load in range(CALIBRATION_LOADS)
    ]
    attacker.touch_many(addresses)
    attacker.read_bulk(addresses)


class _Probe:
    """Tight-loop target shaped like the hot boundaries: a bound method
    taking two positional arguments."""

    def access(self, address, now):
        return address


class Tracer:
    """Process-wide span recorder; see the module docstring."""

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.forked = False
        #: Open frames: [seconds covered by child spans, name].
        self.stack = [[0.0, ROOT]]
        #: span name -> {parent name: [calls, total seconds, self seconds]}
        self.records = {}
        #: Coarse spans: [name, parent, start, seconds, descendant calls].
        self.coarse = []
        #: Per-call wrapper cost seen by the caller beyond the callee's
        #: measured duration, and inside that duration.
        self.parent_cost = 0.0
        self.inner_cost = 0.0
        self._patched = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, function, name, coarse=False):
        stack = self.stack
        records = self.records.setdefault(name, {})
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                record = records.get(parent[1])
                if record is None:
                    records[parent[1]] = [1, elapsed, elapsed - frame[0]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[0]

        if coarse:
            wrapper = self._wrap_coarse(wrapper, name)
        return functools.update_wrapper(wrapper, function)

    def _wrap_coarse(self, timed, name):
        """Keep each call of a coarse span, with its descendant count."""
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            calls = self.calls()
            start = clock()
            try:
                return timed(*args, **kwargs)
            finally:
                self.coarse.append(
                    [name, parent, start, clock() - start, self.calls() - calls - 1]
                )
                if self.forked and len(stack) == 1:
                    self.flush()

        return wrapper

    def calls(self):
        """Wrapped calls completed so far in this process."""
        return sum(
            record[0] for parents in self.records.values() for record in parents.values()
        )

    def install(self):
        """Wrap every boundary; call before any machine is built."""
        self._wrap_boundaries()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        return self

    def _wrap_boundaries(self):
        for boundary, layer, phase in BOUNDARIES:
            owner, attribute, function = resolve(boundary)
            wrapper = self._wrap(function, boundary, coarse=phase is not None)
            self._patch(owner, attribute, wrapper)
            if not isinstance(owner, type):
                # ``from module import name`` copies: patch them too.
                for module in list(sys.modules.values()):
                    if (
                        module is not owner
                        and getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attribute, None) is function
                    ):
                        self._patch(module, attribute, wrapper)
        machine_cls = resolve("repro.machine.machine:Machine")[2]
        traced_init = machine_cls.__init__

        def init_and_wrap(machine, *args, **kwargs):
            traced_init(machine, *args, **kwargs)
            for component, method, _ in INSTANCE_BOUNDARIES:
                owner = getattr(machine, component)
                setattr(
                    owner,
                    method,
                    self._wrap(getattr(owner, method), "instance:%s" % method),
                )

        self._patch(machine_cls, "__init__", init_and_wrap)

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, value)

    def uninstall(self):
        """Undo :meth:`install` (tests trace and untrace in one process)."""
        for owner, attribute, original in reversed(self._patched):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patched = []

    # -- calibration ------------------------------------------------------

    def calibrate(self, rounds=5):
        """Measure the wrappers' own per-call cost where they are used.

        Each round runs :func:`calibration_workload` (demand paging,
        batched loads and bulk reads on a fresh tiny machine: the
        boundaries the attack crosses most) once with the wrappers
        removed and once installed, in alternating order, and charges
        the extra host seconds to the wrapped calls made.  A tight loop
        over one wrapped method, which reads too low on its own because
        everything it touches stays hot, gives the split of that cost
        between the caller's side and the callee's measured duration.
        Call after :meth:`install`; the wrappers stay installed.
        """
        clock = time.perf_counter
        costs = []
        for round_number in range(rounds):
            seconds = {}
            order = (False, True) if round_number % 2 == 0 else (True, False)
            for traced in order:
                self._set_wrapped(traced)
                before = self.calls()
                start = clock()
                calibration_workload()
                seconds[traced] = clock() - start
                if traced:
                    calls = self.calls() - before
            costs.append(max(0.0, seconds[True] - seconds[False]) / calls)
        self._set_wrapped(True)
        inner, parent = self._split()
        scale = statistics.median(costs) / (inner + parent)
        self.inner_cost = inner * scale
        self.parent_cost = parent * scale
        self.reset()
        return self

    def _set_wrapped(self, wrapped):
        if not wrapped:
            self.uninstall()
        elif not self._patched:
            self._wrap_boundaries()

    def _split(self, calls=20000, rounds=5):
        """``(inside, caller's side)`` per-call cost in a tight loop."""
        plain = _Probe().access
        wrapped = self._wrap(plain, "<calibration>")
        clock = time.perf_counter
        parent_costs = []
        inner_costs = []
        for _ in range(rounds):
            frame = [0.0, "<calibration>"]
            self.stack.append(frame)
            start = clock()
            for address in range(calls):
                wrapped(address, 0)
            wrapped_seconds = clock() - start
            self.stack.pop()
            start = clock()
            for address in range(calls):
                plain(address, 0)
            plain_seconds = (clock() - start) / calls
            inner = max(0.0, frame[0] / calls - plain_seconds)
            inner_costs.append(inner)
            parent_costs.append(
                max(0.0, wrapped_seconds / calls - plain_seconds - inner)
            )
        del self.records["<calibration>"]
        return statistics.median(inner_costs), statistics.median(parent_costs)

    # -- processes --------------------------------------------------------

    def reset(self):
        """Drop everything recorded so far (set-up) and restart the root."""
        self.stack[:] = [[0.0, ROOT]]
        for parents in self.records.values():
            parents.clear()
        del self.coarse[:]

    def _after_fork(self):
        """Start a fresh per-process record in a forked worker."""
        self.pid = os.getpid()
        self.forked = True
        self.reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def snapshot(self, root_seconds=None):
        """This process's spans as a JSON-safe dict.

        ``root_seconds`` is the wall time of the traced section in the
        benchmark process; the root's self time is that minus what its
        child spans cover.
        """
        return {
            "pid": self.pid,
            "parent_cost": self.parent_cost,
            "inner_cost": self.inner_cost,
            "root_self": (
                None if root_seconds is None else root_seconds - self.stack[0][0]
            ),
            "records": [
                [name, parent] + record
                for name, parents in self.records.items()
                for parent, record in parents.items()
            ],
            "coarse": self.coarse,
        }

    def flush(self):
        """Write ``spans-<pid>.json`` atomically into the spool directory."""
        path = os.path.join(self.spool_dir, "spans-%d.json" % self.pid)
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(temp, path)

    def collect(self, root_seconds):
        """This process's snapshot plus every worker's spool file."""
        snapshots = [self.snapshot(root_seconds)]
        for name in sorted(os.listdir(self.spool_dir)):
            if name.startswith("spans-") and name.endswith(".json"):
                path = os.path.join(self.spool_dir, name)
                with open(path, encoding="utf-8") as handle:
                    snapshots.append(json.load(handle))
        return snapshots


def summarize(snapshots):
    """Fold per-process span snapshots into layer and phase totals.

    Returns ``{"layers": {layer: {"self": s, "calls": n}}, "phases":
    {phase: s}, "total": s}``.
    Seconds are overhead-compensated: a span's self time loses the
    wrapper cost inside it and the cost its direct children's wrappers
    added to it; a phase's duration loses both costs for every call
    beneath it.  ``total`` sums every layer's self seconds over all
    processes, so on a one-process workload it estimates the untraced
    wall time.
    """
    layers = {layer: {"self": 0.0, "calls": 0} for layer in LAYERS}
    phases = {phase: 0.0 for phase in PHASES}
    for snap in snapshots:
        parent_cost = snap["parent_cost"]
        inner_cost = snap["inner_cost"]
        children = {}
        for name, parent, count, _, _ in snap["records"]:
            children[parent] = children.get(parent, 0) + count
        for name, parent, count, _, own in snap["records"]:
            layer = layers[LAYER_OF[name]]
            layer["self"] += own - count * inner_cost
            layer["calls"] += count
        for name, count in children.items():
            if name != ROOT:
                layers[LAYER_OF[name]]["self"] -= count * parent_cost
        if snap["root_self"] is not None:
            layers["driver"]["self"] += (
                snap["root_self"] - children.get(ROOT, 0) * parent_cost
            )
        for name, _, _, seconds, descendants in snap["coarse"]:
            phase = PHASE_OF[name]
            if phase in phases:
                phases[phase] += (
                    seconds - inner_cost - descendants * (parent_cost + inner_cost)
                )
    for layer in layers.values():
        layer["self"] = max(0.0, layer["self"])
    return {
        "layers": layers,
        "phases": phases,
        "total": sum(layer["self"] for layer in layers.values()),
    }
