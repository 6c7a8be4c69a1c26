"""The trace bus: a low-overhead, opt-in event stream.

Design rule (enforced by the overhead benchmark in ``benchmarks/``):
when tracing is disabled, an instrumented hot path pays exactly one
attribute read and branch —

    if self._trace.enabled:
        self._trace.emit(...)

``enabled`` is a plain boolean attribute, never a property, so the
guard compiles to a dict lookup.  Every emitting component receives the
machine's bus at construction time (or the shared :data:`NULL_TRACE`
when built standalone), so there is no global state and two machines
never share a trace.

Spans (phase scopes) are different: they are recorded *unconditionally*
on :attr:`TraceBus.spans` because they occur a handful of times per
attack phase — that is what lets ``report.timeline`` and
``report.round_costs`` always derive from the trace, while the
per-access event firehose stays opt-in.
"""

from itertools import repeat
from operator import length_hint

from repro.observe.events import SPAN_BEGIN, SPAN_END, ATTACK, Event, Span
from repro.utils.cliargs import fraction, non_negative_int

#: The skip run of a kind with nothing left to drop.
_NO_SKIPS = repeat(None, 0)


def _zero_clock():
    """Default clock for buses not yet attached to a machine."""
    return 0


class TraceSampler:
    """Deterministic per-category sampling and hard event budgets.

    Keeps tracing affordable during campaigns: instead of recording
    every event, the sampler admits a deterministic stride of each
    event *kind* (e.g. rate 0.01 keeps the 1st, 101st, 201st ...
    ``dram.activate``), and per-category budgets cap how many events a
    category may record over the bus's lifetime no matter the rate.
    Stride sampling (rather than RNG) keeps traced runs reproducible:
    the same workload always keeps the same events.

    ``rates`` and ``budgets`` map an event kind (``"dram.activate"``),
    a category (the kind's prefix before the first dot, ``"dram"``),
    or the wildcard ``"*"`` to a sample fraction / event cap; the most
    specific match wins.  Unmatched kinds are admitted untouched.
    """

    #: Skip-run length standing in for "keep nothing" (rate <= 0): large
    #: enough that the run never ends, small enough for ``repeat``.
    _NEVER = 1 << 60

    def __init__(self, rates=None, budgets=None):
        self.rates = dict(rates or {})
        self.budgets = dict(budgets or {})
        self.kept = 0
        self.budget_dropped = 0
        self._spent = {}  # budget key -> events admitted against it
        self._strides = {}  # kind -> resolved stride (None = unlimited)
        self._budget_keys = {}  # kind -> resolved budget key (or None)
        # kind -> an ``itertools.repeat(None, n)`` with one item per
        # event still to drop before the next keep.  The skip path — the
        # overwhelmingly common one at campaign sample rates — is one
        # dict read and one step of the run: no call, no int arithmetic,
        # no store and no counter (see the overhead guard in
        # tests/test_observe_overhead.py), so ``sampled_out`` is derived
        # from the runs on demand.
        self._skips = {}
        self._stride_drops = 0  # events dropped or armed to drop so far

    @property
    def sampled_out(self):
        """Events dropped by the stride so far (not by a budget)."""
        return self._stride_drops - sum(map(length_hint, self._skips.values()))

    @staticmethod
    def category(kind):
        """The category of an event kind: its prefix before the dot."""
        return kind.split(".", 1)[0]

    @staticmethod
    def _lookup(mapping, kind):
        """Most-specific match: exact kind, then category, then ``*``."""
        if kind in mapping:
            return kind
        category = TraceSampler.category(kind)
        if category in mapping:
            return category
        if "*" in mapping:
            return "*"
        return None

    def _stride(self, kind):
        stride = self._strides.get(kind, -1)
        if stride != -1:
            return stride
        key = self._lookup(self.rates, kind)
        if key is None:
            stride = None  # no rate configured: keep everything
        else:
            rate = self.rates[key]
            if rate <= 0:
                stride = 0  # keep nothing
            elif rate >= 1:
                stride = 1
            else:
                stride = max(1, round(1.0 / rate))
        self._strides[kind] = stride
        return stride

    def admit(self, kind):
        """Whether this occurrence of ``kind`` should be recorded."""
        for _ in self._skips.get(kind, _NO_SKIPS):
            return False  # one step of the kind's skip run
        # The kind has no skip run (first occurrence) or its run is
        # spent (this event is the stride's keep slot).
        stride = self._stride(kind)
        if stride == 0:
            self._stride_drops += 1
            self._arm(kind, self._NEVER)
            return False
        if stride is not None and stride > 1:
            self._arm(kind, stride - 1)
        budget_key = self._budget_keys.get(kind, -1)
        if budget_key == -1:
            budget_key = self._lookup(self.budgets, kind)
            self._budget_keys[kind] = budget_key
        if budget_key is not None:
            spent = self._spent.get(budget_key, 0)
            if spent >= self.budgets[budget_key]:
                self.budget_dropped += 1
                return False
            self._spent[budget_key] = spent + 1
        self.kept += 1
        return True

    def _arm(self, kind, count):
        """Drop the next ``count`` occurrences of ``kind``."""
        self._skips[kind] = repeat(None, count)
        self._stride_drops += count

    def stats(self):
        """JSON-serialisable counters (exported in trace headers)."""
        return {
            "seen": self.kept + self.sampled_out + self.budget_dropped,
            "kept": self.kept,
            "sampled_out": self.sampled_out,
            "budget_dropped": self.budget_dropped,
            "rates": dict(self.rates),
            "budgets": dict(self.budgets),
        }


def parse_rate_spec(text):
    """``"0.01"`` or ``"dram=0.1,tlb=0.5,*=0.01"`` -> rates, each in [0, 1]."""
    return _parse_spec(text, fraction, "sample rate")


def parse_budget_spec(text):
    """``"100000"`` or ``"dram=50000,*=200000"`` -> budgets, each >= 0."""
    return _parse_spec(text, non_negative_int, "event budget")


def _parse_spec(text, convert, what):
    text = text.strip()
    if not text:
        raise ValueError("empty %s spec" % what)
    if "=" not in text:
        return {"*": convert(text)}
    spec = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(
                "bad %s token %r (want category=value)" % (what, token)
            )
        key, _, value = token.partition("=")
        spec[key.strip()] = convert(value)
    if not spec:
        raise ValueError("empty %s spec" % what)
    return spec


class TraceBus:
    """Structured event sink shared by every layer of one machine.

    The bus owns the virtual clock reference (``clock`` is a callable
    returning the current cycle; :class:`~repro.machine.machine.Machine`
    points it at its own cycle counter), so emit sites never need to
    thread timestamps through.
    """

    #: Default cap on buffered events; beyond it events are counted in
    #: ``dropped`` instead of stored, bounding memory on long runs.
    DEFAULT_LIMIT = 2_000_000

    def __init__(self, limit=DEFAULT_LIMIT):
        #: The single hot-path guard.  Callers must check this before
        #: calling :meth:`emit`.
        self.enabled = False
        self.events = []
        self.spans = []
        self.dropped = 0
        self.clock = _zero_clock
        #: Optional :class:`TraceSampler`; ``None`` records everything.
        self.sampler = None
        # kind -> skip run, read inline by emit: the sampler's runs, or
        # only empty ones while nothing is sampled.
        self._skips = {}
        self._limit = limit
        self._subscribers = []
        self._depth = 0

    # -- lifecycle -------------------------------------------------------

    def enable(self):
        """Start recording events (spans are always recorded)."""
        self.enabled = True

    def disable(self):
        """Stop recording events; the buffer is kept."""
        self.enabled = False

    def clear(self):
        """Drop all buffered events and spans (between experiments)."""
        self.events = []
        self.spans = []
        self.dropped = 0

    def set_sampling(self, rates=None, budgets=None):
        """Install (or clear) trace sampling; returns the sampler.

        See :class:`TraceSampler` for the ``rates``/``budgets``
        vocabulary.  Sampling decisions happen inside :meth:`emit`, so
        the disabled-path contract (one plain ``enabled`` check) is
        untouched; an enabled-but-sampled bus pays one extra
        ``admit()`` per would-be event, which is what makes always-on
        tracing affordable during campaigns (the ``sampled-trace-loop``
        benchmark gates it).
        """
        if rates or budgets:
            self.sampler = TraceSampler(rates, budgets)
            self._skips = self.sampler._skips
        else:
            self.sampler = None
            self._skips = {}
        return self.sampler

    # -- events ----------------------------------------------------------

    def emit(self, kind, component, /, **fields):
        """Record one event at the current virtual cycle.

        Only call under an ``if bus.enabled:`` guard — the guard, not
        this method, is the disabled-path cost contract.  ``kind`` and
        ``component`` are positional-only: CPython then files keyword
        fields straight into ``fields`` instead of first comparing each
        one with every named parameter, which cost a sampled-out emit
        about as much as the skip decision itself.
        """
        # Inlined skip path of TraceSampler.admit: at campaign sample
        # rates nearly every emit ends here, and the extra method call is
        # the difference between passing and failing the sampled-tracing
        # overhead guard.  ``for`` steps the run without the call
        # ``next()`` costs, and a subscript in a ``try`` is cheaper than
        # ``dict.get``; it misses once per kind.
        try:
            run = self._skips[kind]
        except KeyError:
            run = self._skips[kind] = _NO_SKIPS
        for _ in run:
            return None
        sampler = self.sampler
        if sampler is not None and not sampler.admit(kind):
            return None
        event = Event(kind, component, self.clock(), fields)
        if len(self.events) < self._limit:
            self.events.append(event)
        else:
            self.dropped += 1
        if self._subscribers:
            for subscriber in self._subscribers:
                subscriber(event)
        return event

    def subscribe(self, callback):
        """Stream events to ``callback(event)`` as they are emitted."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback):
        """Remove a streaming subscriber."""
        self._subscribers.remove(callback)

    # -- spans -----------------------------------------------------------

    def span(self, name):
        """Open a phase scope; use as a context manager.

        Nested spans get increasing ``depth``; the attack's Table-II
        timeline is the depth-0 spans.  Span begin/end also surface as
        events when event tracing is enabled, so a JSONL trace carries
        the phase structure inline.
        """
        return _SpanScope(self, name)

    def add_span(self, name, start, end):
        """Record an already-measured span (e.g. one hammer round)."""
        span = Span(name, start, end, self._depth)
        self.spans.append(span)
        return span

    def spans_named(self, name, start_index=0):
        """All closed spans with ``name``, from ``start_index`` on."""
        return [
            span
            for span in self.spans[start_index:]
            if span.name == name and span.end is not None
        ]

    # -- queries ---------------------------------------------------------

    def events_between(self, start, end):
        """Events whose timestamp falls in ``[start, end]``."""
        return [event for event in self.events if start <= event.cycle <= end]

    def counts_by_kind(self):
        """Histogram of event kinds (diagnostics and tests)."""
        counts = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return "TraceBus(enabled=%s, events=%d, spans=%d, dropped=%d)" % (
            self.enabled,
            len(self.events),
            len(self.spans),
            self.dropped,
        )


class _SpanScope:
    """Context manager recording one span on a bus."""

    __slots__ = ("_bus", "_span")

    def __init__(self, bus, name):
        self._bus = bus
        self._span = Span(name, bus.clock(), None, bus._depth)

    def __enter__(self):
        bus = self._bus
        span = self._span
        bus.spans.append(span)
        bus._depth += 1
        if bus.enabled:
            bus.emit(SPAN_BEGIN, ATTACK, name=span.name, depth=span.depth)
        return span

    def __exit__(self, exc_type, exc, tb):
        bus = self._bus
        span = self._span
        span.end = bus.clock()
        bus._depth -= 1
        if bus.enabled:
            bus.emit(SPAN_END, ATTACK, name=span.name, depth=span.depth)
        return False


class NullTrace:
    """Inert bus for components constructed outside a machine.

    ``enabled`` is always False and cannot be switched on; attempting to is
    a usage error (enable the owning machine's bus instead).
    """

    enabled = False

    def emit(self, kind, component, /, **fields):
        """No-op (only reachable if a caller skipped the guard)."""
        return None

    def add_span(self, name, start, end):
        """No-op; standalone components keep no span history."""
        return None

    def span(self, name):
        raise RuntimeError(
            "cannot open spans on the null trace; construct the component "
            "with a real TraceBus (machines wire one automatically)"
        )

    def enable(self):
        raise RuntimeError(
            "cannot enable the shared null trace; pass trace=TraceBus() "
            "to the component (machines wire one automatically)"
        )


#: Shared inert bus; the default ``trace`` of standalone components.
NULL_TRACE = NullTrace()
