"""The injector: binds a chaos profile onto one machine.

One :class:`ChaosInjector` serves one :class:`Machine`
(``machine.attach_chaos(injector)``).  On attach it forks a private
RNG stream per source from ``hash64(machine seed, chaos seed, "chaos",
source name)`` — fully determined by the two seeds, untouched by the
machine's own streams — so:

* the no-chaos simulation is byte-for-byte unchanged (the machine
  consults the injector only through ``if self.chaos is not None``
  guards);
* the same (machine seed, profile) pair produces bit-identical
  interference wherever it runs, including across ``--jobs`` fan-out.

The injector also guards against re-entrancy: noise that itself
touches the cache hierarchy must not recursively trigger more noise.

Attach binds, per hook, only the sources whose class overrides it
(:func:`_bound_hooks`): the machine calls the injector twice per
access, and an inert base-class hook draws nothing, so skipping it
leaves every stream, draw and schedule as it was.
"""

from repro.chaos.sources import NoiseSource
from repro.errors import ConfigError
from repro.utils.rng import DeterministicRng, hash64


def _bound_hooks(sources, streams, name):
    """``(bound hook, stream)`` for each source whose class overrides
    the :class:`NoiseSource` hook ``name``, in profile order."""
    inert = getattr(NoiseSource, name)
    return [
        (getattr(source, name), stream)
        for source, stream in zip(sources, streams)
        if getattr(type(source), name) is not inert
    ]


class ChaosInjector:
    """Drives a profile's noise sources against one attached machine."""

    def __init__(self, config):
        self.config = config.validate()
        self.machine = None
        self.sources = config.build_sources()
        self._streams = []
        self._access_hooks = []
        self._jitter_hooks = []
        self._active = False

    def attach(self, machine):
        """Bind to ``machine`` (called by ``Machine.attach_chaos``)."""
        if self.machine is not None and self.machine is not machine:
            raise ConfigError(
                "a ChaosInjector serves one machine; create a fresh one"
            )
        self.machine = machine
        self._streams = [
            DeterministicRng(
                hash64(machine.config.seed, self.config.seed, "chaos", source.name)
            )
            for source in self.sources
        ]
        self._access_hooks = _bound_hooks(self.sources, self._streams, "on_access")
        self._jitter_hooks = _bound_hooks(self.sources, self._streams, "jitter")
        return self

    def on_access(self, vaddr):
        """Run the sources' bound per-access hooks; may raise TransientFault."""
        if self._active:
            return  # noise-induced activity must not trigger more noise
        self._active = True
        try:
            machine = self.machine
            for hook, stream in self._access_hooks:
                hook(machine, stream, vaddr)
        finally:
            self._active = False

    def jitter_cycles(self):
        """Extra latency cycles the bound jitter hooks add to this access."""
        machine = self.machine
        total = 0
        for hook, stream in self._jitter_hooks:
            total += hook(machine, stream)
        return total

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        """Per-source stream positions and schedules, keyed by source name."""
        return {
            "streams": {
                source.name: stream.state_dict()
                for source, stream in zip(self.sources, self._streams)
            },
            "schedules": {
                source.name: source.state_dict() for source in self.sources
            },
        }

    def load_state(self, state):
        """Restore stream positions and schedules into a same-profile injector."""
        streams, schedules = state["streams"], state["schedules"]
        names = [source.name for source in self.sources]
        if sorted(streams) != sorted(names):
            raise ConfigError(
                "snapshot chaos sources %s do not match profile %s"
                % (sorted(streams), sorted(names))
            )
        for source, stream in zip(self.sources, self._streams):
            stream.load_state(streams[source.name])
            source.load_state(schedules[source.name])

    def __repr__(self):
        return "ChaosInjector(%s, attached=%s)" % (
            self.config.name,
            self.machine is not None,
        )
