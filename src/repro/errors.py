"""Exception hierarchy for the simulator."""


class ReproError(Exception):
    """Base class for all simulator errors.

    Errors pickle by state rather than by constructor arguments, which
    differ per subclass, so any of them can cross a worker pool's pipe.
    """

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.args, self.__dict__))


def _rebuild_error(cls, args, state):
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class ConfigError(ReproError):
    """A machine/experiment configuration is inconsistent."""


class MemoryError_(ReproError):
    """Physical-memory misuse (out-of-range address, bad alignment)."""


class SegmentationFault(ReproError):
    """An access touched a virtual address with no valid mapping.

    The simulated kernel raises this to the 'process' (the attack code)
    exactly like a SIGSEGV: PThammer must only touch memory it mapped.
    """

    def __init__(self, vaddr, reason="unmapped"):
        super().__init__("segfault at 0x%x (%s)" % (vaddr, reason))
        self.vaddr = vaddr
        self.reason = reason


class OutOfMemory(ReproError):
    """The buddy allocator could not satisfy a request."""


class PrivilegeError(ReproError):
    """Unprivileged code invoked a privileged-only interface."""


class TransientFault(ReproError):
    """A retryable, environment-induced failure of one access.

    Injected by the chaos layer (:mod:`repro.chaos`) to model the
    sporadic disruptions a real attack run survives — an unlucky
    preemption mid-measurement, an SMI, a scheduler migration.  The
    operation did not happen; retrying it is always safe.  ``retryable``
    is the marker recovery wrappers (and the experiment engine) test
    for, so other error types can opt in to in-place retry too.
    """

    retryable = True

    def __init__(self, vaddr=None, reason="injected transient fault"):
        location = " at 0x%x" % vaddr if vaddr is not None else ""
        super().__init__("%s%s" % (reason, location))
        self.vaddr = vaddr
        self.reason = reason


class PatternError(ConfigError):
    """A hammer pattern failed to parse, resolve, or compile.

    Raised by :mod:`repro.patterns` — a syntax error in the DSL text,
    a reference to an undeclared aggressor role, or a construct the
    compile target cannot honour (e.g. ``sync_ref`` with no refresh
    interval supplied).  Subclasses :class:`ConfigError` so CLI and
    engine code paths that already report bad configuration cleanly
    handle bad patterns the same way.
    """


class SnapshotError(ReproError):
    """A machine snapshot cannot be applied or decoded.

    Raised by the snapshot protocol (:mod:`repro.machine.snapshot`,
    docs/SNAPSHOTS.md) when a serialized snapshot is from an
    incompatible format version, was captured on a differently
    parameterised machine (config fingerprint mismatch), or disagrees
    with the restoring machine's fast-path flag or chaos attachment.
    Restoring is all-or-nothing: on this error the target machine must
    be considered unusable and rebuilt.
    """


class PhaseBudgetExceeded(ReproError):
    """A self-healing attack phase ran out of its cycle/wall budget.

    Raised by :class:`repro.core.resilience.PhaseBudget` so recovery
    loops degrade (or give up cleanly) instead of spinning forever on a
    machine too noisy for the current strategy.
    """


class TaskTimeout(ReproError):
    """An experiment-engine task attempt exceeded its wall-clock timeout.

    Raised inside the task via SIGALRM where the platform allows.  Not
    retryable: a task that hangs once will usually hang again.
    """


class WorkerDied(ReproError):
    """A pooled experiment-engine worker died while running a task.

    The message names the task and the cause: a signal or exit code,
    or the engine's watchdog killing a worker that hung.
    """


class CampaignError(ReproError):
    """A campaign's durable state cannot be used as requested.

    Raised by :mod:`repro.campaign` when a journal is damaged beyond
    its torn-tail tolerance, a state transition is illegal (resuming a
    completed campaign, pausing a cancelled one), or a campaign
    directory is missing or already owned by a live supervisor.
    Configuration mistakes in a campaign *spec* raise
    :class:`ConfigError` like every other bad configuration.
    """
