"""Live engine telemetry: the progress reporter and the dashboard.

The engine's ``progress`` hook is a bare ``callback(finished, total,
outcome)``.  :class:`ProgressReporter` is the batteries-included
implementation the CLI installs: on a TTY it keeps one live status
line on stderr (tasks done, per-worker in-flight view, throughput,
ETA, failure count) redrawn in place; on a pipe it degrades to one
plain line per finished task, so logs stay diffable.  Rendered results
still go to stdout untouched — ``--jobs N`` output is byte-identical
to serial whatever the reporter draws on stderr.

The reporter is engine-agnostic state-wise: everything it knows
arrives through the ``begin`` / ``__call__`` / ``end`` protocol
(see :func:`repro.analysis.engine.run_experiment`), so tests can
drive it with synthetic outcomes and a fake clock.

On top of the streaming-telemetry pipeline
(:mod:`repro.observe.stream`) sits :class:`Dashboard` — the
full-screen view behind ``repro dash`` and ``repro runs watch``:
per-worker status, per-config flip counters, throughput and flip-rate
sparklines, merged latency percentiles, and an ETA, all derived from a
:class:`~repro.observe.stream.TelemetryAggregator` it polls.  On a
non-TTY (or with ``--once``) it renders plain frames with zero ANSI
escapes, so redirected output stays clean text.
:func:`render_timeline` renders the same statistics from a persisted
summary for ``repro runs show``.
"""

import sys
import time


class ProgressReporter:
    """TTY-aware live progress on stderr for engine runs.

    ``stream`` defaults to ``sys.stderr``; ``live`` (in-place redraw)
    defaults to ``stream.isatty()``.  ``quiet=True`` suppresses all
    output — the reporter still tracks counters, so a quiet run can
    surface ``failures`` afterwards.  ``clock`` is injectable for
    tests.
    """

    def __init__(self, stream=None, live=None, quiet=False, clock=time.monotonic):
        self.stream = stream if stream is not None else sys.stderr
        if live is None:
            isatty = getattr(self.stream, "isatty", lambda: False)
            live = bool(isatty())
        self.live = live
        self.quiet = quiet
        self.clock = clock
        self.experiment = None
        self.total = 0
        self.jobs = 1
        self.finished = 0
        self.resumed = 0
        self.failures = 0
        self.started = None
        #: worker pid -> key of the last task that pid completed.  The
        #: engine reports finished tasks only, so this is the closest
        #: observable proxy for "what each worker is chewing on".
        self.workers = {}
        self._line_width = 0

    # -- engine protocol -------------------------------------------------

    def begin(self, experiment, total, jobs=1, resumed=0):
        """Run started: remember the shape, draw the opening status."""
        self.experiment = experiment
        self.total = total
        self.jobs = jobs
        self.resumed = resumed
        self.finished = resumed
        self.failures = 0
        self.workers = {}
        self.started = self.clock()
        if self.live:
            self._draw(self.status_line())

    def __call__(self, finished, total, outcome):
        """One task finished (the engine's ``progress`` signature)."""
        self.finished = finished
        self.total = total
        if outcome.error is not None:
            self.failures += 1
        if outcome.worker is not None:
            self.workers[outcome.worker] = outcome.key
        if self.quiet:
            return
        if self.live:
            self._draw(self.status_line(last=outcome))
        else:
            state = "failed: %s" % outcome.error if outcome.error else (
                "%.1fs" % outcome.host_seconds
            )
            self._print("  [%d/%d] %s (%s)" % (finished, total, outcome.key, state))

    def end(self, run=None):
        """Run finished: retire the live line, print the recap."""
        if self.quiet:
            return
        if self.live:
            self._draw("")  # clear the in-place status line
        if run is not None:
            self._print(run.summary())

    # -- rendering -------------------------------------------------------

    def status_line(self, last=None):
        """The one-line live status: counts, rate, ETA, workers."""
        if self.started is None:
            elapsed = 1e-9
        else:
            elapsed = max(self.clock() - self.started, 1e-9)
        done_here = self.finished - self.resumed
        rate = done_here / elapsed
        remaining = self.total - self.finished
        if rate > 0 and remaining > 0:
            eta = "eta %s" % _fmt_seconds(remaining / rate)
        else:
            eta = "eta --"
        parts = [
            "%s %d/%d" % (self.experiment, self.finished, self.total),
            "%d worker(s)" % self.jobs,
            "%.1f task/s" % rate,
            eta,
        ]
        if self.resumed:
            parts.append("%d resumed" % self.resumed)
        if self.failures:
            parts.append("%d FAILED" % self.failures)
        if last is not None:
            parts.append("last %s (%.1fs)" % (last.key, last.host_seconds))
        elif self.workers:
            busy = sorted(self.workers)
            parts.append("workers %s" % ",".join(str(pid) for pid in busy))
        return " | ".join(parts)

    def _draw(self, text):
        """Redraw the live line in place (pad over the previous one)."""
        padded = text.ljust(self._line_width)
        self._line_width = len(text)
        self.stream.write("\r" + padded)
        if not text:
            self.stream.write("\r")
        self.stream.flush()

    def _print(self, text):
        self.stream.write(text + "\n")
        self.stream.flush()


def _fmt_seconds(seconds):
    if seconds < 60:
        return "%.0fs" % seconds
    if seconds < 3600:
        return "%dm%02ds" % (seconds // 60, int(seconds) % 60)
    return "%dh%02dm" % (seconds // 3600, int(seconds) % 3600 // 60)


# ----------------------------------------------------------------------
# Sparklines and the timeline renderer (shared by dash and `runs show`)


_SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values, width=40):
    """A unicode block sparkline, rescaled to ``width`` columns.

    Plain characters, no ANSI — safe for redirected output.  Values
    are averaged into ``width`` equal chunks, then mapped onto
    eight block heights against the series maximum.
    """
    values = list(values)
    if not values:
        return ""
    if len(values) > width:
        chunk = len(values) / float(width)
        values = [
            _mean(values[int(i * chunk): max(int((i + 1) * chunk), int(i * chunk) + 1)])
            for i in range(width)
        ]
    peak = max(values)
    if peak <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(top, int(round(value / peak * top)))] for value in values
    )


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def render_timeline(telemetry, width=40):
    """Plain-text timeline from a persisted telemetry summary.

    ``telemetry`` is the ``RunRecord.extra["telemetry"]`` document a
    :class:`~repro.observe.stream.TelemetryAggregator` produced; the
    output backs the timeline section of ``repro runs show``.
    """
    buckets = telemetry.get("buckets") or []
    totals = telemetry.get("totals") or {}
    lines = []
    duration = totals.get("duration_seconds")
    header = "%d bucket(s) x %.2fs" % (
        len(buckets),
        telemetry.get("bucket_seconds") or 0.0,
    )
    if duration is not None:
        header += ", %.1fs total" % duration
    lines.append(header)
    if buckets:
        lines.append(
            "tasks/s  |%s| peak %.1f"
            % (
                sparkline([b["tasks_per_sec"] for b in buckets], width),
                totals.get("throughput_peak") or 0.0,
            )
        )
        lines.append(
            "flips/s  |%s| peak %.1f"
            % (
                sparkline([b["flips_per_sec"] for b in buckets], width),
                totals.get("flips_per_sec_peak") or 0.0,
            )
        )
    summary = "tasks %s" % totals.get("tasks", 0)
    if totals.get("errors"):
        summary += " (%d failed)" % totals["errors"]
    summary += " | flips %s" % totals.get("flips", 0)
    summary += " | %.2f task/s | %.2f flip/s" % (
        totals.get("throughput_mean") or 0.0,
        totals.get("flips_per_sec_mean") or 0.0,
    )
    lines.append(summary)
    if "latency_p50" in totals:
        lines.append(
            "hammer-round latency p50 %.0f / p95 %.0f / p99 %.0f cycles"
            % (
                totals["latency_p50"],
                totals.get("latency_p95", 0.0),
                totals.get("latency_p99", 0.0),
            )
        )
    workers = telemetry.get("workers") or {}
    for pid in sorted(workers):
        worker = workers[pid]
        lines.append(
            "worker %-8s %4d task(s) %6d flip(s) %s"
            % (
                pid,
                worker.get("tasks", 0),
                worker.get("flips", 0),
                "%d failed" % worker["errors"] if worker.get("errors") else "",
            )
        )
    groups = telemetry.get("groups") or {}
    for group in sorted(groups):
        stats = groups[group]
        lines.append(
            "config %-12s %4d task(s) %6d flip(s)"
            % (group, stats.get("tasks", 0), stats.get("flips", 0))
        )
    return "\n".join(line.rstrip() for line in lines)


# ----------------------------------------------------------------------
# The full-screen dashboard (`repro dash`, `repro runs watch`)


class Dashboard:
    """Renders a :class:`TelemetryAggregator` as a live text dashboard.

    ``ansi=None`` auto-detects from ``stream.isatty()``: on a TTY each
    frame repaints the screen in place (cursor-home + clear); anywhere
    else frames are plain text separated by a rule — no ANSI escapes
    ever reach a redirected stream.  ``run()`` polls the aggregator on
    an interval until the spool's ``run-end`` marker appears, the
    frame budget runs out, or the user presses ``q`` (TTY only).
    """

    def __init__(self, aggregator, stream=None, ansi=None, clock=time.monotonic):
        self.aggregator = aggregator
        self.stream = stream if stream is not None else sys.stdout
        if ansi is None:
            isatty = getattr(self.stream, "isatty", lambda: False)
            ansi = bool(isatty())
        self.ansi = ansi
        self.clock = clock
        self.frames = 0

    # -- rendering -------------------------------------------------------

    def render(self, width=78):
        """One full frame as plain text (no escapes; ends in newline)."""
        agg = self.aggregator
        lines = []
        name = agg.meta.get("experiment") or "(no run metadata yet)"
        state = "finished" if agg.finished else "running"
        total = agg.tasks_total()
        progress = "%d/%s tasks" % (agg.tasks, total if total is not None else "?")
        eta = agg.eta_seconds()
        header = "repro dash — %s [%s] %s | elapsed %s" % (
            name,
            state,
            progress,
            _fmt_seconds(agg.elapsed()),
        )
        if eta is not None:
            header += " | eta %s" % _fmt_seconds(eta)
        lines.append(header[:width])
        lines.append("=" * min(width, len(header)))
        lines.append(
            "throughput %.2f task/s | flips %d (%.2f/s)%s"
            % (
                agg.throughput(),
                agg.flips,
                agg.flips_per_sec(),
                " | %d failed" % agg.errors if agg.errors else "",
            )
        )
        if agg.latency.count:
            percentiles = agg.latency.percentiles()
            lines.append(
                "hammer-round latency p50 %.0f / p95 %.0f / p99 %.0f cycles"
                % (percentiles["p50"], percentiles["p95"], percentiles["p99"])
            )
        series = agg.series.snapshot()
        if series["buckets"]:
            lines.append(
                "tasks/s  |%s|"
                % sparkline([b["tasks_per_sec"] for b in series["buckets"]])
            )
            lines.append(
                "flips/s  |%s|"
                % sparkline([b["flips_per_sec"] for b in series["buckets"]])
            )
        liveness = agg.worker_liveness()
        if agg.workers:
            lines.append("")
            lines.append(
                "%-10s %-8s %6s %8s %8s  %s"
                % ("worker", "state", "tasks", "flips", "errors", "last task")
            )
            for pid in sorted(agg.workers):
                worker = agg.workers[pid]
                lines.append(
                    "%-10s %-8s %6d %8d %8d  %s"
                    % (
                        pid,
                        liveness.get(pid, "?"),
                        worker["tasks"],
                        worker["flips"],
                        worker["errors"],
                        (worker["phase"] or "")[: max(10, width - 46)],
                    )
                )
        if agg.groups:
            lines.append("")
            lines.append("%-16s %6s %8s" % ("config", "tasks", "flips"))
            for group in sorted(agg.groups):
                stats = agg.groups[group]
                lines.append(
                    "%-16s %6d %8d" % (group[:16], stats["tasks"], stats["flips"])
                )
        return "\n".join(line.rstrip() for line in lines) + "\n"

    def draw(self):
        """Paint one frame (repaint in place under ANSI)."""
        frame = self.render()
        if self.ansi:
            self.stream.write("\x1b[H\x1b[2J" + frame)
        else:
            if self.frames:
                self.stream.write("-" * 36 + "\n")
            self.stream.write(frame)
        self.frames += 1
        self.stream.flush()

    # -- the loop --------------------------------------------------------

    def run(self, interval=1.0, once=False, max_frames=None, input_stream=None):
        """Poll-and-draw until run-end, ``q``, or the frame budget.

        Returns the number of frames drawn.  ``once=True`` renders a
        single frame (CI and scripting); ``max_frames`` bounds a live
        session.  Keys (TTY stdin only): ``q`` quits.
        """
        self.aggregator.poll()
        self.draw()
        if once:
            return self.frames
        while self.aggregator.finished is None:
            if max_frames is not None and self.frames >= max_frames:
                break
            if _wait_for_quit(interval, input_stream):
                break
            self.aggregator.poll()
            self.draw()
        return self.frames


def _wait_for_quit(interval, input_stream=None):
    """Sleep ``interval`` seconds; True if the user pressed ``q``.

    Keyboard handling needs a real TTY and POSIX ``select``/cbreak
    support; anywhere that is unavailable this degrades to a plain
    sleep, which keeps the dashboard usable under redirection and on
    exotic platforms.
    """
    stdin = input_stream if input_stream is not None else sys.stdin
    try:
        if not stdin.isatty():
            raise OSError
        import select
        import termios
        import tty

        fd = stdin.fileno()
        old = termios.tcgetattr(fd)
        try:
            tty.setcbreak(fd)
            ready, _, _ = select.select([stdin], [], [], interval)
            if ready and stdin.read(1).lower() == "q":
                return True
        finally:
            termios.tcsetattr(fd, termios.TCSADRAIN, old)
    except Exception:  # includes termios.error, unnameable if import failed
        time.sleep(interval)
    return False
