"""One repetition of one workload, in a fresh process.

Spawned by :mod:`bench.run` as ``python -m bench.unit`` with the
repository's ``src`` directory on ``PYTHONPATH``.  It starts the
host-speed sampler (:mod:`bench.hostspeed`) first, sets the workload up,
records ``time.monotonic()`` at the first timed operation (the parent
measures set-up time from its own spawn timestamp; the clock is
system-wide), runs the timed section, and writes one JSON result file
with the host seconds and the mean host speed of each part.  With
``--setup-only`` it stops before the timed section.  With ``--trace``
it installs :class:`bench.trace.Tracer` before any machine is built and
adds the folded span summary to the result.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

from bench import ROOT
from bench.hostspeed import HostSpeed


def _peak_rss_kb():
    """Largest resident set of this process or any waited-for child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def main(argv=None):
    sampler = HostSpeed().start()
    try:
        return _repetition(sampler, argv)
    finally:
        sampler.stop()


def _repetition(sampler, argv):
    parser = argparse.ArgumentParser(prog="python -m bench.unit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--units", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro
    from repro.machine.addrmap import resolve_tier

    source = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != source:
        print(
            "bench: imported repro from %s, not from %s" % (repro.__file__, source),
            file=sys.stderr,
        )
        return 2

    from bench import workloads

    tracer = None
    if args.trace:
        from bench.trace import Tracer

        spool = os.path.join(args.tmp, "spans")
        os.makedirs(spool)
        tracer = Tracer(spool).install().calibrate()
    run = workloads.prepare(args.workload, args.seed, args.tmp, units=args.units)
    started = time.monotonic()
    result = {"started": started, "setup_speed": sampler.lap(), "tier": resolve_tier()}
    if not args.setup_only:
        if tracer is not None:
            tracer.reset()
        try:
            result.update(run())
        except Exception:  # reported as a failed repetition by the parent
            result["problems"] = [traceback.format_exc()]
        result["wall"] = time.monotonic() - started
        result["speed"] = sampler.lap()
        result["rss_kb"] = _peak_rss_kb()
        if tracer is not None:
            from bench.trace import summarize

            result["trace"] = summarize(tracer.collect(result["wall"]))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
