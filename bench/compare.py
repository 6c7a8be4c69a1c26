"""Compare two benchmark result documents (``python -m bench --out``).

Usage::

    python3 bench/compare.py A.json B.json

A is the parent commit, B the change.  Bounds and directions come from
``BENCHMARK.json``.  One row per (workload, end-to-end metric):

* ``unresolved`` — either side's run-to-run spread (:func:`spread`) is
  wider than the bound, and B is not better on every sample;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better than A's by more than the bound,
  or, where the spread is too wide to judge medians, every B sample
  beats every A sample;
* ``unchanged`` — otherwise.

Documents that differ in engine tier, seed or benchmark version are
refused (exit 2), and so are traced documents (``--trace 1``: their
per-layer metrics have no bounds) and pairs with no metric in common.
Exit 1 when any row is regressed or unresolved, else 0.
"""

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(metric):
    """Run-to-run spread of a run's median, over the median.

    A document holds one run per workload: the median of its ``n``
    repetitions and their quartiles.  The median of ``n`` independent
    repetitions varies from run to run with a standard error of
    ``1.2533 * sigma / sqrt(n)`` (normal noise), so its interquartile
    range is the repetitions' interquartile range times
    ``1.2533 / sqrt(n)``: more repetitions make a run steadier.
    """
    if not metric["value"]:
        return 0.0
    iqr = (metric["q3"] - metric["q1"]) / abs(metric["value"])
    return iqr * 1.2533 / math.sqrt(metric["n"])


def classify(before, after, bound, better):
    """The verdict for one metric; ``before``/``after`` are summaries
    with ``value``, ``q1``, ``q3`` and ``values``."""
    sign = 1.0 if better == "lower" else -1.0
    base = before["value"]
    if base:
        worse = sign * (after["value"] - base) / abs(base)
    else:
        worse = 0.0 if after["value"] == 0 else sign * float("inf")
    beats = (lambda b, a: b < a) if better == "lower" else (lambda b, a: b > a)
    all_better = all(
        beats(b, a) for b in after["values"] for a in before["values"]
    )
    if max(spread(before), spread(after)) > bound:
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "unchanged"


def compare(first, second, config):
    """Rows ``(workload, metric, A median, B median, change, verdict)``."""
    if first.get("trace") or second.get("trace"):
        raise ValueError(
            "refusing to compare traced results: per-layer metrics have no bounds"
        )
    for key in ("bench_version", "seed", "tier"):
        if first.get(key) != second.get(key):
            raise ValueError(
                "refusing to compare results with different %s: %r vs %r"
                % (key, first.get(key), second.get(key))
            )
    rows = []
    for workload in sorted(set(first["workloads"]) & set(second["workloads"])):
        before = first["workloads"][workload]["metrics"]
        after = second["workloads"][workload]["metrics"]
        for spec in config["end_to_end"]:
            name = spec["name"]
            if name not in before or name not in after:
                continue
            a, b = before[name], after[name]
            change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
            rows.append(
                (
                    workload,
                    name,
                    a["value"],
                    b["value"],
                    change,
                    classify(a, b, spec["bound"], spec["better"]),
                )
            )
    if not rows:
        raise ValueError("the two documents have no end-to-end metric in common")
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    try:
        documents = []
        for path in argv:
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            config = json.load(handle)
        rows = compare(documents[0], documents[1], config)
    except (OSError, ValueError) as error:
        print("compare: %s" % error, file=sys.stderr)
        return 2
    print("%-14s %-16s %14s %14s %8s  %s" % ("workload", "metric", "A", "B", "change", "verdict"))
    for workload, name, a, b, change, verdict in rows:
        print(
            "%-14s %-16s %14.6g %14.6g %+7.1f%%  %s"
            % (workload, name, a, b, 100.0 * change, verdict)
        )
    bad = [row for row in rows if row[5] in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
