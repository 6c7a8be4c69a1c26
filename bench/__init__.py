"""The benchmark of record for the PThammer reproduction.

``python -m bench`` runs named workloads against the public APIs of
``repro.core``, ``repro.analysis.engine`` and ``repro.campaign``, checks
that the simulated outputs are correct, and prints every end-to-end
metric with its unit.  ``--trace 1`` runs the same workload with
outside-in timing wrappers at each layer boundary and reports the
per-layer metrics instead.  See ``bench/README.md``.

Layout:

* :mod:`bench.run` — the command line and the parent process, which
  spawns one fresh subprocess per repetition and folds their results;
* :mod:`bench.unit` — the subprocess entry point (one repetition);
* :mod:`bench.hostspeed` — the host-speed sampler that turns host
  seconds into reference seconds;
* :mod:`bench.workloads` — what each workload builds and runs;
* :mod:`bench.trace` — the layer-boundary tracer;
* :mod:`bench.compare` — the A/B comparison of two result documents.
"""

import os

#: Bump when a change to the benchmark makes old result documents
#: incomparable (``bench.compare`` refuses to diff across versions).
BENCH_VERSION = 1

#: The repository root: the directory holding ``bench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
