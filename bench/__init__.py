"""Campaign benchmark: cold-process workloads, a digest gate, traced layers.

Run ``python -m bench run --seed 2016`` from the repository root; see
``bench/README.md`` for the workloads, the metrics and how to compare
two commits.
"""

import os

#: the checkout the benchmark measures: ``bench/`` lives at its root.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: where the program under test is imported from.
SRC = os.path.join(ROOT, "src")
#: default parent of every run's output directory (ignored by git).
OUT_ROOT = os.path.join(ROOT, ".bench_out")
