"""The repository's benchmark: full-cell end-to-end metrics plus a per-layer ledger.

``python -m bench run --seed 11`` measures five workloads from outside
``src/repro`` (public functions only), prints every metric by name and
unit, and checks correctness.  ``BENCHMARK.json`` at the repository root
declares the command the driver runs.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

#: Repository root (the directory holding ``bench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where the measured package lives; children get it on ``PYTHONPATH``.
SRC = os.path.join(ROOT, "src")
