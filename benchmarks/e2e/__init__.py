"""The repository benchmark: four designer-facing workloads, end to end.

``python -m benchmarks.e2e`` runs every workload, each in its own fresh
process, prints every end-to-end metric named in ``BENCHMARK.json`` with
its unit, checks the outputs, and exits non-zero on any mismatch.
``--trace`` gives the per-layer split instead; ``compare A B`` judges two
result files.  See ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: The checkout root: ``BENCHMARK.json`` lives here and the program under
#: test is imported from ``ROOT/src``.
ROOT = Path(__file__).resolve().parents[2]


def pin_hash_seed() -> None:
    """Re-execute this command with ``PYTHONHASHSEED=0`` unless it is set
    so already: set and dict iteration order then cannot differ between
    runs of one seed."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, sys.orig_argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src``, ahead of anything
    installed, so the benchmark always measures the code beside it."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
