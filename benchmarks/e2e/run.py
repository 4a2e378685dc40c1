"""Script entry of the benchmark (the ``command`` in ``BENCHMARK.json``).

    python3 benchmarks/e2e/run.py --workload bigdag --seed 1 --trace 0

Same interface as ``python -m benchmarks.e2e``; see ``cli.py``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Run as a script, this directory heads sys.path; import the package from
# the checkout root instead.
sys.path[0] = str(ROOT)

from benchmarks.e2e import pin_hash_seed, use_checkout_sources  # noqa: E402

if __name__ == "__main__":
    pin_hash_seed()
    use_checkout_sources()
    from benchmarks.e2e.cli import main

    sys.exit(main())
