"""``python -m benchmarks.e2e``: see ``cli.py``."""

import sys

from benchmarks.e2e import pin_hash_seed, use_checkout_sources

pin_hash_seed()
use_checkout_sources()

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())
