"""Reference walk for the storage size ``DesignDatabase.put`` charges.

This is ``_estimate_size`` as it was before exact built-in types got their
own fast path: every value is first asked for its ``size_estimate``, then
sized by ``isinstance`` branches.  It is the oracle for
``tests/test_version_slots.py``: the fast path must give every payload the
same size, so no ``bytes_live``, manifest or journal ``size`` moves.
"""

from __future__ import annotations

from typing import Any


def estimate_size(payload: Any) -> int:
    probe = getattr(payload, "size_estimate", None)
    if callable(probe):
        return int(probe())
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_size(item) for item in payload)
    if isinstance(payload, dict):
        return 8 + sum(
            estimate_size(k) + estimate_size(v) for k, v in payload.items()
        )
    return 8
