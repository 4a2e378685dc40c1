"""Helpers for tests that run with the cycle collector disabled.

Ownership in the system is a tree whose back-references are weak (see
``docs/ARCHITECTURE.md``), so reference counting alone frees what an owner
lets go of.  These tests prove it: they run with the collector off, then
ask one collection what it would have had to free.
"""

from __future__ import annotations

import collections
import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def collector_off() -> Iterator[None]:
    """Run the block with the cycle collector disabled, starting from a
    collected heap so only the block's own garbage is found later."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def repro_garbage() -> collections.Counter:
    """The unreachable objects of ``repro`` types one collection finds
    (type name → count): what reference counting could not free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return collections.Counter(
            type(obj).__qualname__ for obj in gc.garbage
            if type(obj).__module__.startswith("repro"))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
