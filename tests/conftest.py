"""Shared fixtures."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.clock import VirtualClock
from repro.octdb import DesignDatabase

#: ``pytest --hypothesis-profile=deep`` runs the property tests that take
#: their budget from the active profile with 20 times the default examples.
settings.register_profile("deep", max_examples=2000)


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def db(clock: VirtualClock) -> DesignDatabase:
    return DesignDatabase(clock=clock)
