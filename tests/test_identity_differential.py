"""Differential property test: the chunk-address identity against the walk.

The derivation cache keys a step on its inputs' fingerprints, which are now
their chunk addresses (the sha1 of the codec's canonical bytes).  They used
to be a structural walk of the payload, kept in
``tests/fingerprint_reference.py``.  Over the CAD payloads a design flow
makes — behavioral specs of every kind and width, the ``bdsyn``, ``misII``,
``espresso`` and ``octmap`` networks and PLAs built from them, and the
``musa``/``octverify`` reports about them — two payloads share an address
exactly when they shared a walk, so every memo lookup hits or misses as it
did before.

Tier-1 runs a small budget: a fifth of the active hypothesis profile's
``max_examples``.  ``pytest --hypothesis-profile=deep`` (registered in
``tests/conftest.py``, run as its own CI step) runs 400 examples.
"""

from __future__ import annotations

import functools
import itertools

from hypothesis import given, settings, strategies as st

from repro.cad import default_registry
from repro.cad.logic import BehavioralSpec
from repro.cad.registry import ToolCall
from repro.cad.tools_logic import (
    collapse_to_pla,
    generate_network,
    map_to_gates,
    optimize_network,
)
from repro.core.memo import fingerprint
from tests import fingerprint_reference as ref

REGISTRY = default_registry()


def reports(tool: str, *inputs) -> list:
    """The report ``tool`` writes about ``inputs`` (none if it refuses)."""
    result = REGISTRY.run(ToolCall(tool, inputs=inputs, output_names=("r",)))
    return list(result.outputs.values())


@functools.lru_cache(maxsize=None)
def flow_payloads(kind: str, width: int, name: str) -> tuple:
    """Every payload one spec's synthesis flow makes, in flow order."""
    spec = BehavioralSpec(name=name, kind=kind, width=width)
    net = generate_network(spec)
    optimized = optimize_network(net)
    payloads = [spec, net, optimized, map_to_gates(optimized),
                *reports("musa", net, spec),
                *reports("octverify", spec, optimized)]
    if len(net.inputs) <= 12:
        payloads.append(collapse_to_pla(optimized))
    return tuple(payloads)


SPECS = st.tuples(st.sampled_from(BehavioralSpec.KINDS),
                  st.integers(min_value=1, max_value=16),
                  st.sampled_from(["a", "b"]))


@settings(max_examples=settings.default.max_examples // 5, deadline=None)
@given(specs=st.lists(SPECS, min_size=1, max_size=4))
def test_chunk_address_splits_payloads_like_the_walk(specs):
    payloads = [p for s in specs for p in flow_payloads(*s)]
    new = [fingerprint(p) for p in payloads]
    old = [ref.fingerprint(p) for p in payloads]
    for i, j in itertools.combinations(range(len(payloads)), 2):
        assert (new[i] == new[j]) == (old[i] == old[j]), \
            (payloads[i], payloads[j])


def test_equal_payloads_share_an_address():
    """Two runs of one flow rebuild equal payloads as distinct objects."""
    first = flow_payloads("adder", 3, "a")
    again = flow_payloads.__wrapped__("adder", 3, "a")
    assert [fingerprint(p) for p in first] == [fingerprint(p) for p in again]
    assert len({fingerprint(p) for p in first}) == len(first)
