"""Differential property test: the truth-table logic tools against their reference.

``tests/cad_reference.py`` holds the original evaluators, which visit one
input assignment at a time, and the string-cube Quine–McCluskey minimizer.
The integer truth-table code in ``repro.cad`` must agree with them exactly:
the same on-set for every signal over every support, the same prime
implicants and selected cover cube for cube, the same ``misII`` network, and
the same ``musa`` mismatch count.  Networks, on-sets and stimuli are random
and small.

Every minimization goes through ``qm``'s process-wide table, so the QM
tests also check that a tabled result (a hit) equals the reference like a
fresh one (a miss), that a caller cannot change the table through the cover
it gets, and that the table keeps to its bound.  The QM and ``misII`` tests
take their budget from the active hypothesis profile:
``pytest --hypothesis-profile=deep`` (registered in ``tests/conftest.py``)
runs them with 20 times their default examples.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cad import default_registry, qm
from repro.cad.logic import (
    BehavioralSpec,
    BooleanNetwork,
    Cover,
    Cube,
    Node,
    support_tables,
    table_minterms,
)
from repro.cad.registry import ToolCall
from repro.cad.tools_logic import (
    _parse_stimulus,
    generate_network,
    optimize_network,
)
from tests import cad_reference as ref

REGISTRY = default_registry()


def cubes(width: int):
    return st.lists(
        st.text(alphabet="01-", min_size=width, max_size=width).map(Cube),
        max_size=4,
    )


@st.composite
def covers(draw, max_width: int = 5):
    width = draw(st.integers(min_value=1, max_value=max_width))
    return Cover(num_inputs=width, cubes=draw(cubes(width)))


@st.composite
def networks(draw):
    """A random acyclic network: each node reads 1-3 earlier signals."""
    k = draw(st.integers(min_value=1, max_value=5))
    inputs = [f"i{j}" for j in range(k)]
    net = BooleanNetwork(name="r", inputs=inputs, outputs=[])
    signals = list(inputs)
    for j in range(draw(st.integers(min_value=1, max_value=8))):
        fanins = draw(st.lists(st.sampled_from(signals), min_size=1,
                               max_size=3, unique=True))
        name = f"n{j}"
        net.nodes[name] = Node(name, fanins, Cover(len(fanins),
                                                   draw(cubes(len(fanins)))))
        signals.append(name)
    net.outputs = draw(st.lists(st.sampled_from(list(net.nodes)), min_size=1,
                                max_size=3, unique=True))
    net.validate()
    return net


@st.composite
def on_sets_with_dont_cares(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    universe = st.integers(min_value=0, max_value=(1 << width) - 1)
    on = draw(st.frozensets(universe))
    dc = draw(st.frozensets(universe)) - on
    return width, on, dc


@settings(max_examples=150, deadline=None)
@given(covers())
def test_cover_on_set(cover):
    assert cover.on_set() == ref.on_set(cover)


@settings(max_examples=60, deadline=None)
@given(networks())
def test_signal_on_sets(net):
    full, leaves = support_tables(len(net.inputs))
    known = dict(zip(net.inputs, leaves))
    for name in net.nodes:
        table = net.table(name, known, full)
        assert frozenset(table_minterms(table)) == ref.node_function(
            net, name, net.inputs)


@settings(max_examples=60, deadline=None)
@given(networks())
def test_support_on_sets(net):
    # misII's eliminate support: a node's other fanins plus one child's fanins
    for name, node in net.nodes.items():
        for fanin in node.fanins:
            child = net.nodes.get(fanin)
            if child is None:
                continue
            support = list(dict.fromkeys(
                [f for f in node.fanins if f != fanin] + child.fanins))
            full, leaves = support_tables(len(support))
            table = net.table(name, dict(zip(support, leaves)), full)
            assert frozenset(table_minterms(table)) == ref.node_support_function(
                net, node, support)


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_evaluate(net, data):
    signals = net.inputs + list(net.nodes)
    assignment = data.draw(st.dictionaries(st.sampled_from(signals),
                                           st.booleans()))
    assert net.evaluate(dict(assignment)) == ref.evaluate(net, dict(assignment))


def test_evaluate_unwired_cover_inputs():
    # a cover wider than its node's fanins reads the missing inputs as 0
    net = BooleanNetwork(name="u", inputs=["a"], outputs=["k", "j"])
    net.nodes["k"] = Node("k", [], Cover(1, [Cube("1")]))
    net.nodes["j"] = Node("j", ["a"], Cover(2, [Cube("10"), Cube("-0")]))
    for a in (False, True):
        assert net.evaluate({"a": a}) == ref.evaluate(net, {"a": a})


@settings(max_examples=settings.default.max_examples * 3 // 2, deadline=None)
@given(on_sets_with_dont_cares())
def test_qm_cube_for_cube(case):
    width, on, dc = case
    primes = qm.prime_implicants(width, on, dc)
    assert primes == ref.prime_implicants(width, on, dc)
    assert qm.select_cover(width, set(on), primes) == ref.select_cover(
        width, set(on), primes)
    assert (qm.minimize_minterms(width, on, dc).cubes
            == ref.minimize_minterms(width, on, dc).cubes)


@st.composite
def covers_with_dont_cares(draw):
    cover = draw(covers(max_width=6))
    dc = draw(st.frozensets(
        st.integers(min_value=0, max_value=(1 << cover.num_inputs) - 1)))
    return cover, dc


@settings(max_examples=settings.default.max_examples, deadline=None)
@given(on_sets_with_dont_cares(), covers_with_dont_cares())
def test_qm_table_miss_and_hit_match_the_reference(case, cover_case):
    # Every minimization is a table lookup: the first call solves the
    # function (a miss), the repeat returns the tabled cubes (a hit).
    width, on, dc = case
    cover, cover_dc = cover_case
    for minimize, want in (
        (lambda: qm.minimize_minterms(width, on, dc),
         ref.minimize_minterms(width, on, dc)),
        (lambda: qm.minimize(cover, cover_dc), ref.minimize(cover, cover_dc)),
    ):
        qm._table.cache_clear()
        assert minimize().to_dict() == want.to_dict()
        assert qm._table.cache_info()[:2] == (0, 1)  # (hits, misses)
        assert minimize().to_dict() == want.to_dict()
        assert qm._table.cache_info()[:2] == (1, 1)


def test_qm_table_hands_out_fresh_covers():
    on = {0, 1, 2, 5, 6, 7}
    first = qm.minimize_minterms(3, on)
    want = list(first.cubes)
    first.cubes[0] = Cube("111")
    first.cubes.append(Cube("000"))
    assert qm.minimize_minterms(3, on).cubes == want
    cover = Cover.from_minterms(3, on)
    qm.minimize(cover).cubes.clear()
    assert qm.minimize(cover).cubes == want
    qm.minimize_table(3, cover.truth_table(), 0).cubes.reverse()
    assert qm.minimize_table(3, cover.truth_table(), 0).cubes == want


def test_qm_table_stays_within_its_bound():
    qm._table.cache_clear()
    for on in range(1, qm.TABLE_SIZE + 100):
        qm.minimize_table(5, on, 0)
        assert qm._table.cache_info().currsize <= qm.TABLE_SIZE
    assert qm._table.cache_info().currsize == qm.TABLE_SIZE
    # a function wider than the table's is solved without it
    wide = qm.TABLE_WIDTH + 1
    before = qm._table.cache_info()
    assert qm.minimize_table(wide, 0b1011, 0).cubes == ref.minimize_minterms(
        wide, {0, 1, 3}).cubes
    assert qm._table.cache_info() == before


@settings(max_examples=settings.default.max_examples * 3 // 5, deadline=None)
@given(networks())
def test_optimize_network_random(net):
    assert optimize_network(net).to_dict() == ref.optimize_network(net).to_dict()


@settings(max_examples=settings.default.max_examples * 3 // 10, deadline=None)
@given(st.sampled_from(BehavioralSpec.KINDS), st.integers(min_value=1, max_value=4))
def test_optimize_network_generated(kind, width):
    net = generate_network(BehavioralSpec("c", kind, width))
    assert optimize_network(net).to_dict() == ref.optimize_network(net).to_dict()


def stimuli(width: int):
    return st.one_of(
        st.builds("random {} {}".format, st.integers(0, 40), st.integers(0, 99)),
        st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=6).map(
            lambda vs: "\n".join(f"vector {v:b}" for v in vs)),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BehavioralSpec.KINDS), st.integers(min_value=1, max_value=3),
       st.data())
def test_musa_mismatches(kind, width, data):
    spec = BehavioralSpec("c", kind, width)
    net = generate_network(spec)
    # break some nodes so that there is something to count
    for name in data.draw(st.lists(st.sampled_from(sorted(net.nodes)),
                                   max_size=3, unique=True)):
        node = net.nodes[name]
        width_n = node.cover.num_inputs
        net.nodes[name] = Node(name, node.fanins,
                               Cover(width_n, data.draw(cubes(width_n))))
    stimulus = data.draw(stimuli(len(net.inputs)))
    result = REGISTRY.run(ToolCall("musa", inputs=(net, stimulus, spec),
                                   output_names=("rep",)))
    vectors = _parse_stimulus(stimulus, len(net.inputs))
    want = ref.musa_mismatches(net, generate_network(spec), vectors)
    assert result.outputs["rep"].value("mismatches") == want
    assert result.status == (0 if want == 0 else 1)
