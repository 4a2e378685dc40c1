"""Tests for logic representations and the Quine-McCluskey minimizer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cad import qm
from repro.cad.logic import (
    BehavioralSpec,
    BooleanNetwork,
    Cover,
    Cube,
    Node,
    Pla,
    support_tables,
)
from repro.cad.tools_logic import generate_network
from repro.errors import ToolUsageError
from tests import cad_reference as ref
from tests.cycles import collector_off, repro_garbage


class TestCube:
    def test_validation(self):
        with pytest.raises(ValueError):
            Cube("")
        with pytest.raises(ValueError):
            Cube("10x")

    def test_literals(self):
        assert Cube("1-0").literals == 2
        assert Cube("---").literals == 0

    # The minterm-loop cube methods now live in tests/cad_reference.py; each
    # case checks the reference and the truth-table rule that replaced it.

    def test_covers_minterm(self):
        cube = Cube("1-0")  # x0=1, x2=0
        full, inputs = support_tables(3)
        table = cube.table(inputs, full)
        for m, inside in ((0b001, True), (0b011, True),
                          (0b101, False), (0b000, False)):
            assert ref.covers_minterm(cube, m) is inside
            assert (table >> m) & 1 == inside

    def test_minterms(self):
        assert sorted(ref.cube_minterms(Cube("1-"))) == [1, 3]
        assert sorted(ref.cube_minterms(Cube("--"))) == [0, 1, 2, 3]
        assert Cover(2, [Cube("1-")]).on_set() == {1, 3}
        assert Cover(2, [Cube("--")]).on_set() == {0, 1, 2, 3}

    def test_merge(self):
        assert ref.merge(Cube("10"), Cube("11")) == "1-"
        assert ref.merge(Cube("10"), Cube("01")) is None
        assert ref.merge(Cube("1-"), Cube("10")) is None
        assert ref.merge(Cube("1-0"), Cube("1-1")) == "1--"
        # the QM merge step: minterms 1 and 3 are one prime, 1 and 2 are not
        assert qm.prime_implicants(2, {1, 3}) == ["1-"]
        assert qm.prime_implicants(2, {1, 2}) == ["01", "10"]

    def test_covers_cube(self):
        assert Cube("1-").covers_cube(Cube("11"))
        assert not Cube("11").covers_cube(Cube("1-"))

    def test_minterm_cube(self):
        assert ref.minterm_cube(0b101, 3) == "101"
        assert ref.minterm_cube(0, 2) == "00"
        assert Cover.from_minterms(3, {0b101}).cubes == ["101"]
        assert Cover.from_minterms(2, {0}).cubes == ["00"]


class TestCover:
    def test_evaluate_and_on_set(self):
        cover = Cover(num_inputs=2, cubes=[Cube("1-"), Cube("01")])
        assert cover.on_set() == frozenset({1, 2, 3})

    def test_width_mismatch_rejected(self):
        with pytest.raises(ToolUsageError):
            Cover(num_inputs=3, cubes=[Cube("10")])

    def test_from_minterms(self):
        cover = Cover.from_minterms(3, {0, 5})
        assert cover.on_set() == frozenset({0, 5})

    def test_serialization_roundtrip(self):
        cover = Cover(num_inputs=2, cubes=[Cube("1-")], output_name="g")
        again = Cover.from_dict(cover.to_dict())
        assert again.equivalent(cover)
        assert again.output_name == "g"


@st.composite
def random_on_sets(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    universe = list(range(1 << width))
    on = draw(st.sets(st.sampled_from(universe), min_size=0,
                      max_size=len(universe)))
    return width, frozenset(on)


class TestQuineMcCluskey:
    def test_classic_example(self):
        # f = sum m(0,1,2,5,6,7) over 3 vars has a known 2-level minimum
        cover = Cover.from_minterms(3, {0, 1, 2, 5, 6, 7})
        result = qm.minimize(cover)
        assert result.equivalent(cover)
        assert result.num_terms <= 4

    def test_tautology(self):
        cover = Cover.from_minterms(2, {0, 1, 2, 3})
        result = qm.minimize(cover)
        assert result.num_terms == 1
        assert result.cubes[0] == "--"

    def test_empty_function(self):
        cover = Cover(num_inputs=3, cubes=[])
        result = qm.minimize(cover)
        assert result.num_terms == 0

    def test_dont_cares_reduce_cost(self):
        # f = m(1) with dc(3): x1 can be dropped
        with_dc = qm.minimize_minterms(2, {1}, dc_set={3})
        without = qm.minimize_minterms(2, {1})
        assert with_dc.num_literals < without.num_literals

    def test_out_of_range_minterm_is_a_usage_error(self):
        with pytest.raises(ToolUsageError, match="minterm 5 .* width 2"):
            qm.minimize_minterms(2, {5})
        with pytest.raises(ToolUsageError, match="minterm 4 .* width 2"):
            qm.minimize_minterms(2, {1}, dc_set={4, 7})
        with pytest.raises(ToolUsageError, match="minterm 8 .* width 3"):
            qm.minimize(Cover.from_minterms(3, {1}), dc_set={8})
        with pytest.raises(ToolUsageError, match="minterm 16 .* width 4"):
            qm.minimize_table(4, 1 << 16 | 1, 0)
        with pytest.raises(ToolUsageError, match="minterm -1 is negative"):
            qm.minimize_minterms(2, {-1, 1})

    def test_prime_implicants_complete(self):
        primes = qm.prime_implicants(2, {0, 1, 2})
        assert set(primes) == {"0-", "-0"}

    @settings(max_examples=60, deadline=None)
    @given(random_on_sets())
    def test_minimize_preserves_function(self, case):
        width, on = case
        cover = Cover.from_minterms(width, set(on))
        result = qm.minimize(cover)
        assert result.on_set() == on

    @settings(max_examples=60, deadline=None)
    @given(random_on_sets())
    def test_minimize_never_grows(self, case):
        width, on = case
        cover = Cover.from_minterms(width, set(on))
        result = qm.minimize(cover)
        assert result.num_literals <= cover.num_literals
        assert result.num_terms <= max(cover.num_terms, 1)

    @settings(max_examples=40, deadline=None)
    @given(random_on_sets())
    def test_selected_cover_is_primes_only(self, case):
        width, on = case
        primes = set(qm.prime_implicants(width, on))
        selected = qm.select_cover(width, set(on), sorted(primes))
        assert set(selected) <= primes


class TestBooleanNetwork:
    def _xor_net(self) -> BooleanNetwork:
        net = BooleanNetwork(name="x", inputs=["a", "b"], outputs=["y"])
        net.nodes["y"] = Node(
            name="y", fanins=["a", "b"],
            cover=Cover(num_inputs=2, cubes=[Cube("10"), Cube("01")]),
        )
        return net

    def test_evaluate(self):
        net = self._xor_net()
        out = net.evaluate({"a": True, "b": False})
        assert out["y"] is True
        out = net.evaluate({"a": True, "b": True})
        assert out["y"] is False

    def test_validate_catches_unknown_fanin(self):
        net = self._xor_net()
        net.nodes["y"].fanins[0] = "ghost"
        with pytest.raises(ToolUsageError):
            net.validate()

    def test_validate_catches_cycle(self):
        net = BooleanNetwork(name="c", inputs=["a"], outputs=["p"])
        net.nodes["p"] = Node("p", ["q"], Cover(1, [Cube("1")]))
        net.nodes["q"] = Node("q", ["p"], Cover(1, [Cube("1")]))
        with pytest.raises(ToolUsageError):
            net.validate()

    def test_depth_and_levels(self):
        net = BooleanNetwork(name="d", inputs=["a", "b"], outputs=["z"])
        net.nodes["m"] = Node("m", ["a", "b"], Cover(2, [Cube("11")]))
        net.nodes["z"] = Node("z", ["m", "a"], Cover(2, [Cube("1-")]))
        assert net.depth == 2
        assert net.levelize()["m"] == 1

    def test_levelize_leaves_no_cyclic_garbage(self):
        """Levels and the cycle error come from reference counting alone:
        with the collector off, a levelized network leaves nothing behind
        once dropped."""
        with collector_off():
            net = BooleanNetwork(name="d", inputs=["a", "b"], outputs=["z"])
            net.nodes["z"] = Node("z", ["m", "a"], Cover(2, [Cube("1-")]))
            net.nodes["m"] = Node("m", ["a", "b"], Cover(2, [Cube("11")]))
            assert net.levelize() == {"a": 0, "b": 0, "m": 1, "z": 2}
            loop = BooleanNetwork(name="c", inputs=["a"], outputs=["p"])
            loop.nodes["p"] = Node("p", ["q"], Cover(1, [Cube("1")]))
            loop.nodes["q"] = Node("q", ["p"], Cover(1, [Cube("1")]))
            with pytest.raises(ToolUsageError, match="cycle at 'p'"):
                loop.levelize()
            del net, loop
            assert not repro_garbage()

    def test_serialization_roundtrip(self):
        net = self._xor_net()
        again = BooleanNetwork.from_dict(net.to_dict())
        assert again.evaluate({"a": True, "b": False})["y"] is True

    def test_copy_is_independent(self):
        net = self._xor_net()
        dup = net.copy()
        dup.nodes["y"].fanins[0] = "b"
        assert net.nodes["y"].fanins[0] == "a"


class TestGenerators:
    @pytest.mark.parametrize("kind", BehavioralSpec.KINDS)
    def test_all_kinds_generate_valid_networks(self, kind):
        spec = BehavioralSpec("cell", kind, 4)
        net = generate_network(spec)
        net.validate()
        assert net.outputs

    def test_adder_adds(self):
        net = generate_network(BehavioralSpec("add", "adder", 4))
        for a, b in [(3, 5), (15, 1), (7, 7), (0, 0)]:
            assignment = {f"a{i}": bool((a >> i) & 1) for i in range(4)}
            assignment.update({f"b{i}": bool((b >> i) & 1) for i in range(4)})
            assignment["cin"] = False
            values = net.evaluate(assignment)
            total = sum(values[f"sum{i}"] << i for i in range(4))
            total += values["cout"] << 4
            assert total == a + b

    def test_shifter_rotates(self):
        net = generate_network(BehavioralSpec("sh", "shifter", 4))
        data = 0b0011
        assignment = {f"d{i}": bool((data >> i) & 1) for i in range(4)}
        assignment.update({"s0": True, "s1": False})  # rotate by 1
        values = net.evaluate(assignment)
        result = sum(values[f"q{i}"] << i for i in range(4))
        assert result == 0b0110

    def test_parity(self):
        net = generate_network(BehavioralSpec("p", "parity", 5))
        for vec in (0, 0b10101, 0b11111, 0b00010):
            assignment = {f"a{i}": bool((vec >> i) & 1) for i in range(5)}
            assert net.evaluate(assignment)["parity"] == (bin(vec).count("1") % 2 == 1)

    def test_comparator(self):
        net = generate_network(BehavioralSpec("c", "comparator", 3))
        for a, b in [(3, 3), (5, 2), (1, 6)]:
            assignment = {f"a{i}": bool((a >> i) & 1) for i in range(3)}
            assignment.update({f"b{i}": bool((b >> i) & 1) for i in range(3)})
            values = net.evaluate(assignment)
            assert values["eq"] == (a == b)
            assert values["gt"] == (a > b)

    def test_counter_increments(self):
        net = generate_network(BehavioralSpec("ctr", "counter", 3))
        for q in range(8):
            assignment = {f"q{i}": bool((q >> i) & 1) for i in range(3)}
            assignment["en"] = True
            values = net.evaluate(assignment)
            nxt = sum(values[f"d{i}"] << i for i in range(3))
            assert nxt == (q + 1) % 8

    def test_bad_spec_rejected(self):
        with pytest.raises(ToolUsageError):
            BehavioralSpec("x", "quantum", 4)
        with pytest.raises(ToolUsageError):
            BehavioralSpec("x", "adder", 0)


class TestPla:
    def test_counts(self):
        pla = Pla(
            name="p", input_names=["a", "b"],
            covers={
                "f": Cover(2, [Cube("1-")], output_name="f"),
                "g": Cover(2, [Cube("1-"), Cube("01")], output_name="g"),
            },
        )
        assert pla.num_outputs == 2
        assert pla.num_terms == 2  # "1-" shared
        assert pla.effective_columns == 2

    def test_roundtrip(self):
        pla = Pla(name="p", input_names=["a"],
                  covers={"f": Cover(1, [Cube("1")])}, folded_pairs=0)
        again = Pla.from_dict(pla.to_dict())
        assert again.num_terms == 1
