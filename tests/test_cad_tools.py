"""Tests for the synthetic CAD tool suite (registry + logic + physical)."""

from __future__ import annotations

import pytest

from repro.cad import BehavioralSpec, BooleanNetwork, default_registry
from repro.cad.layout import Layout, Report, left_edge_tracks
from repro.cad.logic import Pla
from repro.cad.registry import Tool, ToolCall, ToolRegistry, ToolResult
from repro.cad.tools_logic import generate_network, optimize_network
from repro.cad.tools_phys import (
    SPARCS_DENSITY_LIMIT,
    compaction_density,
    fold_pla,
    place_network,
    route_layout,
)
from repro.errors import ToolError, ToolUsageError


@pytest.fixture(scope="module")
def registry() -> ToolRegistry:
    return default_registry()


def run(registry, tool, inputs, options=(), outputs=("out",)):
    return registry.run(ToolCall(
        tool, options=tuple(options), inputs=tuple(inputs),
        output_names=tuple(outputs),
    ))


class TestRegistry:
    def test_unknown_tool(self, registry):
        with pytest.raises(ToolError):
            registry.get("nonesuch")

    def test_duplicate_registration(self):
        reg = ToolRegistry()
        reg.add("t", lambda call: ToolResult())
        with pytest.raises(ToolUsageError):
            reg.add("t", lambda call: ToolResult())

    def test_tool_exception_becomes_status(self, registry):
        # bdsyn on a nonsense payload -> usage error -> non-zero status
        result = run(registry, "bdsyn", [12345])
        assert result.status != 0
        assert "bdsyn" in result.log

    def test_missing_outputs_detected(self):
        reg = ToolRegistry()
        reg.add("bad", lambda call: ToolResult(outputs={}))
        result = reg.run(ToolCall("bad", output_names=("x",)))
        assert result.status == 3

    def test_option_helpers(self):
        call = ToolCall("t", options=("-r", "2", "-f"))
        assert call.has_flag("-f")
        assert call.option_value("-r") == "2"
        assert call.option_value("-z", "d") == "d"

    def test_cost_positive(self, registry):
        spec = BehavioralSpec("c", "adder", 4)
        call = ToolCall("bdsyn", inputs=(spec,), output_names=("o",))
        assert registry.get("bdsyn").estimate_runtime(call) > 0


class TestLogicTools:
    def test_edit_creates_spec(self, registry):
        result = run(registry, "edit", [],
                     options=("-kind", "alu", "-width", "4", "-name", "myalu"))
        spec = result.outputs["out"]
        assert spec.kind == "alu" and spec.name == "myalu"

    def test_edit_tweaks_existing(self, registry):
        spec = BehavioralSpec("c", "adder", 4)
        result = run(registry, "edit", [spec], options=("-width", "6"))
        assert result.outputs["out"].width == 6
        assert result.outputs["out"].kind == "adder"

    def test_bdsyn_then_misII_preserves_function(self, registry):
        spec = BehavioralSpec("p", "parity", 4)
        net = run(registry, "bdsyn", [spec]).outputs["out"]
        opt = run(registry, "misII", [net]).outputs["out"]
        assert opt.num_literals <= net.num_literals
        for vec in range(16):
            assignment = {f"a{i}": bool((vec >> i) & 1) for i in range(4)}
            assert (net.evaluate(assignment)["parity"]
                    == opt.evaluate(assignment)["parity"])

    def test_misII_removes_dead_logic(self):
        net = generate_network(BehavioralSpec("a", "adder", 3))
        # add a dead node
        from repro.cad.logic import Cover, Cube, Node

        net.nodes["dead"] = Node("dead", ["a0"], Cover(1, [Cube("1")]))
        opt = optimize_network(net)
        assert "dead" not in opt.nodes

    @pytest.mark.parametrize("cubes", [["1"], []], ids=["cube-1", "empty"])
    def test_misII_leaves_constant_nodes_alone(self, cubes):
        """A node with no fanins is a constant (unwired cover inputs read
        0).  Node minimize used to hand it to QM with zero inputs, which
        raised ``bad cube ''`` or ``bad input count 0``; eliminating one
        into a consumer that reads nothing else hit the same wall."""
        from repro.cad.logic import Cover, Cube, Node

        net = BooleanNetwork("c", inputs=["a", "b"], outputs=["k", "y", "z"])
        for name in ("k", "j"):
            net.nodes[name] = Node(name, [], Cover(1, [Cube(c) for c in cubes]))
        net.nodes["y"] = Node("y", ["a", "k"], Cover(2, [Cube("11")]))
        net.nodes["z"] = Node("z", ["j"], Cover(1, [Cube("0")]))
        opt = optimize_network(net)
        for vec in range(4):
            assignment = {"a": bool(vec & 1), "b": bool(vec & 2)}
            before, after = net.evaluate(assignment), opt.evaluate(assignment)
            assert [after[o] for o in net.outputs] == \
                [before[o] for o in net.outputs]

    def test_misII_reads_unwired_cover_inputs_as_zero(self):
        """A cover wider than its fanins: the unwired input reads 0, as in
        ``evaluate``.  Node minimize used to hand QM the cover's own truth
        table, whose rows with the unwired input set are out of range for
        a one-fanin node (``qm: minterm 2 is out of range for width 1``)."""
        from repro.cad.logic import Cover, Cube, Node

        net = BooleanNetwork("x", ["a"], ["j"], {
            "j": Node("j", ["a"], Cover(2, [Cube("-1"), Cube("10")]))})
        opt = optimize_network(net)
        for a in (False, True):
            assert opt.evaluate({"a": a})["j"] == net.evaluate({"a": a})["j"]
        assert opt.nodes["j"].cover.num_inputs == 1
        assert opt.num_literals < net.num_literals

    def test_espresso_on_network(self, registry):
        net = generate_network(BehavioralSpec("p", "parity", 3))
        result = run(registry, "espresso", [net])
        pla = result.outputs["out"]
        assert isinstance(pla, Pla)
        # parity of 3 needs exactly 4 minterms, none merge
        assert pla.covers["parity"].num_terms == 4

    def test_espresso_format_option(self, registry):
        net = generate_network(BehavioralSpec("p", "parity", 2))
        eq = run(registry, "espresso", [net], options=("-o", "equitott"))
        pl = run(registry, "espresso", [net], options=("-o", "pleasure"))
        assert eq.outputs["out"].format == "equation"
        assert pl.outputs["out"].format == "PLA"

    def test_musa_verifies_against_golden(self, registry):
        spec = BehavioralSpec("sh", "shifter", 4)
        net = run(registry, "bdsyn", [spec]).outputs["out"]
        result = run(registry, "musa", [net, "random 24 3", spec],
                     outputs=("rep",))
        assert result.status == 0
        assert result.outputs["rep"].value("mismatches") == 0

    def test_musa_catches_broken_logic(self, registry):
        spec = BehavioralSpec("p", "parity", 3)
        net = generate_network(spec)
        # break the circuit: swap the output cover for constant 0
        from repro.cad.logic import Cover, Node

        out = net.outputs[0]
        net.nodes[out] = Node(out, net.nodes[out].fanins,
                              Cover(len(net.nodes[out].fanins), []))
        result = run(registry, "musa", [net, "random 32 5", spec],
                     outputs=("rep",))
        assert result.status == 1
        assert result.outputs["rep"].value("mismatches") > 0

    def test_musa_fails_when_golden_inputs_differ(self, registry):
        net = generate_network(BehavioralSpec("p", "parity", 3))
        golden = BehavioralSpec("g", "adder", 4)
        result = run(registry, "musa", [net, "random 16 1", golden],
                     outputs=("rep",))
        assert result.status == 1
        assert "inputs differ" in result.log
        assert result.outputs["rep"].value("compared") == 0

    def test_musa_fails_when_no_output_is_golden(self, registry):
        # same inputs a0..a2, but parity's output is not a decoder signal
        net = generate_network(BehavioralSpec("p", "parity", 3))
        golden = BehavioralSpec("g", "decoder", 3)
        assert generate_network(golden).inputs == net.inputs
        result = run(registry, "musa", [net, "random 16 1", golden],
                     outputs=("rep",))
        assert result.status == 1
        assert "no output in common" in result.log
        assert result.outputs["rep"].value("compared") == 0

    def test_musa_explicit_vectors(self, registry):
        net = generate_network(BehavioralSpec("p", "parity", 2))
        result = run(registry, "musa", [net, "vector 01\nvector 11"],
                     outputs=("rep",))
        assert result.outputs["rep"].value("vectors") == 2


class TestPhysicalTools:
    @pytest.fixture(scope="class")
    def net(self) -> BooleanNetwork:
        return generate_network(BehavioralSpec("alu", "alu", 3))

    def test_wolfe_places_and_routes(self, registry, net):
        result = run(registry, "wolfe", [net], options=("-r", "2"))
        layout = result.outputs["out"]
        assert layout.stage == "detail-routed"
        assert len(layout.cells) == net.num_nodes
        assert layout.tracks_used > 0
        assert layout.area > 0

    def test_padplace_on_network_inserts_pads(self, registry, net):
        result = run(registry, "padplace", [net])
        padded = result.outputs["out"]
        pads = [n for n in padded.nodes if n.startswith("pad_")]
        assert len(pads) == len(net.inputs) + len(net.outputs)
        padded.validate()

    def test_padplace_preserves_function(self, registry):
        spec = BehavioralSpec("p", "parity", 3)
        net = generate_network(spec)
        padded = run(registry, "padplace", [net]).outputs["out"]
        for vec in range(8):
            assignment = {f"a{i}": bool((vec >> i) & 1) for i in range(3)}
            got = padded.evaluate(assignment)[padded.outputs[0]]
            want = net.evaluate(dict(assignment))[net.outputs[0]]
            assert got == want

    def test_padplace_on_layout_adds_ring(self, registry, net):
        layout = run(registry, "wolfe", [net]).outputs["out"]
        padded = run(registry, "padplace", [layout]).outputs["out"]
        assert padded.has_pads
        assert len(padded.cells) == len(layout.cells) + 4

    def test_mosaico_pipeline(self, registry, net):
        layout = place_network(net, rows=3)
        l1 = run(registry, "atlas", [layout]).outputs["out"]
        assert l1.stage == "channels-defined"
        l2 = run(registry, "mosaicoGR", [l1]).outputs["out"]
        assert l2.stage == "globally-routed"
        l3 = run(registry, "mosaicoDR", [l2]).outputs["out"]
        assert l3.stage == "detail-routed"
        l4 = run(registry, "mizer", [l3]).outputs["out"]
        assert l4.via_count <= l3.via_count
        l5 = run(registry, "vulcan", [l4]).outputs["out"]
        assert len(l5.cells) == 1
        check = run(registry, "mosaicoRC", [net, l4], outputs=())
        assert check.status == 0

    def test_mosaicoDR_track_limit_failure(self, registry, net):
        layout = place_network(net, rows=1)
        result = run(registry, "mosaicoDR", [layout], options=("-t", "1"))
        assert result.status == 1
        assert "insufficient routing space" in result.log

    def test_sparcs_horizontal_fails_on_congestion(self, registry, net):
        congested = route_layout(place_network(net, rows=1))
        assert compaction_density(congested) >= SPARCS_DENSITY_LIMIT
        result = run(registry, "sparcs", [congested])
        assert result.status == 1
        vertical = run(registry, "sparcs", [congested], options=("-v",))
        assert vertical.status == 0
        assert vertical.outputs["out"].area < congested.area

    def test_sparcs_horizontal_ok_when_sparse(self, registry, net):
        sparse = route_layout(place_network(net, rows=8))
        assert compaction_density(sparse) < SPARCS_DENSITY_LIMIT
        result = run(registry, "sparcs", [sparse])
        assert result.status == 0

    def test_pgcurrent_report(self, registry, net):
        layout = route_layout(place_network(net, rows=2))
        result = run(registry, "PGcurrent", [layout], outputs=("rep",))
        assert result.outputs["rep"].value("current_ma") > 0

    def test_chipstats(self, registry, net):
        layout = route_layout(place_network(net, rows=2))
        report = run(registry, "chipstats", [layout], outputs=("s",)).outputs["s"]
        assert report.value("area") == layout.area
        assert report.value("cells") == len(layout.cells)

    def test_pla_fold_and_panda(self, registry):
        net = generate_network(BehavioralSpec("d", "decoder", 3))
        pla = run(registry, "espresso", [net]).outputs["out"]
        folded = run(registry, "pleasure", [pla]).outputs["out"]
        assert folded.effective_columns <= pla.num_inputs
        layout = run(registry, "panda", [folded]).outputs["out"]
        assert layout.style == "pla"
        assert layout.area > 0

    def test_panda_area_constraint(self, registry):
        net = generate_network(BehavioralSpec("d", "decoder", 3))
        pla = run(registry, "espresso", [net]).outputs["out"]
        ok = run(registry, "panda", [pla])
        too_small = run(registry, "panda", [pla],
                        options=("-a", str(ok.outputs["out"].area - 1)))
        assert too_small.status == 1
        assert "area constraint" in too_small.log


class TestLayoutPrimitives:
    def test_left_edge_no_overlap_on_same_track(self):
        intervals = [(0, 10), (5, 15), (12, 20), (0, 4), (16, 22)]
        tracks = left_edge_tracks(intervals)
        for i, (li, ri) in enumerate(intervals):
            for j, (lj, rj) in enumerate(intervals):
                if i < j and tracks[i] == tracks[j]:
                    assert ri < lj or rj < li

    def test_left_edge_chain_uses_one_track(self):
        tracks = left_edge_tracks([(0, 1), (2, 3), (4, 5)])
        assert set(tracks) == {0}

    def test_report_value_lookup(self):
        report = Report(kind="k", text="t", values=(("x", 1.0),))
        assert report.value("x") == 1.0
        assert report.value("y", 9.0) == 9.0
        with pytest.raises(KeyError):
            report.value("y")

    def test_layout_roundtrip(self):
        net = generate_network(BehavioralSpec("a", "adder", 2))
        layout = route_layout(place_network(net, rows=2))
        again = Layout.from_dict(layout.to_dict())
        assert again.area == layout.area
        assert again.via_count == layout.via_count

    def test_bad_stage_rejected(self):
        with pytest.raises(ValueError):
            Layout(name="x", style="pla", stage="imaginary")


class TestPlacementRefinement:
    def test_refinement_never_worsens_wirelength(self, registry):
        from repro.cad.tools_phys import refine_placement

        net = generate_network(BehavioralSpec("alu", "alu", 3))
        greedy = place_network(net, rows=3)
        refined = refine_placement(greedy)
        assert route_layout(refined).wirelength() \
            <= route_layout(greedy).wirelength()
        # same cells, same footprint budget (positions permuted only)
        assert sorted(c.name for c in refined.cells) \
            == sorted(c.name for c in greedy.cells)
        assert {(c.x, c.y) for c in refined.cells} \
            == {(c.x, c.y) for c in greedy.cells}

    def test_wolfe_refine_option(self, registry):
        net = generate_network(BehavioralSpec("alu", "alu", 3))
        plain = run(registry, "wolfe", [net], options=("-r", "3"))
        refined = run(registry, "wolfe", [net],
                      options=("-r", "3", "-p", "refine"))
        assert refined.outputs["out"].wirelength() \
            <= plain.outputs["out"].wirelength()

    def test_refinement_deterministic(self, registry):
        from repro.cad.tools_phys import refine_placement

        net = generate_network(BehavioralSpec("adder", "adder", 4))
        a = refine_placement(place_network(net, rows=2))
        b = refine_placement(place_network(net, rows=2))
        assert [(c.name, c.x, c.y) for c in a.cells] \
            == [(c.name, c.x, c.y) for c in b.cells]


class TestOctmap:
    def test_maps_to_two_input_gates(self, registry):
        net = generate_network(BehavioralSpec("a", "alu", 3))
        mapped = run(registry, "octmap", [net]).outputs["out"]
        assert all(len(n.fanins) <= 2 for n in mapped.nodes.values())
        mapped.validate()

    def test_mapping_preserves_function(self, registry):
        net = generate_network(BehavioralSpec("c", "comparator", 3))
        mapped = run(registry, "octmap", [net]).outputs["out"]
        for vec in range(1 << len(net.inputs)):
            a = {s: bool((vec >> i) & 1) for i, s in enumerate(net.inputs)}
            va, vb = net.evaluate(dict(a)), mapped.evaluate(dict(a))
            for out in net.outputs:
                assert va[out] == vb[out]

    def test_accepts_spec_directly(self, registry):
        spec = BehavioralSpec("p", "parity", 3)
        mapped = run(registry, "octmap", [spec]).outputs["out"]
        assert mapped.num_nodes > 0

    def test_rejects_layouts(self, registry):
        layout = place_network(
            generate_network(BehavioralSpec("x", "adder", 2)), rows=1)
        result = run(registry, "octmap", [layout])
        assert result.status != 0


class TestOctverify:
    def test_equivalent_representations(self, registry):
        spec = BehavioralSpec("p", "parity", 4)
        net = generate_network(spec)
        opt = optimize_network(net)
        result = run(registry, "octverify", [spec, opt], outputs=("rep",))
        assert result.status == 0
        assert result.outputs["rep"].value("equal") == 1.0

    def test_catches_mismatch(self, registry):
        from repro.cad.logic import Cover, Node

        spec = BehavioralSpec("p", "parity", 3)
        broken = generate_network(spec)
        out = broken.outputs[0]
        broken.nodes[out] = Node(out, broken.nodes[out].fanins,
                                 Cover(len(broken.nodes[out].fanins), []))
        result = run(registry, "octverify", [spec, broken], outputs=("rep",))
        assert result.status == 1
        assert result.outputs["rep"].value("mismatches") >= 1

    def test_network_vs_pla(self, registry):
        net = generate_network(BehavioralSpec("d", "decoder", 2))
        pla = run(registry, "espresso", [net]).outputs["out"]
        result = run(registry, "octverify", [net, pla], outputs=("rep",))
        assert result.status == 0

    def test_input_count_mismatch(self, registry):
        a = generate_network(BehavioralSpec("p", "parity", 3))
        b = generate_network(BehavioralSpec("p", "parity", 4))
        result = run(registry, "octverify", [a, b], outputs=("rep",))
        assert result.status == 1


class TestSequentialMusa:
    def test_counter_counts_and_wraps(self, registry):
        net = generate_network(BehavioralSpec("c", "counter", 3))
        result = run(registry, "musa", [net, "cycles 10 0"], outputs=("rep",))
        assert result.status == 0
        assert result.outputs["rep"].value("final_state") == 2  # 10 mod 8

    def test_start_state(self, registry):
        net = generate_network(BehavioralSpec("c", "counter", 4))
        result = run(registry, "musa", [net, "cycles 3 5"], outputs=("rep",))
        assert result.outputs["rep"].value("final_state") == 8

    def test_needs_state_signals(self, registry):
        net = generate_network(BehavioralSpec("p", "parity", 3))
        result = run(registry, "musa", [net, "cycles 4"], outputs=("rep",))
        assert result.status != 0
