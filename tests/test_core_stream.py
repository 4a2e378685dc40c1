"""Tests for control streams, data scopes, and history records."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.control_stream import INITIAL_POINT, ControlStream
from repro.core.datascope import DataScope
from repro.core.history import HistoryRecord, StepRecord
from repro.errors import ThreadError
from repro.octdb.database import DesignDatabase


def rec(task="t", ins=(), outs=(), steps=()):
    return HistoryRecord(task=task, inputs=tuple(ins), outputs=tuple(outs),
                         steps=tuple(steps))


def _db_holding(versions: dict[str, int]) -> DesignDatabase:
    """A database that has allocated ``versions[base]`` versions of each
    base: resolution probes versions up to the database's latest."""
    db = DesignDatabase()
    for base, count in versions.items():
        for _ in range(count):
            db.put(base, f"payload:{base}")
    return db


class TestHistoryRecord:
    def test_touched(self):
        r = rec(ins=["a@1"], outs=["b@1", "c@1"])
        assert r.touched == ("a@1", "b@1", "c@1")

    def test_intermediates(self):
        steps = [
            StepRecord("s1", "tool", (), ("a@1",), ("tmp@1",)),
            StepRecord("s2", "tool", (), ("tmp@1",), ("out@1",)),
        ]
        r = rec(ins=["a@1"], outs=["out@1"], steps=steps)
        assert r.intermediates() == ("tmp@1",)

    def test_abstract_strips_steps(self):
        r = rec(steps=[StepRecord("s", "t", (), (), ())])
        r.abstract()
        assert r.abstracted and r.steps == ()

    def test_instance_numbers_unique(self):
        assert rec().instance != rec().instance

    def test_step_elapsed(self):
        s = StepRecord("s", "t", (), (), (), started_at=1.0, completed_at=3.5)
        assert s.elapsed == 2.5


class TestControlStream:
    def test_linear_append(self):
        cs = ControlStream()
        p1 = cs.append(rec("a"), INITIAL_POINT)
        p2 = cs.append(rec("b"), p1)
        assert cs.frontier() == [p2]
        assert cs.ancestors(p2) == [p2, p1, INITIAL_POINT]
        assert len(cs) == 2

    def test_branching(self):
        cs = ControlStream()
        p1 = cs.append(rec("a"), INITIAL_POINT)
        p2 = cs.append(rec("b"), p1)
        p3 = cs.append(rec("c"), p1)  # rework branch
        assert set(cs.frontier()) == {p2, p3}
        assert cs.is_ancestor(p1, p2) and cs.is_ancestor(p1, p3)
        assert not cs.is_ancestor(p2, p3)

    def test_unknown_point(self):
        cs = ControlStream()
        with pytest.raises(ThreadError):
            cs.node(99)
        with pytest.raises(ThreadError):
            cs.record(INITIAL_POINT)  # root has no record

    def test_append_spliced_at_frontier_is_plain_append(self):
        cs = ControlStream()
        p1 = cs.append(rec("a"), INITIAL_POINT)
        p2 = cs.append_spliced(rec("b"), p1)
        assert cs.node(p2).parents == [p1]
        assert cs.frontier() == [p2]

    def test_append_spliced_before_branches(self):
        # Fig 5.6: path tip grew branches before the task completed
        cs = ControlStream()
        p1 = cs.append(rec("a"), INITIAL_POINT)
        b1 = cs.append(rec("branch1"), p1)
        b2 = cs.append(rec("branch2"), p1)
        spliced = cs.append_spliced(rec("late", outs=["x@1"]), p1)
        assert cs.node(p1).children == [spliced]
        assert set(cs.node(spliced).children) == {b1, b2}
        assert cs.node(b1).parents == [spliced]
        # branches now see the late record's objects
        scope = DataScope(cs)
        assert "x@1" in scope.thread_state(b1)
        assert "x@1" in scope.thread_state(b2)

    def test_splice_patches_downstream_caches(self):
        cs = ControlStream()
        p1 = cs.append(rec("a", outs=["a@1"]), INITIAL_POINT)
        b1 = cs.append(rec("b", outs=["b@1"]), p1)
        cs.node(b1).cached_scope = frozenset({"a@1", "b@1"})
        cs.append(rec("c"), p1)  # make p1 a branch point
        cs.append_spliced(rec("late", outs=["x@1"]), p1)
        assert "x@1" in cs.node(b1).cached_scope

    def test_junction(self):
        cs = ControlStream()
        p1 = cs.append(rec("a", outs=["a@1"]), INITIAL_POINT)
        p2 = cs.append(rec("b", outs=["b@1"]), INITIAL_POINT)
        j = cs.add_junction([p1, p2])
        scope = DataScope(cs)
        assert scope.thread_state(j) == frozenset({"a@1", "b@1"})
        assert cs.node(j).is_junction

    def test_junction_needs_parents(self):
        with pytest.raises(ThreadError):
            ControlStream().add_junction([])

    def test_remove_points_protects_root_and_orphans(self):
        cs = ControlStream()
        p1 = cs.append(rec("a"), INITIAL_POINT)
        p2 = cs.append(rec("b"), p1)
        with pytest.raises(ThreadError):
            cs.remove_points({INITIAL_POINT})
        with pytest.raises(ThreadError):
            cs.remove_points({p1})  # would orphan p2
        removed = cs.remove_points({p1, p2})
        assert len(removed) == 2
        assert cs.frontier() == [INITIAL_POINT]

    def test_erase_subtree(self):
        cs = ControlStream()
        p1 = cs.append(rec("a"), INITIAL_POINT)
        p2 = cs.append(rec("b"), p1)
        p3 = cs.append(rec("c"), p2)
        cs.erase_subtree(p2)
        assert p2 not in cs and p3 not in cs
        assert cs.frontier() == [p1]

    def test_chain_between(self):
        cs = ControlStream()
        p1 = cs.append(rec("a"), INITIAL_POINT)
        p2 = cs.append(rec("b"), p1)
        p3 = cs.append(rec("c"), p2)
        cs.append(rec("d"), p1)  # other branch
        assert cs.chain_between(p1, p3) == [p2, p3]

    def test_graft_copies_structure(self):
        a = ControlStream()
        ap = a.append(rec("a"), INITIAL_POINT)
        b = ControlStream()
        bp1 = b.append(rec("b1"), INITIAL_POINT)
        bp2 = b.append(rec("b2"), bp1)
        mapping = a.graft(b, ap)
        assert len(a) == 3
        assert a.node(mapping[bp1]).parents == [ap]
        # source untouched
        assert len(b) == 2

    def test_copy_independent(self):
        a = ControlStream()
        p = a.append(rec("a"), INITIAL_POINT)
        dup, mapping = a.copy()
        dup.append(rec("extra"), mapping[p])
        assert len(a) == 1 and len(dup) == 2

    def test_find_by_annotation_and_time(self):
        cs = ControlStream()
        r1 = rec("a")
        r1.recorded_at = 10.0
        r2 = rec("b")
        r2.recorded_at = 20.0
        r2.annotation = "The Start of PLA Approach"
        p1 = cs.append(r1, INITIAL_POINT)
        p2 = cs.append(r2, p1)
        assert cs.find_by_annotation("The Start of PLA Approach") == p2
        assert cs.find_by_annotation("nope") is None
        assert cs.find_by_time(15.0) == p2
        assert cs.find_by_time(5.0) == p1
        assert cs.find_by_time(25.0) is None


class TestDataScope:
    def _linear(self, n: int) -> tuple[ControlStream, list[int]]:
        cs = ControlStream()
        points = []
        parent = INITIAL_POINT
        for i in range(n):
            parent = cs.append(
                rec(f"t{i}", ins=[f"o{i - 1}@1"] if i else [],
                    outs=[f"o{i}@1"]),
                parent,
            )
            points.append(parent)
        return cs, points

    def test_thread_state_accumulates(self):
        cs, points = self._linear(4)
        scope = DataScope(cs)
        assert scope.thread_state(points[0]) == frozenset({"o0@1"})
        state = scope.thread_state(points[3])
        assert state == frozenset({"o0@1", "o1@1", "o2@1", "o3@1"})

    def test_branch_isolation(self):
        cs = ControlStream()
        p1 = cs.append(rec("a", outs=["base@1"]), INITIAL_POINT)
        left = cs.append(rec("l", outs=["left@1"]), p1)
        right = cs.append(rec("r", outs=["right@1"]), p1)
        scope = DataScope(cs)
        assert "left@1" not in scope.thread_state(right)
        assert "right@1" not in scope.thread_state(left)
        assert "base@1" in scope.thread_state(left)
        assert "base@1" in scope.thread_state(right)

    def test_cache_agrees_with_uncached(self):
        cs, points = self._linear(30)
        cached = DataScope(cs, cache_stride=4)
        plain = DataScope(ControlStream(), cache_stride=0)
        plain.stream = cs
        for p in points:
            assert cached.thread_state(p) == plain.thread_state(p, use_cache=False)

    def test_cache_reduces_traversal(self):
        cs, points = self._linear(64)
        warm = DataScope(cs, cache_stride=4)
        warm.thread_state(points[-2])    # warms caches along the path
        before = warm.nodes_visited
        warm.thread_state(points[-1])
        cached_cost = warm.nodes_visited - before

        cold = DataScope(cs, cache_stride=0)
        cold.thread_state(points[-2], use_cache=False)
        before = cold.nodes_visited
        cold.thread_state(points[-1], use_cache=False)
        uncached_cost = cold.nodes_visited - before
        assert cached_cost < uncached_cost

    def test_resolve_versions(self):
        cs = ControlStream()
        p1 = cs.append(rec("a", outs=["x@1"]), INITIAL_POINT)
        p2 = cs.append(rec("b", ins=["x@1"], outs=["x@2"]), p1)
        scope = DataScope(cs, _db_holding({"x": 2}))
        assert scope.resolve(p2, "x").version == 2
        assert scope.resolve(p1, "x").version == 1
        assert scope.resolve(p2, "x@1").version == 1

    def test_resolve_invisible(self):
        from repro.errors import ObjectNotFound

        cs = ControlStream()
        p1 = cs.append(rec("a", outs=["x@1"]), INITIAL_POINT)
        scope = DataScope(cs, _db_holding({"x": 1, "y": 1}))
        with pytest.raises(ObjectNotFound):
            scope.resolve(p1, "y")
        with pytest.raises(ObjectNotFound):
            scope.resolve(p1, "x@9")
        with pytest.raises(ObjectNotFound):
            scope.resolve(INITIAL_POINT, "x")

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=25),
           st.integers(min_value=0, max_value=8))
    def test_random_trees_cache_consistency(self, parents, stride):
        """On random tree shapes, cached scope == uncached scope everywhere."""
        cs = ControlStream()
        points = [INITIAL_POINT]
        for i, choice in enumerate(parents):
            parent = points[choice % len(points)]
            points.append(cs.append(rec(f"t{i}", outs=[f"o{i}@1"]), parent))
        cached = DataScope(cs, cache_stride=stride)
        for p in points:
            expected = cached.thread_state(p, use_cache=False)
            assert cached.thread_state(p) == expected


class TestDeepStreams:
    """Regression: every history walker must survive very deep streams
    (the recursive implementations used to hit Python's recursion limit)."""

    def _deep(self, depth: int):
        cs = ControlStream()
        parent = INITIAL_POINT
        for i in range(depth):
            parent = cs.append(rec(f"t{i}", outs=[f"o{i}@1"]), parent)
        return cs, parent

    def test_scope_layout_render_on_deep_chain(self):
        from repro.activity.viewport import grid_layout, render_stream

        cs, tip = self._deep(3000)
        scope = DataScope(cs, cache_stride=16)
        state = scope.thread_state(tip)
        assert "o2999@1" in state
        layout = grid_layout(cs)
        assert layout == {i: (16 * i, 0) for i in range(3001)}
        text = render_stream(cs, cursor=tip)
        assert "t2999" in text

    def test_adg_walkers_on_deep_chain(self):
        from repro.core.history import StepRecord
        from repro.metadata.adg import AugmentedDerivationGraph

        adg = AugmentedDerivationGraph()
        prev = "src@1"
        for i in range(3000):
            out = f"d{i}@1"
            adg.add_step(StepRecord(f"s{i}", "tool", (), (prev,), (out,)))
            prev = out
        history = adg.derivation_history(prev)
        assert len(history) == 3000
        plan = adg.retrace_plan("src@1")
        assert len(plan) == 3000
        adg.check_acyclic()
