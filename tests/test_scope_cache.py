"""Epoch-keyed data-scope caching: invalidation contract + bugfix sweep.

Covers the ControlStream mutation epochs, the DataScope result cache and
probed resolution, centralized invalidation, and regression tests for
the cache-consistency bugs the sweep fixed:

* ``splice_out`` leaving deleted objects resolvable through stale caches;
* ``move_cursor(erase=True)`` mutating the cursor before validating;
* erase/reclamation paths never pruning ``point_access``;
* ``resolve`` conflating explicit version 0 with "unversioned".
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import VirtualClock
from repro.core import HistoryRecord, LWTSystem
from repro.core.control_stream import INITIAL_POINT, ControlStream
from repro.core.datascope import DataScope
from repro.errors import ObjectNotFound, ThreadError
from repro.obs import METRICS
from repro.octdb.database import DesignDatabase
from repro.octdb.naming import parse_name


def rec(task="t", ins=(), outs=()):
    return HistoryRecord(task=task, inputs=tuple(ins), outputs=tuple(outs),
                         steps=())


@pytest.fixture
def system():
    return LWTSystem(clock=VirtualClock())


def _newest_versions(state) -> dict[str, int]:
    """Reference resolution, by parsing: base → newest version in a
    thread state."""
    newest: dict[str, int] = {}
    for text in state:
        name = parse_name(text)
        if name.version is not None:
            newest[name.base] = max(name.version,
                                    newest.get(name.base, name.version))
    return newest


def make_rec(system, task, ins=(), outs=()):
    for out in outs:
        base, _, ver = out.partition("@")
        while system.db.latest_version(base) < int(ver or 1):
            system.db.put(base, f"payload:{base}")
    return HistoryRecord(task=task, inputs=tuple(ins), outputs=tuple(outs),
                         steps=())


class TestEpochs:
    def test_additive_mutators_bump_epoch_only(self):
        cs = ControlStream()
        assert cs.epoch == 0 and cs.scope_epoch == 0
        p1 = cs.append(rec("a"), INITIAL_POINT)
        assert cs.epoch == 1 and cs.scope_epoch == 0
        cs.add_junction([p1])
        assert cs.epoch == 2 and cs.scope_epoch == 0
        other = ControlStream()
        other.append(rec("x"), INITIAL_POINT)
        cs.graft(other, p1)
        assert cs.epoch == 3 and cs.scope_epoch == 0

    def test_state_changing_mutators_bump_both(self):
        cs = ControlStream()
        p1 = cs.append(rec("a"), INITIAL_POINT)
        p2 = cs.append(rec("b"), p1)
        scope_epoch = cs.scope_epoch
        cs.remove_points({p2})
        assert cs.scope_epoch == scope_epoch + 1
        cs.append(rec("c"), p1)
        cs.append(rec("d"), p1)
        scope_epoch = cs.scope_epoch
        cs.append_spliced(rec("late"), p1)   # splices before two branches
        assert cs.scope_epoch == scope_epoch + 1

    def test_spliced_append_at_frontier_is_additive(self):
        cs = ControlStream()
        p1 = cs.append(rec("a"), INITIAL_POINT)
        scope_epoch = cs.scope_epoch
        cs.append_spliced(rec("b"), p1)      # frontier: plain append
        assert cs.scope_epoch == scope_epoch


class TestResultCache:
    def _linear(self, n):
        cs = ControlStream()
        points, parent = [], INITIAL_POINT
        for i in range(n):
            parent = cs.append(rec(f"t{i}", outs=[f"o{i}@1"]), parent)
            points.append(parent)
        return cs, points

    def test_repeat_query_is_cached(self):
        cs, points = self._linear(32)
        scope = DataScope(cs)
        scope.thread_state(points[-1])
        before = scope.nodes_visited
        hits = METRICS.value("datascope.cache_hits")
        for _ in range(10):
            scope.thread_state(points[-1])
        assert scope.nodes_visited == before
        assert METRICS.value("datascope.cache_hits") >= hits + 10

    def test_ping_pong_between_points_is_cached(self):
        cs, points = self._linear(64)
        scope = DataScope(cs)
        near, far = points[20], points[-1]
        scope.thread_state(near)
        scope.thread_state(far)
        before = scope.nodes_visited
        for _ in range(25):
            assert scope.thread_state(near)
            assert scope.thread_state(far)
        assert scope.nodes_visited == before

    def test_append_extends_parent_state_incrementally(self):
        cs, points = self._linear(64)
        scope = DataScope(cs)
        scope.thread_state(points[-1])
        before = scope.nodes_visited
        tip = cs.append(rec("new", outs=["new@1"]), points[-1])
        state = scope.thread_state(tip)
        # Only the new node is visited: the parent came from the result cache.
        assert scope.nodes_visited == before + 1
        assert "new@1" in state and "o63@1" in state

    def test_cache_survives_appends_but_not_removals(self):
        cs, points = self._linear(16)
        scope = DataScope(cs, cache_stride=0)    # isolate the result cache
        scope.thread_state(points[-1])
        cs.append(rec("side"), points[0])
        before = scope.nodes_visited
        scope.thread_state(points[-1])           # append: cache still warm
        assert scope.nodes_visited == before
        tip = cs.append(rec("doomed"), points[-1])
        cs.remove_points({tip})
        scope.thread_state(points[-1])           # removal: epoch invalidated
        assert scope.nodes_visited > before

    def test_result_cache_is_bounded(self):
        cs, points = self._linear(DataScope.RESULT_CACHE_SIZE + 40)
        scope = DataScope(cs)
        for p in points:
            scope.thread_state(p)
        assert len(scope._state_cache) <= DataScope.RESULT_CACHE_SIZE

    def test_rebinding_scope_to_another_stream_resets_caches(self):
        cs, points = self._linear(8)
        scope = DataScope(cs)
        scope.thread_state(points[-1])
        other, mapping = cs.copy()
        other.append(rec("extra", outs=["extra@1"]), mapping[points[-1]])
        scope.stream = other
        assert scope.thread_state(other.frontier()[0]) >= {"extra@1", "o7@1"}

    def test_visible_versions_probes_one_base(self):
        db = DesignDatabase()
        for base in ("x", "x", "y"):
            db.put(base, f"payload:{base}")
        cs = ControlStream()
        p1 = cs.append(rec("a", outs=["x@1"]), INITIAL_POINT)
        scope = DataScope(cs, db)
        assert list(scope.visible_versions(p1, "x")) == [1]
        p2 = cs.append(rec("b", ins=["x@1"], outs=["x@2", "y@1"]), p1)
        # p1's state is cached: p2's extends it, and both bases probe right.
        assert list(scope.visible_versions(p2, "x")) == [2, 1]
        assert list(scope.visible_versions(p2, "y")) == [1]
        assert list(scope.visible_versions(p1, "y")) == []
        assert scope.resolve(p2, "x").version == 2
        assert scope.resolve(p1, "x").version == 1


class TestSpliceOutCacheBug:
    """Regression: splice_out left downstream cached scopes containing the
    spliced-out record's objects, making deleted versions resolvable."""

    def test_spliced_out_objects_leave_downstream_scopes(self):
        cs = ControlStream()
        p1 = cs.append(rec("a", outs=["a@1"]), INITIAL_POINT)
        p2 = cs.append(rec("b", outs=["b@1"]), p1)
        p3 = cs.append(rec("c", outs=["c@1"]), p2)
        scope = DataScope(cs, cache_stride=1)    # cache every node
        scope.thread_state(p3)
        assert cs.node(p3).cached_scope is not None
        cs.splice_out(p1)
        state = scope.thread_state(p3)
        assert "a@1" not in state
        assert state == scope.thread_state(p3, use_cache=False)

    def test_splice_out_drops_forward_closure_caches_only(self):
        cs = ControlStream()
        trunk = cs.append(rec("trunk", outs=["t@1"]), INITIAL_POINT)
        side = cs.append(rec("side", outs=["s@1"]), trunk)
        mid = cs.append(rec("mid", outs=["m@1"]), trunk)
        below = cs.append(rec("below", outs=["x@1"]), mid)
        scope = DataScope(cs, cache_stride=1)
        scope.thread_state(below)
        scope.thread_state(side)
        cs.splice_out(mid)
        assert cs.node(below).cached_scope is None
        assert cs.node(side).cached_scope is not None   # untouched branch
        assert "m@1" not in scope.thread_state(below)


class TestMoveCursorValidateFirst:
    """Regression: a failed erase raised ThreadError but left the cursor
    moved and metrics/trace/access times already mutated."""

    def _branched(self, system):
        t = system.create_thread("T")
        p1 = t.commit_record(make_rec(system, "a", outs=["a@1"]))
        p2 = t.commit_record(make_rec(system, "b", outs=["b@1"]))
        t.move_cursor(p1)
        p3 = t.commit_record(make_rec(system, "c", outs=["c@1"]))
        return t, p1, p2, p3

    def test_failed_erase_leaves_state_untouched(self, system):
        t, p1, p2, p3 = self._branched(system)
        assert t.current_cursor == p3
        moves = METRICS.value("thread.cursor_moves")
        access_before = dict(t.point_access)
        system.clock.advance(100)
        with pytest.raises(ThreadError):
            t.move_cursor(p2, erase=True)    # p2 is on a sibling branch
        assert t.current_cursor == p3
        assert t.point_access == access_before
        assert METRICS.value("thread.cursor_moves") == moves

    def test_successful_erase_still_works(self, system):
        t, p1, p2, p3 = self._branched(system)
        t.move_cursor(p1, erase=True)
        assert t.current_cursor == p1
        assert p3 not in t.stream
        assert system.db.is_deleted("c@1")


class TestPointAccessPruning:
    """Regression: erase/reclamation never pruned point_access, so the
    dead-end-branch GC input grew unboundedly with stale point ids."""

    def test_erase_prunes_point_access(self, system):
        t = system.create_thread("T")
        p1 = t.commit_record(make_rec(system, "a", outs=["a@1"]))
        p2 = t.commit_record(make_rec(system, "b", outs=["b@1"]))
        p3 = t.commit_record(make_rec(system, "c", outs=["c@1"]))
        assert {p2, p3} <= set(t.point_access)
        t.move_cursor(p1, erase=True)
        assert p2 not in t.point_access and p3 not in t.point_access
        assert set(t.point_access) <= set(t.stream.points())

    def test_dead_branch_gc_prunes_point_access(self, system):
        from repro.activity.reclamation import Reclaimer

        t = system.create_thread("T")
        p1 = t.commit_record(make_rec(system, "a", outs=["a@1"]))
        t.move_cursor(INITIAL_POINT)
        p2 = t.commit_record(make_rec(system, "dead", outs=["d@1"]))
        t.move_cursor(p1)
        system.clock.advance(10_000)
        t.point_access[p1] = system.clock.now   # keep the live branch fresh
        Reclaimer(t).prune_dead_branches(idle_for=5000)
        assert p2 not in t.stream
        assert p2 not in t.point_access

    def test_horizontal_aging_prunes_point_access(self, system):
        from repro.activity.reclamation import Reclaimer

        t = system.create_thread("T")
        old = [t.commit_record(make_rec(system, f"t{i}", outs=[f"o{i}@1"]))
               for i in range(4)]
        system.clock.advance(100_000)
        fresh = t.commit_record(make_rec(system, "fresh", outs=["f@1"]))
        Reclaimer(t).horizontal_aging(older_than=50_000)
        for p in old:
            assert p not in t.stream
            assert p not in t.point_access
        assert fresh in t.point_access


class TestVersionZeroResolution:
    """Regression: resolve() used ``version or 0``, conflating an explicit
    version 0 with "unversioned" for checked-in extras."""

    def test_version_zero_extra_is_resolvable(self, system):
        t = system.create_thread("T")
        t.extra_objects.add("ext@0")
        assert t.resolve("ext@0").version == 0
        assert t.resolve("ext").version == 0     # latest (only) version
        assert t.is_visible("ext@0")

    def test_version_zero_loses_to_higher_versions(self, system):
        t = system.create_thread("T")
        t.extra_objects.add("x@0")
        t.commit_record(make_rec(system, "a", outs=["x@1"]))
        assert t.resolve("x").version == 1
        assert t.resolve("x@0").version == 0

    def test_unversioned_extra_does_not_fabricate_version_zero(self, system):
        t = system.create_thread("T")
        t.extra_objects.add("ghost")             # names no version at all
        with pytest.raises(ObjectNotFound):
            t.resolve("ghost")
        with pytest.raises(ObjectNotFound):
            t.resolve("ghost@0")


class TestMutatorCacheConsistency:
    """Property: after any sequence of append/append_spliced/splice_out/
    replace_region/remove_points, cached and uncached thread states agree
    for every surviving point — the invariant the fixed bugs broke."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 10 ** 6)),
            min_size=1, max_size=24,
        ),
        st.integers(0, 4),
    )
    def test_cached_equals_uncached_after_any_mutation(self, ops, stride):
        cs = ControlStream()
        db = DesignDatabase()
        scope = DataScope(cs, db, cache_stride=stride)
        counter = itertools.count()

        def fresh_rec():
            i = next(counter)
            db.put(f"o{i}", i)
            return rec(f"t{i}", outs=[f"o{i}@1"])

        for code, pick in ops:
            points = cs.points()
            if code == 0:
                cs.append(fresh_rec(), points[pick % len(points)])
            elif code == 1:
                cs.append_spliced(fresh_rec(), points[pick % len(points)])
            elif code == 2:
                eligible = [
                    p for p in points
                    if p != INITIAL_POINT
                    and cs.node(p).record is not None
                    and len(cs.node(p).parents) == 1
                ]
                if eligible:
                    cs.splice_out(eligible[pick % len(eligible)])
                else:
                    cs.append(fresh_rec(), INITIAL_POINT)
            elif code == 3:
                frontier = [p for p in cs.frontier() if p != INITIAL_POINT]
                if frontier:
                    cs.remove_points({frontier[pick % len(frontier)]})
                else:
                    cs.append(fresh_rec(), INITIAL_POINT)
            elif code == 4:
                region: set[int] = set()
                for p in sorted(cs.points()):
                    if p == INITIAL_POINT or cs.node(p).record is None:
                        continue
                    if all(q in region or q == INITIAL_POINT
                           for q in cs.node(p).parents):
                        region.add(p)
                if region:
                    cs.replace_region(region, fresh_rec())
                else:
                    cs.append(fresh_rec(), INITIAL_POINT)
            # The invariant, checked with warm caches carried across
            # mutations (this is exactly what the stale-cache bugs broke).
            for p in cs.points():
                expected = scope.thread_state(p, use_cache=False)
                assert scope.thread_state(p, use_cache=True) == expected
                newest = _newest_versions(expected)
                for base in db.bases():
                    if base in newest:
                        assert scope.resolve(p, base).version == newest[base]
                    else:
                        with pytest.raises(ObjectNotFound):
                            scope.resolve(p, base)
