"""Tests for design threads, rework, thread operators, and SDS."""

from __future__ import annotations

import pytest

from repro.cad import default_registry
from repro.clock import VirtualClock
from repro.core import HistoryRecord, LWTSystem
from repro.core.control_stream import INITIAL_POINT
from repro.core.sds import attr_improved
from repro.core.thread_ops import cascade, fork, join
from repro.errors import ObjectNotFound, SdsError, ThreadError
from repro.octdb import DesignDatabase
from repro.taskmgr import TaskManager
from repro.workloads import standard_library


@pytest.fixture
def system():
    return LWTSystem(clock=VirtualClock())


def make_rec(system, task, ins=(), outs=()):
    """Build a history record, creating its output objects in the database."""
    for out in outs:
        base, _, ver = out.partition("@")
        while system.db.latest_version(base) < int(ver or 1):
            system.db.put(base, f"payload:{base}")
    return HistoryRecord(task=task, inputs=tuple(ins), outputs=tuple(outs),
                         steps=())


class TestThreadBasics:
    def test_commit_advances_cursor(self, system):
        t = system.create_thread("T")
        p1 = t.commit_record(make_rec(system, "a", outs=["x@1"]))
        assert t.current_cursor == p1
        p2 = t.commit_record(make_rec(system, "b", ins=["x@1"], outs=["y@1"]))
        assert t.current_cursor == p2

    def test_duplicate_thread_name(self, system):
        system.create_thread("T")
        with pytest.raises(ThreadError):
            system.create_thread("T")

    def test_resolve_latest_and_pinned(self, system):
        t = system.create_thread("T")
        t.commit_record(make_rec(system, "a", outs=["x@1"]))
        t.commit_record(make_rec(system, "b", ins=["x@1"], outs=["x@2"]))
        assert t.resolve("x").version == 2
        assert t.resolve("x@1").version == 1
        with pytest.raises(ObjectNotFound):
            t.resolve("x@5")

    def test_checked_in_objects_visible(self, system):
        t = system.create_thread("T")
        system.db.put("/lib/adder", "external payload")
        t.check_in("/lib/adder@1")
        assert t.is_visible("/lib/adder")
        assert t.resolve("/lib/adder").version == 1

    def test_annotation_and_time_access(self, system):
        t = system.create_thread("T")
        p1 = t.commit_record(make_rec(system, "a", outs=["x@1"]))
        system.clock.advance(3600)
        p2 = t.commit_record(make_rec(system, "b", outs=["y@1"]))
        t.annotate(p2, "The Start of PLA Approach")
        assert t.find_annotation("The Start of PLA Approach") == p2
        assert t.find_time(1800.0) == p2
        assert t.find_time(0.0) == p1


class TestOneClock:
    def test_installation_reads_its_database_clock(self):
        """Threads, SDSs, history and a task manager given no clock all read
        the clock of the database they work on."""
        c = VirtualClock()
        c.advance_to(42.0)
        system = LWTSystem(db=DesignDatabase(clock=c))
        assert system.clock is c
        thread = system.create_thread("T")
        assert thread.clock is c
        assert system.create_sds("S").clock is c
        point = thread.commit_record(make_rec(system, "a", outs=["x@1"]))
        assert thread.stream.record(point).recorded_at == 42.0
        assert fork(thread, "F").clock is c
        tm = TaskManager(system.db, default_registry(), standard_library())
        assert tm.clock is c and tm.cluster.clock is c

    def test_installation_refuses_a_second_clock(self):
        c = VirtualClock()
        with pytest.raises(ValueError):
            LWTSystem(db=DesignDatabase(clock=c), clock=VirtualClock())
        assert LWTSystem(db=DesignDatabase(clock=c), clock=c).clock is c


class TestRework:
    def _shifter(self, system):
        """The Fig 3.7 scenario: standard-cell branch then a PLA branch."""
        t = system.create_thread("Shifter-synthesis")
        p = {}
        p[1] = t.commit_record(make_rec(system, "create-logic", outs=["logic@1"]))
        p[2] = t.commit_record(
            make_rec(system, "simulate", ins=["logic@1"], outs=["sim@1"]))
        p[3] = t.commit_record(
            make_rec(system, "std-cell-pr", ins=["logic@1"], outs=["sc@1"]))
        p[4] = t.commit_record(
            make_rec(system, "place-pads", ins=["sc@1"], outs=["sc.pad@1"]))
        t.move_cursor(p[2])
        p[5] = t.commit_record(
            make_rec(system, "pla-gen", ins=["logic@1"], outs=["pla@1"]))
        p[6] = t.commit_record(
            make_rec(system, "place-pads", ins=["pla@1"], outs=["pla.pad@1"]))
        return t, p

    def test_branches_and_frontier(self, system):
        t, p = self._shifter(system)
        assert set(t.stream.frontier()) == {p[4], p[6]}
        assert t.current_cursor == p[6]

    def test_branch_isolation(self, system):
        t, p = self._shifter(system)
        assert t.is_visible("pla.pad") and not t.is_visible("sc.pad")
        t.move_cursor(p[4])
        assert t.is_visible("sc.pad") and not t.is_visible("pla")

    def test_shared_prefix_visible_in_both(self, system):
        t, p = self._shifter(system)
        for point in (p[4], p[6]):
            t.move_cursor(point)
            assert t.is_visible("logic")
            assert t.is_visible("sim")

    def test_workspace_is_union_of_frontiers(self, system):
        t, p = self._shifter(system)
        ws = t.workspace()
        assert {"sc.pad@1", "pla.pad@1", "logic@1"} <= set(ws)

    def test_move_to_unknown_point(self, system):
        t, _ = self._shifter(system)
        with pytest.raises(ThreadError):
            t.move_cursor(999)

    def test_erase_on_rework_deletes_objects(self, system):
        t, p = self._shifter(system)
        t.move_cursor(p[4])           # onto the standard-cell branch
        t.move_cursor(p[2], erase=True)
        assert p[3] not in t.stream and p[4] not in t.stream
        assert system.db.is_deleted("sc@1")
        assert system.db.is_deleted("sc.pad@1")
        # the PLA branch survives
        assert p[6] in t.stream
        assert not system.db.is_deleted("pla.pad@1")

    def test_erase_requires_ancestor(self, system):
        t, p = self._shifter(system)
        t.move_cursor(p[4])
        with pytest.raises(ThreadError):
            t.move_cursor(p[6], erase=True)  # p6 is on a sibling branch

    def test_deleted_objects_can_be_undeleted_before_reclaim(self, system):
        t, p = self._shifter(system)
        t.move_cursor(p[4])
        t.move_cursor(p[2], erase=True)
        system.db.undelete("sc@1")
        assert system.db.get("sc@1").payload == "payload:sc"


class TestThreadOps:
    def _two_threads(self, system):
        a = system.create_thread("arith")
        a.commit_record(make_rec(system, "synth-a", outs=["arith.l@1"]))
        b = system.create_thread("shift")
        b.commit_record(make_rec(system, "synth-b", outs=["shift.l@1"]))
        return a, b

    def test_fork_none(self, system):
        a, _ = self._two_threads(system)
        child = fork(a, "child")
        assert not child.is_visible("arith.l")

    def test_fork_state_and_workspace(self, system):
        a, _ = self._two_threads(system)
        by_state = fork(a, "c1", inherit="state")
        assert by_state.is_visible("arith.l")
        by_ws = fork(a, "c2", inherit="workspace")
        assert by_ws.is_visible("arith.l")
        with pytest.raises(ThreadError):
            fork(a, "c3", inherit="telepathy")

    def test_fork_independence(self, system):
        a, _ = self._two_threads(system)
        child = fork(a, "child", inherit="workspace")
        child.commit_record(make_rec(system, "work", outs=["child.x@1"]))
        assert not a.is_visible("child.x")

    def test_join_at_end_unions_both(self, system):
        a, b = self._two_threads(system)
        alu = join(a, b, "ALU")
        assert alu.is_visible("arith.l") and alu.is_visible("shift.l")
        # the junction is the cursor; new work extends from it
        p = alu.commit_record(
            make_rec(system, "integrate", ins=["arith.l@1", "shift.l@1"],
                     outs=["alu.l@1"]))
        assert alu.current_cursor == p
        assert alu.is_visible("alu.l")

    def test_join_leaves_originals_independent(self, system):
        a, b = self._two_threads(system)
        alu = join(a, b, "ALU")
        a.commit_record(make_rec(system, "more", outs=["arith.l@2"]))
        assert not alu.is_visible("arith.l@2")
        alu.commit_record(make_rec(system, "integrate", outs=["alu.x@1"]))
        assert not a.is_visible("alu.x")

    def test_join_at_head(self, system):
        a, b = self._two_threads(system)
        merged = join(a, b, "M", at_end=False)
        assert merged.current_cursor == INITIAL_POINT
        assert len(merged.stream.frontier()) == 2

    def test_join_connector_must_be_frontier(self, system):
        a, b = self._two_threads(system)
        a.commit_record(make_rec(system, "extra", outs=["e@1"]))
        non_frontier = 1  # first record now has a child
        with pytest.raises(ThreadError):
            join(a, b, "J", connector_first=non_frontier)

    def test_join_ambiguous_frontier_needs_connector(self, system):
        a, b = self._two_threads(system)
        p1 = a.current_cursor
        a.move_cursor(INITIAL_POINT)
        a.commit_record(make_rec(system, "branch", outs=["b2@1"]))
        with pytest.raises(ThreadError):
            join(a, b, "J")  # a has two frontiers
        merged = join(a, b, "J", connector_first=p1)
        assert merged.is_visible("arith.l")

    def test_cascade(self, system):
        a, b = self._two_threads(system)
        merged = cascade(a, b, "casc")
        assert merged.is_visible("arith.l") and merged.is_visible("shift.l")
        # cascaded records form one path: single frontier
        assert len(merged.stream.frontier()) == 1

    def test_cascade_rollback_across_seam(self, system):
        # Fig 3.10's promise: the combined thread works as if built from
        # scratch — rolling back to a point of the leading thread works.
        a, b = self._two_threads(system)
        merged = cascade(a, b, "casc")
        merged.move_cursor(INITIAL_POINT)
        assert not merged.is_visible("arith.l")

    def test_different_databases_rejected(self, system):
        a, _ = self._two_threads(system)
        other = LWTSystem(clock=VirtualClock())
        c = other.create_thread("c")
        with pytest.raises(ThreadError):
            cascade(a, c, "x")
        with pytest.raises(ThreadError):
            join(a, c, "x")


class TestImports:
    def test_import_reflects_live(self, system):
        a = system.create_thread("a", owner="randy")
        b = system.create_thread("b", owner="john")
        a.import_thread(b)
        assert a.imported_workspace("b") == frozenset()
        b.commit_record(make_rec(system, "w", outs=["bobj@1"]))
        assert "bobj@1" in a.imported_workspace("b")

    def test_import_is_not_visibility(self, system):
        a = system.create_thread("a")
        b = system.create_thread("b")
        a.import_thread(b)
        b.commit_record(make_rec(system, "w", outs=["bobj@1"]))
        # monitoring is not data access: bobj is NOT in a's scope
        assert not a.is_visible("bobj")

    def test_self_import_rejected(self, system):
        a = system.create_thread("a")
        with pytest.raises(ThreadError):
            a.import_thread(a)

    def test_unknown_import(self, system):
        a = system.create_thread("a")
        with pytest.raises(ThreadError):
            a.imported_workspace("ghost")

    def test_import_of_a_dropped_thread(self, system):
        a = system.create_thread("a")
        loose = fork(system.create_thread("b"), "loose")
        a.import_thread(loose)
        assert a.imported_workspace("loose") == frozenset()
        del loose
        with pytest.raises(ThreadError):
            a.imported_workspace("loose")


class TestSds:
    def _setup(self, system):
        a = system.create_thread("a", owner="randy")
        b = system.create_thread("b", owner="mary")
        a.commit_record(make_rec(system, "w", outs=["cell@1"]))
        sds = system.create_sds("S", [a, b])
        return a, b, sds

    def test_contribute_then_retrieve(self, system):
        a, b, sds = self._setup(system)
        sds.contribute(a, "cell")
        assert not b.is_visible("cell")
        sds.retrieve(b, "cell")
        assert b.is_visible("cell")

    def test_unregistered_thread_rejected(self, system):
        a, b, sds = self._setup(system)
        c = system.create_thread("c")
        with pytest.raises(SdsError):
            sds.contribute(c, "cell")
        with pytest.raises(SdsError):
            sds.retrieve(c, "cell")

    def test_retrieve_missing_object(self, system):
        a, b, sds = self._setup(system)
        with pytest.raises(SdsError):
            sds.retrieve(b, "ghost")
        with pytest.raises(SdsError):
            sds.retrieve(b, "cell@3")

    def test_contribute_requires_visibility(self, system):
        a, b, sds = self._setup(system)
        with pytest.raises(ObjectNotFound):
            sds.contribute(b, "cell")  # b never saw it

    def test_notification_on_new_version(self, system):
        a, b, sds = self._setup(system)
        sds.contribute(a, "cell")
        sds.retrieve(b, "cell")
        a.commit_record(make_rec(system, "w2", ins=["cell@1"], outs=["cell@2"]))
        sds.contribute(a, "cell@2")
        assert len(b.notifications) == 1
        note = b.notifications[0]
        assert note.thread == "b"             # thread-addressed (§3.3.4.2)
        assert note.object_name == "cell@2"

    def test_notification_disabled(self, system):
        a, b, sds = self._setup(system)
        sds.contribute(a, "cell")
        sds.retrieve(b, "cell", notify=False)
        a.commit_record(make_rec(system, "w2", outs=["cell@2"]))
        sds.contribute(a, "cell@2")
        assert b.notifications == []

    def test_predicate_filters(self, system):
        a, b, sds = self._setup(system)
        system.db.put("delay", 10.0)
        a.commit_record(make_rec(system, "m", outs=["delay@1"]))
        sds.contribute(a, "delay")
        sds.retrieve(
            b, "delay",
            predicates=(attr_improved(lambda obj: float(obj.payload)),),
        )
        # slower version: suppressed
        system.db.put("delay", 12.0)
        a.commit_record(make_rec(system, "m2", outs=["delay@2"]))
        sds.contribute(a, "delay@2")
        assert b.notifications == []
        assert sds.notifications_suppressed == 1
        # faster version: delivered
        system.db.put("delay", 8.0)
        a.commit_record(make_rec(system, "m3", outs=["delay@3"]))
        sds.contribute(a, "delay@3")
        assert len(b.notifications) == 1

    def test_versions_of_ordering(self, system):
        a, b, sds = self._setup(system)
        sds.contribute(a, "cell")
        a.commit_record(make_rec(system, "w2", outs=["cell@2"]))
        sds.contribute(a, "cell@2")
        assert [n.version for n in sds.versions_of("cell")] == [1, 2]
        # unversioned retrieve takes the most recent
        got = sds.retrieve(b, "cell")
        assert got.version == 2

    def test_unregister_drops_flags(self, system):
        a, b, sds = self._setup(system)
        sds.contribute(a, "cell")
        sds.retrieve(b, "cell")
        sds.unregister(b)
        a.commit_record(make_rec(system, "w2", outs=["cell@2"]))
        sds.contribute(a, "cell@2")
        assert b.notifications == []

    def test_lwt_registry(self, system):
        a, b, sds = self._setup(system)
        assert system.sds("S") is sds
        with pytest.raises(SdsError):
            system.sds("nope")
        with pytest.raises(SdsError):
            system.create_sds("S")


class TestMoveOperation:
    """The thesis MOVE signature (§3.3.4.2) and active propagation."""

    def _setup(self, system):
        a = system.create_thread("prod", owner="randy")
        b = system.create_thread("cons", owner="mary")
        a.commit_record(make_rec(system, "w", outs=["cell@1"]))
        sds = system.create_sds("S", [a, b])
        return a, b, sds

    def test_move_thread_to_sds_and_back(self, system):
        from repro.core.sds import move

        a, b, sds = self._setup(system)
        published = move("cell", a, sds)
        assert str(published) == "cell@1"
        got = move("cell", sds, b)
        assert str(got) == "cell@1"
        assert b.is_visible("cell")

    def test_move_thread_to_thread_forbidden(self, system):
        from repro.core.sds import move

        a, b, sds = self._setup(system)
        with pytest.raises(SdsError):
            move("cell", a, b)

    def test_move_needs_thread_and_sds(self, system):
        from repro.core.sds import move

        a, b, sds = self._setup(system)
        with pytest.raises(SdsError):
            move("cell", sds, sds)

    def test_active_propagation(self, system):
        from repro.core.sds import move

        a, b, sds = self._setup(system)
        move("cell", a, sds)
        move("cell", sds, b, propagate=True)
        a.commit_record(make_rec(system, "w2", outs=["cell@2"]))
        move("cell@2", a, sds)
        # active propagation: the new version is already in b's workspace
        assert b.is_visible("cell@2")
        assert b.resolve("cell").version == 2
        # and the notification was still delivered
        assert len(b.notifications) == 1

    def test_passive_notification_does_not_propagate(self, system):
        from repro.core.sds import move

        a, b, sds = self._setup(system)
        move("cell", a, sds)
        move("cell", sds, b, propagate=False)
        a.commit_record(make_rec(system, "w2", outs=["cell@2"]))
        move("cell@2", a, sds)
        assert len(b.notifications) == 1
        assert not b.is_visible("cell@2")   # must retrieve explicitly

    def test_propagation_respects_predicates(self, system):
        from repro.core.sds import attr_improved, move

        a, b, sds = self._setup(system)
        system.db.put("metric", 10.0)
        a.commit_record(make_rec(system, "m", outs=["metric@1"]))
        move("metric", a, sds)
        move("metric", sds, b, propagate=True,
             predicates=(attr_improved(lambda o: float(o.payload)),))
        system.db.put("metric", 20.0)  # worse
        a.commit_record(make_rec(system, "m2", outs=["metric@2"]))
        move("metric@2", a, sds)
        assert not b.is_visible("metric@2")
        assert b.notifications == []
