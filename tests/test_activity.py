"""Tests for the activity manager: invocation paths, viewport, time access,
and reclamation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.activity import ActivityManager, Reclaimer, render_stream
from repro.activity.viewport import (
    GRID,
    EagerViewport,
    PanZoomOp,
    Viewport,
    apply_sequence,
    compress,
    grid_layout,
)
from repro.cad import default_registry
from repro.clock import VirtualClock
from repro.core import LWTSystem
from repro.core.control_stream import INITIAL_POINT
from repro.core.history import HistoryRecord
from repro.core.thread_ops import fork
from repro.sprite import Cluster
from repro.taskmgr import TaskManager
from repro.workloads import seed_designs, standard_library


def make_env():
    clk = VirtualClock()
    lwt = LWTSystem(clock=clk)
    seed = seed_designs(lwt.db)
    tm = TaskManager(
        lwt.db, default_registry(), standard_library(),
        cluster=Cluster.homogeneous(4, clock=clk),
        clock=clk,
    )
    thread = lwt.create_thread("T", owner="chiueh")
    return ActivityManager(thread, tm), lwt, seed, clk


@pytest.fixture
def env():
    return make_env()


def splice_scenario(am):
    """Fig 5.6: a task begun at ``p1`` completes after a rework to ``p1``
    grew a branch there, so its record is spliced above the branch."""
    p1 = am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                   {"Outcell": "a.logic"})
    slow = am.begin("Standard_Cell_PR", {"Incell": "a.logic"},
                    {"Outcell": "a.sc"})
    am.move_cursor(p1)
    branch = am.invoke("Logic_Simulator",
                       {"Incell": "a.logic", "Command": "musa.cmd"},
                       {"Report": "a.sim"})
    return p1, branch, am.complete(slow)


def shifter_scenario(am):
    """Fig 3.7: the shifter exploration with two branches."""
    p = {}
    p[1] = am.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                     {"Outcell": "sh.logic"})
    p[2] = am.invoke("Logic_Simulator",
                     {"Incell": "sh.logic", "Command": "musa.cmd"},
                     {"Report": "sh.sim"})
    p[3] = am.invoke("Standard_Cell_PR", {"Incell": "sh.logic"},
                     {"Outcell": "sh.sc"})
    p[4] = am.invoke("Padp", {"Incell": "sh.sc"}, {"Outcell": "sh.sc.pad"})
    am.move_cursor(p[2])
    p[5] = am.invoke("PLA_Generation", {"Incell": "sh.logic"},
                     {"Outcell": "sh.pla"},
                     annotation="The Start of PLA Approach")
    p[6] = am.invoke("Padp", {"Incell": "sh.pla"}, {"Outcell": "sh.pla.pad"})
    return p


class TestInvocation:
    def test_fig37_structure(self, env):
        am, lwt, seed, _ = env
        p = shifter_scenario(am)
        thread = am.thread
        assert set(thread.stream.frontier()) == {p[4], p[6]}
        assert thread.current_cursor == p[6]
        assert thread.is_visible("sh.pla.pad")
        assert not thread.is_visible("sh.sc.pad")

    def test_implicit_checkin_of_database_objects(self, env):
        am, lwt, seed, _ = env
        am.invoke("Padp", {"Incell": "adder.net"}, {"Outcell": "a.pad"})
        assert am.thread.is_visible("adder.net")

    def test_deferred_completion_uses_invocation_path(self, env):
        """Fig 5.6: a task completing after a rework lands on its own path."""
        am, lwt, seed, _ = env
        p1 = am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                       {"Outcell": "a.logic"})
        slow = am.begin("Standard_Cell_PR", {"Incell": "a.logic"},
                        {"Outcell": "a.sc"})
        # meanwhile the user reworks back and starts another branch
        am.move_cursor(INITIAL_POINT)
        branch = am.invoke("Create_Logic_Description", {"Spec": "mux.spec"},
                           {"Outcell": "m.logic"})
        point = am.complete(slow)
        # the record attached after p1, not after the new branch
        assert p1 in am.thread.stream.node(point).parents
        assert branch not in am.thread.stream.ancestors(point)

    def test_deferred_completion_splices_before_branch(self, env):
        """If the rework branched off the invocation path's tip, the late
        record is spliced before the branch (§5.3)."""
        am, lwt, seed, _ = env
        # an explicit rework to p1 starts a NEW path; the task invoked on it
        # becomes a branch below the slow invocation's path tip
        p1, branch, point = splice_scenario(am)
        # spliced: the late record sits between p1 and the branch record
        assert am.thread.stream.node(branch).parents == [point]
        assert am.thread.stream.node(point).parents == [p1]

    def test_same_cursor_invocations_chain_by_completion(self, env):
        """Two tasks begun from the same cursor form ONE path, ordered by
        completion time (§3.3.3) — not sibling branches."""
        am, lwt, seed, _ = env
        p1 = am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                       {"Outcell": "q.logic"})
        first = am.begin("Standard_Cell_PR", {"Incell": "q.logic"},
                         {"Outcell": "q.sc"})
        second = am.begin("Logic_Simulator",
                          {"Incell": "q.logic", "Command": "musa.cmd"},
                          {"Report": "q.sim"})
        pa = am.complete(second)     # completes first
        pb = am.complete(first)
        assert am.thread.stream.node(pa).parents == [p1]
        assert am.thread.stream.node(pb).parents == [pa]

    def test_serial_invocations_chain(self, env):
        am, lwt, seed, _ = env
        a = am.begin("Create_Logic_Description", {"Spec": "adder.spec"},
                     {"Outcell": "x.logic"})
        pa = am.complete(a)
        b = am.begin("Standard_Cell_PR", {"Incell": "x.logic"},
                     {"Outcell": "x.sc"})
        pb = am.complete(b)
        assert am.thread.stream.node(pb).parents == [pa]

    def test_filtered_tasks_leave_no_history(self, env):
        am, lwt, seed, _ = env
        am.filters.add("Logic_Simulator")
        am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                  {"Outcell": "f.logic"})
        before = len(am.thread.stream)
        result = am.invoke("Logic_Simulator",
                           {"Incell": "f.logic", "Command": "musa.cmd"},
                           {"Report": "f.sim"})
        assert result is None
        assert len(am.thread.stream) == before
        assert am.records_discarded == 1
        # ...but the task itself did run: its outputs exist
        assert lwt.db.exists("f.sim")

    def test_show_data_scope_and_workspace(self, env):
        am, lwt, seed, _ = env
        p = shifter_scenario(am)
        scope = am.show_data_scope()
        assert any("sh.pla.pad" in n for n in scope)
        assert not any("sh.sc.pad" in n for n in scope)
        ws = am.show_thread_workspace()
        assert any("sh.sc.pad" in n for n in ws)


def hour_records(am, clk, times):
    """Commit one bare record at each virtual time, in a chain."""
    points = []
    for at in times:
        clk.advance(at - clk.now)
        points.append(am.commit(HistoryRecord(
            task="t", inputs=(), outputs=(), steps=())))
    return points


class TestAccess:
    def test_hour_index_lookup(self, env):
        am, lwt, seed, clk = env
        p1, p2, _ = hour_records(am, clk, [100.0, 3700.0, 3800.0])
        assert am.go_to_time(0.0) == p1
        assert am.go_to_time(3650.0) == p2  # first record within hour 1
        assert am.go_to_time(7300.0) is None  # nothing at/after hour 2
        assert am.thread.current_cursor == p2

    def test_hour_index_next_closest(self, env):
        am, lwt, seed, clk = env
        (point,) = hour_records(am, clk, [2 * 3600.0 + 10])
        # empty hour 1 -> next closest after
        assert am.go_to_time(3600.0) == point

    def test_go_to_time_after_iteration_abstraction(self, env):
        am, lwt, seed, clk = env
        rounds = [am.invoke("Create_Logic_Description",
                            {"Spec": "adder.spec"}, {"Outcell": "g.logic"})
                  for _ in range(3)]
        Reclaimer(am.thread).abstract_iterations(rounds)
        assert am.go_to_time(0.0) == rounds[-1]

    def test_go_to_time_after_erasing_a_sibling(self, env):
        am, lwt, seed, clk = env
        first = am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                          {"Outcell": "s.logic"})
        am.move_cursor(INITIAL_POINT)
        second = am.invoke("Create_Logic_Description",
                           {"Spec": "adder.spec"}, {"Outcell": "t.logic"})
        assert all(am.thread.stream.record(p).recorded_at < 3600
                   for p in (first, second))
        am.move_cursor(first)
        am.move_cursor(INITIAL_POINT, erase=True)
        assert am.go_to_time(0.0) == second

    def test_go_to_time_and_annotation(self, env):
        am, lwt, seed, clk = env
        p1 = am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                       {"Outcell": "t.logic"})
        clk.advance(3600)
        p2 = am.invoke("Standard_Cell_PR", {"Incell": "t.logic"},
                       {"Outcell": "t.sc"}, annotation="layout done")
        assert am.go_to_time(3600.0) == p2
        assert am.thread.current_cursor == p2
        assert am.go_to_annotation("layout done") == p2
        assert am.go_to_annotation("never") is None


class TestViewport:
    def test_thesis_worked_example(self):
        ops = [PanZoomOp.pan(50, 0), PanZoomOp.zoom(2), PanZoomOp.zoom(2),
               PanZoomOp.pan(100, 0), PanZoomOp.zoom(0.5),
               PanZoomOp.pan(-20, 0), PanZoomOp.pan(0, 50)]
        translation, magnification = compress(ops)
        assert translation == (65.0, 25.0)
        assert magnification == 2.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.one_of(
            st.builds(PanZoomOp.pan,
                      st.floats(-100, 100, allow_nan=False),
                      st.floats(-100, 100, allow_nan=False)),
            st.builds(PanZoomOp.zoom, st.floats(0.1, 8.0, allow_nan=False)),
        ),
        max_size=12,
    ), st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
    def test_compression_equals_sequence(self, ops, point):
        """(p + T) * M  ==  op_n(...op_1(p))  for arbitrary sequences."""
        translation, magnification = compress(ops)
        expected = apply_sequence(ops, point)
        got = ((point[0] + translation[0]) * magnification,
               (point[1] + translation[1]) * magnification)
        assert got[0] == pytest.approx(expected[0], rel=1e-9, abs=1e-6)
        assert got[1] == pytest.approx(expected[1], rel=1e-9, abs=1e-6)

    def test_lazy_cheaper_than_eager(self):
        lazy, eager = Viewport(), EagerViewport()
        for vp in (lazy, eager):
            for i in range(50):
                vp.add_item(i, (float(i), 0.0))
        for vp in (lazy, eager):
            vp.updates = 0
            for _ in range(30):
                vp.pan(10, 0)
                vp.zoom(1.1)
                vp.pan(-5, 5)
        lazy.add_item(99, (0.0, 0.0))
        eager.add_item(99, (0.0, 0.0))
        assert lazy.updates < eager.updates

    def test_lazy_and_eager_agree(self):
        lazy, eager = Viewport(), EagerViewport()
        for vp in (lazy, eager):
            vp.add_item(1, (10.0, 20.0))
            vp.pan(5, -3)
            vp.zoom(2)
            vp.pan(1, 1)
        lx, ly = lazy.coords(1)
        ex, ey = eager.coords(1)
        assert lx == pytest.approx(ex) and ly == pytest.approx(ey)

    def test_bad_zoom_rejected(self):
        with pytest.raises(ValueError):
            PanZoomOp.zoom(0)

    def test_grid_layout_unique_cells(self):
        # The splice scenario's spliced record is numbered after the
        # branch below it: levels must not follow point numbers.
        for scenario in (shifter_scenario, splice_scenario):
            am = make_env()[0]
            scenario(am)
            layout = grid_layout(am.thread.stream)
            assert len(set(layout.values())) == len(layout)
            # levels increase along parent chains
            stream = am.thread.stream
            for point in stream.points():
                for child in stream.node(point).children:
                    assert layout[child][0] > layout[point][0]

    def test_grid_layout_fig37_golden(self, env):
        """The splice-free layout is unchanged, and the viewport's cells,
        placed one commit at a time, agree with it."""
        am, lwt, seed, _ = env
        shifter_scenario(am)
        golden = {0: (0, 0), 1: (16, 0), 2: (32, 0), 3: (48, 0),
                  4: (64, 0), 5: (48, 16), 6: (64, 16)}
        assert grid_layout(am.thread.stream) == golden
        assert am.viewport._items == {p: c for p, c in golden.items()
                                      if p != INITIAL_POINT}

    def test_viewport_cells_unique_after_rework(self, env):
        """Regression: a new record was placed by the current full layout
        while older items kept their cells, so ``e`` and ``d`` shared
        (32, 16)."""
        am, lwt, seed, _ = env

        def run(name):
            return am.invoke("Padp", {"Incell": "adder.net"},
                             {"Outcell": f"{name}.pad"})

        a = run("a")
        run("b")
        am.move_cursor(INITIAL_POINT)
        run("c")
        run("e")
        am.move_cursor(a)
        run("d")
        cells = am.viewport._items
        assert len(set(cells.values())) == len(cells) == 5
        stream = am.thread.stream
        for point, (x, _y) in cells.items():
            parent = stream.node(point).parents[0]
            parent_x = cells[parent][0] if parent in cells else 0
            assert x == parent_x + GRID

    def test_viewport_drops_points_reclamation_removed(self, env):
        am, lwt, seed, clk = env
        rounds = [am.invoke("Create_Logic_Description",
                            {"Spec": "adder.spec"}, {"Outcell": "v.logic"})
                  for _ in range(3)]
        Reclaimer(am.thread).abstract_iterations(rounds)
        assert set(am.viewport._items) == {rounds[-1]}
        assert set(am._placement.rows) == {rounds[-1]}

    def test_render_stream(self, env):
        am, lwt, seed, _ = env
        p = shifter_scenario(am)
        text = render_stream(am.thread.stream, cursor=am.thread.current_cursor)
        assert "PLA_Generation" in text
        assert "<= cursor" in text
        assert "The Start of PLA Approach" in text


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(("invoke", "rework", "splice", "erase")),
    st.integers(0, 1000)), max_size=10))
def test_viewport_cells_stay_unique(ops):
    """Property: over any mix of invokes, reworks, §5.3 splices and
    erase-on-rework, no two viewport items share a cell."""
    am = make_env()[0]
    stream = am.thread.stream

    def run(i):
        am.invoke("Padp", {"Incell": "adder.net"}, {"Outcell": f"o{i}.pad"})

    for i, (op, pick) in enumerate(ops):
        if op == "invoke":
            run(i)
        elif op == "rework":
            points = stream.points()
            am.move_cursor(points[pick % len(points)])
        elif op == "splice":
            cursor = am.thread.current_cursor
            slow = am.begin("Padp", {"Incell": "adder.net"},
                            {"Outcell": f"s{i}.pad"})
            am.move_cursor(cursor)
            run(i)
            am.complete(slow)
        else:
            above = stream.ancestors(am.thread.current_cursor)
            am.move_cursor(above[pick % len(above)], erase=True)
        cells = list(am.viewport._items.values())
        assert len(set(cells)) == len(cells)


class TestReclamation:
    def test_vertical_aging_abstracts_old_records(self, env):
        am, lwt, seed, clk = env
        am.invoke("Structure_Synthesis",
                  {"Incell": "adder.spec", "Musa_Command": "musa.cmd"},
                  {"Outcell": "v.lay", "Cell_Statistics": "v.st"})
        clk.advance(10 * 24 * 3600)
        am.invoke("Padp", {"Incell": "v.lay"}, {"Outcell": "v.pad"})
        reclaimer = Reclaimer(am.thread)
        report = reclaimer.vertical_aging(older_than=7 * 24 * 3600)
        assert report.records_abstracted == 1
        old = am.thread.stream.record(1)
        assert old.abstracted and old.steps == ()
        # the recent record keeps its steps
        assert am.thread.stream.record(2).steps

    def test_vertical_aging_respects_denial(self, env):
        am, lwt, seed, clk = env
        am.invoke("Padp", {"Incell": "adder.net"}, {"Outcell": "d.pad"})
        clk.advance(10 * 24 * 3600)
        reclaimer = Reclaimer(am.thread, approve=lambda text: False)
        report = reclaimer.vertical_aging(older_than=1.0)
        assert report.denied == 1
        assert report.records_abstracted == 0

    def test_horizontal_aging_collapses_prefix(self, env):
        am, lwt, seed, clk = env
        p1 = am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                       {"Outcell": "h.logic"})
        p2 = am.invoke("Standard_Cell_PR", {"Incell": "h.logic"},
                       {"Outcell": "h.sc"})
        clk.advance(40 * 24 * 3600)
        p3 = am.invoke("Padp", {"Incell": "h.sc"}, {"Outcell": "h.pad"})
        reclaimer = Reclaimer(am.thread)
        report = reclaimer.horizontal_aging(older_than=30 * 24 * 3600)
        assert report.records_pruned == 2
        stream = am.thread.stream
        assert p1 not in stream and p2 not in stream
        # the archive mark preserves what p3 still reads
        archive = [r for r in stream.records() if r.task == "*"]
        assert len(archive) == 1
        assert "h.sc@1" in archive[0].outputs
        # data scope at the frontier is still consistent
        assert am.thread.is_visible("h.pad")
        assert am.thread.is_visible("h.sc")
        # h.logic fed nothing retained: reclaimed
        assert "h.logic@1" in report.objects_deleted

    def test_iteration_abstraction(self, env):
        am, lwt, seed, clk = env
        am.invoke("Create_Logic_Description", {"Spec": "parity.spec"},
                  {"Outcell": "i.logic"})
        points = []
        last = "i.logic"
        for round_no in range(4):
            out = f"i.round{round_no}"
            points.append(am.invoke("Standard_Cell_PR", {"Incell": "i.logic"},
                                    {"Outcell": out}))
            last = out
        final = am.invoke("Padp", {"Incell": last}, {"Outcell": "i.final"})
        reclaimer = Reclaimer(am.thread)
        chains = reclaimer.find_iterations(min_rounds=3)
        assert points in chains
        report = reclaimer.abstract_iterations(points)
        # only the round feeding Padp survives
        assert report.records_pruned == 3
        assert points[-1] in am.thread.stream
        for point in points[:-1]:
            assert point not in am.thread.stream
        assert am.thread.is_visible("i.final")
        assert "i.round0@1" in report.objects_deleted

    def test_iteration_abstraction_spares_versions_a_fork_holds(self, env):
        am, lwt, seed, clk = env
        rounds = [am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                            {"Outcell": "p.logic"}) for _ in range(3)]
        child = lwt.adopt_thread(fork(am.thread, "F", inherit="state"))
        assert {"p.logic@1", "p.logic@2"} <= child.workspace()
        report = Reclaimer(am.thread).abstract_iterations(rounds)
        assert report.records_pruned == 2
        lwt.db.reclaim(grace_seconds=0)
        assert all(lwt.db.exists(name) for name in child.workspace())
        assert lwt.db.get(child.resolve("p.logic@1")).payload is not None

    def test_erase_on_rework_frees_the_erased_outputs(self, env):
        am, lwt, seed, clk = env
        am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                  {"Outcell": "p.logic"})
        am.move_cursor(INITIAL_POINT, erase=True)
        clk.advance(60 * 24 * 3600)
        Reclaimer(am.thread).sweep(reclaim_grace=0)
        lwt.db.reclaim(grace_seconds=0)
        assert not lwt.db.exists("p.logic@1")

    def test_erase_on_rework_spares_versions_a_fork_holds(self, env):
        am, lwt, seed, clk = env
        am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                  {"Outcell": "p.logic"})
        child = lwt.adopt_thread(fork(am.thread, "F", inherit="state"))
        am.move_cursor(INITIAL_POINT, erase=True)
        assert str(child.resolve("p.logic")) == "p.logic@1"
        assert not lwt.db.is_deleted("p.logic@1")
        lwt.db.reclaim(grace_seconds=0)
        assert lwt.db.get("p.logic@1").payload is not None

    def test_erase_on_rework_spares_versions_an_sds_holds(self, env):
        am, lwt, seed, clk = env
        am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                  {"Outcell": "q.logic"})
        other = lwt.create_thread("U", owner="u")
        space = lwt.create_sds("S", [am.thread, other])
        space.contribute(am.thread, "q.logic")
        am.move_cursor(INITIAL_POINT, erase=True)
        lwt.db.reclaim(grace_seconds=0)
        assert not lwt.db.is_deleted(space.retrieve(other, "q.logic"))

    def test_dead_branch_pruning(self, env):
        am, lwt, seed, clk = env
        p1 = am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                       {"Outcell": "b.logic"})
        p2 = am.invoke("Standard_Cell_PR", {"Incell": "b.logic"},
                       {"Outcell": "b.sc"})
        am.move_cursor(p1)
        clk.advance(30 * 24 * 3600)
        p3 = am.invoke("PLA_Generation", {"Incell": "b.logic"},
                       {"Outcell": "b.pla"})
        reclaimer = Reclaimer(am.thread)
        report = reclaimer.prune_dead_branches(idle_for=14 * 24 * 3600)
        assert report.records_pruned == 1
        assert p2 not in am.thread.stream
        assert p3 in am.thread.stream     # active branch survives
        assert lwt.db.is_deleted("b.sc@1")

    def test_dead_branch_never_prunes_cursor(self, env):
        am, lwt, seed, clk = env
        p1 = am.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                       {"Outcell": "c.logic"})
        clk.advance(30 * 24 * 3600)
        reclaimer = Reclaimer(am.thread)
        report = reclaimer.prune_dead_branches(idle_for=1.0)
        assert report.records_pruned == 0
        assert p1 in am.thread.stream

    def test_sweep_combines_passes(self, env):
        am, lwt, seed, clk = env
        am.invoke("Structure_Synthesis",
                  {"Incell": "adder.spec", "Musa_Command": "musa.cmd"},
                  {"Outcell": "s.lay", "Cell_Statistics": "s.st"})
        clk.advance(60 * 24 * 3600)
        am.invoke("Padp", {"Incell": "s.lay"}, {"Outcell": "s.pad"})
        reclaimer = Reclaimer(am.thread)
        report = reclaimer.sweep()
        assert report.records_abstracted + report.records_pruned >= 1
