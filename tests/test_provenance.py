"""Tests for the provenance graph, lineage queries, and the audit journal."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Papyrus, obs
from repro.activity.persistence import (PersistentSession, load_system,
                                        save_system)
from repro.activity.reclamation import Reclaimer
from repro.clock import VirtualClock
from repro.core.control_stream import INITIAL_POINT
from repro.core.history import HistoryRecord
from repro.core.lwt import LWTSystem
from repro.core.thread import DesignThread
from repro.core.thread_ops import cascade, fork, join
from repro.obs.audit import AuditJournal
from repro.obs.provenance import (ProvenanceGraph, check_lineage,
                                  render_blame, render_impact, render_why)
from repro.octdb import DesignDatabase


def _flow(designer) -> list[int]:
    """A small spec → logic → {simulation, PLA} exploration."""
    points = [designer.invoke("Create_Logic_Description",
                              {"Spec": "shifter.spec"},
                              {"Outcell": "sh.logic"})]
    points.append(designer.invoke("Logic_Simulator",
                                  {"Incell": "sh.logic",
                                   "Command": "musa.cmd"},
                                  {"Report": "sh.sim"}))
    points.append(designer.invoke("PLA_Generation", {"Incell": "sh.logic"},
                                  {"Outcell": "sh.pla"}))
    return points


@pytest.fixture
def replayed():
    """Cold run plus an unchanged replay: the replay's outputs are memo
    aliases of the cold run's, so the graph carries reuse attribution."""
    papyrus = Papyrus.standard(hosts=2)
    designer = papyrus.open_thread("work", owner="chiueh")
    _flow(designer)
    designer.move_cursor(INITIAL_POINT)
    _flow(designer)
    for manager in papyrus.activities.values():
        papyrus.observe_history(manager)
    return papyrus, ProvenanceGraph.from_papyrus(papyrus)


class TestWhy:
    def test_chain_reaches_primary_sources(self, replayed):
        _, graph = replayed
        chain = graph.why("sh.sim@1")
        assert chain, "no derivation chain for sh.sim@1"
        sources = set(graph.primary_sources("sh.sim@1"))
        assert sources == {"musa.cmd@1", "shifter.spec@1"}
        # topological: every hop input is a primary source or was produced
        # by an earlier hop in the chain.
        produced: set[str] = set()
        for hop in chain:
            for name in hop.inputs:
                assert name in sources or name in produced, name
            produced.add(hop.output)
        assert chain[-1].output == "sh.sim@1"

    def test_reused_hops_attributed(self, replayed):
        _, graph = replayed
        chain = graph.why("sh.pla@2")
        reused = [h for h in chain if h.reused]
        assert reused, "replay chain shows no reused hops"
        for hop in reused:
            assert graph.alias_source(hop.output), \
                f"reused hop {hop.output} unattributed"
        assert graph.alias_source("sh.pla@2") == "sh.pla@1"

    def test_no_lineage_problems(self, replayed):
        papyrus, graph = replayed
        assert check_lineage(graph, "sh.pla@2") == []

    def test_render_why_deterministic(self, replayed):
        papyrus, graph = replayed
        again = ProvenanceGraph.from_papyrus(papyrus)
        assert render_why(graph, "sh.pla@2") == render_why(again, "sh.pla@2")


class TestBlameAndImpact:
    def test_blame_lists_every_version(self, replayed):
        _, graph = replayed
        rows = graph.blame("sh.pla")
        assert [name for name, _, _ in rows] == ["sh.pla@1", "sh.pla@2"]
        assert all(hop is not None for _, hop, _ in rows)
        text = render_blame(graph, "sh.pla")
        assert any("sh.pla@1" in line for line in text)

    def test_impact_matches_adg(self, replayed):
        papyrus, graph = replayed
        adg = papyrus.inference.adg
        assert graph.impact("shifter.spec@1", include_aliases=False) == \
            adg.affected_set("shifter.spec@1")
        assert any("affected version" in line
                   for line in render_impact(graph, "shifter.spec@1"))

    def test_memo_aliases_are_not_primary_sources(self, replayed):
        papyrus, graph = replayed
        adg = papyrus.inference.adg
        for source in graph.primary_sources("sh.pla@2"):
            assert graph.alias_source(source) is None
            assert adg.reuse_source(source) is None


class TestReuseLinksFollowHistory:
    """A memo alias link lives as long as the record that made it: once the
    history loses that record, the alias is no longer lineage (the store
    that joined every database alias kept it)."""

    def test_erased_replay_leaves_no_alias(self, replayed):
        papyrus, _ = replayed
        designer = papyrus.activities["work"]
        replay_tip = designer.thread.current_cursor
        designer.move_cursor(replay_tip)
        designer.move_cursor(INITIAL_POINT, erase=True)
        graph = ProvenanceGraph.from_papyrus(papyrus)
        assert "sh.pla@2" not in graph
        assert render_why(graph, "sh.pla@2")[1] == \
            "  unknown object (no lineage recorded)"
        assert not any("@2" in name for name in graph.impact("sh.logic@1"))
        assert graph.adg.reuse_links() == {}

    def test_spliced_rounds_leave_no_alias(self):
        papyrus = Papyrus.standard(hosts=2)
        designer = papyrus.open_thread("work", owner="chiueh")
        designer.invoke("Create_Logic_Description", {"Spec": "parity.spec"},
                        {"Outcell": "i.logic"})
        rounds = [designer.invoke("Standard_Cell_PR", {"Incell": "i.logic"},
                                  {"Outcell": f"i.round{n}"})
                  for n in range(4)]
        designer.invoke("Padp", {"Incell": "i.round3"},
                        {"Outcell": "i.final"})
        graph = ProvenanceGraph.from_papyrus(papyrus)
        assert graph.alias_source("i.round1@1") == "i.round0@1"
        Reclaimer(designer.thread).abstract_iterations(rounds)
        graph = ProvenanceGraph.from_papyrus(papyrus)
        for name in ("i.round0@1", "i.round1@1"):
            assert name not in graph
            assert graph.impact(name) == []
        # the kept round still aliases its spliced-out predecessor
        assert graph.alias_source("i.round3@1") == "i.round2@1"
        assert graph.impact("i.round2@1") == ["i.final@1", "i.round3@1"]


class TestPlacementAcrossThreads:
    def test_erase_keeps_lineage_another_thread_holds(self):
        """Cascade shares records; erasing one in the lead thread leaves the
        lineage placed in the merged thread that still holds it."""
        papyrus = Papyrus.standard(hosts=2)
        a = papyrus.open_thread("a", owner="x")
        p1 = a.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                      {"Outcell": "a.logic"})
        p2 = a.invoke("PLA_Generation", {"Incell": "a.logic"},
                      {"Outcell": "a.pla"})
        b = papyrus.open_thread("b", owner="y")
        b.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                 {"Outcell": "b.logic"})
        graph = ProvenanceGraph.from_papyrus(papyrus)
        assert graph.placement("a.pla@1")[:2] == ("a", p2)
        papyrus.lwt.adopt_thread(cascade(a.thread, b.thread, "merged"))
        a.move_cursor(p1, erase=True)
        graph = ProvenanceGraph.from_papyrus(papyrus)
        assert graph.placement("a.pla@1")[0] == "merged"
        assert graph.why("a.pla@1")[-1].output == "a.pla@1"
        papyrus.lwt.drop_thread("merged")
        graph = ProvenanceGraph.from_papyrus(papyrus)
        assert "a.pla@1" not in graph
        assert graph.impact("a.logic@1") == []


class TestExports:
    def test_dot_export(self, replayed):
        _, graph = replayed
        dot = graph.to_dot()
        assert dot.startswith("digraph")
        assert "sh.pla@2" in dot
        assert "reused" in dot   # dashed alias edges are labelled

    def test_jsonl_export_stable(self, replayed, tmp_path):
        _, graph = replayed
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        count = graph.export_jsonl(str(first))
        graph.export_jsonl(str(second))
        assert count > 0
        assert first.read_text() == second.read_text()
        kinds = {json.loads(line)["kind"]
                 for line in first.read_text().splitlines()}
        assert kinds <= {"hop", "alias", "commit"}

    def test_from_jsonl_matches_live(self, tmp_path):
        obs.TRACER.clear()
        papyrus = Papyrus.standard(hosts=2)
        obs.TRACER.enable(clock=papyrus.clock)
        try:
            designer = papyrus.open_thread("work", owner="chiueh")
            _flow(designer)
            designer.move_cursor(INITIAL_POINT)
            _flow(designer)
            path = tmp_path / "trace.jsonl"
            obs.TRACER.export_jsonl(str(path))
        finally:
            obs.TRACER.disable()
            obs.TRACER.clear()
        live = ProvenanceGraph.from_papyrus(papyrus)
        streamed = ProvenanceGraph.from_jsonl(str(path))
        assert render_why(streamed, "sh.pla@2") == \
            render_why(live, "sh.pla@2")
        assert streamed.impact("shifter.spec@1") == \
            live.impact("shifter.spec@1")


class TestAuditJournal:
    def test_thread_ops_audited(self):
        papyrus = Papyrus.standard(hosts=2)
        a = papyrus.open_thread("a", owner="x")
        a.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                 {"Outcell": "a.logic"})
        fork(a.thread, "a-child")
        b = papyrus.open_thread("b", owner="y")
        b.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                 {"Outcell": "b.logic"})
        cascade(a.thread, b.thread, "merged")
        join(a.thread, b.thread, "joined")
        assert [e.kind for e in papyrus.db.audit] == \
            ["fork", "cascade", "join"]

    def test_merged_thread_still_audits(self):
        """cascade/join replace the merged thread's stream object; the
        destructive hook must be rewired onto the replacement."""
        papyrus = Papyrus.standard(hosts=2)
        a = papyrus.open_thread("a", owner="x")
        a.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                 {"Outcell": "a.logic"})
        b = papyrus.open_thread("b", owner="y")
        b.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                 {"Outcell": "b.logic"})
        merged = cascade(a.thread, b.thread, "merged")
        tip = merged.stream.frontier()[0]
        merged.stream.remove_points({tip})
        erased = papyrus.db.audit.entries(kind="erase")
        assert len(erased) == 1 and erased[0].thread == "merged"

    def test_sds_moves_audited(self):
        papyrus = Papyrus.standard(hosts=2)
        a = papyrus.open_thread("a", owner="x")
        a.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                 {"Outcell": "a.logic"})
        b = papyrus.open_thread("b", owner="y")
        sds = papyrus.lwt.create_sds("X", [a.thread, b.thread])
        sds.contribute(a.thread, "a.logic")
        sds.retrieve(b.thread, "a.logic")
        moves = papyrus.db.audit.entries(kind="move")
        assert [m.details["direction"] for m in moves] == \
            ["contribute", "retrieve"]
        assert moves[0].details["sds"] == "X"

    def test_reclamation_audited_and_metered(self):
        papyrus = Papyrus.standard(hosts=2)
        designer = papyrus.open_thread("work", owner="chiueh")
        _flow(designer)
        swept_before = obs.METRICS.counter("reclaim.objects_swept").value
        papyrus.clock.advance(365 * 24 * 3600.0)
        report = Reclaimer(designer.thread).sweep(reclaim_grace=0.0)
        kinds = {e.kind for e in papyrus.db.audit}
        assert "reclaim" in kinds
        sweeps = papyrus.db.audit.entries(kind="reclaim")
        assert sweeps[-1].details["records_abstracted"] == \
            report.records_abstracted
        if report.objects_deleted:
            assert obs.METRICS.counter("reclaim.objects_swept").value > \
                swept_before

    def test_reclaim_churn_rule_shipped(self):
        from repro.obs.health import default_ruleset

        names = [rule.name for rule in default_ruleset()]
        assert "reclaim_churn" in names

    def test_record_without_a_time_stamps_the_installation_clock(self):
        lwt = LWTSystem(clock=VirtualClock())
        lwt.clock.advance(100)
        assert lwt.db.audit.record("reclaim", thread="t").at == 100.0

    def test_render_and_export_roundtrip(self, tmp_path):
        audit = AuditJournal(VirtualClock())
        audit.record("erase", thread="t", actor="u", reason="why not",
                     at=1.0, points=[3, 4])
        audit.record("move", thread="t", actor="u", at=2.0,
                     direction="contribute", sds="X", object="a@1")
        lines = audit.render()
        assert len(lines) == 2 and "erase" in lines[0]
        path = tmp_path / "audit.jsonl"
        assert audit.export_jsonl(str(path)) == 2
        dumped = [json.loads(line) for line in
                  path.read_text().splitlines()]
        saved = audit.to_dicts()
        restored = AuditJournal(VirtualClock())
        restored.restore(dumped)
        assert restored.to_dicts() == saved

    # Two installations in one process keep two trails: one's erase never
    # reaches the other's saves, and loading one never rewrites the other.

    def test_checkpoint_writes_only_its_own_trail(self, tmp_path):
        alice, work, first = _installation("alice")
        bob, _, _ = _installation("bob")
        work.move_cursor(first, erase=True)
        save_system(bob, tmp_path / "bob")
        doc = json.loads((tmp_path / "bob" / "history.json").read_text())
        assert doc["audit"] == []
        assert [e.kind for e in alice.db.audit] == ["erase"]

    def test_journal_save_carries_only_its_own_trail(self, tmp_path):
        _, work, first = _installation("alice")
        bob, bob_work, _ = _installation("bob")
        session = PersistentSession(bob, tmp_path / "bob")
        session.save()
        work.move_cursor(first, erase=True)
        bob_work.commit_record(_rec("route"))
        session.save()
        journal = (tmp_path / "bob" / "journal.jsonl").read_text()
        ops = [json.loads(line)["op"] for line in journal.splitlines()]
        assert "commit" in ops
        assert "audit" not in ops

    def test_loading_another_installation_keeps_this_trail(self, tmp_path):
        alice, work, first = _installation("alice")
        bob, _, _ = _installation("bob")
        save_system(bob, tmp_path / "bob")
        work.move_cursor(first, erase=True)
        trail = alice.db.audit.to_dicts()
        load_system(tmp_path / "bob", LWTSystem(clock=VirtualClock()))
        assert len(trail) == 1
        assert alice.db.audit.to_dicts() == trail


def _rec(task: str = "t") -> HistoryRecord:
    return HistoryRecord(task=task, inputs=(), outputs=(), steps=())


def _installation(owner: str) -> tuple[LWTSystem, DesignThread, int]:
    """An installation whose one thread holds two committed records;
    returns it, the thread and the first record's point."""
    lwt = LWTSystem(clock=VirtualClock())
    thread = lwt.create_thread("work", owner=owner)
    first = thread.commit_record(_rec("synth"))
    thread.commit_record(_rec("place"))
    return lwt, thread, first


class TestExactlyOnce:
    """Every destructive history mutation journals exactly once — no matter
    which code path triggers it."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["append", "erase", "splice",
                                     "collapse"]),
                    min_size=1, max_size=12))
    def test_random_mutation_sequence(self, ops):
        thread = DesignThread("w", db=DesignDatabase(), owner="x")
        stream = thread.stream
        tip = INITIAL_POINT

        def grow(n: int = 1) -> None:
            nonlocal tip
            for _ in range(n):
                tip = stream.append(_rec(), tip)

        grow(3)
        expected: list[str] = []
        for op in ops:
            if op == "append":
                grow()
                continue
            # keep a chain deep enough for interior surgery
            if len(stream.ancestors(tip)) < 4:
                grow(3)
            if op == "erase":
                doomed = tip
                tip = stream.node(doomed).parents[0]
                stream.remove_points({doomed})
                expected.append("erase")
            elif op == "splice":
                mid = stream.node(tip).parents[0]
                stream.splice_out(mid)
                expected.append("splice_out")
            elif op == "collapse":
                oldest = stream.node(INITIAL_POINT).children[0]
                if oldest == tip:
                    grow(2)
                summary = HistoryRecord(task="*", inputs=(), outputs=(),
                                        steps=())
                stream.replace_region({oldest}, summary)
                expected.append("replace_region")
        audit = thread.db.audit
        destructive = [e.kind for e in audit
                       if e.kind in ("erase", "splice_out",
                                     "replace_region")]
        assert destructive == expected
        assert len(audit) == len(expected)


_STEPS = {
    "logic": ("Create_Logic_Description", {"Spec": "shifter.spec"},
              {"Outcell": "p.logic"}),
    "pla": ("PLA_Generation", {"Incell": "p.logic"}, {"Outcell": "p.pla"}),
    "pad": ("Padp", {"Incell": "p.pla"}, {"Outcell": "p.pad"}),
}


class TestLineageNamesOnlyLiveVersions:
    """Whatever the history has been through, lineage never names a version
    the database no longer holds.

    ``reclaim`` runs one thread's background reclaimer, whose collection
    is database-wide: intermediates are tombstoned at task commit, so it
    also reclaims versions that other threads' records, not yet aged, still
    name in their step detail.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["logic", "pla", "pad", "rework", "erase", "fork",
                         "reclaim"]),
        st.integers(0, 63)), min_size=1, max_size=12))
    @example(ops=[("logic", 0)] * 3 + [("reclaim", 0)])
    @example(ops=[("fork", 0), ("logic", 1), ("reclaim", 0)])
    @example(ops=[("logic", 0), ("fork", 0), ("logic", 0), ("reclaim", 0),
                  ("pla", 1)])
    @example(ops=[("logic", 0), ("fork", 0), ("rework", 0), ("reclaim", 0),
                  ("pla", 1)])
    @example(ops=[("logic", 0), ("pla", 0), ("fork", 0), ("erase", 2)])
    def test_random_history(self, ops):
        from repro.activity.manager import ActivityManager

        papyrus = Papyrus.standard(hosts=2)
        managers = [papyrus.open_thread("t0", owner="x")]
        db = papyrus.db
        for index, (op, pick) in enumerate(ops):
            manager = managers[pick % len(managers)]
            thread = manager.thread
            if op in _STEPS:
                task, inputs, outputs = _STEPS[op]
                if all(thread.is_visible(name) or name.endswith(".spec")
                       for name in inputs.values()):
                    manager.invoke(task, inputs, outputs)
            elif op == "rework":
                points = thread.stream.points()
                manager.move_cursor(points[pick % len(points)])
            elif op == "erase":
                above = thread.stream.ancestors(thread.current_cursor)
                manager.move_cursor(above[pick % len(above)], erase=True)
            elif op == "fork":
                child = papyrus.lwt.adopt_thread(
                    fork(thread, f"f{index}", inherit="state"))
                managers.append(ActivityManager(child, papyrus.taskmgr))
            else:
                papyrus.clock.advance(60 * 24 * 3600.0)
                Reclaimer(thread).sweep(reclaim_grace=0.0)
            graph = ProvenanceGraph.from_papyrus(papyrus)
            adg = papyrus.inference.adg
            for name in graph.objects():
                named = set(graph.impact(name)) | set(adg.affected_set(name))
                for edge in graph.why(name):
                    named.add(edge.output)
                    named.update(edge.inputs)
                if graph.alias_source(name) is not None:
                    named.add(graph.alias_source(name))
                missing = sorted(n for n in named if not db.exists(n))
                assert not missing, (op, name, missing)
            # No thread can see a retired version, and no thread keeps a
            # cursor or an access time on a point that left its stream.
            for each in papyrus.lwt.threads.values():
                retired = sorted(n for n in each.workspace()
                                 if not db.exists(n) or db.is_deleted(n))
                assert not retired, (op, each.name, retired)
                assert each.current_cursor in each.stream
                assert set(each.point_access) <= set(each.stream.points())
