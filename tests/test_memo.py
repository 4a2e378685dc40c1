"""Tests for the derivation cache: history-based step memoization.

Covers the reuse contract end to end: rework hits, version/byte identity
with a cold re-execution, abort semantics (aborted work neither seeds the
cache nor survives a rollback), lineage sharing across forks, erase
invalidation via the scope-epoch contract, interactive-tool bypass, and
session restore.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.activity import ActivityManager
from repro.activity.persistence import load_system, save_system
from repro.cad import default_registry
from repro.clock import VirtualClock
from repro.core import LWTSystem
from repro.core.control_stream import INITIAL_POINT
from repro.core.memo import DerivationCache, canonical_options, fingerprint
from repro.core.thread_ops import fork
from repro.errors import TaskAborted
from repro.obs import METRICS
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


def counter(name: str) -> float:
    return METRICS.counter(name).value


def record_at(am: ActivityManager, point: int):
    return am.thread.stream.record(point)


# ----------------------------------------------------------------- reuse


class TestReuse:
    @staticmethod
    def _spy_fingerprints(monkeypatch) -> list[str]:
        """Record every version whose fingerprint is actually computed."""
        from repro.octdb.database import DesignDatabase

        computed: list[str] = []
        real = DesignDatabase.fingerprint

        def spy(db, name):
            before = counter("db.fingerprints")
            value = real(db, name)
            if counter("db.fingerprints") > before:
                computed.append(str(db.get(name).name))
            return value

        monkeypatch.setattr(DesignDatabase, "fingerprint", spy)
        return computed

    def test_replay_fingerprints_each_input_once(self, env, monkeypatch):
        """Each input version is fingerprinted at most once, ever: a version
        keeps its fingerprint, an alias inherits its source's, and the key
        computed at dispatch travels to the commit.  An immediate second
        replay hashes only what it had to execute again: the interactive
        ``edit`` step always runs, and its fresh output is the one new
        input version."""
        from tests.test_activity import shifter_scenario

        am, lwt, seed, _ = env
        computed = self._spy_fingerprints(monkeypatch)
        inputs: set[str] = set()
        for run in range(3):                 # cold, replay, replay again
            if run:
                am.move_cursor(INITIAL_POINT)
            start = len(computed)
            points = shifter_scenario(am)
            steps = [s for p in points.values()
                     for s in record_at(am, p).steps]
            inputs.update(name for s in steps for name in s.inputs)
            if run:
                assert sum(s.reused for s in steps) >= 0.8 * len(steps)
        executed = {name for s in steps if not s.reused for name in s.outputs}
        assert len(computed) == len(set(computed))      # at most once each
        assert set(computed) <= inputs
        assert computed[start:] and set(computed[start:]) <= executed

    def test_second_replay_fingerprints_nothing(self, env, monkeypatch):
        """A task whose every step is served from history fingerprints
        nothing when it is replayed again: its inputs were hashed the first
        time, and each reused output is an alias carrying its source's
        fingerprint."""
        am, lwt, seed, _ = env
        computed = self._spy_fingerprints(monkeypatch)
        for run in range(3):
            if run:
                am.move_cursor(INITIAL_POINT)
            start = len(computed)
            point = am.invoke("PLA_Generation", {"Incell": "decoder.net"},
                              {"Outcell": "dec.pla"})
            assert all(s.reused for s in record_at(am, point).steps) == \
                bool(run)
        assert computed and len(computed) == len(set(computed))
        assert computed[start:] == []

    def test_rework_reuses_unchanged_step(self, env):
        am, lwt, seed, _ = env
        p1 = am.invoke("Standard_Cell_PR", {"Incell": "shifter.net"},
                       {"Outcell": "sh.sc"})
        hits = counter("memo.hits")
        am.move_cursor(INITIAL_POINT)
        p2 = am.invoke("Standard_Cell_PR", {"Incell": "shifter.net"},
                       {"Outcell": "sh.sc"})
        rec = record_at(am, p2)
        assert all(s.reused for s in rec.steps)
        assert all(s.host == "(memo)" for s in rec.steps)
        assert counter("memo.hits") == hits + len(rec.steps)
        # always-alias: the replay allocates the version a cold run would
        assert rec.outputs == ("sh.sc@2",)
        first = lwt.db.get("sh.sc@1").payload
        again = lwt.db.get("sh.sc@2").payload
        assert fingerprint(first) == fingerprint(again)

    def test_reuse_chains_through_intermediates(self, env):
        """A multi-step task reuses *every* step: the content-hash keys let
        step N's aliased output satisfy step N+1's fingerprint."""
        am, lwt, seed, _ = env
        am.invoke("PLA_Generation", {"Incell": "decoder.net"},
                  {"Outcell": "dec.pla"})
        am.move_cursor(INITIAL_POINT)
        p2 = am.invoke("PLA_Generation", {"Incell": "decoder.net"},
                       {"Outcell": "dec.pla"})
        rec = record_at(am, p2)
        assert len(rec.steps) == 3
        assert all(s.reused for s in rec.steps)

    def test_changed_input_misses(self, env):
        am, lwt, seed, _ = env
        am.invoke("Padp", {"Incell": "shifter.net"}, {"Outcell": "a.pad"})
        am.move_cursor(INITIAL_POINT)
        p2 = am.invoke("Padp", {"Incell": "adder.net"}, {"Outcell": "b.pad"})
        assert not any(s.reused for s in record_at(am, p2).steps)

    def test_reused_steps_cost_no_simulated_time(self, env):
        am, lwt, seed, clk = env
        am.invoke("Standard_Cell_PR", {"Incell": "shifter.net"},
                  {"Outcell": "c.sc"})
        am.move_cursor(INITIAL_POINT)
        saved = counter("memo.saved_seconds")
        before = clk.now
        am.invoke("Standard_Cell_PR", {"Incell": "shifter.net"},
                  {"Outcell": "c.sc"})
        assert clk.now == before
        assert counter("memo.saved_seconds") > saved


# ------------------------------------------------- identity with cold runs


TASKS = [
    ("Standard_Cell_PR", {"Incell": "shifter.net"}, {"Outcell": "o.sc"}),
    ("PLA_Generation", {"Incell": "decoder.net"}, {"Outcell": "o.pla"}),
    ("Padp", {"Incell": "shifter.net"}, {"Outcell": "o.pad"}),
]


@settings(max_examples=3, deadline=None)
@given(case=st.sampled_from(TASKS))
def test_reused_outputs_identical_to_cold_reexecution(case):
    """Property: a memoized rework replay commits the same output versions
    with byte-identical payloads as re-executing every tool cold."""
    task, inputs, outputs = case

    def run_twice(memoized: bool):
        am, lwt, _seed, _clk = make_env()
        if not memoized:
            am.thread.memo = None
        am.invoke(task, dict(inputs), dict(outputs))
        am.move_cursor(INITIAL_POINT)
        point = am.invoke(task, dict(inputs), dict(outputs))
        return record_at(am, point), lwt.db

    warm_rec, warm_db = run_twice(memoized=True)
    cold_rec, cold_db = run_twice(memoized=False)
    assert all(s.reused for s in warm_rec.steps)
    assert not any(s.reused for s in cold_rec.steps)
    assert warm_rec.outputs == cold_rec.outputs      # version-identical
    for name in warm_rec.outputs:
        assert fingerprint(warm_db.get(name).payload) == \
            fingerprint(cold_db.get(name).payload)   # byte-identical
    # Both completion paths record the same step: intermediates differ only
    # in their process-global instance suffix (".t<N>s<M>").
    assert step_shapes(warm_rec) == step_shapes(cold_rec)


def step_shapes(record) -> list[tuple]:
    def norm(names):
        return tuple(re.sub(r"\.t\d+s\d+", ".t*s*", n) for n in names)

    return sorted((s.name, s.tool, norm(s.options), norm(s.inputs),
                   norm(s.outputs), s.status) for s in record.steps)


# ----------------------------------------------------------------- aborts


JUST_PLAN = """
task Just_Plan {Incell} {Outcell}
step Plan {Incell} {Outcell} {floorplan Incell -o Outcell}
"""

PLAN_THEN_ABORT = """
task Plan_Then_Abort {Incell} {Outcell}
step Plan {Incell} {Outcell} {floorplan Incell -o Outcell}
abort
"""


class TestAbortSemantics:
    def test_aborted_task_never_seeds_cache(self, env):
        am, lwt, seed, _ = env
        am.taskmgr.library.add_source(PLAN_THEN_ABORT)
        am.taskmgr.library.add_source(JUST_PLAN)
        with pytest.raises(TaskAborted):
            am.invoke("Plan_Then_Abort", {"Incell": "alu.net"},
                      {"Outcell": "dead"})
        assert len(am.thread.memo) == 0
        # the same derivation, asked for honestly, runs cold
        point = am.invoke("Just_Plan", {"Incell": "alu.net"},
                          {"Outcell": "alu.fp"})
        assert not any(s.reused for s in record_at(am, point).steps)

    def test_memo_hit_in_aborted_task_rolls_back(self, env):
        """A step satisfied from history inside a task that later aborts is
        undone like a real execution: the aliased version disappears."""
        am, lwt, seed, _ = env
        am.taskmgr.library.add_source(JUST_PLAN)
        am.taskmgr.library.add_source(PLAN_THEN_ABORT)
        am.invoke("Just_Plan", {"Incell": "alu.net"}, {"Outcell": "alu.fp"})
        hits = counter("memo.hits")
        entries = len(am.thread.memo)
        with pytest.raises(TaskAborted):
            am.invoke("Plan_Then_Abort", {"Incell": "alu.net"},
                      {"Outcell": "doomed"})
        assert counter("memo.hits") == hits + 1      # the hit happened
        assert not lwt.db.exists("doomed")           # and was rolled back
        assert len(am.thread.memo) == entries        # and seeded nothing

    def test_undone_steps_do_not_seed(self, env):
        """Programmable-abort resume: only the steps of the *final* trace
        seed the cache — a replay reuses exactly what the history holds."""
        am, lwt, seed, _ = env
        am.taskmgr.on_restart = lambda ex, spec: ex.option_overrides.\
            setdefault("Detailed_Routing", []).extend(["-t", "64"])
        p1 = am.invoke("Macro_Place_Route", {"Incell": "alu.net"},
                       {"Outcell": "alu.routed"})
        assert len(am.thread.memo) == len(record_at(am, p1).steps)
        am.move_cursor(INITIAL_POINT)
        p2 = am.invoke("Macro_Place_Route", {"Incell": "alu.net"},
                       {"Outcell": "alu.routed"})
        rec = record_at(am, p2)
        # the retried trace replays whole: the -t 64 override is part of the
        # committed step options, so the replayed key matches it
        assert [s.reused for s in rec.steps].count(True) >= 3


# ---------------------------------------------------------------- lineage


class TestLineage:
    def test_fork_shares_derivations(self, env):
        am, lwt, seed, _ = env
        am.invoke("Standard_Cell_PR", {"Incell": "shifter.net"},
                  {"Outcell": "sh.sc"})
        child = lwt.adopt_thread(fork(am.thread, "child",
                                      inherit="workspace"))
        am_child = ActivityManager(child, am.taskmgr)
        point = am_child.invoke("Standard_Cell_PR",
                                {"Incell": "shifter.net"},
                                {"Outcell": "child.sc"})
        rec = child.stream.record(point)
        assert all(s.reused for s in rec.steps)
        # writes stayed local: the parent cache gained nothing from the child
        assert len(child.memo) == len(rec.steps)

    def test_child_work_invisible_to_parent(self, env):
        am, lwt, seed, _ = env
        child = lwt.adopt_thread(fork(am.thread, "child",
                                      inherit="workspace"))
        am_child = ActivityManager(child, am.taskmgr)
        am_child.invoke("Padp", {"Incell": "shifter.net"},
                        {"Outcell": "kid.pad"})
        point = am.invoke("Padp", {"Incell": "shifter.net"},
                          {"Outcell": "par.pad"})
        assert not any(s.reused for s in record_at(am, point).steps)


# ----------------------------------------------------------- invalidation


class TestInvalidation:
    def test_erase_on_rework_invalidates(self, env):
        """Erasing the branch removes its records from the stream; the
        scope-epoch sweep must drop the cache entries they seeded."""
        am, lwt, seed, _ = env
        am.invoke("Standard_Cell_PR", {"Incell": "shifter.net"},
                  {"Outcell": "sh.sc"})
        invalidated = counter("memo.invalidations")
        am.move_cursor(INITIAL_POINT, erase=True)
        point = am.invoke("Standard_Cell_PR", {"Incell": "shifter.net"},
                          {"Outcell": "sh.sc"})
        rec = record_at(am, point)
        assert not any(s.reused for s in rec.steps)
        assert counter("memo.invalidations") > invalidated

    def test_interactive_steps_bypass(self, env):
        """User-in-the-loop tools are never replayed from history, but the
        deterministic steps downstream of them still hit."""
        am, lwt, seed, _ = env
        bypasses = counter("memo.bypasses")
        am.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                  {"Outcell": "sh.logic"})
        am.move_cursor(INITIAL_POINT)
        point = am.invoke("Create_Logic_Description",
                          {"Spec": "shifter.spec"}, {"Outcell": "sh.logic"})
        reused = {s.name: s.reused for s in record_at(am, point).steps}
        assert reused == {"Enter_Logic": False, "Format_Transformation": True}
        assert counter("memo.bypasses") >= bypasses + 1


# ------------------------------------------------------------- persistence


def test_restored_session_reuses_history(tmp_path):
    am, lwt, seed, _ = make_env()
    am.invoke("Standard_Cell_PR", {"Incell": "shifter.net"},
              {"Outcell": "sh.sc"})
    save_system(lwt, tmp_path / "state")

    clk2 = VirtualClock()
    lwt2 = load_system(tmp_path / "state", LWTSystem(clock=clk2))
    thread2 = lwt2.thread("T")
    assert thread2.memo is not None and len(thread2.memo) > 0
    tm2 = TaskManager(
        lwt2.db, default_registry(), standard_library(),
        cluster=Cluster.homogeneous(4, clock=clk2),
        clock=clk2,
    )
    am2 = ActivityManager(thread2, tm2)
    am2.move_cursor(INITIAL_POINT)
    point = am2.invoke("Standard_Cell_PR", {"Incell": "shifter.net"},
                       {"Outcell": "sh.sc"})
    assert all(s.reused for s in thread2.stream.record(point).steps)


# -------------------------------------------------------- content identity


def _cached_fingerprints(db) -> list[tuple[str, str]]:
    """(version, fingerprint) for every version that has computed one.
    A restored version nothing has touched since holds none: its payload is
    still the chunk's lazy handle."""
    return [(str(obj), obj.fingerprint)
            for chain in dict.values(db._versions) for obj in chain
            if getattr(obj, "fingerprint", None) is not None]


def _reopen(lwt, directory):
    """Save the installation, restore it into a fresh one, reattach."""
    save_system(lwt, directory)
    clk = VirtualClock()
    lwt = load_system(directory, LWTSystem(clock=clk))
    tm = TaskManager(
        lwt.db, default_registry(), standard_library(),
        cluster=Cluster.homogeneous(4, clock=clk),
        clock=clk,
    )
    return ActivityManager(lwt.thread("T"), tm), lwt


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.tuples(
    st.sampled_from(["invoke", "pad", "rework", "erase", "reclaim",
                     "reopen"]),
    st.integers(0, 63)), min_size=1, max_size=10))
@example(ops=[("invoke", 0), ("pad", 0)])
@example(ops=[("invoke", 0), ("reopen", 0), ("rework", 0), ("invoke", 0),
              ("pad", 0), ("erase", 1), ("reclaim", 0), ("invoke", 1)])
def test_cached_fingerprint_matches_fresh_hash(ops, tmp_path_factory):
    """Property: whatever the history has been through — invoke, rework,
    erase, reclaim, save and restore — every fingerprint a version holds
    equals a fresh hash of its payload.  A tool that mutated a committed
    payload in place would break this (and silently poison memo keys)."""
    from repro.activity.reclamation import Reclaimer

    am, lwt, _seed, _clk = make_env()
    for index, (op, pick) in enumerate(ops):
        thread = am.thread
        if op == "invoke":
            task, inputs, outputs = TASKS[pick % len(TASKS)]
            am.invoke(task, dict(inputs), dict(outputs))
        elif op == "pad" and thread.is_visible("o.sc"):
            am.invoke("Padp", {"Incell": "o.sc"}, {"Outcell": "o.sc.pad"})
        elif op == "rework":
            points = thread.stream.points()
            am.move_cursor(points[pick % len(points)])
        elif op == "erase":
            above = thread.stream.ancestors(thread.current_cursor)
            if above:
                am.move_cursor(above[pick % len(above)], erase=True)
        elif op == "reclaim":
            lwt.clock.advance(60 * 24 * 3600.0)
            Reclaimer(thread).sweep(reclaim_grace=0.0)
        elif op == "reopen":
            am, lwt = _reopen(lwt, tmp_path_factory.mktemp(f"s{index}"))
        for name, cached in _cached_fingerprints(lwt.db):
            assert cached == fingerprint(lwt.db.get(name).payload), name


# ------------------------------------------------------------------- units


class TestKeying:
    def test_canonical_options_positional(self):
        a = canonical_options(("wolfe", "-o", "x.t1s2", "in.net@3"),
                              ("in.net@3",), ("x.t1s2",))
        b = canonical_options(("wolfe", "-o", "y.t9s4", "in.net@7"),
                              ("in.net@7",), ("y.t9s4",))
        assert a == b
        c = canonical_options(("wolfe", "-f", "-o", "y.t9s4", "in.net@7"),
                              ("in.net@7",), ("y.t9s4",))
        assert c != b

    def test_alias_inherits_source_fingerprint(self):
        """An alias shares its source's payload, so it takes the source's
        fingerprint instead of hashing the payload again."""
        from repro.octdb.database import DesignDatabase

        db = DesignDatabase(VirtualClock())
        db.put("a", {"cells": [1, 2, 3]})
        source = db.fingerprint("a@1")
        computed = counter("db.fingerprints")
        db.alias("b", "a@1")
        assert db.fingerprint("b@1") == source
        assert counter("db.fingerprints") == computed

    def test_fingerprint_is_computed_once_per_version(self):
        from repro.errors import ObjectNotFound
        from repro.octdb.database import DesignDatabase

        db = DesignDatabase(VirtualClock())
        db.put("a", {"x": 1})
        db.alias("b", "a@1")          # the source has no fingerprint yet
        computed = counter("db.fingerprints")
        assert db.fingerprint("b@1") == fingerprint({"x": 1})
        assert db.fingerprint("b") == db.fingerprint("a@1")
        assert counter("db.fingerprints") == computed + 2
        db.delete("a@1")
        db.reclaim()
        with pytest.raises(ObjectNotFound):
            db.fingerprint("a@1")
        # ...so a key over a reclaimed input is no key: the step bypasses.
        assert DerivationCache().key_for("t", (), ("a@1",), (), db) is None
        assert DerivationCache().key_for("t", (), ("b@1",), (), db)

    def test_fingerprint_is_structural(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})
        assert fingerprint([1, 2]) != fingerprint([2, 1])
        assert fingerprint({1, 2}) == fingerprint({2, 1})

    def test_identity_is_as_strict_as_the_json_codec(self):
        """The fingerprint is the chunk address, so it tells apart exactly
        what the codec writes apart.  Inside a JSON payload a tuple writes
        as a list (as the structural walk hashed them) and an int dict key
        as its string."""
        assert fingerprint({"a": (1, 2)}) == fingerprint({"a": [1, 2]})
        assert fingerprint({1: "x"}) == fingerprint({"1": "x"})
        # A top-level tuple has no JSON form: it is written as its repr.
        assert fingerprint((1, 2)) != fingerprint([1, 2])

    def test_fingerprint_is_the_chunk_address(self, tmp_path):
        from repro.octdb.chunkstore import ChunkStore
        from repro.octdb.database import DesignDatabase

        db = DesignDatabase(VirtualClock())
        db.put("a", {"cells": [1, 2, 3]})
        store = ChunkStore(tmp_path)
        assert store.put_payload(db.get("a@1").payload) == \
            db.fingerprint("a@1")


class TestKeyForErrors:
    """``key_for`` turns exactly two failures into "no key": a reclaimed
    input and a payload the codec cannot write.  Anything else is a bug
    and propagates instead of silently disabling the memo."""

    @staticmethod
    def key(db, name):
        return DerivationCache().key_for("t", (), (name,), (), db)

    def test_reclaimed_input_has_no_key(self):
        from repro.octdb.database import DesignDatabase

        db = DesignDatabase(VirtualClock())
        db.put("a", {"x": 1})
        db.delete("a@1")
        db.reclaim()
        assert self.key(db, "a@1") is None

    def test_payload_the_codec_cannot_write_has_no_key(self, monkeypatch):
        from repro.octdb import chunkstore
        from repro.octdb.database import DesignDatabase

        class Cyclic:
            def to_dict(self):
                data: dict = {}
                data["self"] = data
                return data

        monkeypatch.setitem(chunkstore._ENCODERS, Cyclic,
                            ("cyclic", Cyclic.to_dict))
        db = DesignDatabase(VirtualClock())
        db.put("set", {"members": {1, 2}})   # TypeError: a set is not JSON
        db.put("cycle", Cyclic())            # ValueError: circular reference
        assert self.key(db, "set@1") is None
        assert self.key(db, "cycle@1") is None

    def test_codec_bug_propagates(self, monkeypatch):
        from repro.octdb import chunkstore
        from repro.octdb.database import DesignDatabase

        class Broken:
            def to_dict(self):
                raise AttributeError("to_dict bug")

        monkeypatch.setitem(chunkstore._ENCODERS, Broken,
                            ("broken", Broken.to_dict))
        db = DesignDatabase(VirtualClock())
        db.put("b", Broken())
        with pytest.raises(AttributeError, match="to_dict bug"):
            self.key(db, "b@1")
