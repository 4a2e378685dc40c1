"""Tests for the task manager: parallelism extraction, naming, programmable
abort, history recording, attribute management."""

from __future__ import annotations

import collections
import gc
import tracemalloc
import weakref

import pytest

from repro.cad import default_registry
from repro.cad.registry import ToolRegistry, ToolResult
from repro.clock import VirtualClock
from repro.errors import TaskAborted, TemplateError
from repro.obs import METRICS
from repro.octdb import DesignDatabase
from repro.sprite import Cluster
from repro.taskmgr import TaskManager
from repro.tdl.template import TemplateLibrary
from repro.workloads import seed_designs, standard_library
from repro.workloads.designs import congested_layout, sparse_layout
from tests.cycles import collector_off, repro_garbage


@pytest.fixture
def env():
    clk = VirtualClock()
    db = DesignDatabase(clock=clk)
    seed = seed_designs(db)
    cluster = Cluster.homogeneous(4, clock=clk)
    tm = TaskManager(
        db, default_registry(), standard_library(), cluster=cluster,
        clock=clk,
    )
    return tm, db, seed, clk


class TestBasicExecution:
    def test_single_step_task(self, env):
        tm, db, seed, _ = env
        rec = tm.run_task("Padp", inputs={"Incell": seed["shifter.net"]},
                          outputs={"Outcell": "shifter.padded"})
        assert rec.task == "Padp"
        assert rec.outputs == ("shifter.padded@1",)
        assert db.get("shifter.padded").payload is not None

    def test_missing_input_rejected(self, env):
        tm, _, _, _ = env
        with pytest.raises(TemplateError):
            tm.run_task("Padp", inputs={})

    def test_unversioned_input_resolved(self, env):
        tm, db, seed, _ = env
        rec = tm.run_task("Padp", inputs={"Incell": "shifter.net"},
                          outputs={"Outcell": "x"})
        assert rec.inputs == ("shifter.net@1",)

    def test_full_pipeline_with_subtask(self, env):
        tm, db, seed, _ = env
        rec = tm.run_task(
            "Structure_Synthesis",
            inputs={"Incell": seed["adder.spec"],
                    "Musa_Command": seed["musa.cmd"]},
            outputs={"Outcell": "adder.layout",
                     "Cell_Statistics": "adder.stats"},
        )
        names = [s.name for s in rec.steps]
        # the Padp subtask expanded in-line
        assert "Pads_Placement" in names
        assert len(rec.steps) == 6
        stats = db.get("adder.stats").payload
        assert stats.value("area") > 0

    def test_history_ordered_by_completion(self, env):
        tm, _, seed, _ = env
        rec = tm.run_task(
            "Structure_Synthesis",
            inputs={"Incell": seed["adder.spec"],
                    "Musa_Command": seed["musa.cmd"]},
            outputs={"Outcell": "o", "Cell_Statistics": "s"},
        )
        times = [s.completed_at for s in rec.steps]
        assert times == sorted(times)

    def test_intermediates_removed_outputs_pinned(self, env):
        tm, db, seed, _ = env
        rec = tm.run_task("Structure_Synthesis",
                          inputs={"Incell": seed["adder.spec"],
                                  "Musa_Command": seed["musa.cmd"]},
                          outputs={"Outcell": "o", "Cell_Statistics": "s"})
        for name in rec.intermediates():
            assert db.is_deleted(name)
        for name in rec.outputs:
            assert not db.is_deleted(name)
            # pinned: the reclaimer must not take task outputs
        db.delete("o@1")
        reclaimed = {str(n) for n in db.reclaim()}
        assert "o@1" not in reclaimed          # pinned outputs survive
        assert reclaimed >= set(rec.intermediates())

    def test_keep_intermediates_option(self, env):
        tm, db, seed, _ = env
        rec = tm.run_task("Structure_Synthesis",
                          inputs={"Incell": seed["adder.spec"],
                                  "Musa_Command": seed["musa.cmd"]},
                          outputs={"Outcell": "o2", "Cell_Statistics": "s2"},
                          keep_intermediates=True)
        assert rec.intermediates()
        for name in rec.intermediates():
            assert not db.is_deleted(name)

    def test_unique_intermediate_names_across_instances(self, env):
        tm, db, seed, _ = env
        rec1 = tm.run_task("Structure_Synthesis",
                           inputs={"Incell": seed["adder.spec"],
                                   "Musa_Command": seed["musa.cmd"]},
                           outputs={"Outcell": "a1", "Cell_Statistics": "s1"},
                           keep_intermediates=True)
        rec2 = tm.run_task("Structure_Synthesis",
                           inputs={"Incell": seed["alu.spec"],
                                   "Musa_Command": seed["musa.cmd"]},
                           outputs={"Outcell": "a2", "Cell_Statistics": "s2"},
                           keep_intermediates=True)
        assert not set(rec1.intermediates()) & set(rec2.intermediates())


    def test_finished_execution_is_released(self, env):
        """The manager keeps only its latest instantiation: an earlier
        one, with its operation history, is freed by reference counting
        (the collector is off) once a later task commits."""
        tm, _, seed, _ = env
        with collector_off():
            tm.run_task("Padp", inputs={"Incell": seed["shifter.net"]},
                        outputs={"Outcell": "first"})
            first = weakref.ref(tm.last_execution)
            tm.run_task("Padp", inputs={"Incell": seed["shifter.net"]},
                        outputs={"Outcell": "second"})
            assert first() is None
        assert tm.last_execution is not None

    @pytest.mark.parametrize("ending",
                             ["restarted", "aborted", "aborted_running"])
    def test_ended_execution_is_released(self, env, ending):
        """However an instantiation ends — committed after a restart,
        aborted, or aborted while a step still runs (its killed process
        let go) — reference counting frees it once a later task commits."""
        tm, _, seed, _ = env
        tm.library.add_source("""
task Doomed {Incell} {Outcell}
step Work {Incell} {Outcell} {floorplan Incell -o Outcell}
abort
""")
        tm.on_restart = lambda ex, spec: ex.option_overrides.setdefault(
            "Detailed_Routing", []).extend(["-t", "64"])
        with collector_off():
            if ending == "restarted":
                tm.run_task("Macro_Place_Route",
                            inputs={"Incell": seed["alu.net"]},
                            outputs={"Outcell": "routed"})
                assert tm.last_execution.restarts == 1
            else:
                name = "Macro_Place_Route" if ending == "aborted" \
                    else "Doomed"
                tm.max_restarts = 0
                with pytest.raises(TaskAborted):
                    tm.run_task(name, inputs={"Incell": seed["alu.net"]},
                                outputs={"Outcell": "gone"})
            ended = weakref.ref(tm.last_execution)
            tm.run_task("Padp", inputs={"Incell": seed["shifter.net"]},
                        outputs={"Outcell": "next"})
            assert ended() is None
            assert not repro_garbage()


class TestParallelism:
    def test_control_dependency_honored(self, env):
        tm, _, seed, _ = env
        rec = tm.run_task("Structure_Synthesis",
                          inputs={"Incell": seed["adder.spec"],
                                  "Musa_Command": seed["musa.cmd"]},
                          outputs={"Outcell": "o", "Cell_Statistics": "s"})
        by_name = {s.name: s for s in rec.steps}
        # Simulate is control-dependent on Place_and_Route (declared id 1)
        assert (by_name["Simulate"].started_at
                >= by_name["Place_and_Route"].completed_at)

    def test_independent_steps_overlap(self, env):
        tm, _, seed, _ = env
        rec = tm.run_task("Parallel_Analysis",
                          inputs={"Incell": seed["alu.spec"]},
                          outputs={"Stats": "st", "Power": "pw", "Sim": "sm"})
        by_name = {s.name: s for s in rec.steps}
        stats, power = by_name["Stats"], by_name["Power"]
        # both depend only on the layout; they run concurrently
        overlap = (min(stats.completed_at, power.completed_at)
                   - max(stats.started_at, power.started_at))
        assert overlap > 0

    def test_completion_order_is_linear_extension(self, env):
        """Every trace must respect the template's data+control order."""
        tm, _, seed, _ = env
        rec = tm.run_task("Fig33", inputs={"Incell": seed["decoder.spec"]},
                          outputs={"Outcell": "fig33.out"})
        pos = {s.name: i for i, s in enumerate(rec.steps)}
        assert pos["Step0"] < pos["Step1"] < pos["Step2"]
        assert pos["Step0"] < pos["Step3"] < pos["Step4"]
        assert pos["Step2"] < pos["Step5"] and pos["Step4"] < pos["Step5"]

    def test_speedup_with_more_hosts(self):
        def makespan(hosts: int) -> float:
            clk = VirtualClock()
            db = DesignDatabase(clock=clk)
            seed = seed_designs(db)
            tm = TaskManager(db, default_registry(), standard_library(),
                             cluster=Cluster.homogeneous(hosts, clock=clk),
                             clock=clk)
            tm.run_task("Parallel_Analysis",
                        inputs={"Incell": seed["alu.spec"]},
                        outputs={"Stats": "st", "Power": "pw", "Sim": "sm"})
            return clk.now

        assert makespan(4) < makespan(1)

    def test_non_migratable_step_stays_home(self, env):
        tm, _, seed, _ = env
        rec = tm.run_task("Create_Logic_Description",
                          inputs={"Spec": seed["shifter.spec"]},
                          outputs={"Outcell": "sh.net"})
        by_name = {s.name: s for s in rec.steps}
        assert by_name["Enter_Logic"].host == "home"   # NonMigrate


class TestStatusConditional:
    def test_mosaico_skips_vertical_when_horizontal_ok(self, env):
        tm, db, _, _ = env
        sp = sparse_layout(db)
        rec = tm.run_task("Mosaico", inputs={"Incell": str(sp.name)},
                          outputs={"Outcell": "f", "Cell_Statistics": "cs"})
        names = [s.name for s in rec.steps]
        assert "Vertical_Compaction" not in names

    def test_mosaico_takes_vertical_on_failure(self, env):
        tm, db, _, _ = env
        cong = congested_layout(db)
        rec = tm.run_task("Mosaico", inputs={"Incell": str(cong.name)},
                          outputs={"Outcell": "f2", "Cell_Statistics": "cs2"})
        results = {s.name: s.status for s in rec.steps}
        assert results["Horizontal_Compaction"] == 1
        assert results["Vertical_Compaction"] == 0
        assert results["Create_Abstraction_View"] == 0


class TestProgrammableAbort:
    def test_resume_preserves_early_steps(self, env):
        tm, db, seed, _ = env
        tm.on_restart = lambda ex, spec: ex.option_overrides.setdefault(
            "Detailed_Routing", []).extend(["-t", "64"])
        rec = tm.run_task("Macro_Place_Route",
                          inputs={"Incell": seed["alu.net"]},
                          outputs={"Outcell": "alu.routed"})
        names = [s.name for s in rec.steps]
        # floorplanning/placement ran once; history holds the final trace
        assert names.count("Floor_Planning") == 1
        assert names.count("Placement") == 1
        execution = tm.last_execution
        assert execution.restarts == 1

    def test_gives_up_after_max_restarts(self, env):
        tm, db, seed, _ = env
        tm.max_restarts = 2
        with pytest.raises(TaskAborted):
            tm.run_task("Macro_Place_Route",
                        inputs={"Incell": seed["alu.net"]},
                        outputs={"Outcell": "nope"})
        # abort removes every side effect
        assert not db.exists("nope")

    def test_abort_leaves_no_history_or_objects(self, env):
        tm, db, seed, _ = env
        tm.max_restarts = 0
        created_before = len(db)
        with pytest.raises(TaskAborted):
            tm.run_task("Macro_Place_Route",
                        inputs={"Incell": seed["alu.net"]},
                        outputs={"Outcell": "gone"})
        live_after = [o for o in db if not db.is_deleted(o.name)]
        assert len(live_after) == created_before

    def test_unhandled_failure_restarts_from_scratch(self, env):
        tm, db, seed, _ = env
        fixed: list = []

        def on_restart(ex, spec):
            # first restart: raise the routing capacity
            ex.option_overrides.setdefault("Route", []).extend(["-t", "99"])
            fixed.append(spec.name)

        tm.on_restart = on_restart
        tm.library.add_source("""
task Fragile {Incell} {Outcell}
step Plan {Incell} {pl} {floorplan Incell -o pl}
step Route {pl} {Outcell} {mosaicoDR -t 1 -o Outcell pl}
""")
        rec = tm.run_task("Fragile", inputs={"Incell": seed["alu.net"]},
                          outputs={"Outcell": "frag.out"})
        assert fixed == ["Route"]
        assert [s.status for s in rec.steps] == [0, 0]

    def test_explicit_abort_command(self, env):
        tm, _, seed, _ = env
        tm.library.add_source("""
task Doomed {Incell} {Outcell}
step Work {Incell} {Outcell} {floorplan Incell -o Outcell}
abort
""")
        with pytest.raises(TaskAborted):
            tm.run_task("Doomed", inputs={"Incell": seed["alu.net"]},
                        outputs={"Outcell": "d"})

    def test_pla_generation_area_retry(self, env):
        tm, db, seed, _ = env

        def on_restart(ex, spec):
            # the user relaxes panda's area constraint on retry
            ex.option_overrides.setdefault("Array_Layout", []).extend(
                ["-a", "100000"])

        tm.on_restart = on_restart
        tm.navigator = lambda spec, options: (
            options + ["-a", "1"] if spec.name == "Array_Layout"
            and "-a" not in options else None
        )
        rec = tm.run_task("PLA_Generation",
                          inputs={"Incell": seed["decoder.net"]},
                          outputs={"Outcell": "dec.pla"})
        ex = tm.last_execution
        assert ex.restarts == 1
        # Two_Level_Minimization ran once (preserved); folding re-ran
        assert [s.name for s in rec.steps].count("Two_Level_Minimization") == 1

    @staticmethod
    def failing_manager(body: str, max_restarts: int) -> TaskManager:
        """A task whose ``Route`` step always fails with log "no route"."""
        clk = VirtualClock()
        db = DesignDatabase(clock=clk)
        db.put("seed", "S")
        registry = ToolRegistry()
        registry.add("make", lambda call: ToolResult(
            outputs={n: "m" for n in call.output_names}))
        registry.add("route", lambda call: ToolResult(status=1,
                                                      log="no route"))
        library = TemplateLibrary()
        library.add_source("task Fails {Seed} {Final}\n"
                           "step {1 Plan} {Seed} {Mid} {make}\n" + body)
        return TaskManager(db, registry, library,
                           cluster=Cluster.homogeneous(2, clock=clk),
                           clock=clk, max_restarts=max_restarts)

    def test_programmed_abort_reason_carries_the_tool_log(self):
        tm = self.failing_manager(
            "step Route {Mid} {Final} {route} {ResumedStep 1}\n", 1)
        with pytest.raises(TaskAborted) as caught:
            tm.run_task("Fails", inputs={"Seed": "seed@1"})
        assert "step failed: no route" in caught.value.reason
        assert "gave up after 1 restarts" in caught.value.reason

    def test_unhandled_failure_reason_carries_the_tool_log(self):
        tm = self.failing_manager("step Route {Mid} {Final} {route}\n", 0)
        with pytest.raises(TaskAborted) as caught:
            tm.run_task("Fails", inputs={"Seed": "seed@1"})
        assert caught.value.reason == (
            "step 'Route' failed and was never handled: no route")


class TestAttributes:
    def test_attribute_command_in_loop(self, env):
        tm, db, seed, _ = env
        rec = tm.run_task("Iterative_Refinement",
                          inputs={"Incell": seed["parity.spec"]},
                          outputs={"Outcell": "par.opt"})
        names = [s.name for s in rec.steps]
        assert names[0] == "Seed" and names[-1] == "Final"
        assert names.count("Refine") >= 1

    def test_attrdb_caches(self, env):
        tm, db, seed, _ = env
        attrdb = tm.attrdb
        before = attrdb.computations
        v1 = attrdb.get(seed["alu.net"], "literals")
        v2 = attrdb.get(seed["alu.net"], "literals")
        assert v1 == v2
        assert attrdb.computations == before + 1

    def test_attrdb_unknown_attribute(self, env):
        from repro.errors import MetadataError

        tm, _, seed, _ = env
        with pytest.raises(MetadataError):
            tm.attrdb.get(seed["alu.net"], "smell")

    def test_attrdb_set_overrides(self, env):
        tm, _, seed, _ = env
        tm.attrdb.set(seed["alu.net"], "literals", 42.0)
        assert tm.attrdb.get(seed["alu.net"], "literals") == 42.0

    def test_attrdb_unversioned_name_reads_the_latest_version(self, env):
        tm, db, seed, _ = env
        first = tm.attrdb.get("adder.placed", "area")
        newer = sparse_layout(db, name="adder")
        latest = tm.attrdb.get(str(newer), "area")
        assert latest != first
        assert tm.attrdb.get("adder.placed", "area") == latest
        assert tm.attrdb.get(seed["adder.placed"], "area") == first

    def test_attrdb_has_on_a_reclaimed_version(self, env):
        tm, db, seed, _ = env
        db.delete(seed["alu.net"])
        db.reclaim()
        assert not tm.attrdb.has(seed["alu.net"], "literals")
        assert not tm.attrdb.has("alu.net", "literals")

    def test_bare_task_manager_measures(self):
        db = DesignDatabase(clock=VirtualClock())
        seed = seed_designs(db)
        tm = TaskManager(db, default_registry(), standard_library())
        assert tm.attrdb.db is db
        assert tm.attrdb.get(seed["adder.net"], "minterms") > 0


class TestNavigator:
    def test_navigator_overrides_options(self, env):
        tm, db, seed, _ = env
        seen = []

        def navigator(spec, options):
            seen.append(spec.name)
            if spec.name == "Place_and_Route":
                return [opt if opt != "2" else "4" for opt in options]
            return None

        tm.navigator = navigator
        rec = tm.run_task("Standard_Cell_PR",
                          inputs={"Incell": seed["adder.net"]},
                          outputs={"Outcell": "nav.out"})
        assert "Place_and_Route" in seen
        step = rec.steps[0]
        assert "4" in step.options

    def test_option_overrides_win_last(self, env):
        # option_value is last-wins so appended overrides beat defaults
        from repro.cad.registry import ToolCall

        call = ToolCall("x", options=("-t", "2", "-t", "64"))
        assert call.option_value("-t") == "64"


class TestConcurrentExecution:
    def test_concurrent_tasks_interleave(self, env):
        tm, db, seed, clk = env
        requests = [
            ("Parallel_Analysis", {"Incell": seed["alu.spec"]},
             {"Stats": f"c{i}.s", "Power": f"c{i}.p", "Sim": f"c{i}.m"})
            for i in range(3)
        ]
        records = tm.run_concurrent(requests)
        assert len(records) == 3
        for i, record in enumerate(records):
            assert len(record.steps) == 6
            assert db.get(f"c{i}.s").payload.value("area") > 0
        # steps of different instantiations overlapped in simulated time
        spans = [
            (min(s.started_at for s in r.steps),
             max(s.completed_at for s in r.steps))
            for r in records
        ]
        overlap = min(e for _, e in spans) - max(s for s, _ in spans)
        assert overlap > 0

    def test_concurrent_faster_than_serial(self):
        def span(concurrent: bool) -> float:
            clk = VirtualClock()
            db = DesignDatabase(clock=clk)
            seed = seed_designs(db)
            tm = TaskManager(db, default_registry(), standard_library(),
                             cluster=Cluster.homogeneous(6, clock=clk),
                             clock=clk)
            requests = [
                ("Parallel_Analysis", {"Incell": seed["alu.spec"]},
                 {"Stats": f"c{i}.s", "Power": f"c{i}.p", "Sim": f"c{i}.m"})
                for i in range(3)
            ]
            if concurrent:
                tm.run_concurrent(requests)
            else:
                for n, i, o in requests:
                    tm.run_task(n, inputs=i, outputs=o)
            return clk.now

        assert span(True) < span(False)

    def test_concurrent_intermediates_unique_and_cleaned(self, env):
        tm, db, seed, _ = env
        records = tm.run_concurrent([
            ("Structure_Synthesis",
             {"Incell": seed["adder.spec"], "Musa_Command": seed["musa.cmd"]},
             {"Outcell": f"cc{i}.lay", "Cell_Statistics": f"cc{i}.st"})
            for i in range(2)
        ])
        inter0 = set(records[0].intermediates())
        inter1 = set(records[1].intermediates())
        assert not inter0 & inter1
        for name in inter0 | inter1:
            assert db.is_deleted(name)

    def test_concurrent_with_programmable_abort(self, env):
        tm, db, seed, _ = env
        tm.on_restart = lambda ex, spec: ex.option_overrides.setdefault(
            "Detailed_Routing", []).extend(["-t", "64"])
        records = tm.run_concurrent([
            ("Macro_Place_Route", {"Incell": seed["alu.net"]},
             {"Outcell": "ca.routed"}),
            ("Padp", {"Incell": seed["adder.net"]}, {"Outcell": "cb.pad"}),
        ])
        assert [s.status for s in records[0].steps] == [0, 0, 0, 0]
        assert records[1].outputs == ("cb.pad@1",)

    def test_concurrent_tasks_are_counted(self, env):
        """Each committed concurrent task counts as completed, exactly as
        one run by ``run_task`` does."""
        tm, _, seed, _ = env
        completed = METRICS.counter("engine.tasks_completed").value
        committed = METRICS.counter("engine.history_records").value
        tm.run_concurrent([
            ("Padp", {"Incell": seed["adder.net"]}, {"Outcell": f"n{i}.pad"})
            for i in range(3)
        ])
        assert METRICS.counter("engine.tasks_completed").value \
            - completed == 3
        assert METRICS.counter("engine.history_records").value \
            - committed == 3


class TestStepShape:
    """A settled step is its settled entry, which holds its record, and
    its version in its chain: its node, parsed spec, slot object, process
    and tool call are gone.  The tracked objects (entry, record, version,
    chain) and the bytes a chain DAG holds once its body has settled are
    pinned per step."""

    CHAINS, DEPTH = 10, 200

    def chain_source(self) -> str:
        lines = ["task Chains {Seed} {Final}"]
        for c in range(self.CHAINS):
            prev = "Seed"
            for i in range(self.DEPTH):
                lines.append(f"step c{c}s{i} {{{prev}}} {{c{c}_{i}}} {{mark}}")
                prev = f"c{c}_{i}"
        tails = " ".join(f"c{c}_{self.DEPTH - 1}" for c in range(self.CHAINS))
        lines.append(f"step Join {{{tails}}} {{Final}} {{mark}}")
        return "\n".join(lines)

    def chain_execution(self):
        clk = VirtualClock()
        db = DesignDatabase(clock=clk)
        db.put("seed", "S")
        registry = ToolRegistry()
        registry.add("mark", lambda call: ToolResult(
            outputs={n: "m" for n in call.output_names}))
        library = TemplateLibrary()
        library.add_source(self.chain_source())
        tm = TaskManager(db, registry, library,
                         cluster=Cluster.homogeneous(8, clock=clk),
                         clock=clk)
        return tm._instantiate("Chains", {"Seed": "seed@1"},
                               {"Final": "final"}, None)

    def test_tracked_objects_per_step(self):
        execution = self.chain_execution()

        def census() -> collections.Counter:
            gc.collect()
            return collections.Counter(
                type(obj).__name__ for obj in gc.get_objects())

        before = census()
        execution.run()
        held = census() - before
        steps = len(execution.step_records())
        assert steps == self.CHAINS * self.DEPTH + 1
        assert not {"ToolResult", "SimProcess", "ToolCall"} & held.keys()
        assert not {"_Pending", "StepSpec"} & held.keys()
        assert sum(held.values()) <= 4 * steps + 100

    def test_bytes_per_step(self):
        """Every byte the run leaves allocated, per settled step: the
        record and its strings, the version and the settled entry."""
        execution = self.chain_execution()
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            execution.run()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1000 * len(execution.step_records())


class TestVerifiedSynthesis:
    def test_equivalence_gate_passes(self, env):
        tm, db, seed, _ = env
        rec = tm.run_task("Verified_Synthesis",
                          inputs={"Incell": seed["parity.spec"]},
                          outputs={"Outcell": "vs.lay",
                                   "Equivalence": "vs.eq"})
        report = db.get("vs.eq").payload
        assert report.value("equal") == 1.0
        assert db.get("vs.lay").payload.area > 0

    def test_probe_matrix_includes_ulysses(self):
        from repro.baselines.feature_matrix import probe_ulysses

        row = probe_ulysses()
        assert row["tool_encapsulation"] and row["tool_navigation"]
        assert not row["data_evolution"]


class DeleteLog(list):
    """The names a database deleted, in order: a change-feed subscriber."""

    def observe(self, source, kind, details):
        if kind == "delete":
            self.append(details["name"])


class TestTombstoning:
    """Commit, undo and abort tombstone each version the task created with
    one ``delete`` that tolerates a version another actor already deleted
    or reclaimed."""

    SOURCE = """task Chain {Seed} {Final}
step A {Seed} {Mid} {make}
step B {Mid} {Final} {reap}
"""

    def run(self, reap, extra_body="", max_restarts=3):
        clk = VirtualClock()
        db = DesignDatabase(clock=clk)
        db.put("seed", "S")
        registry = ToolRegistry()
        registry.add("make", lambda call: ToolResult(
            outputs={n: "m" for n in call.output_names}))
        registry.add("reap", lambda call: reap(db, call))
        library = TemplateLibrary()
        library.add_source(self.SOURCE + extra_body)
        tm = TaskManager(db, registry, library,
                         cluster=Cluster.homogeneous(2, clock=clk),
                         clock=clk, max_restarts=max_restarts)
        deletes = DeleteLog()
        db.subscribe(deletes.observe)  # weak: the test holds ``deletes``
        return tm, db, deletes

    @staticmethod
    def finish(call):
        return ToolResult(outputs={n: "f" for n in call.output_names})

    @pytest.mark.parametrize("reclaim", [False, True])
    def test_commit_after_intermediate_gone(self, reclaim):
        def reap(db, call):
            db.delete(call.input_names[0])
            if reclaim:
                db.reclaim()
            return self.finish(call)

        tm, db, deletes = self.run(reap)
        record = tm.run_task("Chain", inputs={"Seed": "seed@1"},
                             outputs={"Final": "final"})
        assert record.outputs == ("final@1",)
        assert db.get("final@1").payload == "f"
        mid = record.steps[0].outputs[0]
        assert deletes == [mid]  # tombstoned once, by the reaper
        assert db.exists(mid) is not reclaim

    def test_undo_after_intermediate_reclaimed(self):
        calls = []

        def reap(db, call):
            calls.append(call.input_names[0])
            if len(calls) == 1:
                db.delete(call.input_names[0])
                db.reclaim()
                return ToolResult(status=1, log="reaped")
            return self.finish(call)

        tm, db, deletes = self.run(reap)
        record = tm.run_task("Chain", inputs={"Seed": "seed@1"},
                             outputs={"Final": "final"})
        assert calls[0] != calls[1]
        assert not db.exists(calls[0])
        assert record.steps[-1].status == 0
        assert db.get("final@1").payload == "f"
        assert deletes.count(calls[0]) == 1

    def test_abort_after_intermediate_reclaimed(self):
        def reap(db, call):
            db.delete(call.input_names[0])
            db.reclaim()
            return self.finish(call)

        tm, db, deletes = self.run(reap, "if {$status == 0} {abort}\n")
        with pytest.raises(TaskAborted):
            tm.run_task("Chain", inputs={"Seed": "seed@1"},
                        outputs={"Final": "final"})
        assert db.is_deleted("final@1")
        assert deletes[-1] == "final@1"
        assert [o.name for o in db if not db.is_deleted(o.name)] == \
            [db.get("seed@1").name]
