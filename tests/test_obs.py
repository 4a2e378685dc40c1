"""Tests for the observability substrate: tracer, metrics, exporters,
clock hooks, shell surfacing, the abort-chain integration trace, the
tracer's stream lifecycle, and the benchmark harness's run metadata."""

from __future__ import annotations

import functools
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.cad import default_registry
from repro.cad.registry import ToolRegistry, ToolResult
from repro.clock import VirtualClock
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.obs.schema import validate_events, validate_jsonl
from repro.obs.tracer import Tracer, read_jsonl
from repro.octdb import DesignDatabase
from repro.sprite import Cluster
from repro.taskmgr import TaskManager
from repro.tdl.template import TemplateLibrary
from repro.workloads import seed_designs, standard_library


@pytest.fixture
def tracer(clock: VirtualClock) -> Tracer:
    return Tracer(clock=clock, enabled=True)


@pytest.fixture
def global_tracing(clock: VirtualClock):
    """Enable the process-wide tracer for one test, fully restored after."""
    obs.TRACER.clear()
    obs.TRACER.enable(clock=clock)
    yield obs.TRACER
    obs.TRACER.disable()
    obs.TRACER.clear()


class TestTracer:
    def test_span_nesting(self, tracer: Tracer, clock: VirtualClock):
        with tracer.span("outer", cat="task"):
            clock.advance(5)
            with tracer.span("inner", cat="step"):
                clock.advance(2)
                tracer.event("tick", cat="clock")
            clock.advance(1)
        spans = {s["name"]: s for s in tracer.spans()}
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["ts"] == 0.0
        assert spans["outer"]["dur"] == 8.0
        assert spans["inner"]["ts"] == 5.0
        assert spans["inner"]["dur"] == 2.0
        (event,) = tracer.find("tick")
        assert event["parent"] == spans["inner"]["id"]
        assert event["ts"] == 7.0

    def test_disabled_tracer_is_a_noop(self, clock: VirtualClock):
        tracer = Tracer(clock=clock, enabled=False)
        with tracer.span("nothing"):
            tracer.event("nope")
        assert tracer.events == []

    def test_span_records_error_type(self, tracer: Tracer):
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span["args"]["error"] == "ValueError"

    def test_complete_span_explicit_timing(self, tracer: Tracer):
        tracer.complete_span("step:X", "step", 3.0, 7.5, tool="misII")
        (span,) = tracer.spans()
        assert span["ts"] == 3.0 and span["dur"] == 4.5
        assert span["args"]["tool"] == "misII"

    def test_capacity_drops_not_grows(self, clock: VirtualClock):
        tracer = Tracer(clock=clock, enabled=True, capacity=3)
        for i in range(10):
            tracer.event(f"e{i}")
        assert len(tracer.events) == 3
        assert tracer.dropped == 7

    def test_jsonl_round_trip(self, tracer: Tracer, clock: VirtualClock):
        with tracer.span("outer"):
            clock.advance(1)
            tracer.event("mid", cat="db", object="a@1")
        buffer = io.StringIO()
        tracer.export_jsonl(buffer)
        buffer.seek(0)
        parsed = read_jsonl(buffer)
        assert parsed == tracer.sorted_events()
        assert validate_events(parsed) == []

    def test_jsonl_file_round_trip_and_schema(self, tracer: Tracer,
                                              clock: VirtualClock, tmp_path):
        with tracer.span("t"):
            clock.advance(2)
            tracer.event("e")
        path = str(tmp_path / "trace.jsonl")
        written = tracer.export_jsonl(path)
        count, errors = validate_jsonl(path)
        assert (written, errors) == (2, [])
        assert read_jsonl(path) == tracer.sorted_events()

    def test_chrome_export_loads_and_maps_units(self, tracer: Tracer,
                                                clock: VirtualClock, tmp_path):
        with tracer.span("t"):
            clock.advance(1.5)
            tracer.event("e")
        path = str(tmp_path / "trace.json")
        tracer.export_chrome(path)
        with open(path) as fh:
            doc = json.load(fh)
        phases = {e["name"]: e for e in doc["traceEvents"]}
        assert phases["t"]["ph"] == "X"
        assert phases["t"]["dur"] == pytest.approx(1.5e6)
        assert phases["e"]["ph"] == "i"

    def test_schema_rejects_bad_events(self):
        bad = [{"kind": "span", "name": "", "cat": "x", "ts": -1,
                "seq": 0, "parent": "zzz", "args": []}]
        errors = validate_events(bad)
        assert len(errors) >= 5

    def test_host_inventory_is_traced_and_validated(self, global_tracing,
                                                    clock: VirtualClock):
        """A traced cluster lists every host once, with its console state;
        the schema holds a ``cluster.host`` event to that contract."""
        from repro.sprite.host import OwnerSchedule, Workstation

        Cluster([Workstation("home"),
                 Workstation("ws01", schedule=OwnerSchedule(
                     period=10, busy=5, offset=0))], clock=clock)
        events = global_tracing.sorted_events()
        assert [(e["name"], e["args"]) for e in events] == [
            ("cluster.host", {"host": "home", "busy": False}),
            ("cluster.host", {"host": "ws01", "busy": True})]
        assert validate_events(events) == []
        broken = dict(events[0], args={"busy": "no"})
        assert len(validate_events([broken])) == 2


class TestClockHooks:
    def test_on_advance_fires_with_old_and_new(self, clock: VirtualClock):
        seen: list[tuple[float, float]] = []
        clock.on_advance.append(lambda old, new: seen.append((old, new)))
        clock.advance(3)
        clock.advance_to(10)
        clock.advance_to(5)      # no-op: already past
        clock.advance(0)         # no-op: zero-width advance
        assert seen == [(0.0, 3.0), (3.0, 10.0)]

    def test_tracer_clock_events_interleave_with_spans(self):
        """Clock advances land between span open and close, at the right
        timestamps, deterministically across runs."""

        def run() -> list[tuple]:
            clock = VirtualClock()
            tracer = Tracer(clock=clock, enabled=True)
            tracer.observe_clock(clock)
            with tracer.span("work"):
                clock.advance(4)
                clock.advance(6)
            return [(e["name"], e["ts"], e["seq"])
                    for e in tracer.sorted_events()]

        first, second = run(), run()
        assert first == second   # deterministic across runs
        assert first == [
            ("work", 0.0, 3),    # span sorts by its start time
            ("clock.advance", 4.0, 1),
            ("clock.advance", 10.0, 2),
        ]
        # and the span's extent brackets both advances
        clock = VirtualClock()
        tracer = Tracer(clock=clock, enabled=True)
        tracer.observe_clock(clock)
        with tracer.span("work"):
            clock.advance(4)
            clock.advance(6)
        (span,) = tracer.spans()
        advances = tracer.find("clock.advance")
        assert all(span["ts"] <= e["ts"] <= span["ts"] + span["dur"]
                   for e in advances)
        assert all(e["parent"] == span["id"] for e in advances)


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("steps").inc()
        registry.counter("steps").inc(2)
        registry.gauge("depth").set(7)
        registry.histogram("latency").observe(0.05)
        registry.histogram("latency").observe(30.0)
        snap = registry.snapshot()
        assert snap["steps"] == 3.0
        assert snap["depth"] == 7.0
        assert snap["latency"]["count"] == 2
        assert snap["latency"]["min"] == 0.05
        assert snap["latency"]["max"] == 30.0

    def test_labels_key_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("moves", direction="in").inc()
        registry.counter("moves", direction="out").inc(4)
        assert registry.counter("moves", direction="in").value == 1.0
        assert registry.value("moves", direction="out") == 4.0
        snap = registry.snapshot()
        assert snap["moves{direction=in}"] == 1.0
        assert snap["moves{direction=out}"] == 4.0

    def test_label_and_name_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("Bad Name")
        with pytest.raises(MetricError):
            registry.counter("ok", **{"Bad-Label": "x"})

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")
        with pytest.raises(MetricError):
            registry.histogram("x", host="a")

    def test_counters_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("c").inc(-1)

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.histogram("h", host="a").observe(2.0)
        registry.counter("c").inc()
        json.dumps(registry.snapshot(), sort_keys=True)


SMALL_DAG = """task Small {Seed} {Final}
step a {Seed} {x} {mark 1.0}
step b {Seed} {y} {mark 2.0}
step j {x y} {Final} {mark 1.0}"""

#: Fixed-name instruments of ``obs.METRICS``, one or more per subsystem:
#: each is a module-level handle, so it exists at 0 before anything runs.
FIXED_NAMES = (
    "db.versions_created", "engine.history_records", "engine.restarts",
    "engine.step_seconds", "engine.steps_completed", "engine.steps_failed",
    "datascope.cache_hits", "health.evaluations", "memo.evictions",
    "memo.size", "persist.chunks_written", "persist.journal_entries",
    "reclaim.objects_swept", "sds.moves{direction=contribute}",
    "sds.notify_fanout", "thread.commits", "thread.forks",
    "trace.buffer_fill", "trace.events",
)


def _fresh_interpreter(source: str) -> dict:
    """Run ``source`` in a new interpreter, so no earlier test has touched
    ``obs.METRICS``, and return the JSON object it prints."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(source)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _run_small_dag() -> None:
    """A fresh database and engine run ``SMALL_DAG`` once."""
    clk = VirtualClock()
    db = DesignDatabase(clock=clk)
    db.put("seed", "S")
    tools = ToolRegistry()
    tools.add("mark", lambda call: ToolResult(
        outputs={n: "m" for n in call.output_names}),
        cost=lambda call: float(call.options[0]))
    library = TemplateLibrary()
    library.add_source(SMALL_DAG)
    manager = TaskManager(db, tools, library,
                          cluster=Cluster.homogeneous(2, clock=clk),
                          clock=clk)
    manager.run_task("Small", inputs={"Seed": "seed@1"},
                     outputs={"Final": "final"})


@functools.lru_cache(maxsize=None)
def _retry_with_one_failure() -> dict:
    """One ``Retry`` task in a fresh interpreter under the stock SLOs: step
    A, then F, which fails once and succeeds on its retry."""
    return _fresh_interpreter("""
        import json
        from repro import obs
        from repro.cad.registry import ToolRegistry, ToolResult
        from repro.clock import VirtualClock
        from repro.obs.health import HealthMonitor, default_slos
        from repro.octdb import DesignDatabase
        from repro.sprite import Cluster
        from repro.taskmgr import TaskManager
        from repro.tdl.template import TemplateLibrary

        attempts = []

        def flaky(call):
            attempts.append(call.tool)
            status = 1 if len(attempts) == 1 else 0
            return ToolResult(status=status, outputs={
                n: "f" for n in call.output_names if not status})

        clock = VirtualClock()
        db = DesignDatabase(clock=clock)
        db.put("seed", "S")
        tools = ToolRegistry()
        tools.add("mark", lambda call: ToolResult(
            outputs={n: "m" for n in call.output_names}),
            cost=lambda call: 1.0)
        tools.add("flaky", flaky, cost=lambda call: 2.0)
        library = TemplateLibrary()
        library.add_source(
            "task Retry {In} {Out}\\n"
            "step {1 A} {In} {a} {mark In}\\n"
            "step {2 F} {a} {Out} {flaky a} {ResumedStep 1}")
        manager = TaskManager(db, tools, library,
                              cluster=Cluster.homogeneous(1, clock=clock),
                              clock=clock)
        monitor = HealthMonitor(rules=[], slos=default_slos())
        monitor.attach_taskmgr(manager)
        monitor.evaluate()
        manager.run_task("Retry", inputs={"In": "seed@1"},
                         outputs={"Out": "out"})
        print(json.dumps({
            "attempts": len(attempts),
            "failed": obs.METRICS.value("engine.steps_failed"),
            "completed": obs.METRICS.value("engine.steps_completed"),
            "budget": monitor.state["step_success"]["budget"],
        }))
    """)


class TestInstrumentsFromImport:
    def test_fixed_names_exist_at_zero_before_any_run(self):
        snap = _fresh_interpreter("""
            import json
            import repro, repro.activity.persistence, repro.core.thread_ops
            import repro.obs.health
            from repro import obs
            print(json.dumps(obs.METRICS.snapshot()))
        """)
        missing = [name for name in FIXED_NAMES if name not in snap]
        assert not missing, missing
        for name in FIXED_NAMES:
            value = snap[name]
            assert (value["count"] if isinstance(value, dict) else value) \
                == 0, name

    def test_first_failure_is_charged_to_the_step_success_budget(self):
        # Fresh interpreter: at the first failure ``engine.steps_failed``
        # must already have a sample at 0, or the failure is never charged.
        out = _retry_with_one_failure()
        assert out["attempts"] == 2 and out["failed"] == 1
        bad_fraction = out["failed"] / out["completed"]
        assert out["budget"] == pytest.approx(1.0 - bad_fraction / 0.05)

    def test_step_success_charges_one_failure_in_three_steps_as_a_third(
            self):
        # A, F (failed), F (retried): three executed steps, one failed.
        # ``engine.steps_completed`` counts the failed one too, so it is
        # the objective's total, not its good count (which read 1/4).
        out = _retry_with_one_failure()
        assert (out["completed"], out["failed"]) == (3, 1)
        assert (1.0 - out["budget"]) * 0.05 == pytest.approx(1 / 3)

    def test_small_dag_adds_only_its_tool_latency(self):
        before = obs.METRICS.snapshot()
        _run_small_dag()
        after = obs.METRICS.snapshot()
        assert after["engine.steps_completed"] \
            - before["engine.steps_completed"] == 3.0
        assert after["db.versions_created"] \
            - before["db.versions_created"] == 4.0
        assert set(after) - set(before) <= {"step.latency{tool=mark}"}
        assert after["step.latency{tool=mark}"]["count"] \
            - before.get("step.latency{tool=mark}", {"count": 0})["count"] \
            == 3


class TestClusterStatsMigration:
    def test_attribute_reads_preserved(self, clock: VirtualClock):
        cluster = Cluster.homogeneous(3, clock=clock)
        cluster.submit("a", work=10.0)
        cluster.submit("b", work=5.0, migratable=False)
        cluster.drain()
        stats = cluster.stats
        assert stats.submitted == 2
        assert stats.completed == 2
        assert stats.migrations == 1
        assert stats.ran_at_home == 1
        assert stats.ran_remote == 1
        assert stats.killed == 0
        # busy_seconds keeps its dict API
        assert stats.busy_seconds["home"] > 0
        assert set(stats.busy_seconds) <= set(cluster.hosts)
        assert stats.busy_seconds.get("nope", -1.0) == -1.0
        assert sum(stats.busy_seconds.values()) > 0

    def test_stats_backed_by_registry(self, clock: VirtualClock):
        cluster = Cluster.homogeneous(2, clock=clock)
        cluster.submit("a", work=1.0)
        cluster.drain()
        snap = cluster.stats.registry.snapshot()
        assert snap["cluster.submitted"] == 1.0
        assert snap["cluster.completed"] == 1.0
        assert any(key.startswith("cluster.busy_seconds{host=")
                   for key in snap)

    def test_unknown_attribute_still_raises(self, clock: VirtualClock):
        cluster = Cluster.homogeneous(1, clock=clock)
        with pytest.raises(AttributeError):
            cluster.stats.does_not_exist


@pytest.fixture
def taskenv():
    clk = VirtualClock()
    db = DesignDatabase(clock=clk)
    seed = seed_designs(db)
    cluster = Cluster.homogeneous(4, clock=clk)
    tm = TaskManager(
        db, default_registry(), standard_library(), cluster=cluster,
        clock=clk,
    )
    return tm, db, seed, clk


class TestIntegrationTrace:
    def test_task_run_emits_span_tree(self, taskenv, global_tracing):
        tm, db, seed, clk = taskenv
        global_tracing.enable(clock=clk)
        tm.run_task("Padp", inputs={"Incell": seed["shifter.net"]},
                    outputs={"Outcell": "sh.pad"})
        (task_span,) = [s for s in global_tracing.spans()
                        if s["name"] == "task:Padp"]
        child_names = {e["name"] for e in
                       global_tracing.span_children(task_span["id"])}
        assert {"step.issue", "step.dispatch",
                "step.complete"} <= child_names
        (step_span,) = [s for s in global_tracing.spans()
                        if s["name"] == "step:Pads_Placement"]
        assert step_span["parent"] == task_span["id"]
        assert step_span["dur"] > 0

    def test_concurrent_steps_hang_off_their_task_span(self, taskenv,
                                                        global_tracing):
        """``run_concurrent`` opens one ``task:`` span per request, and each
        step span names its own task's span as parent."""
        tm, db, seed, clk = taskenv
        global_tracing.enable(clock=clk)
        tm.run_concurrent([
            ("Padp", {"Incell": seed["adder.net"]}, {"Outcell": f"n{i}.pad"})
            for i in range(2)
        ])
        task_spans = [s for s in global_tracing.spans()
                      if s["name"] == "task:Padp"]
        step_spans = [s for s in global_tracing.spans()
                      if s["name"] == "step:Pads_Placement"]
        assert len(task_spans) == len(step_spans) == 2
        by_instance = {s["args"]["instance"]: s["id"] for s in task_spans}
        for step in step_spans:
            assert step["parent"] == by_instance[step["args"]["instance"]]
        for task in task_spans:
            assert task["dur"] >= max(s["dur"] for s in step_spans)

    def test_abort_chain_trace(self, taskenv, global_tracing):
        """A programmable abort shows the full §4.3.4 chain in the trace:
        issue → dispatch → (failing) complete → abort → undo → re-issue."""
        tm, db, seed, clk = taskenv
        global_tracing.enable(clock=clk)
        tm.on_restart = lambda ex, spec: ex.option_overrides.setdefault(
            "Detailed_Routing", []).extend(["-t", "64"])
        tm.run_task("Macro_Place_Route",
                    inputs={"Incell": seed["alu.net"]},
                    outputs={"Outcell": "alu.routed"})

        events = global_tracing.sorted_events()
        names = [e["name"] for e in events]
        assert "task.abort" in names
        assert "step.undo" in names

        # Every step event hangs off the one task span (task.commit fires
        # after the span closes, so it is parentless by design).
        (task_span,) = [s for s in global_tracing.spans()
                        if s["name"] == "task:Macro_Place_Route"]
        for event in events:
            if event["kind"] == "event" and event["cat"] == "step":
                assert event["parent"] == task_span["id"]

        # The failing step's chain is ordered: dispatch → failed completion
        # → abort → undo → re-dispatch of the same step.
        def seqs(name, step_prefix=None):
            return [e["seq"] for e in events if e["name"] == name
                    and (step_prefix is None
                         or e["args"]["step"].startswith(step_prefix))]

        route_dispatches = seqs("step.dispatch", "Detailed_Routing")
        assert len(route_dispatches) == 2          # original + retry
        (abort_seq,) = seqs("task.abort")
        failed = [e for e in events if e["name"] == "step.complete"
                  and e["args"]["status"] != 0]
        assert failed and failed[0]["seq"] < abort_seq
        undo_seqs = seqs("step.undo")
        assert undo_seqs and all(s > abort_seq for s in undo_seqs)
        assert route_dispatches[0] < abort_seq < route_dispatches[1]

        # Metrics tell the same story.
        assert obs.METRICS.value("engine.restarts") >= 1
        assert obs.METRICS.value("engine.steps_undone") >= 1

        # And the whole trace validates + round-trips.
        buffer = io.StringIO()
        global_tracing.export_jsonl(buffer)
        buffer.seek(0)
        parsed = read_jsonl(buffer)
        assert validate_events(parsed) == []
        assert parsed == global_tracing.sorted_events()


class TestShellSurface:
    def test_trace_stats_spans_commands(self, tmp_path):
        from repro.cli import Shell

        obs.TRACER.clear()
        try:
            shell = Shell()
            shell.execute("trace on")
            shell.execute("thread work")
            shell.execute("invoke Padp Incell=adder.net -- Outcell=a.pad")
            stats_out = "\n".join(shell.execute("stats"))
            assert "cluster.submitted" in stats_out
            assert "engine.steps_issued" in stats_out
            spans_out = "\n".join(shell.execute("spans"))
            assert "task:Padp" in spans_out
            path = str(tmp_path / "t.jsonl")
            shell.execute(f"trace export {path}")
            count, errors = validate_jsonl(path)
            assert count > 0 and errors == []
            status = "\n".join(shell.execute("trace status"))
            assert "tracing on" in status
            shell.execute("trace off")
            assert not obs.TRACER.enabled
        finally:
            obs.TRACER.disable()
            obs.TRACER.clear()


class TestStreamLifecycle:
    def test_stream_to_returns_context_manager(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(enabled=True)
        with tracer.stream_to(str(path)):
            tracer.event("cursor.move", cat="thread")
        assert tracer.stream_path is None          # closed on exit
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events and events[0]["name"] == "cursor.move"

    def test_stream_close_is_registered_atexit(self, tmp_path):
        tracer = Tracer(enabled=True)
        assert not tracer._atexit_registered
        tracer.stream_to(str(tmp_path / "t.jsonl"))
        assert tracer._atexit_registered
        tracer.close_stream()
        # Registration is one-time; a second stream doesn't re-register.
        tracer.stream_to(str(tmp_path / "u.jsonl"))
        assert tracer._atexit_registered
        tracer.close_stream()

    def test_repoint_same_path_is_still_noop(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer(enabled=True)
        tracer.stream_to(path)
        tracer.event("a", cat="thread")
        tracer.stream_to(path)                     # must not truncate
        tracer.event("b", cat="thread")
        tracer.close_stream()
        with open(path, "r", encoding="utf-8") as fh:
            assert len(fh.readlines()) == 2


class TestBenchMeta:
    def test_note_run_meta_always_records_wall_and_rss(self):
        from benchmarks import common

        common.note_run_meta(seed=99)
        assert common._RUN_META["wall_seconds"] > 0
        assert common._RUN_META["max_rss_bytes"] > 0
        assert common._RUN_META["seed"] == 99

    def test_max_rss_is_plausible(self):
        from benchmarks.common import max_rss_bytes

        assert max_rss_bytes() > 1 << 20   # a Python process exceeds 1 MiB
