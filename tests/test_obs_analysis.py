"""Tests for the trace analytics layer (``repro.obs.analysis``): critical
path, per-host utilization timelines, run-to-run diff, streaming JSONL
export, per-host Chrome tracks, the engine/SDS histograms, and the shell's
``trace`` commands that front them."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cad import default_registry
from repro.clock import VirtualClock
from repro.core import HistoryRecord, LWTSystem
from repro.obs.analysis import (
    CriticalPath,
    TraceModel,
    critical_path,
    diff,
    event_count_delta,
    flame,
    profile_summary,
    render_diff,
    render_flame,
    render_gantt,
    render_report,
    utilization,
)
from repro.obs.schema import validate_events, validate_jsonl
from repro.obs.tracer import Tracer, read_jsonl
from repro.octdb import DesignDatabase
from repro.sprite import Cluster
from repro.sprite.host import OwnerSchedule, Workstation
from repro.taskmgr import TaskManager
from repro.workloads import seed_designs, standard_library


@pytest.fixture
def global_tracing(clock: VirtualClock):
    """Enable the process-wide tracer for one test, fully restored after."""
    obs.TRACER.clear()
    obs.TRACER.enable(clock=clock)
    yield obs.TRACER
    obs.TRACER.disable()
    obs.TRACER.close_stream()
    obs.TRACER.clear()


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


def build_chain_trace(clock: VirtualClock) -> Tracer:
    """A hand-built task span [0, 100] with a known dependency structure:

    A [0, 40] and B [0, 30] run concurrently; C [45, 90] starts only after
    A (its gating predecessor).  The engine takes 5s between A's finish and
    C's dispatch, and 10s after C to commit.  C is evicted at t=50 and
    remigrated at t=60.  The longest chain is therefore A → C, and the
    critical path must tile [0, 100] exactly:
    A(40) + engine-wait(5) + C(45) + finish-wait(10) = 100.
    """
    tracer = Tracer(clock=clock, enabled=True)
    with tracer.span("task:T", cat="task"):
        for step in ("A[0]", "B[1]", "C[2]"):
            tracer.event("step.issue", cat="step", step=step)
        tracer.complete_span("step:A", "step", 0.0, 40.0,
                             step="A[0]", host="home", pid=1)
        tracer.complete_span("step:B", "step", 0.0, 30.0,
                             step="B[1]", host="ws01", pid=2)
        tracer.complete_span("step:C", "step", 45.0, 90.0,
                             step="C[2]", host="home", pid=3)
        clock.advance(50.0)
        tracer.event("cluster.evict", cat="cluster", pid=3, step="C[2]",
                     host="home", to="ws01")
        clock.advance(10.0)
        tracer.event("cluster.remigrate", cat="cluster", pid=3, step="C[2]",
                     host="ws01", to="home")
        clock.advance(40.0)
    return tracer


class TestCriticalPath:
    def test_known_longest_chain(self, clock: VirtualClock):
        tracer = build_chain_trace(clock)
        model = TraceModel.from_tracer(tracer)
        path = critical_path(model)
        assert isinstance(path, CriticalPath)
        # the chain is A → C; B finishes earlier and is off the path
        assert [seg.label for seg in path.steps] == ["A[0]", "C[2]"]
        assert path.makespan == pytest.approx(100.0)
        # segments tile the task span: their durations sum to the makespan
        assert path.total == pytest.approx(path.makespan)

    def test_segments_tile_the_task_span(self, clock: VirtualClock):
        model = TraceModel.from_tracer(build_chain_trace(clock))
        path = critical_path(model)
        cursor = path.start
        for seg in path.segments:
            assert seg.start == pytest.approx(cursor)
            cursor = seg.end
        assert cursor == pytest.approx(path.end)
        waits = [seg for seg in path.segments if seg.kind == "wait"]
        assert [w.label for w in waits] == ["engine", "finish"]
        assert [w.dur for w in waits] == [pytest.approx(5.0),
                                          pytest.approx(10.0)]

    def test_per_step_attribution(self, clock: VirtualClock):
        model = TraceModel.from_tracer(build_chain_trace(clock))
        path = critical_path(model)
        a, c = path.steps
        assert a.queue_wait == pytest.approx(0.0)   # issued and started at 0
        # C was issued at t=0 but only dispatched at t=45
        assert c.queue_wait == pytest.approx(45.0)
        # evicted 50→60, entirely inside C's span
        assert c.evicted == pytest.approx(10.0)
        assert c.hops == 2                           # eviction + remigration
        assert (c.host, c.pid) == ("home", 3)
        overhead = path.overhead()
        assert overhead["run_seconds"] == pytest.approx(85.0)
        assert overhead["wait_seconds"] == pytest.approx(15.0)
        assert overhead["evicted_seconds"] == pytest.approx(10.0)
        assert overhead["overhead_fraction"] == pytest.approx(0.25)

    def test_no_task_spans(self, clock: VirtualClock):
        tracer = Tracer(clock=clock, enabled=True)
        tracer.event("lonely", cat="db")
        assert critical_path(TraceModel.from_tracer(tracer)) is None

    def test_real_run_total_equals_task_duration(self, taskenv,
                                                 global_tracing):
        """Acceptance: the critical path extracted from a real engine run
        sums exactly to the root task span's duration."""
        tm, db, seed, clk = taskenv
        global_tracing.enable(clock=clk)
        tm.run_task("Structure_Synthesis",
                    inputs={"Incell": seed["adder.spec"],
                            "Musa_Command": seed["musa.cmd"]},
                    outputs={"Outcell": "a.layout",
                             "Cell_Statistics": "a.stats"})
        model = TraceModel.from_tracer(global_tracing)
        (task,) = model.task_spans()
        path = critical_path(model, task)
        assert path.total == pytest.approx(task.dur, abs=1e-6)
        assert path.makespan == pytest.approx(task.dur, abs=1e-6)
        assert path.steps                            # non-trivial chain
        assert all(seg.host for seg in path.steps)   # host attribution intact


class TestUtilization:
    def _hand_trace(self, clock: VirtualClock) -> TraceModel:
        """home runs pid 1 [0,30] and pid 2 [10,20] (timeshared), then
        pid 2 is evicted to ws01 where it runs [20,40]."""
        tracer = Tracer(clock=clock, enabled=True)
        tracer.event("cluster.submit", cat="cluster", pid=1, step="A",
                     host="home", migrated=False)
        clock.advance(10)
        tracer.event("cluster.submit", cat="cluster", pid=2, step="B",
                     host="home", migrated=False)
        clock.advance(10)
        tracer.event("cluster.evict", cat="cluster", pid=2, step="B",
                     host="home", to="ws01")
        clock.advance(10)
        tracer.event("cluster.complete", cat="cluster", pid=1, step="A",
                     host="home")
        clock.advance(10)
        tracer.event("cluster.complete", cat="cluster", pid=2, step="B",
                     host="ws01")
        return TraceModel.from_tracer(tracer)

    def test_interval_replay(self, clock: VirtualClock):
        timelines = utilization(self._hand_trace(clock))
        home, ws01 = timelines["home"], timelines["ws01"]
        assert home.intervals == [(0.0, 10.0, 1), (10.0, 20.0, 2),
                                  (20.0, 30.0, 1)]
        assert ws01.intervals == [(20.0, 40.0, 1)]
        # busy_seconds integrates load (process-seconds); busy_span is wall
        assert home.busy_seconds == pytest.approx(40.0)
        assert home.busy_span == pytest.approx(30.0)
        assert ws01.busy_seconds == pytest.approx(20.0)
        assert home.evictions == [20.0]
        assert ws01.arrivals == [20.0]

    def test_scheduler_gap_detection(self, clock: VirtualClock,
                                     global_tracing):
        """The report and the profile read the gaps the cluster charged
        (its ``cluster.gap`` events); they do not re-derive them."""
        hosts = [Workstation("home"),
                 Workstation("ws01",
                             schedule=OwnerSchedule(period=40, busy=20))]
        cluster = Cluster(hosts, clock=clock, remigration=False)
        for i in range(4):
            cluster.submit(f"job{i}", work=10.0)
        cluster.drain()
        model = TraceModel.from_tracer(global_tracing)
        # while home timeshared four processes, ws01 sat idle from t=20
        gaps = [e["args"] for e in model.events(name="cluster.gap")]
        assert {tuple(g["hosts"]) for g in gaps} == {("ws01",)}
        assert gaps[0]["start"] == 20.0
        report = "\n".join(render_report(model))
        assert f"scheduler gaps: {len(gaps)} spans, 20.0s total" in report
        assert "ws01 idle" in report
        assert profile_summary(model)["scheduler_gap_seconds"] == \
            cluster.stats.registry.value("cluster.gap_seconds") == 20.0

    def test_idle_host_keeps_its_gantt_row(self, clock: VirtualClock,
                                           global_tracing):
        """The ``cluster.host`` inventory gives a host no process ever ran
        on its timeline row; a run without gaps has no gap line and a zero
        profile total."""
        cluster = Cluster.homogeneous(3, clock=clock)
        cluster.submit("only", work=10.0)
        cluster.drain()
        model = TraceModel.from_tracer(global_tracing)
        timelines = utilization(model)
        assert set(timelines) == {"home", "ws01", "ws02"}
        assert timelines["ws02"].intervals == []
        rows = [line.split()[0] for line in render_gantt(timelines)[1:-1]]
        assert rows == ["home", "ws01", "ws02"]
        assert "scheduler gaps" not in "\n".join(render_report(model))
        assert profile_summary(model)["scheduler_gap_seconds"] == 0.0

    def test_gantt_renders_markers(self, clock: VirtualClock):
        timelines = utilization(self._hand_trace(clock))
        lines = render_gantt(timelines, width=40)
        rows = {line.split()[0]: line for line in lines[1:-1]}
        assert "E" in rows["home"]                   # eviction off home
        assert "M" in rows["ws01"]                   # arrival onto ws01
        assert "2" in rows["home"]                   # timeshared window
        assert "legend" in lines[-1]
        assert render_gantt({}) == ["(no cluster events in trace)"]

    def test_matches_cluster_stats_busy_counters(self, clock: VirtualClock,
                                                 global_tracing):
        """Acceptance: replayed per-host busy process-seconds agree exactly
        with the ``cluster.busy_seconds`` gauges ClusterStats maintains —
        including under owner-activity evictions and remigrations."""
        cluster = Cluster.homogeneous(4, clock=clock,
                                      owner_period=30.0, owner_busy=10.0)
        for i in range(6):
            cluster.submit(f"j{i}", work=40.0)
        cluster.drain()
        timelines = utilization(TraceModel.from_tracer(global_tracing))
        assert sum(len(tl.evictions) for tl in timelines.values()) > 0
        for host in cluster.hosts:
            expected = cluster.stats.busy_seconds[host]
            replayed = timelines[host].busy_seconds if host in timelines \
                else 0.0
            assert replayed == pytest.approx(expected, abs=1e-6), host


class TestDiff:
    def _run_macro(self, rework: bool) -> TraceModel:
        clk = VirtualClock()
        db = DesignDatabase(clock=clk)
        seed = seed_designs(db)
        tm = TaskManager(
            db, default_registry(), standard_library(),
            cluster=Cluster.homogeneous(4, clock=clk),
            clock=clk,
        )
        obs.TRACER.clear()
        obs.TRACER.enable(clock=clk)
        if rework:
            # first Detailed_Routing attempt fails → abort → undo → retry
            tm.on_restart = lambda ex, spec: ex.option_overrides.setdefault(
                "Detailed_Routing", []).extend(["-t", "64"])
        else:
            # navigator supplies the fixing option up front: no rework
            tm.navigator = (lambda spec, opts: opts + ["-t", "64"]
                            if spec.name == "Detailed_Routing" else None)
        tm.run_task("Macro_Place_Route",
                    inputs={"Incell": seed["alu.net"]},
                    outputs={"Outcell": "alu.routed"})
        return TraceModel.from_tracer(obs.TRACER)

    @pytest.fixture
    def macro_runs(self):
        try:
            baseline = self._run_macro(rework=False)
            rework = self._run_macro(rework=True)
        finally:
            obs.TRACER.disable()
            obs.TRACER.clear()
        return baseline, rework

    def test_run_against_itself_is_empty(self, macro_runs):
        baseline, rework = macro_runs
        assert diff(baseline, baseline) == []
        assert diff(rework, rework) == []
        assert render_diff(rework, rework) == \
            ["no structural or timing differences"]

    def test_rework_reports_replaced_subtree(self, macro_runs):
        """Acceptance: diffing a clean run against an abort/undo/retry run
        identifies the re-executed step as an added second occurrence."""
        baseline, rework = macro_runs
        entries = diff(baseline, rework)
        added = [e for e in entries if e.kind == "added"]
        assert any("step:Detailed_Routing#1" in e.label for e in added)
        retimed = [e for e in entries if e.kind == "retimed"]
        assert any(e.label == "task:Macro_Place_Route" and
                   e.b_dur > e.a_dur for e in retimed)
        deltas = event_count_delta(baseline, rework)
        assert deltas["task.abort"] == (0, 1)
        assert deltas["step.undo"][1] > deltas["step.undo"][0]

    def test_retimed_and_removed_hand_built(self, clock: VirtualClock):
        def trace(steps):
            tracer = Tracer(clock=VirtualClock(), enabled=True)
            with tracer.span("task:T", cat="task"):
                for name, start, end in steps:
                    tracer.complete_span(f"step:{name}", "step", start, end,
                                         step=name)
            return TraceModel.from_tracer(tracer)

        a = trace([("X", 0, 10), ("Y", 10, 20)])
        b = trace([("X", 0, 15)])
        entries = diff(a, b)
        kinds = {e.kind: e for e in entries}
        assert kinds["removed"].label == "task:T/step:Y"
        assert kinds["retimed"].label.endswith("step:X")
        assert (kinds["retimed"].a_dur, kinds["retimed"].b_dur) == (10, 15)


class TestStreaming:
    def test_round_trips_through_schema_validator(self, clock: VirtualClock,
                                                  tmp_path):
        path = str(tmp_path / "stream.jsonl")
        tracer = Tracer(clock=clock, enabled=True)
        tracer.stream_to(path)
        with tracer.span("task:T", cat="task"):
            clock.advance(2)
            tracer.event("db.put", cat="db", object="a@1")
        tracer.close_stream()
        count, errors = validate_jsonl(path)
        assert errors == []
        assert count == tracer.streamed == 2
        assert sorted(read_jsonl(path), key=lambda e: e["seq"]) == \
            sorted(tracer.sorted_events(), key=lambda e: e["seq"])

    def test_file_stays_complete_past_buffer_capacity(self,
                                                      clock: VirtualClock,
                                                      tmp_path):
        path = str(tmp_path / "overflow.jsonl")
        tracer = Tracer(clock=clock, enabled=True, capacity=2)
        tracer.stream_to(path)
        for i in range(6):
            tracer.event(f"e{i}", cat="db")
        tracer.close_stream()
        assert len(tracer.events) == 2               # buffer stays capped
        assert tracer.dropped == 4
        count, errors = validate_jsonl(path)
        assert (count, errors) == (6, [])            # the file is complete

    def test_clear_keeps_span_ids_unique_while_streaming(
            self, clock: VirtualClock, tmp_path):
        path = str(tmp_path / "cleared.jsonl")
        tracer = Tracer(clock=clock, enabled=True)
        tracer.stream_to(path)
        with tracer.span("first", cat="task"):
            clock.advance(1)
        tracer.clear()                               # buffer only; ids keep
        with tracer.span("second", cat="task"):
            clock.advance(1)
        tracer.close_stream()
        records = read_jsonl(path)
        assert validate_events(
            sorted(records, key=lambda e: e["seq"])) == []
        ids = [r["id"] for r in records if r["kind"] == "span"]
        assert len(ids) == len(set(ids)) == 2

    def test_enable_tracing_stream_to(self, clock: VirtualClock, tmp_path):
        path = str(tmp_path / "global.jsonl")
        try:
            obs.enable_tracing(clock, stream_to=path)
            obs.TRACER.event("ping", cat="db")
            assert obs.TRACER.stream_path == path
            obs.TRACER.close_stream()
        finally:
            obs.disable_tracing()
            obs.TRACER.close_stream()
            obs.TRACER.clear()
        assert validate_jsonl(path) == (1, [])


class TestChromeExport:
    def test_one_tid_per_host(self, clock: VirtualClock, tmp_path):
        tracer = Tracer(clock=clock, enabled=True)
        tracer.complete_span("step:A", "step", 0.0, 1.0,
                             step="A", host="ws01", pid=1)
        tracer.event("cluster.submit", cat="cluster", pid=2, step="B",
                     host="home")
        tracer.event("engine.tick", cat="engine")    # no host → engine track
        path = str(tmp_path / "chrome.json")
        tracer.export_chrome(path)
        with open(path) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        assert all("ph" in e and "ts" in e for e in events)
        names = {e["args"]["name"]: e["tid"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert set(names) == {"engine", "host:home", "host:ws01"}
        assert names["engine"] == 1
        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        assert by_name["step:A"]["tid"] == names["host:ws01"]
        assert by_name["cluster.submit"]["tid"] == names["host:home"]
        assert by_name["engine.tick"]["tid"] == names["engine"]


class TestHistograms:
    def test_sds_notify_fanout_observed(self):
        system = LWTSystem(clock=VirtualClock())
        a = system.create_thread("a", owner="randy")
        b = system.create_thread("b", owner="mary")
        system.db.put("cell", "v1")
        a.commit_record(HistoryRecord(task="w", inputs=(),
                                      outputs=("cell@1",), steps=()))
        sds = system.create_sds("S", [a, b])
        before = obs.METRICS.snapshot().get("sds.notify_fanout",
                                            {"count": 0})["count"]
        sds.contribute(a, "cell")                    # no flags yet → fanout 0
        sds.retrieve(b, "cell")                      # leaves a flag for b
        system.db.put("cell", "v2")
        a.commit_record(HistoryRecord(task="w2", inputs=(),
                                      outputs=("cell@2",), steps=()))
        sds.contribute(a, "cell")                    # delivered to b → 1
        hist = obs.METRICS.snapshot()["sds.notify_fanout"]
        assert hist["count"] == before + 2
        assert hist["max"] >= 1.0

    def test_step_latency_observed_at_harvest(self, taskenv, global_tracing):
        tm, db, seed, clk = taskenv
        global_tracing.enable(clock=clk)
        snap_before = obs.METRICS.snapshot()
        before = sum(v["count"] for k, v in snap_before.items()
                     if k.startswith("step.latency{"))
        tm.run_task("Padp", inputs={"Incell": seed["shifter.net"]},
                    outputs={"Outcell": "sh.pad"})
        snap = obs.METRICS.snapshot()
        latencies = {k: v for k, v in snap.items()
                     if k.startswith("step.latency{")}
        assert sum(v["count"] for v in latencies.values()) > before
        assert any(v["max"] > 0 for v in latencies.values())
        assert any("tool=padplace" in k for k in latencies)


class TestReportsAndCli:
    def test_render_report_and_profile_summary(self, taskenv, global_tracing):
        tm, db, seed, clk = taskenv
        global_tracing.enable(clock=clk)
        tm.run_task("Padp", inputs={"Incell": seed["shifter.net"]},
                    outputs={"Outcell": "sh.pad"})
        model = TraceModel.from_tracer(global_tracing)
        text = "\n".join(render_report(model))
        assert "critical path of task:Padp" in text
        assert "host utilization:" in text
        summary = profile_summary(model)
        assert summary["tasks"] == 1
        assert summary["critical_path"]["task"] == "task:Padp"
        assert summary["critical_path"]["makespan_seconds"] == \
            pytest.approx(model.task_spans()[0].dur)
        assert summary["utilization"]
        json.dumps(summary, sort_keys=True)          # BENCH_*.json payload

    def test_analysis_cli_exit_codes(self, clock: VirtualClock, tmp_path):
        """The offline analysis front end is the shell's trace commands:
        a good file reports, an empty one says so, a missing file or a
        missing argument is a shell error rather than a crashed REPL."""
        from repro.cli import Shell, ShellError

        good = str(tmp_path / "good.jsonl")
        build_chain_trace(clock).export_jsonl(good)
        empty = str(tmp_path / "empty.jsonl")
        Tracer(clock=VirtualClock(), enabled=True).export_jsonl(empty)
        shell = Shell()

        report = "\n".join(shell.execute(f"trace report {good}"))
        assert "critical path of task:T" in report
        assert "no task spans in trace" in \
            "\n".join(shell.execute(f"trace report {empty}"))
        assert "legend" in \
            "\n".join(shell.execute(f"trace timeline {good} 32"))
        assert "no structural or timing differences" in \
            "\n".join(shell.execute(f"trace diff {good} {good}"))
        with pytest.raises(ShellError, match="usage: trace diff"):
            shell.execute(f"trace diff {good}")
        with pytest.raises(ShellError, match="cannot read trace"):
            shell.execute(f"trace report {tmp_path / 'missing.jsonl'}")

    def test_shell_trace_analytics_commands(self, tmp_path):
        from repro.cli import Shell

        obs.TRACER.clear()
        try:
            shell = Shell()
            out = "\n".join(shell.execute("trace report"))
            assert "no trace events buffered" in out
            shell.execute("trace on")
            shell.execute("thread work")
            shell.execute("invoke Padp Incell=adder.net -- Outcell=a.pad")
            report = "\n".join(shell.execute("trace report"))
            assert "critical path of task:Padp" in report
            assert "host utilization:" in report
            timeline = "\n".join(shell.execute("trace timeline 32"))
            assert "legend" in timeline
            path = str(tmp_path / "run.jsonl")
            shell.execute(f"trace export {path}")
            diff_out = "\n".join(shell.execute(f"trace diff {path} {path}"))
            assert "no structural or timing differences" in diff_out
            file_report = "\n".join(shell.execute(f"trace report {path}"))
            assert "critical path of task:Padp" in file_report
            # a missing trace file is a shell error, not a crashed REPL
            from repro.cli import ShellError
            with pytest.raises(ShellError, match="cannot read trace"):
                shell.execute("trace report missing.jsonl")
            with pytest.raises(ShellError, match="cannot read trace"):
                shell.execute(f"trace diff {path} missing.jsonl")
        finally:
            obs.TRACER.disable()
            obs.TRACER.clear()

    def test_shell_trace_stream(self, tmp_path):
        from repro.cli import Shell

        obs.TRACER.clear()
        path = str(tmp_path / "live.jsonl")
        try:
            shell = Shell()
            shell.execute(f"trace stream {path}")
            shell.execute("thread work")
            shell.execute("invoke Padp Incell=adder.net -- Outcell=a.pad")
            status = "\n".join(shell.execute("trace status"))
            assert f"streaming to {path}" in status
            obs.TRACER.close_stream()
            count, errors = validate_jsonl(path)
            assert count > 0 and errors == []
        finally:
            obs.TRACER.disable()
            obs.TRACER.close_stream()
            obs.TRACER.clear()


class TestFlame:
    def test_merges_critical_paths_by_step_name(self, clock: VirtualClock):
        """Two runs of the same task fold into one frame per step name."""
        tracer = Tracer(clock=clock, enabled=True)
        for _ in range(2):
            with tracer.span("task:T", cat="task"):
                start = clock.now
                tracer.complete_span("step:A", "step", start, start + 40.0,
                                     step="A[0]", host="home", pid=1)
                tracer.complete_span("step:C", "step", start + 40.0,
                                     start + 90.0, step="C[1]", host="ws01",
                                     pid=2)
                clock.advance(90.0)
        frames = {f.label: f for f in
                  flame(TraceModel.from_tracer(tracer))}
        assert frames["A[0]"].count == 2
        assert frames["A[0]"].total == pytest.approx(80.0)
        assert frames["C[1]"].count == 2
        assert frames["C[1]"].total == pytest.approx(100.0)
        assert frames["C[1]"].max_dur == pytest.approx(50.0)
        assert frames["C[1]"].hosts == {"ws01": 2}
        # heaviest first
        assert [f.label for f in flame(TraceModel.from_tracer(tracer))][0] \
            == "C[1]"

    def test_reused_steps_attributed(self, clock: VirtualClock):
        tracer = Tracer(clock=clock, enabled=True)
        with tracer.span("task:T", cat="task"):
            tracer.complete_span("step:A", "step", 0.0, 0.0, step="A[0]",
                                 host="(memo)", reused=True)
            clock.advance(5.0)
        frames = flame(TraceModel.from_tracer(tracer))
        by_label = {f.label: f for f in frames}
        assert by_label["A[0]"].reused == 1
        text = "\n".join(render_flame(TraceModel.from_tracer(tracer)))
        assert "1 reused" in text

    def test_zero_duration_steps_terminate(self, clock: VirtualClock):
        """Regression: two zero-duration steps at the same timestamp each
        qualify as the other's predecessor; the backward walk must visit
        each span once instead of ping-ponging forever."""
        tracer = Tracer(clock=clock, enabled=True)
        with tracer.span("task:T", cat="task"):
            tracer.complete_span("step:A", "step", 0.0, 0.0, step="A[0]",
                                 host="(memo)", reused=True)
            tracer.complete_span("step:B", "step", 0.0, 0.0, step="B[1]",
                                 host="(memo)", reused=True)
            clock.advance(1.0)
        path = critical_path(TraceModel.from_tracer(tracer))
        assert path is not None
        assert sorted(seg.label for seg in path.steps) == ["A[0]", "B[1]"]
        assert all(seg.reused for seg in path.steps)

    def test_flame_cli_and_shell(self, clock: VirtualClock, tmp_path):
        traced = build_chain_trace(clock)
        good = str(tmp_path / "good.jsonl")
        traced.export_jsonl(good)

        from repro.cli import Shell

        obs.TRACER.clear()
        try:
            shell = Shell()
            lines = "\n".join(shell.execute(f"trace flame {good} 20"))
            assert "critical-path time by step" in lines
            assert "A[0]" in lines and "C[2]" in lines
        finally:
            obs.TRACER.clear()
