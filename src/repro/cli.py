"""An interactive shell over the activity manager.

The thesis's Tk interface (Figs 5.1–5.5) reduced to a line-oriented shell:
the same operations — list/invoke tasks, browse the control stream, move the
current cursor, inspect the data scope and thread workspace, annotate and
random-access design points, save/restore the installation — exposed as
commands, so scripted designers and humans drive the same code path.

Run interactively::

    python -m repro.cli

or drive it programmatically (the tests do)::

    shell = Shell()
    shell.execute("invoke Padp Incell=adder.net -- Outcell=a.pad")
"""

from __future__ import annotations

import shlex
from typing import Callable

from repro import Papyrus, obs
from repro.activity.persistence import PersistentSession, compact_store
from repro.activity.upgrade import upgrade_directory
from repro.activity.reclamation import Reclaimer
from repro.activity.viewport import render_stream
from repro.core.lwt import LWTSystem
from repro.clock import VirtualClock
from repro.errors import PapyrusError
from repro.obs import provenance
from repro.octdb.naming import parse_name


class ShellError(PapyrusError):
    """Bad shell usage (unknown command, malformed arguments)."""


def _parse_bindings(tokens: list[str]) -> tuple[dict[str, str], dict[str, str]]:
    """``A=x B=y -- C=z`` → (inputs, outputs); ``--`` separates them."""
    inputs: dict[str, str] = {}
    outputs: dict[str, str] = {}
    target = inputs
    for token in tokens:
        if token == "--":
            target = outputs
            continue
        if "=" not in token:
            raise ShellError(f"expected Formal=actual, got {token!r}")
        formal, _, actual = token.partition("=")
        target[formal] = actual
    return inputs, outputs


class Shell:
    """A command interpreter bound to one Papyrus installation."""

    def __init__(self, papyrus: Papyrus | None = None):
        self.papyrus = papyrus or Papyrus.standard(hosts=4)
        self.current: str | None = None
        self.out: list[str] = []
        self.done = False
        #: Lazily attached ``repro.obs.health.HealthMonitor`` (first
        #: ``health`` command wires it to the installation's clock/taskmgr).
        self._health = None
        #: Write-ahead persistence session, attached by the first ``save``
        #: (or by ``load``); subsequent saves to the same directory are
        #: incremental journal appends instead of full re-serializations.
        self._session: PersistentSession | None = None

    # ------------------------------------------------------------- machinery

    def _print(self, text: str = "") -> None:
        self.out.append(text)

    def execute(self, line: str) -> list[str]:
        """Run one command line; returns (and records) the output lines."""
        self.out = []
        tokens = shlex.split(line, comments=True)
        if not tokens:
            return self.out
        name, args = tokens[0], tokens[1:]
        # The handler is looked up per command, never stored: a shell that
        # held its bound methods would hold itself in a cycle, and with it
        # the whole installation.
        handler = getattr(self, f"_cmd_{name}", None)
        if handler is None:
            raise ShellError(f"unknown command {name!r}; try 'help'")
        handler(args)
        return self.out

    def run(self) -> None:  # pragma: no cover - interactive loop
        print("Papyrus shell. 'help' lists commands, 'quit' exits.")
        while not self.done:
            try:
                line = input(f"papyrus[{self.current or '-'}]> ")
            except EOFError:
                break
            try:
                for text in self.execute(line):
                    print(text)
            except PapyrusError as exc:
                print(f"error: {exc}")

    def _manager(self):
        if self.current is None:
            raise ShellError("no current thread; use: thread <name>")
        return self.papyrus.activities[self.current]

    # -------------------------------------------------------------- commands

    def _cmd_help(self, args: list[str]) -> None:
        self._print("commands:")
        summaries = {
            "tasks": "list task templates",
            "tools": "list CAD tools",
            "thread <name>": "open (or switch to) a design thread",
            "threads": "list open threads",
            "invoke <task> In=obj... -- Out=name...": "run a task",
            "render": "show the control stream",
            "move <point> [erase]": "rework: move the current cursor",
            "scope": "show the data scope at the cursor",
            "workspace": "show the thread workspace",
            "annotate <point> <text>": "annotate a design point",
            "goto time <seconds> | goto note <text>": "random access",
            "man <tool>": "show a tool's man page",
            "objects [base]": "list database objects",
            "notebook": "generate the design notebook from the history",
            "reclaim [grace-seconds] [max-versions]":
                "run the storage reclaimer (optionally budgeted)",
            "why <obj@v>": "derivation chain back to primary sources",
            "blame <obj>": "per-version producing record and thread",
            "impact <obj@v>": "forward closure: what this version feeds",
            "audit [n|kind <k>|export <path>]": "the mutation journal",
            "trace on|off|status|export <path> [chrome]": "control tracing",
            "trace stream <path>": "stream events to a JSONL file live",
            "trace report [path]": "critical path, utilization and gaps",
            "trace timeline [path] [width]": "per-host Gantt timeline",
            "trace diff <a.jsonl> <b.jsonl>": "compare two runs' span trees",
            "trace flame [path] [width]": "merge critical paths by step name",
            "health [--rules site.json] [rules|slos]":
                "evaluate alert rules + SLO burn rates (ok/warn/crit)",
            "top [snapshot.json]":
                "operational console (health, SLO budgets, hosts)",
            "stats": "print the metrics registry snapshot",
            "spans [n]": "show the trace span/event tree (last n events)",
            "advance <seconds>": "advance the virtual clock",
            "save <dir> / load <dir>": "persist / restore everything",
            "compact [dir]": "checkpoint + garbage-collect the chunk store",
            "upgrade <old-dir> <new-dir>": "convert an older save directory",
            "quit": "leave the shell",
        }
        for usage, summary in summaries.items():
            self._print(f"  {usage:<44} {summary}")

    def _cmd_tasks(self, args: list[str]) -> None:
        for name in self.papyrus.taskmgr.library.names():
            template = self.papyrus.taskmgr.library.get(name)
            self._print(
                f"  {name:<28} in={','.join(template.inputs) or '-'} "
                f"out={','.join(template.outputs) or '-'}"
            )

    def _cmd_tools(self, args: list[str]) -> None:
        registry = self.papyrus.taskmgr.registry
        for name in registry.names():
            self._print(f"  {name:<12} {registry.get(name).description}")

    def _cmd_thread(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ShellError("usage: thread <name>")
        name = args[0]
        if name not in self.papyrus.activities:
            self.papyrus.open_thread(name)
            self._print(f"created thread {name!r}")
        self.current = name
        self._print(f"current thread: {name}")

    def _cmd_threads(self, args: list[str]) -> None:
        for name, manager in self.papyrus.activities.items():
            marker = " *" if name == self.current else ""
            self._print(
                f"  {name:<20} cursor={manager.thread.current_cursor} "
                f"records={len(manager.thread.stream)}{marker}"
            )

    def _cmd_invoke(self, args: list[str]) -> None:
        if not args:
            raise ShellError(
                "usage: invoke <task> In=obj ... -- Out=name ...")
        task, rest = args[0], args[1:]
        inputs, outputs = _parse_bindings(rest)
        point = self._manager().invoke(task, inputs, outputs)
        if point is None:
            self._print(f"{task}: completed (filtered, no history kept)")
            return
        record = self._manager().thread.stream.record(point)
        self._print(f"committed at design point {point}: {record.summary()}")
        for step in record.steps:
            self._print(
                f"  {step.completed_at:8.1f}s {step.name:<28} "
                f"{step.tool:<10} {step.host:<5} status={step.status}"
            )

    def _cmd_render(self, args: list[str]) -> None:
        thread = self._manager().thread
        self._print(render_stream(thread.stream, cursor=thread.current_cursor))

    def _cmd_move(self, args: list[str]) -> None:
        if not args:
            raise ShellError("usage: move <point> [erase]")
        erase = len(args) > 1 and args[1] == "erase"
        self._manager().move_cursor(int(args[0]), erase=erase)
        self._print(f"cursor at design point {args[0]}"
                    + (" (branch erased)" if erase else ""))

    def _cmd_scope(self, args: list[str]) -> None:
        for name in self._manager().show_data_scope():
            self._print(f"  {name}")

    def _cmd_workspace(self, args: list[str]) -> None:
        for name in self._manager().show_thread_workspace():
            self._print(f"  {name}")

    def _cmd_annotate(self, args: list[str]) -> None:
        if len(args) < 2:
            raise ShellError("usage: annotate <point> <text>")
        text = " ".join(args[1:])
        self._manager().thread.annotate(int(args[0]), text)
        self._print(f"annotated point {args[0]}: {text}")

    def _cmd_goto(self, args: list[str]) -> None:
        if len(args) < 2 or args[0] not in ("time", "note"):
            raise ShellError("usage: goto time <seconds> | goto note <text>")
        if args[0] == "time":
            point = self._manager().go_to_time(float(args[1]))
        else:
            point = self._manager().go_to_annotation(" ".join(args[1:]))
        if point is None:
            self._print("no matching design point")
        else:
            self._print(f"cursor at design point {point}")

    def _cmd_man(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ShellError("usage: man <tool>")
        tool = self.papyrus.taskmgr.registry.get(args[0])
        self._print(tool.man_page or f"{tool.name}: no man page")

    def _cmd_objects(self, args: list[str]) -> None:
        base = args[0] if args else None
        for obj in self.papyrus.db:
            if base is not None and obj.base != base:
                continue
            deleted = obj.deleted_at is not None
            self._print(
                f"  {str(obj):<34} {type(obj.payload).__name__:<16}"
                f"{' (deleted)' if deleted else ''}"
            )

    def _cmd_notebook(self, args: list[str]) -> None:
        from repro.metadata.notebook import design_notebook

        manager = self._manager()
        self.papyrus.observe_history(manager)
        self._print(design_notebook(manager.thread, self.papyrus.inference))

    def _cmd_reclaim(self, args: list[str]) -> None:
        grace = float(args[0]) if args else 0.0
        max_versions = int(args[1]) if len(args) > 1 else None
        reclaimer = Reclaimer(self._manager().thread)
        report = reclaimer.sweep(reclaim_grace=grace,
                                 max_versions=max_versions)
        reclaimed = self.papyrus.db.reclaim(grace_seconds=grace,
                                            max_versions=max_versions)
        self._print(
            f"abstracted {report.records_abstracted} records, pruned "
            f"{report.records_pruned}, reclaimed {len(reclaimed)} versions"
        )

    # ------------------------------------------------------------- provenance

    def _lineage(self, args: list[str], usage: str, render: Callable,
                 name: Callable[[str], str] = str) -> None:
        if len(args) != 1:
            raise ShellError(usage)
        graph = provenance.ProvenanceGraph.from_papyrus(self.papyrus)
        for line in render(graph, name(args[0])):
            self._print(line)

    def _cmd_why(self, args: list[str]) -> None:
        self._lineage(args, "usage: why <object@version>",
                      provenance.render_why)

    def _cmd_blame(self, args: list[str]) -> None:
        self._lineage(args, "usage: blame <object>", provenance.render_blame,
                      lambda arg: parse_name(arg).base)

    def _cmd_impact(self, args: list[str]) -> None:
        self._lineage(args, "usage: impact <object@version>",
                      provenance.render_impact)

    def _cmd_audit(self, args: list[str]) -> None:
        usage = "usage: audit [n] | audit kind <kind> | audit export <path>"
        if args and args[0] == "export":
            if len(args) != 2:
                raise ShellError(usage)
            count = self.papyrus.db.audit.export_jsonl(args[1])
            self._print(f"wrote {count} audit entries to {args[1]}")
            return
        kind = None
        limit = 50
        if args and args[0] == "kind":
            if len(args) != 2:
                raise ShellError(usage)
            kind = args[1]
        elif args:
            if not args[0].isdigit():
                raise ShellError(usage)
            limit = int(args[0])
        lines = self.papyrus.db.audit.render(limit=limit, kind=kind)
        if not lines:
            self._print("audit journal is empty")
            return
        for line in lines:
            self._print(line)

    def _cmd_trace(self, args: list[str]) -> None:
        usage = ("usage: trace on|off|status|clear | trace export <path> "
                 "[chrome] | trace stream <path> | trace report [path] | "
                 "trace timeline [path] [width] | trace diff <a> <b> | "
                 "trace flame [path] [width]")
        if not args:
            raise ShellError(usage)
        action = args[0]
        if action == "on":
            obs.enable_tracing(self.papyrus.clock, observe_clock=True)
            self._print("tracing enabled (virtual-clock timestamps)")
        elif action == "off":
            obs.disable_tracing()
            self._print("tracing disabled")
        elif action == "clear":
            obs.TRACER.clear()
            self._print("trace buffer cleared")
        elif action == "status":
            state = "on" if obs.TRACER.enabled else "off"
            streaming = (f", streaming to {obs.TRACER.stream_path}"
                         if obs.TRACER.stream_path else "")
            self._print(
                f"tracing {state}: {len(obs.TRACER.events)} buffered events"
                + (f", {obs.TRACER.dropped} dropped" if obs.TRACER.dropped
                   else "") + streaming
            )
        elif action == "stream":
            if len(args) != 2:
                raise ShellError(usage)
            obs.enable_tracing(self.papyrus.clock, observe_clock=True,
                               stream_to=args[1])
            self._print(f"tracing enabled, streaming JSONL to {args[1]}")
        elif action == "export":
            if len(args) < 2:
                raise ShellError(usage)
            path = args[1]
            chrome = len(args) > 2 and args[2] == "chrome"
            if chrome:
                count = obs.TRACER.export_chrome(path)
                self._print(f"wrote {count} Chrome trace events to {path} "
                            "(open in Perfetto / chrome://tracing)")
            else:
                count = obs.TRACER.export_jsonl(path)
                self._print(f"wrote {count} JSONL events to {path}")
        elif action in ("report", "timeline", "diff", "flame"):
            self._trace_analysis(action, args[1:], usage)
        else:
            raise ShellError(usage)

    def _trace_analysis(self, action: str, args: list[str],
                        usage: str) -> None:
        """The analytics subcommands: critical-path report, per-host
        timeline, and run-to-run diff (``repro.obs.analysis``)."""
        from repro.obs import analysis

        def load(path: str) -> "analysis.TraceModel":
            try:
                return analysis.TraceModel.from_jsonl(path)
            except OSError as exc:
                raise ShellError(f"cannot read trace {path!r}: {exc}")
            except (ValueError, KeyError) as exc:
                raise ShellError(f"malformed trace {path!r}: {exc}")

        if action == "diff":
            if len(args) != 2:
                raise ShellError("usage: trace diff <a.jsonl> <b.jsonl>")
            lines = analysis.render_diff(load(args[0]), load(args[1]))
            for line in lines:
                self._print(line)
            return
        path = args[0] if args and not args[0].isdigit() else None
        if path is not None:
            model = load(path)
        else:
            if not obs.TRACER.events:
                self._print("no trace events buffered (is tracing on?)")
                return
            model = analysis.TraceModel.from_tracer(obs.TRACER)
        if action == "report":
            for line in analysis.render_report(model):
                self._print(line)
        elif action == "flame":
            width = int(args[-1]) if args and args[-1].isdigit() else 40
            for line in analysis.render_flame(model, width=width):
                self._print(line)
        else:
            width = int(args[-1]) if args and args[-1].isdigit() else 64
            lines = analysis.render_gantt(analysis.utilization(model),
                                          width=width)
            for line in lines:
                self._print(line)

    def _health_monitor(self, rules_path: str | None = None):
        """The installation's monitor, wired on first use: clock-throttled
        re-evaluation, an evaluation at every task commit, and the stock
        rules and objectives.  ``rules_path`` replaces the monitor with one
        built from a site ruleset file (the previous clock observer is
        cancelled so only one monitor evaluates)."""
        from repro.obs import health

        if rules_path is None and self._health is not None:
            return self._health
        if self._health is not None:
            self._health.detach()
        try:
            monitor = health.HealthMonitor.from_config(rules_path)
        except health.HealthError as exc:
            raise ShellError(str(exc))
        monitor.attach_clock(self.papyrus.clock)
        monitor.attach_taskmgr(self.papyrus.taskmgr)
        self._health = monitor
        return self._health

    def _cmd_health(self, args: list[str]) -> None:
        usage = ("usage: health [--rules site.json] | health rules | "
                 "health slos")
        rules_path = None
        if "--rules" in args:
            index = args.index("--rules")
            if index + 1 >= len(args):
                raise ShellError(usage)
            rules_path = args[index + 1]
            args = args[:index] + args[index + 2:]
        action = args[0] if args else "summary"
        if action == "summary":
            monitor = self._health_monitor(rules_path)
            monitor.evaluate(reason="shell")
            for line in monitor.render():
                self._print(line)
        elif action == "rules":
            monitor = self._health_monitor(rules_path)
            for rule in monitor.rules:
                state = ("FIRING" if monitor.firing.get(rule.name)
                         else "ok")
                self._print(
                    f"  rule {rule.name:<22} [{rule.severity:<4}] "
                    f"{rule.signal} {rule.op} {rule.threshold:g}  "
                    f"({state})  {rule.description}")
            for slo in monitor.slos:
                windows = " ".join(f"{w.label}x{w.factor:g}({w.severity})"
                                   for w in slo.windows)
                self._print(f"  slo  {slo.name:<22} obj {slo.objective:.0%}"
                            f"  bad={slo.bad}  {windows}  {slo.description}")
        elif action == "slos":
            monitor = self._health_monitor(rules_path)
            if not monitor.slos:
                self._print("no objectives configured")
                return
            monitor.evaluate(reason="shell")
            for slo in monitor.slos:
                state = monitor.state.get(slo.name, {})
                budget = state.get("budget")
                budget_text = ("n/a" if budget is None
                               else f"{budget:.1%} budget left")
                windows = " ".join(f"{w.label}x{w.factor:g}"
                                   for w in slo.windows)
                self._print(f"  {slo.name:<22} obj {slo.objective:.0%}  "
                            f"{budget_text}  ({windows})")
        else:
            raise ShellError(usage)

    def _cmd_top(self, args: list[str]) -> None:
        """The console frame: live from the health monitor's registries
        (after its firing alerts), or from a saved metrics/BENCH snapshot."""
        from repro.obs.health import HealthError
        from repro.obs.slo import TopView, read_snapshot, render_top

        if len(args) > 1:
            raise ShellError("usage: top [snapshot.json]")
        if args:
            try:
                view = TopView.from_snapshot(read_snapshot(args[0]))
            except (OSError, ValueError, HealthError) as exc:
                raise ShellError(f"cannot read snapshot {args[0]!r}: {exc}")
        else:
            monitor = self._health_monitor()
            monitor.evaluate(reason="top")
            for line in monitor.render() + [""]:
                self._print(line)
            view = TopView.from_snapshot(monitor.snapshot())
        for line in render_top(view):
            self._print(line)

    def _cmd_stats(self, args: list[str]) -> None:
        cluster = self.papyrus.taskmgr.cluster
        sections = [
            ("cluster", cluster.stats.registry.snapshot()),
            ("engine", obs.metrics_snapshot()),
        ]
        for title, snapshot in sections:
            if not snapshot:
                continue
            self._print(f"{title}:")
            for name, value in snapshot.items():
                if isinstance(value, dict):     # histogram
                    self._print(
                        f"  {name:<40} count={value['count']} "
                        f"mean={value['mean']:.2f} max={value['max']}"
                    )
                elif isinstance(value, float) and value != int(value):
                    self._print(f"  {name:<40} {value:.2f}")
                else:
                    self._print(f"  {name:<40} {int(value)}")

    def _cmd_spans(self, args: list[str]) -> None:
        limit = int(args[0]) if args else 50
        lines = obs.TRACER.render_tree(limit=limit)
        if not lines:
            self._print("no trace events buffered (is tracing on?)")
            return
        for line in lines:
            self._print(line)

    def _cmd_advance(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ShellError("usage: advance <seconds>")
        self.papyrus.clock.advance(float(args[0]))
        self._print(f"virtual time is now {self.papyrus.clock.now:.1f}s")

    def _session_for(self, directory: str) -> PersistentSession:
        """The attached session for a directory, (re)attaching if needed."""
        from pathlib import Path

        if (self._session is None
                or self._session.lwt is not self.papyrus.lwt
                or self._session.directory != Path(directory)):
            if self._session is not None:
                self._session.close()
            self._session = PersistentSession(self.papyrus.lwt, directory)
        return self._session

    def _cmd_save(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ShellError("usage: save <directory>")
        session = self._session_for(args[0])
        incremental = (not session.dirty) and session._has_snapshot
        session.save()
        mode = "journaled" if incremental else "checkpointed"
        self._print(f"{mode} to {args[0]}")

    def _cmd_load(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ShellError("usage: load <directory>")
        session = PersistentSession.open(args[0],
                                         LWTSystem(clock=VirtualClock()))
        lwt = session.lwt
        papyrus = Papyrus(lwt=lwt, taskmgr=self.papyrus.taskmgr,
                          clock=lwt.clock)
        papyrus.taskmgr.db = lwt.db
        papyrus.taskmgr.clock = papyrus.taskmgr.cluster.clock = lwt.clock
        from repro.activity.manager import ActivityManager

        for name, thread in lwt.threads.items():
            papyrus.activities[name] = ActivityManager(thread,
                                                       papyrus.taskmgr)
        self.papyrus = papyrus
        self.current = next(iter(lwt.threads), None)
        if self._session is not None:
            self._session.close()
        self._session = session
        self._print(f"loaded {len(lwt.threads)} threads from {args[0]}")

    def _cmd_compact(self, args: list[str]) -> None:
        if len(args) > 1:
            raise ShellError("usage: compact [directory]")
        if args:
            deleted = compact_store(args[0])
            self._print(f"collected {deleted} unreferenced chunks "
                        f"in {args[0]}")
            return
        if self._session is None:
            raise ShellError(
                "no persistence session attached: save <dir> first, "
                "or pass a directory: compact <dir>"
            )
        deleted = self._session.compact()
        self._print(
            f"checkpointed and collected {deleted} unreferenced chunks "
            f"in {self._session.directory}"
        )

    def _cmd_upgrade(self, args: list[str]) -> None:
        if len(args) != 2:
            raise ShellError("usage: upgrade <old-dir> <new-dir>")
        upgrade_directory(*args)
        self._print(f"upgraded {args[0]} to {args[1]}")

    def _cmd_quit(self, args: list[str]) -> None:
        self.done = True
        self._print("bye")


def main() -> None:  # pragma: no cover - console entry point
    Shell().run()


if __name__ == "__main__":  # pragma: no cover
    main()
