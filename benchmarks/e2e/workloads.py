"""The four workloads and the closed loop that times them.

Every input is generated here from the run's seed (nothing is imported
from ``repro.workloads.generator`` or other benchmark files, so later
changes there cannot move these inputs).  A workload is a generator of
operations; :func:`measure` prepares each one untimed, times only its
``run``, then checks its result untimed.

A run does a fixed amount of work: ``--seconds`` times the workload's
calibrated rate, in whole units (a Deep+Wide pair, a block of designer
ops, a restore/edit/checkpoint cycle).  On the reference machine that
takes about ``--seconds``; on a faster or slower build it is the same
work, so histories grow equally and every metric compares like with like.
All simulated quantities run on the program's virtual clock, so the
committed records — and the ``outputs_digest`` over them — are
deterministic for a given seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

from repro import Papyrus
from repro.activity.persistence import PersistentSession, load_system
from repro.cad.logic import BehavioralSpec
from repro.cad.registry import ToolRegistry, ToolResult
from repro.clock import VirtualClock
from repro.core import LWTSystem
from repro.core.control_stream import INITIAL_POINT
from repro.core.history import HistoryRecord, StepRecord
from repro.core.memo import fingerprint
from repro.obs import METRICS
from repro.obs.provenance import ProvenanceGraph
from repro.octdb import DesignDatabase
from repro.octdb.chunkstore import unwrap_payload
from repro.sprite import Cluster
from repro.taskmgr import TaskManager
from repro.tdl.template import TemplateLibrary


class Sample(NamedTuple):
    """One timed piece of a run: an op, or a window of a bigdag task."""

    #: The op kind (bigdag: the DAG shape).
    kind: str
    #: The latency population it belongs to; None for no latency sample.
    population: str | None
    #: Units of work done.
    work: int
    seconds: float
    #: Seconds of the :func:`probe` run just before it (0: not probed).
    probe: float

#: Iterations of the :func:`probe` loop: 0.15 ms on the reference machine,
#: a few per cent of a sample.
PROBE_LOOPS = 3000


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now: how fast the
    machine runs Python at this moment.

    Other tenants of a shared machine slow everything it runs.  A probe
    runs just before each timed sample and around each set-up, so the
    metrics can be scaled to one machine speed (see
    ``cli.at_reference_speed``).  The loop touches nothing of the program
    under test and allocates no tracked objects."""
    start = perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return perf_counter() - start


class CheckFailed(Exception):
    """An operation's output differs from what the workload expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None] | None = None
    #: Units of work the op completes (steps for bigdag, saves for
    #: checkpoint_restore, else one op).
    work: int = 1


def _hash_records(digest, records, clock_now: float) -> None:
    """Fold committed records into ``digest``: task, inputs, outputs and
    each step's tool/host/start/end/status/reused, then the clock."""
    for record in records:
        digest.update(json.dumps([
            record.task, list(record.inputs), list(record.outputs),
            [[s.tool, s.host, s.started_at, s.completed_at, s.status,
              s.reused] for s in record.steps],
        ]).encode())
    digest.update(repr(clock_now).encode())


def _stream_records(thread) -> list[HistoryRecord]:
    stream = thread.stream
    return [stream.node(p).record for p in stream.points()
            if p != INITIAL_POINT]


class Workload:
    """Base class: a seeded input generator plus a stream of operations."""

    name = ""
    #: Ops per indivisible unit of work.
    unit = 1
    #: Units per second of ``--seconds``, calibrated on the reference
    #: machine (2-core Xeon VM, CPython 3.11).
    units_per_second = 1.0
    #: Set-ups per run, whose median is ``setup_s``: enough that they add
    #: up to a second or more on the reference machine, so one hiccup does
    #: not decide the median.  A fixed count, so that the process's memory
    #: history, and with it ``peak_rss_mb``, does not vary with speed.
    setups = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        #: Workload-specific persistence figures (see CheckpointRestore).
        self.persist: dict[str, float] = {}
        #: Whether samples are probed (see :func:`measure`).
        self.probing = True

    def take_probe(self) -> float:
        """A :func:`probe` reading, or 0 when not probing."""
        return probe() if self.probing else 0.0

    def op_count(self, seconds: float) -> int:
        return max(1, round(seconds * self.units_per_second)) * self.unit

    def setup(self) -> None:
        """Build the state the timed phase starts from (timed as setup)."""
        raise NotImplementedError

    def state_digest(self) -> str:
        """A digest of the state ``setup`` built (equal across setups)."""
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def outputs_digest(self) -> str:
        raise NotImplementedError

    def population(self, kind: str) -> str | None:
        """The latency population of an op kind (None: its durations are
        no latency samples).  By default every op is in one, ``op``."""
        return "op"

    def samples(self, timed: list[Sample]) -> list[Sample]:
        """The run as samples in op order: by default one per op."""
        return timed

    def close(self) -> None:
        """Release what ``setup`` built (directories, large structures)."""


# ------------------------------------------------------------------ bigdag


def dag_template(name: str, chains: int, depth: int,
                 costs: list[float]) -> str:
    """TDL for ``chains`` independent chains of ``depth`` steps fanning out
    of one seed object, joined by a final step; chain ``c`` steps cost
    ``costs[c]`` virtual seconds each."""
    lines = [f"task {name} {{Seed}} {{Final}}"]
    for c in range(chains):
        prev = "Seed"
        for i in range(depth):
            out = f"c{c}_{i}"
            lines.append(f"step c{c}s{i} {{{prev}}} {{{out}}} "
                         f"{{mark {costs[c]}}}")
            prev = out
    tails = " ".join(f"c{c}_{depth - 1}" for c in range(chains))
    lines.append(f"step Join {{{tails}}} {{Final}} {{mark 1.0}}")
    return "\n".join(lines)


class BigDag(Workload):
    """Batch: 10k-step task instantiations back to back, alternating a deep
    shape (few long chains) and a wide one (many short chains, keeping
    every host busy), each on a fresh database and cluster.  The tool does
    nothing, so the wall is pure management overhead: TDL, scheduler,
    simulator, octdb and metrics.  No memo."""

    name = "bigdag"
    unit = 2
    units_per_second = 0.25
    setups = 8
    HOSTS = 8
    STEP_COSTS = (0.5, 1.0, 1.5, 2.0)
    #: Samples: each task's wall cut, at every this many tool calls, into
    #: windows, with a probe between windows.  Each shape is its own latency
    #: population: their per-step walls barely overlap, so a percentile over
    #: both would sit in the gap.
    WINDOW_STEPS = 25

    def __init__(self, seed: int, workdir: Path, deep: tuple = (10, 1000),
                 wide: tuple = (100, 100)):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.shapes = []
        self.sources = []
        for name, (chains, depth) in (("Deep", deep), ("Wide", wide)):
            costs = [rng.choice(self.STEP_COSTS) for _ in range(chains)]
            self.shapes.append((name, chains * depth + 1))
            self.sources.append(dag_template(name, chains, depth, costs))
        self._steps = 0
        #: The open window: (steps before it, start, its probe seconds).
        self._window = (0, 0.0, 0.0)
        #: The current task's (steps, seconds, probe seconds) windows.
        self._task_windows: list[tuple[int, float, float]] = []
        self._windows: list[Sample] = []
        self._digest = hashlib.sha256()

    def _mark(self, call):
        self._steps += 1
        if self._steps % self.WINDOW_STEPS == 0:
            self._close_window()
            self._open_window()
        return ToolResult(outputs={n: "m" for n in call.output_names})

    def _open_window(self) -> None:
        probe_s = self.take_probe()
        self._window = (self._steps, perf_counter(), probe_s)

    def _close_window(self) -> None:
        end = perf_counter()
        steps, start, probe_s = self._window
        self._task_windows.append((self._steps - steps, end - start, probe_s))

    def setup(self) -> None:
        self.library = TemplateLibrary()
        for source in self.sources:
            self.library.add_source(source)
        self.registry = ToolRegistry()
        self.registry.add("mark", self._mark,
                          cost=lambda call: float(call.options[0]))

    def state_digest(self) -> str:
        return ",".join(sorted(self.library.names()))

    def ops(self) -> Iterator[Op]:
        for i in itertools.count():
            name, steps = self.shapes[i % 2]
            clock = VirtualClock()
            db = DesignDatabase(clock=clock)
            db.put("seed", "S")
            manager = TaskManager(
                db, self.registry, self.library,
                cluster=Cluster.homogeneous(self.HOSTS, clock=clock),
                clock=clock)

            def run(manager=manager, name=name):
                self._steps = 0
                self._task_windows = []
                self._open_window()
                record = manager.run_task(name, inputs={"Seed": "seed@1"},
                                          outputs={"Final": "final"})
                self._close_window()
                return record

            def check(record, db=db, clock=clock, name=name, steps=steps):
                expect(len(record.steps) == steps == self._steps,
                       f"{name}: {len(record.steps)}/{steps} steps, "
                       f"{self._steps} tool calls")
                expect(all(s.status == 0 for s in record.steps),
                       f"{name}: a step failed")
                expect(db.get("final@1").payload == "m",
                       f"{name}: wrong final payload")
                _hash_records(self._digest, [record], clock.now)
                # The last window runs on to the end of the task, so the
                # windows tile its wall outside the probes.  A task that
                # ends on a cut leaves a window of no steps: its wall joins
                # the one before.
                windows = self._task_windows
                if len(windows) > 1 and windows[-1][0] == 0:
                    _, extra, _ = windows.pop()
                    work, seconds, probe_s = windows[-1]
                    windows[-1] = (work, seconds + extra, probe_s)
                self._windows += [Sample(name, name, work, seconds, probe_s)
                                  for work, seconds, probe_s in windows]

            yield Op("task", run, check, work=steps)

    def outputs_digest(self) -> str:
        return self._digest.hexdigest()

    def samples(self, timed):
        return self._windows


# ---------------------------------------------------------- design_session

#: Template → (input formals, output formals).  Every flow starts with a
#: ``bdsyn`` compile of the spec, which the lineage check relies on.
SESSION_TEMPLATES = {
    "Structure_Synthesis": (("Incell", "Musa_Command"),
                            ("Outcell", "Cell_Statistics")),
    "Verified_Synthesis": (("Incell",), ("Outcell", "Equivalence")),
    "Parallel_Analysis": (("Incell",), ("Stats", "Power", "Sim")),
    "Iterative_Refinement": (("Incell",), ("Outcell",)),
}


@dataclass
class _Designer:
    manager: Any
    #: Point → its thread state right after committing it.
    scopes: dict[int, frozenset[str]] = field(default_factory=dict)
    recent: list[int] = field(default_factory=list)
    last_output: str = ""


class DesignSession(Workload):
    """Closed loop: designers served round-robin.  Each invoke runs a real
    CAD flow on a fresh spec (so every memo lookup misses) and then shows
    the data scope; in every block of ``block`` ops, ``REWORKS`` move a
    designer's cursor back to one of its last ``RECENT`` points and
    ``QUERIES`` ask for the lineage of its latest output."""

    name = "design_session"
    units_per_second = 4.5
    setups = 25
    DESIGNERS = 4
    HOSTS = 4
    WIDTHS = (2, 3, 4)
    REWORKS = 2
    QUERIES = 1
    RECENT = 16

    def __init__(self, seed: int, workdir: Path, block: int = 20):
        super().__init__(seed, workdir)
        self.unit = block
        #: Every (template, kind, width) once; each pass reshuffles it, so
        #: every seed runs the same mix of CAD work in another order.
        self.combos = [(task, kind, width)
                       for task in SESSION_TEMPLATES
                       for kind in BehavioralSpec.KINDS
                       for width in self.WIDTHS]

    def setup(self) -> None:
        self.papyrus = Papyrus.standard(hosts=self.HOSTS)
        self.designers = [
            _Designer(self.papyrus.open_thread(f"designer{k}",
                                               owner=f"user{k}"))
            for k in range(self.DESIGNERS)
        ]

    def state_digest(self) -> str:
        return ",".join(sorted(self.papyrus.db.bases()))

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed)
        combos: list = []
        first_special = 2 * self.DESIGNERS   # each has >= 2 points by then
        for block in itertools.count():
            specials = rng.sample(range(first_special, self.unit),
                                  self.REWORKS + self.QUERIES)
            kinds = {pos: "rework" for pos in specials[:self.REWORKS]}
            kinds.update({pos: "query" for pos in specials[self.REWORKS:]})
            for pos in range(self.unit):
                i = block * self.unit + pos
                designer = self.designers[i % self.DESIGNERS]
                kind = kinds.get(pos, "invoke")
                if kind == "invoke":
                    if not combos:
                        combos = list(self.combos)
                        rng.shuffle(combos)
                    yield self._invoke(i, designer, *combos.pop())
                elif kind == "rework":
                    choices = [p for p in designer.recent
                               if p != designer.manager.thread.current_cursor]
                    yield self._rework(designer, rng.choice(choices))
                else:
                    yield self._query(designer)

    def _invoke(self, i: int, designer: _Designer, task: str, kind: str,
                width: int) -> Op:
        spec = f"s{i}.spec"
        self.papyrus.db.put(spec, BehavioralSpec(f"s{i}", kind, width),
                            creator="designer")
        formals_in, formals_out = SESSION_TEMPLATES[task]
        inputs = {f: ("musa.cmd" if f == "Musa_Command" else spec)
                  for f in formals_in}
        outputs = {f: f"s{i}.{f.lower()}" for f in formals_out}
        manager = designer.manager

        def run():
            point = manager.invoke(task, inputs, outputs)
            return point, manager.show_data_scope()

        def check(result):
            point, scope = result
            expect(point is not None, f"{task}: no design point")
            record = manager.thread.stream.node(point).record
            expect(record.task == task and
                   all(s.status == 0 for s in record.steps),
                   f"{task} on {kind}/{width}: bad record")
            expect(set(record.outputs) <= set(scope),
                   f"{task}: outputs missing from the data scope")
            if task == "Verified_Synthesis":
                report = self.papyrus.db.get(record.outputs[1]).payload
                expect(dict(report.values).get("equal") == 1.0,
                       f"{kind}/{width}: octverify found a mismatch")
            designer.scopes[point] = manager.thread.scope.thread_state(point)
            designer.recent = (designer.recent + [point])[-self.RECENT:]
            designer.last_output = record.outputs[0]

        return Op("invoke", run, check)

    def _rework(self, designer: _Designer, target: int) -> Op:
        manager = designer.manager

        def run():
            manager.move_cursor(target)
            return manager.show_data_scope()

        def check(scope):
            thread = manager.thread
            expect(thread.current_cursor == target,
                   "rework: cursor did not move")
            # Checked-in specs join the scope of every point; the rest of
            # it must be exactly what the point showed when committed.
            expect(set(scope) == designer.scopes[target]
                   | set(thread.extra_objects),
                   f"rework: data scope at point {target} changed")

        return Op("rework", run, check)

    def _query(self, designer: _Designer) -> Op:
        name = designer.last_output

        def run():
            self.papyrus.observe_history(designer.manager)
            return ProvenanceGraph.from_papyrus(self.papyrus).why(name)

        def check(chain):
            expect(bool(chain) and chain[-1].output == name,
                   f"why({name}): chain does not end at it")
            expect(chain[0].tool == "bdsyn",
                   f"why({name}): chain does not start at the spec compile")
            expect(all(self.papyrus.db.exists(h.output) for h in chain),
                   f"why({name}): a hop's output is missing")

        return Op("query", run, check)

    def outputs_digest(self) -> str:
        digest = hashlib.sha256()
        for designer in self.designers:
            _hash_records(digest, _stream_records(designer.manager.thread),
                          self.papyrus.clock.now)
        return digest.hexdigest()


# ----------------------------------------------------------- rework_replay

REPLAY_TASKS = ("Padp", "Standard_Cell_PR", "PLA_Generation")


class ReworkReplay(Workload):
    """Closed loop, one designer with a long history.  Each round moves the
    cursor to a point drawn uniformly over the whole history, shows the data
    scope there, and replays a task on ``g.logic`` — a derivation-cache hit,
    so no CAD runs.  Rework targets spread far beyond the scope cache, and
    the history is long enough that per-commit work proportional to it
    shows.  Set-up builds the history through the thread and task-manager
    APIs, as earlier sessions would have left it (the activity manager's
    per-commit display layout would make set-up quadratic); the timed
    rounds go through the activity manager.  The base history is long
    against the rounds added, so the cost per round drifts little."""

    name = "rework_replay"
    units_per_second = 85.0
    HOSTS = 2
    #: Set-up moves the cursor back once every this many commits.
    REWORK_EVERY = 7
    #: Every this many rounds, the cached scope is checked against a
    #: recompute.
    VERIFY_EVERY = 16

    def __init__(self, seed: int, workdir: Path, history: int = 2500):
        super().__init__(seed, workdir)
        self.history = history

    def _pick_point(self) -> int:
        points = self.designer.thread.stream.points()
        return points[1 + self.rng.randrange(len(points) - 1)]

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.papyrus = Papyrus.standard(hosts=self.HOSTS, seed=False)
        # One fixed design: the replayed steps fingerprint g.logic on every
        # memo lookup, so its size must not vary with the seed.
        self.papyrus.db.put("g.spec", BehavioralSpec("g", "adder", 4),
                            creator="designer")
        self.designer = self.papyrus.open_thread("replay", owner="designer")
        self.designer.invoke("Create_Logic_Description", {"Spec": "g.spec"},
                             {"Outcell": "g.logic"})
        thread = self.designer.thread
        #: Task → fingerprint of its output payload from the first run.
        self.reference: dict[str, str] = {}
        for n in range(1, self.history):
            if n % self.REWORK_EVERY == 0:
                thread.move_cursor(self._pick_point())
            task = self.rng.choice(REPLAY_TASKS)
            record = self.papyrus.taskmgr.run_task(
                task, {"Incell": str(thread.resolve("g.logic"))},
                {"Outcell": f"g.o{n}"}, memo=thread.memo)
            thread.commit_record(record)
            if task not in self.reference:
                self.reference[task] = fingerprint(
                    self.papyrus.db.get(record.outputs[0]).payload)
            self.papyrus.clock.advance(3600.0)

    def state_digest(self) -> str:
        digest = hashlib.sha256()
        _hash_records(digest, _stream_records(self.designer.thread),
                      self.papyrus.clock.now)
        return digest.hexdigest()

    def ops(self) -> Iterator[Op]:
        thread = self.designer.thread
        for i in itertools.count():
            target = self._pick_point()
            task = self.rng.choice(REPLAY_TASKS)

            def run(target=target, task=task, i=i):
                self.designer.move_cursor(target)
                scope = self.designer.show_data_scope()
                point = self.designer.invoke(task, {"Incell": "g.logic"},
                                             {"Outcell": f"g.r{i}"})
                return scope, point

            def check(result, target=target, task=task, i=i):
                scope, point = result
                expect("g.logic@1" in scope,
                       f"g.logic not visible at point {target}")
                record = thread.stream.node(point).record
                expect(all(s.reused for s in record.steps),
                       f"replay of {task} was not served from history")
                output = self.papyrus.db.get(record.outputs[0]).payload
                expect(fingerprint(output) == self.reference[task],
                       f"replay of {task} produced a different design")
                if i % self.VERIFY_EVERY == 0:
                    truth = thread.scope.thread_state(target, use_cache=False)
                    expect(set(scope) == truth | set(thread.extra_objects),
                           f"cached data scope at {target} is wrong")

            yield Op("rework", run, check)

    def outputs_digest(self) -> str:
        return self.state_digest()


# ------------------------------------------------------- checkpoint_restore


def _synth_record(clock: VirtualClock, name: str,
                  inputs: tuple[str, ...]) -> HistoryRecord:
    step = StepRecord(name="run", tool="synth", options=(), inputs=inputs,
                      outputs=(name,), host="h0", started_at=clock.now,
                      completed_at=clock.now, status=0)
    record = HistoryRecord(task="synth", inputs=inputs, outputs=(name,),
                           steps=(step,))
    record.recorded_at = clock.now
    return record


def _clone(source: Path, target: Path) -> None:
    """Copy a saved session; chunks are immutable and content-addressed,
    so they are hard-linked, while manifests (rewritten in place by a
    checkpoint) are copied."""
    def link_or_copy(src: str, dst: str) -> None:
        if Path(src).parent.parent.name == "objects":
            os.link(src, dst)
        else:
            shutil.copy2(src, dst)

    shutil.copytree(source, target, copy_function=link_or_copy)


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class CheckpointRestore(Workload):
    """Closed loop, one session.  Setup saves a workspace of ``bases`` ×
    ``versions`` objects drawn from a shared payload pool.  Each cycle
    restores it (touching ``TOUCH`` of the versions inside a ``BLOCK`` of
    bases), makes ``saves`` edits of ``EDITS`` puts + one commit + a
    journal ``save()`` (appended and fsynced), then compacts (checkpoint +
    chunk GC).  Every cycle starts from the same saved workspace, so the
    work per cycle does not grow with the run.  Only one put per save
    brings new content, so a save creates one chunk file: creating small
    files is the slowest and least repeatable thing a disk shared with
    other tenants does, and a fresh file per put made it most of a save."""

    name = "checkpoint_restore"
    units_per_second = 0.9
    #: Its set-up writes a thousand chunk files, which a shared disk makes
    #: the least repeatable set-up; more of them steady the median.
    setups = 7
    #: Set-up commits once every this many puts.
    COMMIT_EVERY = 10
    #: Puts per save.
    EDITS = 20
    #: Share of the versions a restore reads, and share of the bases they
    #: are drawn from.
    TOUCH = 0.01
    BLOCK = 0.05

    def __init__(self, seed: int, workdir: Path, bases: int = 1000,
                 versions: int = 10, pool: int = 1000, saves: int = 100):
        super().__init__(seed, workdir)
        self.rng = random.Random(seed)
        self.bases = bases
        self.versions = versions
        self.saves = saves
        self.unit = saves + 2
        self.touch = max(1, int(bases * versions * self.TOUCH))
        self.block = max(1, int(bases * self.BLOCK))
        self.pool = [{"netlist": [self.rng.randrange(10_000)
                                  for _ in range(8)],
                      "cell": f"macro{i}",
                      "area_um2": self.rng.randrange(100, 90_000)}
                     for i in range(pool)]
        self.pristine = workdir / "pristine"
        self.workspace = workdir / "workspace"
        self.persist = {"saves": 0, "save_bytes": 0, "restored_versions": 0,
                        "lazy_decodes": 0, "store_bytes_per_version": 0.0}
        self._digest = hashlib.sha256()

    def population(self, kind: str) -> str | None:
        # Saves are the latency; restores and checkpoints, one each per
        # hundred saves, add only to the time ops_per_s divides by.
        return "op" if kind == "save" else None

    def setup(self) -> None:
        shutil.rmtree(self.pristine, ignore_errors=True)
        clock = VirtualClock()
        lwt = LWTSystem(clock=clock)
        thread = lwt.create_thread("project", owner="designer")
        session = PersistentSession(lwt, self.pristine)
        puts = 0
        for version in range(self.versions):
            for base in range(self.bases):
                clock.advance(0.001)
                payload = self.pool[(base * self.versions + version)
                                    % len(self.pool)]
                obj = lwt.db.put(f"cell{base}", payload, creator="synth")
                puts += 1
                if puts % self.COMMIT_EVERY == 0:
                    inputs = (f"cell{base}@{version}",) if version else ()
                    thread.commit_record(
                        _synth_record(clock, str(obj.name), inputs))
        session.save()
        session.close()
        self.live = lwt

    def state_digest(self) -> str:
        digest = hashlib.sha256()
        _hash_records(digest, _stream_records(self.live.thread("project")),
                      self.live.clock.now)
        return digest.hexdigest()

    def ops(self) -> Iterator[Op]:
        state: dict[str, Any] = {}
        for cycle in itertools.count():
            shutil.rmtree(self.workspace, ignore_errors=True)
            _clone(self.pristine, self.workspace)
            block = self.rng.sample(range(self.bases), self.block)
            touched = [f"cell{self.rng.choice(block)}@"
                       f"{self.rng.randrange(1, self.versions + 1)}"
                       for _ in range(self.touch)]
            yield self._restore(state, touched)
            for n in range(self.saves):
                yield self._save(state, cycle, n)
            yield self._checkpoint(state, cycle)

    def _restore(self, state: dict, touched: list[str]) -> Op:
        decodes = METRICS.value("persist.lazy_decodes")

        def run():
            session = PersistentSession.open(
                self.workspace, LWTSystem(clock=VirtualClock()))
            payloads = [unwrap_payload(session.lwt.db.get(name).payload)
                        for name in touched]
            return session, payloads

        def check(result):
            session, payloads = result
            state["session"] = session
            self.persist["restored_versions"] += self.bases * self.versions
            self.persist["lazy_decodes"] += \
                METRICS.value("persist.lazy_decodes") - decodes
            live = [self.live.db.get(name).payload for name in touched]
            expect(payloads == live,
                   "a restored version differs from the live payload")
            expect(len(session.lwt.thread("project").stream) ==
                   len(self.live.thread("project").stream),
                   "restored history has a different length")

        return Op("restore", run, check, work=0)

    def _save(self, state: dict, cycle: int, n: int) -> Op:
        session = state["session"]
        # One new payload per save (an ECO); the other edits swap in
        # payloads the workspace already stores, which the chunk store
        # deduplicates.
        eco = {"netlist": [self.rng.randrange(10_000) for _ in range(8)],
               "cell": f"eco{cycle}.{n}",
               "area_um2": self.rng.randrange(100, 90_000)}
        edits = [(f"cell{self.rng.randrange(self.bases)}",
                  eco if k == 0 else self.rng.choice(self.pool))
                 for k in range(self.EDITS)]
        journal = session.directory / "journal.jsonl"
        before = session.store.bytes_written + (
            journal.stat().st_size if journal.exists() else 0)

        def run():
            lwt = session.lwt
            for base, payload in edits:
                lwt.clock.advance(0.001)
                obj = lwt.db.put(base, payload, creator="eco")
            lwt.thread("project").commit_record(
                _synth_record(lwt.clock, str(obj.name), ()))
            session.save()

        def check(_):
            expect(session.pending_entries == 0 and not session.dirty,
                   "save left unsaved entries")
            self.persist["saves"] += 1
            self.persist["save_bytes"] += session.store.bytes_written + \
                journal.stat().st_size - before

        return Op("save", run, check)

    def _checkpoint(self, state: dict, cycle: int) -> Op:
        session = state["session"]
        journal = self.workspace / "journal.jsonl"

        def run():
            return session.compact()

        def check(_):
            expect(not journal.exists() or journal.stat().st_size == 0,
                   "checkpoint left a journal behind")
            versions = self.bases * self.versions + self.saves * self.EDITS
            self.persist["store_bytes_per_version"] = \
                _dir_bytes(self.workspace) / versions
            if cycle == 0:
                self._verify_reload(session)
            _hash_records(self._digest,
                          _stream_records(session.lwt.thread("project")),
                          session.lwt.clock.now)

        return Op("checkpoint", run, check, work=0)

    def _verify_reload(self, session: PersistentSession) -> None:
        """After a checkpoint, a cold load must give back exactly the
        session's history and the latest version of every base."""
        reloaded = load_system(self.workspace, LWTSystem(clock=VirtualClock()))
        live = session.lwt
        outputs = [[r.outputs for r in _stream_records(lwt.thread("project"))]
                   for lwt in (reloaded, live)]
        expect(outputs[0] == outputs[1],
               "reloaded history differs from the saved session")
        for base in live.db.bases():
            latest = f"{base}@{live.db.latest_version(base)}"
            expect(unwrap_payload(reloaded.db.get(latest).payload) ==
                   unwrap_payload(live.db.get(latest).payload),
                   f"reloaded {latest} differs from the saved session")

    def outputs_digest(self) -> str:
        return self._digest.hexdigest()

    def close(self) -> None:
        shutil.rmtree(self.pristine, ignore_errors=True)
        shutil.rmtree(self.workspace, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (BigDag, DesignSession, ReworkReplay, CheckpointRestore)
}


# --------------------------------------------------------------- the loop


@dataclass
class Measurement:
    """What one phase of one workload run measured."""

    workload: str
    seed: int
    setup_s: list[float]
    #: A probe before the first set-up and one after each.
    setup_probes: list[float]
    elapsed_s: float
    #: Every timed op, in order.
    timed: list[Sample]
    samples: list[Sample]
    failed: int
    problems: list[str]
    outputs_digest: str
    state_digests: list[str]
    peak_rss_mb: float
    persist: dict[str, float]
    counters: dict[str, float]

    @property
    def ops(self) -> int:
        return len(self.timed)

    @property
    def busy_s(self) -> float:
        """Seconds inside samples: the timed ops' wall less the probes
        inside them (bigdag probes between the windows of a task)."""
        return sum(sample.seconds for sample in self.samples)

    def kinds(self) -> dict[str, tuple[int, float]]:
        """Op kind → (count, total seconds)."""
        totals: dict[str, tuple[int, float]] = {}
        for op in self.timed:
            count, total = totals.get(op.kind, (0, 0.0))
            totals[op.kind] = (count + 1, total + op.seconds)
        return totals


#: Program counters read as deltas over the timed phase.
COUNTERS = ("memo.hits", "memo.misses", "datascope.cache_hits",
            "datascope.cache_misses", "engine.wake_checks",
            "engine.steps_issued", "persist.chunks_written",
            "persist.chunks_deduped")

def measure(cls: type[Workload], seed: int, seconds: float, workdir: Path,
            setups: int | None = None, tracer=None, sizes: dict | None = None
            ) -> Measurement:
    """Set the workload up ``setups`` times (default
    :attr:`Workload.setups`; timing each, the last state is used), then
    run the number of ops ``seconds`` stands for (see
    :meth:`Workload.op_count`), under an optional :class:`layers.Tracer`.
    Untraced, a :func:`probe` precedes every sample; traced, none runs, so
    no probe time is billed to a layer.  A run that takes over six times
    ``seconds`` plus half a minute stops early and is reported wrong."""
    sizes = sizes or {}
    setup_s: list[float] = []
    setup_probes = [probe()]
    state_digests: list[str] = []
    workload = None
    for _ in range(setups or cls.setups):
        if workload is not None:
            workload.close()
        workload = cls(seed, workdir, **sizes)
        start = perf_counter()
        workload.setup()
        setup_s.append(perf_counter() - start)
        setup_probes.append(probe())
        state_digests.append(workload.state_digest())

    workload.probing = tracer is None
    total = workload.op_count(seconds)
    deadline = 6 * seconds + 30
    problems: list[str] = []
    failed = 0
    timed: list[Sample] = []
    before = {name: METRICS.value(name) for name in COUNTERS}
    try:
        if tracer is not None:
            tracer.install()
        stream = workload.ops()
        phase_start = perf_counter()
        for i in range(total):
            if perf_counter() - phase_start > deadline:
                problems.append(f"stopped after {i} of {total} ops: "
                                f"over the {deadline:.0f} s cap")
                break
            try:
                op = next(stream)
            except Exception:  # the workload cannot go on: stop the run
                failed += 1
                problems.append(f"preparing op {i} raised:\n"
                                + traceback.format_exc(limit=4))
                break
            result = None
            ok = True
            probe_s = workload.take_probe()
            start = perf_counter()
            try:
                if tracer is not None:
                    with tracer.root(op.kind, i):
                        result = op.run()
                else:
                    result = op.run()
            except Exception:  # an op that raises is a failed op
                failed += 1
                ok = False
                problems.append(f"op {i} ({op.kind}) raised:\n"
                                + traceback.format_exc(limit=4))
            timed.append(Sample(op.kind, workload.population(op.kind),
                                op.work, perf_counter() - start, probe_s))
            if ok and op.check is not None:
                try:
                    op.check(result)
                except CheckFailed as exc:
                    problems.append(f"op {i} ({op.kind}): {exc}")
        elapsed = perf_counter() - phase_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    counters = {name: METRICS.value(name) - before[name] for name in COUNTERS}
    measurement = Measurement(
        workload=cls.name, seed=seed, setup_s=setup_s,
        setup_probes=setup_probes, elapsed_s=elapsed,
        timed=timed, samples=workload.samples(timed),
        failed=failed, problems=problems,
        outputs_digest=workload.outputs_digest(),
        state_digests=state_digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        persist=dict(workload.persist), counters=counters,
    )
    workload.close()
    return measurement
