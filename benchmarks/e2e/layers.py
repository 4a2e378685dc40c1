"""Outside-in per-layer tracing.

The benchmark wraps each layer's public entry points from here, never
from inside ``src/``: a wrapper pushes a frame on one stack on entry and
pops it on exit.  Every timed operation opens a root span carrying its op
id, so a layer's self time is its duration minus the time of its child
spans, and the root's own self time is the ``unattributed`` remainder —
self times plus the remainder add up to the operation wall exactly.

Spans are kept in compact in-memory columns and written out only when the
run ends.  :meth:`Tracer.uninstall` puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator

#: (layer, module, owning class or None for a module attribute, attributes).
#: A module attribute is patched where it is *looked up*: ``grid_layout``
#: as bound in ``activity.manager``, ``parse_step_args`` as bound in the
#: execution engine.  ``TaskExecution._admit_step`` is the one private
#: entry: it is where a TDL ``step`` command hands over to the scheduler,
#: so without it the engine's admission work would count as ``tdl``.
LAYERS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("tdl.parse", "repro.tdl.template", "TemplateLibrary", ("add_source",)),
    ("tdl", "repro.tdl.interp", "Interp", ("eval_command",)),
    ("tdl", "repro.taskmgr.execution", None, ("parse_step_args",)),
    ("taskmgr", "repro.taskmgr.manager", "TaskManager", ("run_task",)),
    ("taskmgr", "repro.taskmgr.execution", "TaskExecution",
     ("_admit_step",)),
    ("sprite", "repro.sprite.cluster", "Cluster",
     ("submit", "wait_any", "kill")),
    ("cad", "repro.cad.registry", "ToolRegistry", ("run",)),
    ("octdb", "repro.octdb.database", "DesignDatabase", ()),
    ("octdb.chunkstore", "repro.octdb.chunkstore", "ChunkStore",
     ("put_payload", "load_payload")),
    ("core.memo", "repro.core.memo", "DerivationCache",
     ("key_for", "lookup", "populate")),
    ("core.datascope", "repro.core.datascope", "DataScope",
     ("thread_state", "visible_versions", "resolve")),
    ("core.thread", "repro.core.thread", "DesignThread",
     ("commit_record", "move_cursor", "resolve", "check_in", "data_scope")),
    ("activity", "repro.activity.manager", "ActivityManager",
     ("invoke", "move_cursor", "show_data_scope")),
    ("activity.viewport", "repro.activity.manager", None, ("grid_layout",)),
    ("activity.persistence", "repro.activity.persistence",
     "PersistentSession", ("save", "compact")),
    ("activity.persistence", "repro.activity.persistence", None,
     ("load_system",)),
    ("metadata", "repro.metadata.inference", "MetadataInferenceEngine",
     ("observe",)),
    ("obs.provenance", "repro.obs.provenance", "ProvenanceGraph",
     ("from_papyrus", "why")),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry",
     ("counter", "histogram", "gauge")),
)

#: Layer names in table order (each once).
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in LAYERS))


def _public_methods(cls: type) -> tuple[str, ...]:
    """An empty attribute list in :data:`LAYERS` means "every public
    method defined on the class itself" (properties are not wrapped)."""
    return tuple(name for name, value in vars(cls).items()
                 if not name.startswith("_") and inspect.isfunction(value))


def targets() -> list[tuple[str, object, str]]:
    """Every (layer, owner, attribute) the tracer patches."""
    found = []
    for layer, module_name, class_name, attrs in LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for attr in attrs or _public_methods(owner):
            found.append((layer, owner, attr))
    return found


class Tracer:
    """One stack of spans over root operations and wrapped layer calls."""

    def __init__(self) -> None:
        #: Span name table: root kinds and layers, indexed by ``name``.
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.op = array("q")
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        #: Open frames: [span index, start, child seconds, name index].
        self._stack: list[list] = []
        self._op_id = -1
        self.self_seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Sum of root span durations: the traced operation wall.
        self.op_wall = 0.0
        self.fsyncs = 0
        self._saved: list[tuple[object, str, object, bool]] = []

    # ---------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            self.self_seconds[name] = 0.0
            self.calls[name] = 0
        return index

    def _enter(self, name_id: int) -> None:
        stack = self._stack
        index = len(self.start)
        self.op.append(self._op_id)
        self.name.append(name_id)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        now = perf_counter()
        self.start.append(now)
        stack.append([index, now, 0.0, name_id])

    def _exit(self) -> float:
        now = perf_counter()
        index, start, child, name_id = self._stack.pop()
        self.end[index] = now
        duration = now - start
        name = self.names[name_id]
        self.self_seconds[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def root(self, kind: str, op_id: int) -> Iterator[None]:
        """One timed operation's root span."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._op_id = op_id
        self._enter(self._name_id(kind))
        try:
            yield
        finally:
            self.op_wall += self._exit()
            self._op_id = -1

    # ------------------------------------------------------------- wrappers

    def _wrap(self, func, name_id: int):
        stack = self._stack
        enter = self._enter
        exit_ = self._exit

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not stack:
                return func(*args, **kwargs)
            enter(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                exit_()

        traced.__e2e_traced__ = True
        return traced

    def install(self) -> None:
        """Wrap every target, plus ``os.fsync`` as a plain call counter.
        If a target cannot be wrapped (renamed in the program, say), the
        ones already wrapped are restored before the error propagates."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for layer, owner, attr in targets():
                name_id = self._name_id(layer)
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                if isinstance(original, (classmethod, staticmethod)):
                    patched = type(original)(self._wrap(original.__func__,
                                                        name_id))
                else:
                    patched = self._wrap(original, name_id)
                self._saved.append((owner, attr, original, own))
                setattr(owner, attr, patched)
        except BaseException:
            self.uninstall()
            raise
        fsync = os.fsync

        def counted_fsync(fd):
            self.fsyncs += 1
            return fsync(fd)

        self._saved.append((os, "fsync", fsync, True))
        os.fsync = counted_fsync

    def uninstall(self) -> None:
        """Restore every patched attribute, in reverse order."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -------------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.self_s`` / ``.share`` / ``.calls`` for every layer, plus
        ``unattributed.share`` (root self time over the traced op wall)."""
        wall = self.op_wall or 1.0
        out: dict[str, float] = {}
        for layer in LAYER_NAMES:
            seconds = self.self_seconds.get(layer, 0.0)
            out[f"{layer}.self_s"] = seconds
            out[f"{layer}.share"] = seconds / wall
            out[f"{layer}.calls"] = float(self.calls.get(layer, 0))
        out["unattributed.share"] = self.unattributed_seconds() / wall
        return out

    def unattributed_seconds(self) -> float:
        layers = set(LAYER_NAMES)
        return sum(seconds for name, seconds in self.self_seconds.items()
                   if name not in layers)

    def write(self, path: Path, header: dict) -> int:
        """Write a header line, then every span as one JSON array line.
        A span's id is its line number after the header; ``parent`` is -1
        for a root, and times are nanoseconds since the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                **header, "names": self.names,
                "columns": ["op", "name", "parent", "start_ns", "end_ns"],
            }) + "\n")
            for i in range(len(self.start)):
                fh.write("[%d,%d,%d,%d,%d]\n" % (
                    self.op[i], self.name[i], self.parent[i],
                    (self.start[i] - origin) * 1e9,
                    (self.end[i] - origin) * 1e9))
        return len(self.start)


def installed_wrappers() -> list[str]:
    """Targets that still carry a tracer wrapper (empty after a clean
    :meth:`Tracer.uninstall`)."""
    left = []
    for layer, owner, attr in targets():
        value = vars(owner).get(attr, getattr(owner, attr, None))
        func = getattr(value, "__func__", value)
        if getattr(func, "__e2e_traced__", False):
            left.append(f"{layer}:{attr}")
    if getattr(os.fsync, "__name__", "") == "counted_fsync":
        left.append("os.fsync")
    return left
