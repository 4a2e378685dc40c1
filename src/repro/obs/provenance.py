"""Provenance: queryable design-history lineage (§6.3 exposed).

:class:`ProvenanceGraph` is a view over the augmented derivation graph
(``metadata/adg.py``) plus a commit-placement lookup (which thread and design
point committed a version, with its annotation).  It answers the three
questions a history-based system must answer about any object version:

* :meth:`ProvenanceGraph.why` — the derivation chain back to primary
  sources, with per-edge tool/options/host/duration and reuse attribution
  (a memo hit points at the version it aliased, hence at the record that
  originally paid for the computation);
* :meth:`ProvenanceGraph.blame` — the per-version producing record, thread,
  design point and annotation of a base name;
* :meth:`ProvenanceGraph.impact` — the forward closure (what breaks if this
  version changes), memo aliases included.

The view (:meth:`from_papyrus`) reads the ADG the metadata engine keeps in
step with every thread's history, so lineage comes from the design history
itself: offline, the shell's ``load <dir>`` restores a saved installation
and ``why``/``blame``/``impact`` query it as they would the live one.
Exports: DOT and JSONL.

The audit journal of destructive history mutations lives in
:mod:`repro.obs.audit`; each design database owns one (``db.audit``), fed
by :meth:`~repro.core.thread.DesignThread._on_stream` (the thread's stream
hook, so each stream mutation is journaled exactly once no matter which
caller triggered it), the fork/cascade/join operators, SDS ``MOVE`` and
reclamation sweeps.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING

from repro.octdb.naming import parse_name

if TYPE_CHECKING:
    from repro.metadata.adg import AugmentedDerivationGraph, DerivationEdge
    from repro.metadata.inference import Placement


# ---------------------------------------------------------- provenance graph


class ProvenanceGraph:
    """Lineage queries over an ADG plus a commit-placement lookup.

    ``commits`` (the metadata engine) answers ``placement(name, produced)``
    and ``committed()``.
    """

    def __init__(self, adg: "AugmentedDerivationGraph", commits):
        self.adg = adg
        self._commits = commits

    # ---------------------------------------------------------------- sources

    @classmethod
    def from_papyrus(cls, papyrus) -> "ProvenanceGraph":
        """The view over a wired installation's ADG, synced first."""
        papyrus.observe_history()
        return cls(papyrus.inference.adg, papyrus.inference)

    # ---------------------------------------------------------------- queries

    def __contains__(self, name: str) -> bool:
        return name in self.adg or self.placement(name) is not None

    def objects(self) -> list[str]:
        return sorted(set(self.adg.objects()) | set(self._commits.committed()))

    def placement(self, name: str,
                  produced: bool = False) -> "Placement | None":
        """Thread, point and record that committed ``name`` (``produced``:
        the record whose step created it)."""
        return self._commits.placement(name, produced)

    def alias_source(self, name: str) -> str | None:
        return self.adg.reuse_source(name)

    def why(self, name: str) -> list["DerivationEdge"]:
        """The derivation chain of ``name`` in dependency order: every edge
        needed to rebuild it, ending with its own producing edge."""
        return self.adg.derivation_history(name)

    def primary_sources(self, name: str) -> list[str]:
        """The terminals of the derivation chain: versions with no recorded
        producer (seed designs, external check-ins)."""
        chain = self.why(name)
        if not chain:
            return [name]
        return sorted({i for edge in chain for i in edge.inputs}
                      - {edge.output for edge in chain})

    def blame(self, base: str) -> list[tuple[str, "DerivationEdge | None",
                                             "Placement | None"]]:
        """Per-version lineage of a base name, oldest version first."""
        rows = sorted((parsed.version or 0, obj) for obj in self.objects()
                      if (parsed := parse_name(obj)).base == base)
        return [(obj, self.adg.producer(obj), self.placement(obj))
                for _, obj in rows]

    def impact(self, name: str, include_aliases: bool = True) -> list[str]:
        """Forward closure: everything derived (transitively) from ``name``,
        memo aliases of affected versions included by default."""
        return self.adg.affected_set(name, include_aliases)

    # -------------------------------------------------------------- exporters

    def to_dot(self) -> str:
        """Graphviz DOT: derivation edges solid (labelled by tool), memo
        reuse links dashed."""
        lines = ["digraph provenance {", "  rankdir=LR;",
                 '  node [shape=box, fontsize=10];']
        for obj in self.objects():
            lines.append(f'  "{obj}";')
        edges: list[str] = []
        for edge in self.adg.edges():
            for name in edge.inputs:
                edges.append(
                    f'  "{name}" -> "{edge.output}" [label="{edge.tool}"];')
        for alias, source in self.adg.reuse_links().items():
            edges.append(
                f'  "{source}" -> "{alias}" '
                '[style=dashed, label="reused"];')
        lines.extend(sorted(edges))
        lines.append("}")
        return "\n".join(lines)

    def export_jsonl(self, target: str | IO[str]) -> int:
        """One JSON object per edge/alias/commit (stable order)."""
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as fh:
                return self.export_jsonl(fh)
        rows = []
        for edge in sorted(self.adg.edges(), key=lambda e: e.output):
            thread, point, _ = self.placement(
                edge.output, produced=True) or ("", -1, None)
            rows.append({
                "kind": "hop", "output": edge.output,
                "inputs": list(edge.inputs), "tool": edge.tool,
                "options": list(edge.options), "step": edge.step,
                "task": edge.task, "host": edge.host,
                "started": edge.started, "completed": edge.at,
                "reused": edge.reused,
                "reused_from": self.alias_source(edge.output),
                "thread": thread, "point": point,
            })
        for alias, source in sorted(self.adg.reuse_links().items()):
            rows.append({"kind": "alias", "alias": alias, "source": source})
        for name in sorted(self._commits.committed()):
            thread, point, record = self.placement(name)
            rows.append({
                "kind": "commit", "object": name, "thread": thread,
                "point": point, "task": record.task,
                "annotation": record.annotation,
                "recorded_at": record.recorded_at,
            })
        for row in rows:
            target.write(json.dumps(row, sort_keys=True) + "\n")
        return len(rows)


# ------------------------------------------------------------------ renderers


def _where(graph: ProvenanceGraph, name: str, produced: bool = False) -> str:
    """`` [thread pN]`` of the record that committed ``name``, or ""."""
    placement = graph.placement(name, produced)
    if placement is None or not placement[0]:
        return ""
    return f" [{placement[0]} p{placement[1]}]"


def _reused_line(graph: ProvenanceGraph, edge: "DerivationEdge") -> str:
    source = graph.alias_source(edge.output)
    if not source:
        return "      reused (origin unknown)"
    return f"      reused from {source}{_where(graph, source)}"


def render_why(graph: ProvenanceGraph, name: str) -> list[str]:
    """Deterministic text rendering of the derivation chain.

    Stays byte-identical across same-seed runs: nothing here depends on
    process-global counters (record instances and pids are excluded).
    """
    lines = [f"why {name}"]
    if name not in graph:
        lines.append("  unknown object (no lineage recorded)")
        return lines
    chain = graph.why(name)
    if not chain:
        lines.append("  primary source (no recorded derivation)")
        return lines
    for source in graph.primary_sources(name):
        lines.append(f"  source {source}")
    for index, edge in enumerate(chain, 1):
        where = _where(graph, edge.output, produced=True)
        opts = f" opts({' '.join(edge.options)})" if edge.options else ""
        lines.append(
            f"  {index:2d}. {edge.output} <= {edge.tool}"
            f"({', '.join(edge.inputs)}){opts}{where} host={edge.host} "
            f"t={edge.started:.1f}s dur={edge.at - edge.started:.1f}s"
        )
        if edge.reused:
            lines.append(_reused_line(graph, edge))
    return lines


def render_blame(graph: ProvenanceGraph, base: str) -> list[str]:
    lines = [f"blame {base}"]
    rows = graph.blame(base)
    if not rows:
        lines.append("  no versions recorded")
        return lines
    for name, edge, commit in rows:
        where = _where(graph, name).strip() or "[external]"
        if edge is None:
            lines.append(f"  {name:<30} {where} primary source")
            continue
        detail = (f"task={edge.task} step={edge.step} tool={edge.tool} "
                  f"host={edge.host} at={edge.at:.1f}s")
        lines.append(f"  {name:<30} {where} {detail}")
        if edge.reused and graph.alias_source(edge.output):
            lines.append(_reused_line(graph, edge))
        if commit and commit[2].annotation:
            lines.append(f'      note "{commit[2].annotation}"')
    return lines


def render_impact(graph: ProvenanceGraph, name: str) -> list[str]:
    affected = graph.impact(name)
    lines = [f"impact {name}: {len(affected)} affected version(s)"]
    for obj in affected:
        source = graph.alias_source(obj)
        suffix = " (reused alias)" if source == name or source in affected \
            else ""
        lines.append(f"  {obj}{suffix}")
    return lines


# ------------------------------------------------------------------ checking


def check_lineage(graph: ProvenanceGraph, name: str) -> list[str]:
    """Validate the lineage invariants for one object; returns problems.

    * the ``why`` chain exists and terminates only at primary sources
      (a terminal that is itself a memo alias is a lineage orphan);
    * every reused edge carries its reuse attribution.
    """
    problems: list[str] = []
    chain = graph.why(name)
    if not chain:
        problems.append(f"no derivation recorded for {name}")
        return problems
    for source in graph.primary_sources(name):
        if graph.alias_source(source) is not None:
            problems.append(
                f"chain terminates at {source}, which is a memo alias "
                "of a committed version (lineage orphan)")
    for edge in chain:
        if edge.reused and not graph.alias_source(edge.output):
            problems.append(
                f"reused hop {edge.output} has no reuse attribution")
    return problems
