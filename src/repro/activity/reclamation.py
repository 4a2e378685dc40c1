"""Object reclamation (§5.4): filtering, aging, garbage collection.

The single-assignment discipline makes storage grow without bound; the
reclaimer analyzes the design history and reclaims the object versions least
likely to be needed:

* **vertical aging** — old composite records forget their internal step
  detail (Fig 5.7);
* **horizontal aging** — history too far back is collapsed into a single
  archived summary record, deleting objects nothing downstream references
  (Fig 5.8);
* **iteration abstraction** — user-hinted iterative refinement sequences are
  reduced to the rounds whose outputs are actually used later (Fig 5.9);
* **dead-end branch pruning** — frontier branches untouched for too long are
  erased (with user approval, as the thesis requires).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.control_stream import INITIAL_POINT
from repro.core.history import HistoryRecord
from repro.core.thread import DesignThread
from repro.obs import METRICS

_OBJECTS_SWEPT = METRICS.counter("reclaim.objects_swept")
_VERSIONS_ERASED = METRICS.counter("reclaim.versions_erased")
_BYTES_RECLAIMED = METRICS.counter("reclaim.bytes_reclaimed")

#: Approval callback: given a human-readable description, allow or deny.
Approval = Callable[[str], bool]


def _always(_: str) -> bool:
    return True


@dataclass
class ReclamationReport:
    """What one reclaimer pass did."""

    records_abstracted: int = 0
    records_pruned: int = 0
    objects_deleted: list[str] = field(default_factory=list)
    denied: int = 0

    def swept(self, names: list[str]) -> None:
        """Count the versions a pass retired."""
        self.objects_deleted += names
        if names:
            _OBJECTS_SWEPT.inc(len(names))

    def __add__(self, other: "ReclamationReport") -> "ReclamationReport":
        return ReclamationReport(
            self.records_abstracted + other.records_abstracted,
            self.records_pruned + other.records_pruned,
            self.objects_deleted + other.objects_deleted,
            self.denied + other.denied,
        )


class Reclaimer:
    """The background reclamation process for one thread."""

    def __init__(self, thread: DesignThread, approve: Approval = _always):
        self.thread = thread
        self.db = thread.db
        self.approve = approve

    # -------------------------------------------------------- vertical aging

    def vertical_aging(self, older_than: float) -> ReclamationReport:
        """Abstract away the internal steps of records past their age
        (Fig 5.7): step detail goes, step-created intermediates go."""
        report = ReclamationReport()
        now = self.thread.clock.now
        for point in self.thread.stream.points():
            if point == INITIAL_POINT:
                continue
            node = self.thread.stream.node(point)
            record = node.record
            if record is None or record.abstracted:
                continue
            if now - record.recorded_at < older_than:
                continue
            if not self.approve(f"abstract record {record.task}#{record.instance}"):
                report.denied += 1
                continue
            report.swept(self.thread.retire(record.intermediates()))
            with self.thread.audit_reason("vertical aging"):
                self.thread.stream.abstract(point)
            report.records_abstracted += 1
        return report

    # ------------------------------------------------------ horizontal aging

    def horizontal_aging(self, older_than: float) -> ReclamationReport:
        """Collapse the root-anchored region of records past their age into a
        single archived summary (Fig 5.8's ``*`` marker).

        Outputs of pruned records that are still held (read by later
        records or in another thread's workspace) survive: the summary
        carries them, keeping every thread state consistent.  The rest
        retire.
        """
        report = ReclamationReport()
        stream = self.thread.stream
        now = self.thread.clock.now
        old: set[int] = set()
        for point in stream.points():
            if point == INITIAL_POINT:
                continue
            node = stream.node(point)
            record = node.record
            if record is None:
                continue
            if now - record.recorded_at < older_than:
                continue
            # Only root-anchored regions can be collapsed.
            if all(p in old or p == INITIAL_POINT for p in node.parents):
                old.add(point)
        # Never collapse points the cursor sits on, nor frontier cursors.
        protected = {self.thread.current_cursor} | set(stream.frontier())
        old -= protected
        old = {p for p in old
               if not (set(stream.ancestors(p)) - {p}) & protected}
        if not old:
            return report
        description = f"collapse {len(old)} old records into an archive mark"
        if not self.approve(description):
            report.denied += 1
            return report
        names = [name for point in old
                 for name in stream.record(point).created]
        kept = self.thread.held(excluding=old).intersection(names)
        summary = HistoryRecord(
            task="*", inputs=(), outputs=tuple(sorted(kept)), steps=(),
            annotation="archived by horizontal aging",
        )
        summary.recorded_at = now
        # replace_region bumps the stream's scope epoch and drops the
        # affected per-node caches itself (the mutator invalidation
        # contract) — no ad-hoc scope.invalidate() needed.
        with self.thread.audit_reason("horizontal aging"):
            stream.replace_region(old, summary)
        # The summary now touches the kept names, so only the rest retire.
        report.swept(self.thread.retire(names))
        report.records_pruned += len(old)
        return report

    # ------------------------------------------------- iteration abstraction

    def find_iterations(self, min_rounds: int = 3) -> list[list[int]]:
        """Detect candidate iterative sequences: maximal chains of
        consecutive records invoking the same task.  (The thesis requires
        explicit user hints; this detector is the natural extension and its
        output can serve as the hint.)"""
        stream = self.thread.stream
        chains: list[list[int]] = []
        visited: set[int] = set()
        for point in stream.points():
            if point in visited or point == INITIAL_POINT:
                continue
            node = stream.node(point)
            if node.record is None:
                continue
            chain = [point]
            current = node
            while len(current.children) == 1:
                child = stream.node(current.children[0])
                if child.record is None or \
                        child.record.task != node.record.task:
                    break
                chain.append(child.number)
                current = child
            visited.update(chain)
            if len(chain) >= min_rounds:
                chains.append(chain)
        return chains

    def abstract_iterations(self, rounds: list[int]) -> ReclamationReport:
        """Fig 5.9: keep only the iteration rounds whose outputs are used by
        later task invocations (typically one); splice the rest out."""
        report = ReclamationReport()
        stream = self.thread.stream
        rounds_set = set(rounds)
        used_later: set[str] = set()
        for point in stream.points():
            if point in rounds_set:
                continue
            node = stream.node(point)
            if node.record is not None:
                used_later.update(node.record.inputs)
        keep: set[int] = set()
        for point in rounds:
            record = stream.record(point)
            if any(name in used_later for name in record.outputs):
                keep.add(point)
        if not keep and rounds:
            keep.add(rounds[-1])    # always keep a representative round
        doomed = [p for p in rounds if p not in keep]
        if not doomed:
            return report
        if not self.approve(
            f"abstract iterative process: prune {len(doomed)} of "
            f"{len(rounds)} rounds"
        ):
            report.denied += 1
            return report
        names: list[str] = []
        for point in doomed:
            # splice_out invalidates the forward closure's cached scopes
            # and bumps the scope epoch itself.
            with self.thread.audit_reason("iteration abstraction"):
                record = stream.splice_out(point)
            names += record.created
        report.swept(self.thread.retire(names))
        report.records_pruned += len(doomed)
        return report

    # ------------------------------------------------- dead-end branch GC

    def prune_dead_branches(self, idle_for: float) -> ReclamationReport:
        """Erase frontier branches not visited for ``idle_for`` seconds.

        A branch is the chain hanging below the last fork; it dies only if
        *every* design point on it (and its frontier) is stale and the
        current cursor is elsewhere.
        """
        report = ReclamationReport()
        stream = self.thread.stream
        now = self.thread.clock.now

        def last_access(point: int) -> float:
            record_time = 0.0
            node = stream.node(point)
            if node.record is not None:
                record_time = node.record.recorded_at
            return max(record_time, self.thread.point_access.get(point, 0.0))

        for frontier_point in list(stream.frontier()):
            if frontier_point == INITIAL_POINT:
                continue
            if frontier_point not in stream:
                continue
            if frontier_point == self.thread.current_cursor:
                continue
            # Walk up to the fork: the exclusive branch of this frontier.
            branch = [frontier_point]
            current = stream.node(frontier_point)
            while (len(current.parents) == 1
                   and current.parents[0] != INITIAL_POINT):
                parent = stream.node(current.parents[0])
                if len(parent.children) > 1:
                    break
                branch.append(parent.number)
                current = parent
            if any(now - last_access(p) < idle_for for p in branch):
                continue
            if self.thread.current_cursor in branch:
                continue
            if not self.approve(
                f"prune dead-end branch of {len(branch)} records at "
                f"frontier {frontier_point}"
            ):
                report.denied += 1
                continue
            with self.thread.audit_reason("dead-end branch pruning"):
                removed = stream.remove_points(set(branch))
            report.swept(self.thread.retire(
                [name for record in removed for name in record.created]))
            report.records_pruned += len(branch)
        return report

    # ----------------------------------------------------------- full sweep

    def sweep(
        self,
        vertical_after: float = 7 * 24 * 3600.0,
        horizontal_after: float = 30 * 24 * 3600.0,
        dead_branch_after: float = 14 * 24 * 3600.0,
        reclaim_grace: float = 24 * 3600.0,
        max_versions: int | None = None,
        max_seconds: float | None = None,
    ) -> ReclamationReport:
        """One background pass: aging + GC + physical reclamation.

        ``max_versions`` caps how many versions this call physically
        reclaims and ``max_seconds`` bounds its wall-clock (checked between
        phases), turning the sweep into an incremental budgeted pass: call
        it repeatedly and it makes monotonic progress — aged records stay
        abstracted, reclaimed slots never re-match — instead of stopping
        the world once.
        """
        deadline = (None if max_seconds is None
                    else time.monotonic() + max_seconds)

        def in_budget() -> bool:
            return deadline is None or time.monotonic() < deadline

        bytes_before = self.db.bytes_live
        report = ReclamationReport()
        if in_budget():
            report += self.vertical_aging(vertical_after)
        if in_budget():
            report += self.horizontal_aging(horizontal_after)
        if in_budget():
            report += self.prune_dead_branches(dead_branch_after)
        reclaimed = self.db.reclaim(grace_seconds=reclaim_grace,
                                    max_versions=max_versions)
        bytes_reclaimed = max(0, bytes_before - self.db.bytes_live)
        if reclaimed:
            _VERSIONS_ERASED.inc(len(reclaimed))
        if bytes_reclaimed:
            _BYTES_RECLAIMED.inc(bytes_reclaimed)
        self.db.audit.record(
            "reclaim", thread=self.thread.name, actor=self.thread.owner,
            reason="background sweep", at=self.thread.clock.now,
            objects_swept=len(report.objects_deleted),
            records_abstracted=report.records_abstracted,
            records_pruned=report.records_pruned,
            versions_erased=len(reclaimed),
            bytes_reclaimed=bytes_reclaimed,
        )
        return report
