"""The audit journal: the trail of every destructive history mutation.

An append-only record of erase-on-rework, splice-out, region replacement,
abstraction, reclamation sweeps, fork/cascade/join and SDS ``MOVE``, each
with actor, virtual timestamp and reason.  History is the primary artifact
here; anything that rewrites it must leave a trail.

Each :class:`~repro.octdb.database.DesignDatabase` owns one journal
(``db.audit``), so an installation's trail is ``lwt.db.audit`` and
installations sharing a database share its trail as they share its change
feed.  This module is a leaf (it imports only :mod:`repro.clock` and
:mod:`repro.obs`) so the storage layer can hold it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass, field
from typing import IO, Any, Iterable

from repro.clock import VirtualClock
from repro.obs import METRICS, TRACER


def _json_safe(value: Any) -> Any:
    """Reduce a detail value to something JSON-serializable and stable."""
    if isinstance(value, (type(None), bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


@dataclass(frozen=True)
class AuditEntry:
    """One destructive history mutation, journaled at the moment it happened."""

    seq: int              # journal sequence number (append order)
    kind: str             # erase / splice_out / replace_region / fork / ...
    at: float             # virtual-clock timestamp
    actor: str            # thread owner (or explicit actor) responsible
    thread: str           # thread whose history was mutated ("" for SDS-level)
    reason: str           # why ("erase-on-rework", "horizontal aging", ...)
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq, "kind": self.kind, "at": self.at,
            "actor": self.actor, "thread": self.thread,
            "reason": self.reason, "details": self.details,
        }

    def render(self) -> str:
        detail = " ".join(
            f"{k}={json.dumps(v)}" for k, v in sorted(self.details.items())
        )
        reason = f" ({self.reason})" if self.reason else ""
        actor = self.actor or "-"
        thread = self.thread or "-"
        return (f"#{self.seq:<4} {self.at:10.1f}s {self.kind:<16} "
                f"thread={thread} actor={actor}{reason}"
                + (f"  {detail}" if detail else ""))


class AuditJournal:
    """Append-only journal of destructive history mutations.

    One per design database: every thread, SDS and reclaimer on that
    database feeds it, so an installation has a single ordered trail.
    Entries are never edited or removed by the recording path;
    :meth:`restore` replaces the contents wholesale when a saved session is
    loaded.
    """

    def __init__(self, clock: VirtualClock):
        #: Stamps an entry recorded without an explicit time.
        self.clock = clock
        self._entries: list[AuditEntry] = []
        self._seq = itertools.count(1)
        self._suspended = 0

    # ------------------------------------------------------------- recording

    @contextlib.contextmanager
    def suspended(self):
        """No-op all :meth:`record` calls inside the block.

        Journal replay re-executes the very mutators whose hooks feed this
        journal; without suspension every replayed erase/splice/move would
        be recorded a second time.  The persisted trail is restored
        separately (:meth:`restore` + :meth:`append_dicts`).
        """
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def record(
        self,
        kind: str,
        *,
        thread: str = "",
        actor: str = "",
        reason: str = "",
        at: float | None = None,
        **details: Any,
    ) -> AuditEntry | None:
        """Append one entry (and mirror it as an ``audit.<kind>`` event).

        Returns None (recording nothing) while :meth:`suspended` is active.
        """
        if self._suspended:
            return None
        entry = AuditEntry(
            seq=next(self._seq),
            kind=kind,
            at=self.clock.now if at is None else at,
            actor=actor,
            thread=thread,
            reason=reason,
            details={k: _json_safe(v) for k, v in details.items()},
        )
        self._entries.append(entry)
        METRICS.counter("audit.entries", kind=kind).inc()
        if TRACER.enabled:
            TRACER.event(f"audit.{kind}", cat="audit", seq=entry.seq,
                         thread=entry.thread, actor=entry.actor,
                         reason=entry.reason, **entry.details)
        return entry

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entries(self, kind: str | None = None) -> list[AuditEntry]:
        return [e for e in self._entries if kind is None or e.kind == kind]

    def render(self, limit: int | None = None,
               kind: str | None = None) -> list[str]:
        entries = self.entries(kind=kind)
        if limit is not None:
            entries = entries[-limit:]
        return [e.render() for e in entries]

    # ----------------------------------------------------------- persistence

    def to_dicts(self) -> list[dict[str, Any]]:
        return [e.to_dict() for e in self._entries]

    def dicts_from(self, start: int) -> list[dict[str, Any]]:
        """The persisted form of the entries after the first ``start``: a
        journal save's delta, converted without touching the older trail."""
        return [e.to_dict() for e in self._entries[start:]]

    def restore(self, dicts: Iterable[dict[str, Any]]) -> None:
        """Replace the journal with a persisted trail (session restore)."""
        self._entries = []
        self.append_dicts(dicts)

    def append_dicts(self, dicts: Iterable[dict[str, Any]]) -> int:
        """Append persisted entries after the current tail (journal replay).

        Unlike :meth:`restore` this does not replace the trail: a restored
        snapshot's audit plus the write-ahead journal's audit deltas rebuild
        the live trail incrementally.  Returns the number appended.
        """
        before = len(self._entries)
        self._entries.extend(
            AuditEntry(seq=d["seq"], kind=d["kind"], at=d["at"],
                       actor=d.get("actor", ""), thread=d.get("thread", ""),
                       reason=d.get("reason", ""),
                       details=dict(d.get("details", {})))
            for d in dicts)
        top = max((e.seq for e in self._entries), default=0)
        self._seq = itertools.count(top + 1)
        return len(self._entries) - before

    def export_jsonl(self, target: str | IO[str]) -> int:
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as fh:
                return self.export_jsonl(fh)
        for entry in self._entries:
            target.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
        return len(self._entries)
