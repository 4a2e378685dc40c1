"""Frozen persistence output for one seeded scenario.

``tests/fixtures/journal_golden.json`` holds, for a scenario that writes
every write-ahead journal op, the journal text after each save, the audit
trail (``lwt.db.audit.to_dicts()``), and the bytes of the final ``history.json``
and ``database.json``.  Whatever carries mutations to the session and the
audit trail, both must come out byte for byte the same.

The scenario covers the database ops (put, alias, delete, undelete, pin,
reclaim), the thread ops (commit, plain and erasing cursor moves, erase,
splice_out, abstract, a collapsing replace_region, annotate, check_in,
import), the SDS ops (register, contribute, retrieve), the registry's
``thread`` and ``sds`` ops, an unadopted fork whose mutations must stay
out of the journal, and an adoption that promotes the next save to a
checkpoint.

Regenerate (only for an intended, documented change) with
``PYTHONPATH=src python -m tests.test_journal_golden --write``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

from repro.activity.persistence import PersistentSession
from repro.activity.reclamation import Reclaimer
from repro.clock import VirtualClock
from repro.core import LWTSystem, history
from repro.core.history import HistoryRecord, StepRecord
from repro.core.thread_ops import fork

GOLDEN = Path(__file__).parent / "fixtures" / "journal_golden.json"
DAY = 24 * 3600.0


def _record(task: str, inputs, outputs, at: float,
            intermediates=()) -> HistoryRecord:
    inputs, outputs = tuple(map(str, inputs)), tuple(map(str, outputs))
    steps = [StepRecord(name="run", tool=task, options=("-q",),
                        inputs=inputs, outputs=tuple(map(str, intermediates)),
                        host="h0", started_at=at - 1.0, completed_at=at)]
    if intermediates:
        steps.append(StepRecord(name="finish", tool=task, options=(),
                                inputs=tuple(map(str, intermediates)),
                                outputs=outputs, host="h1",
                                started_at=at - 0.5, completed_at=at))
    return HistoryRecord(task=task, inputs=inputs, outputs=outputs,
                         steps=tuple(steps))


@contextlib.contextmanager
def fresh_counters():
    """Restart the process-global record counter, so the output does not
    depend on what ran before it in the process."""
    saved = history._record_counter
    history._record_counter = itertools.count(1)
    try:
        yield
    finally:
        history._record_counter = saved


def scenario(directory: Path) -> dict:
    lwt = LWTSystem(clock=VirtualClock())
    db, clock = lwt.db, lwt.clock
    alpha = lwt.create_thread("alpha", owner="ann")
    beta = lwt.create_thread("beta", owner="bob")
    session = PersistentSession(lwt, directory)
    journals: list[str] = []

    def save() -> None:
        session.save()
        journal = directory / "journal.jsonl"
        journals.append(journal.read_text() if journal.exists() else "")

    def commit(thread, task, inputs, outputs, intermediates=()) -> int:
        clock.advance(60.0)
        return thread.commit_record(
            _record(task, inputs, outputs, clock.now, intermediates))

    save()  # the first save is a checkpoint

    # Batch 1: registry, database, thread and SDS ops, journaled one by one.
    gamma = lwt.create_thread("gamma", owner="cy")
    shared = lwt.create_sds("shared", members=[alpha])
    shared.register(beta)
    spec = db.put("spec", {"bits": 4}, creator="ann").name
    lib = db.put("lib", {"cells": ["nand", "nor"]}, creator="lib").name
    logic1 = db.put("logic", {"terms": 7}, creator="ann").name
    p1 = commit(alpha, "synth", [spec], [logic1])
    tmp = db.put("logic.tmp", {"terms": 6}, creator="ann").name
    logic2 = db.put("logic", {"terms": 5}, creator="ann").name
    p2 = commit(alpha, "opt", [logic1], [logic2], intermediates=[tmp])
    alpha.annotate(p2, "first opt")
    alpha.move_cursor(p1)
    alt = db.put("alt", {"terms": 9}, creator="ann").name
    p3 = commit(alpha, "alt", [logic1], [alt])
    alpha.move_cursor(p2)
    pla = db.put("pla", {"rows": 5}, creator="ann").name
    p4 = commit(alpha, "pla", [logic2], [pla])
    copy = db.alias("pla.copy", pla).name
    db.pin(pla)
    db.pin(pla, False)
    db.delete(alt)
    db.undelete(alt)
    alpha.check_in(lib)
    beta.check_in(spec)
    beta.import_thread(alpha)
    shared.contribute(alpha, "lib")
    shared.retrieve(beta, "lib")
    doc = db.put("doc", {"text": "notes"}, creator="bob").name
    commit(beta, "write", [spec], [doc])
    gamma.check_in(copy)
    save()

    # Batch 2: destructive history mutations and physical reclamation.
    pad = db.put("pad", {"pads": 12}, creator="ann").name
    commit(alpha, "pad", [pla], [pad])
    alpha.move_cursor(p4, erase=True)
    with alpha.audit_reason("iteration abstraction"):
        alpha.stream.splice_out(p3)
    with alpha.audit_reason("vertical aging"):
        alpha.stream.abstract(p2)
    clock.advance(40 * DAY)
    sim = db.put("sim", {"ok": True}, creator="ann").name
    commit(alpha, "sim", [pla], [sim])
    report = Reclaimer(alpha).horizontal_aging(older_than=30 * DAY)
    assert report.records_pruned == 3, report
    clock.advance(DAY)
    assert db.reclaim(grace_seconds=0.0)
    probe = commit(alpha, "probe", [sim], [])
    alpha.move_cursor(alpha.stream.node(probe).parents[0])
    with alpha.audit_reason("dead-end branch pruning"):
        alpha.stream.erase_subtree(probe)
    # An unadopted fork shares the database, but its own history is not
    # the installation's: only its database puts reach the journal.
    loose = fork(alpha, "loose", inherit="state")
    note = db.put("note", {"text": "loose"}, creator="ann").name
    point = commit(loose, "scribble", [pla], [note])
    loose.annotate(point, "not journaled")
    loose.check_in(lib)
    loose.move_cursor(point)
    loose.import_thread(beta)
    save()

    # Batch 3: an adoption is structure the journal cannot replay.
    lwt.adopt_thread(fork(beta, "beta-fork", inherit="workspace"))
    assert session.dirty
    final = db.put("final", {"done": True}, creator="bob").name
    commit(lwt.thread("beta-fork"), "wrap", [doc], [final])
    save()
    return {
        "journals": journals,
        "audit": lwt.db.audit.to_dicts(),
        "history.json": (directory / "history.json").read_text(),
        "database.json": (directory / "database.json").read_text(),
    }


def run(directory: Path) -> dict:
    with fresh_counters():
        return scenario(directory)


def test_journal_matches_golden(tmp_path):
    got = run(tmp_path / "s")
    golden = json.loads(GOLDEN.read_text())
    assert got["journals"] == golden["journals"]
    assert got["audit"] == golden["audit"]
    assert got["history.json"] == golden["history.json"]
    assert got["database.json"] == golden["database.json"]


if __name__ == "__main__":  # pragma: no cover
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_journal_golden --write")
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(run(Path(scratch) / "s"), indent=1,
                                     sort_keys=True) + "\n")
