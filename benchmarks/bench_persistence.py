"""Experiment E-PERSIST — content-addressed persistence at scale.

Builds a ~100k-version workspace (2,000 base names × 50 versions drawn
from ~1,500 distinct payloads, with periodic commits) and measures the
four claims the chunk-store + write-ahead-journal design makes:

* **dedup** — identical payloads share one chunk, so the cold checkpoint
  writes far fewer chunks than versions;
* **incremental save** — after touching ~1% of the workspace, ``save``
  costs new-chunks + journal-append, ≥10× fewer bytes than the cold
  checkpoint;
* **O(touched) restore** — restoring and touching 1% of objects decodes
  ≤2% of chunks, within an absolute wall-clock ceiling;
* **compaction** — ``compact`` after reclamation physically deletes the
  orphaned chunks.

All counts are deterministic (seeded payload pool, virtual clock); the
restore wall time gets a loose absolute ceiling.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from pathlib import Path

from benchmarks.common import banner, export_observability, note_run_meta, table
from repro import obs
from repro.activity.persistence import PersistentSession, load_system
from repro.clock import VirtualClock
from repro.core import LWTSystem
from repro.core.history import HistoryRecord, StepRecord
from repro.obs import METRICS

BASES = int(os.environ.get("PERSIST_BENCH_BASES", 2000))
VERSIONS = int(os.environ.get("PERSIST_BENCH_VERSIONS", 50))
UNIQUE_PAYLOADS = 1500
COMMIT_EVERY = 10          # one history record per 10 puts
TOUCH_FRACTION = 0.01
SEED = 11


def _payload_pool(rng: random.Random) -> list[dict]:
    pool = []
    for i in range(UNIQUE_PAYLOADS):
        pool.append({
            "netlist": [rng.randrange(10_000) for _ in range(8)],
            "cell": f"macro{i}",
            "area_um2": rng.randrange(100, 90_000),
        })
    return pool


def _counter(name: str) -> float:
    return METRICS.counter(name).value


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def build_workspace(root: Path) -> tuple[PersistentSession, dict]:
    rng = random.Random(SEED)
    pool = _payload_pool(rng)
    clock = VirtualClock()
    lwt = LWTSystem(clock=clock)
    thread = lwt.create_thread("mega", owner="bench")
    session = PersistentSession(lwt, root / "session")

    puts = 0
    commits = 0
    for version in range(VERSIONS):
        for base in range(BASES):
            clock.advance(0.001)
            payload = pool[(base * VERSIONS + version) % UNIQUE_PAYLOADS]
            obj = lwt.db.put(f"cell{base}", payload, creator="bench")
            puts += 1
            if puts % COMMIT_EVERY == 0:
                inputs = (f"cell{base}@{version}",) if version else ()
                record = HistoryRecord(
                    task="synth", inputs=inputs, outputs=(str(obj.name),),
                    steps=(StepRecord(
                        name="run", tool="synth", options=(), inputs=inputs,
                        outputs=(str(obj.name),), host="h0",
                        started_at=clock.now, completed_at=clock.now,
                        status=0),),
                )
                record.recorded_at = clock.now
                thread.commit_record(record)
                commits += 1
    return session, {"puts": puts, "commits": commits}


def measure(root: Path) -> dict:
    rows: dict = {}
    session, built = build_workspace(root)
    lwt = session.lwt
    rows.update(built)

    # ---- cold checkpoint --------------------------------------------------
    written_before = _counter("persist.chunks_written")
    deduped_before = _counter("persist.chunks_deduped")
    start = time.perf_counter()
    session.save()
    rows["cold_save_seconds"] = time.perf_counter() - start
    rows["cold_bytes"] = _dir_bytes(root / "session")
    rows["chunks_written"] = _counter("persist.chunks_written") - written_before
    rows["chunks_deduped"] = _counter("persist.chunks_deduped") - deduped_before
    encodes = rows["chunks_written"] + rows["chunks_deduped"]
    rows["dedup_fraction"] = rows["chunks_deduped"] / encodes if encodes else 0.0

    # ---- incremental save: touch ~1% ------------------------------------
    touched = max(1, int(rows["puts"] * TOUCH_FRACTION))
    rng = random.Random(SEED + 1)
    clock = lwt.clock
    thread = lwt.thread("mega")
    patched_names: list[str] = []
    for i in range(touched):
        clock.advance(0.001)
        obj = lwt.db.put(f"cell{rng.randrange(BASES)}",
                         {"patched": i, "by": "incremental"},
                         creator="bench")
        patched_names.append(str(obj.name))
        if i % COMMIT_EVERY == 0:
            record = HistoryRecord(
                task="ecolog", inputs=(), outputs=(str(obj.name),), steps=())
            record.recorded_at = clock.now
            thread.commit_record(record)
    journal_before = _counter("persist.journal_entries")
    size_before = _dir_bytes(root / "session")
    start = time.perf_counter()
    session.save()
    rows["incr_save_seconds"] = time.perf_counter() - start
    rows["incr_bytes"] = _dir_bytes(root / "session") - size_before
    rows["journal_entries"] = \
        _counter("persist.journal_entries") - journal_before
    rows["incremental_bytes_ratio"] = \
        rows["cold_bytes"] / max(1, rows["incr_bytes"])
    rows["touched"] = touched

    # ---- restore: v2 lazy, touching 1% ----------------------------------
    # A localized rework: the touched versions cluster in one block of
    # cells (an ECO touches a macro block, not a uniform spray across the
    # whole chip), so a lazy restore should pay for roughly that block.
    block = rng.sample(range(BASES), max(1, BASES // 20))
    sample = [f"cell{rng.choice(block)}@{rng.randrange(1, VERSIONS)}"
              for _ in range(touched)]
    decodes_before = _counter("persist.lazy_decodes")
    start = time.perf_counter()
    restored = load_system(root / "session", LWTSystem(clock=VirtualClock()))
    for name in sample:
        restored.db.get(name)
    rows["restore_touch_seconds"] = time.perf_counter() - start
    decodes = _counter("persist.lazy_decodes") - decodes_before
    total_versions = rows["puts"] + touched
    rows["chunk_count"] = len(session.store)
    rows["lazy_decodes"] = decodes
    # Fraction of *stored versions* whose payload had to be decoded — the
    # O(touched) claim is about versions, and dedup makes the chunk count a
    # moving denominator.
    rows["lazy_decode_fraction"] = decodes / max(1, total_versions)
    # The restored derivation cache warms on first use; len() forces it
    # (and decodes historical inputs, hence only after the fraction above).
    rows["memo_entries_warmed"] = len(restored.thread("mega").memo)

    # ---- reclamation + compaction ----------------------------------------
    # The patched versions carry unique payloads, so reclaiming them leaves
    # orphaned chunks that only compaction can delete.
    for name in patched_names:
        if not lwt.db.is_deleted(name):
            lwt.db.delete(name)
    clock.advance(3600.0)
    reclaimed = lwt.db.reclaim(grace_seconds=1.0, max_versions=None)
    rows["versions_reclaimed"] = len(reclaimed)
    rows["chunks_collected"] = session.compact()
    return rows


def check_persistence(rows: dict) -> None:
    """Acceptance for the four claims.  The counts are deterministic; the
    1%-touch restore is wall clock, so it only gets a loose absolute
    ceiling."""
    assert rows["dedup_fraction"] >= 0.5, rows
    assert rows["incremental_bytes_ratio"] >= 10, rows
    assert rows["restore_touch_seconds"] <= 5.0, rows
    assert rows["lazy_decode_fraction"] <= 0.02, rows
    for count in ("journal_entries", "chunks_collected",
                  "versions_reclaimed", "memo_entries_warmed"):
        assert rows[count] >= 1, (count, rows)


def main() -> None:
    note_run_meta(seed=SEED, bases=BASES, versions=VERSIONS)
    if os.environ.get("PAPYRUS_TRACE_OUT"):
        obs.enable_tracing()
    root = Path(tempfile.mkdtemp(prefix="bench_persistence_"))
    try:
        rows = measure(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    banner("E-PERSIST: content-addressed persistence "
           f"({rows['puts']} versions, {rows['commits']} commits)")
    table(
        ["measure", "value"],
        [
            ["versions put", rows["puts"]],
            ["chunks written (cold)", rows["chunks_written"]],
            ["chunks deduped (cold)", rows["chunks_deduped"]],
            ["dedup fraction", rows["dedup_fraction"]],
            ["cold save bytes", rows["cold_bytes"]],
            ["incremental save bytes", rows["incr_bytes"]],
            ["cold/incremental ratio", rows["incremental_bytes_ratio"]],
            ["journal entries appended", rows["journal_entries"]],
            ["1%-touch restore (s)", rows["restore_touch_seconds"]],
            ["chunks decoded / total",
             f"{int(rows['lazy_decodes'])}/{rows['chunk_count']}"],
            ["lazy decode fraction", rows["lazy_decode_fraction"]],
            ["versions reclaimed", rows["versions_reclaimed"]],
            ["chunks collected", rows["chunks_collected"]],
        ],
    )

    export_observability("persistence", extra={"persist": rows})
    check_persistence(rows)


if __name__ == "__main__":
    main()
