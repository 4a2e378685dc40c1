"""One object per version: the shape of the database's version slots.

A version is one slotted :class:`~repro.octdb.VersionedObject` in its
base's chain; a reclaimed version is a small ``_Reclaimed`` marker in its
place.  These tests pin that shape (tracked-object counts for ``put`` and
for a restore), the slot contract (reclaim and lazy decoding leave the
object a caller holds intact), a round-trip property of every slot through
checkpoint and journal saves, and the size ``put`` charges against the
original walk in ``tests/size_reference.py``.

The two properties take their budget from the active hypothesis profile;
``pytest --hypothesis-profile=deep`` runs more examples (a CI step does so
for ``TestSlotRoundTrip``).
"""

from __future__ import annotations

import collections
import functools
import gc
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.activity.persistence import (
    PersistentSession,
    load_system,
    replay_journal,
    save_system,
)
from repro.cad.logic import BehavioralSpec, Cube
from repro.cad.tools_logic import (
    collapse_to_pla,
    generate_network,
    map_to_gates,
    optimize_network,
)
from repro.cad.tools_phys import place_network, route_layout
from repro.clock import VirtualClock
from repro.core import LWTSystem
from repro.core.history import HistoryRecord, StepRecord
from repro.octdb import DesignDatabase, VersionedObject
from repro.octdb.chunkstore import ChunkStore, ReprPayload
from repro.octdb.database import _estimate_size
from repro.octdb.persistence import load_database, save_database
from tests import size_reference as ref


def tracked_delta(action) -> tuple[int, object]:
    """How many more objects the collector tracks after ``action()`` than
    before it (collector paused, so only what ``action`` keeps counts)."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = action()
        return len(gc.get_objects()) - before, result
    finally:
        gc.enable()


def record(name: str, at: float) -> HistoryRecord:
    step = StepRecord(name="run", tool="synth", options=(), inputs=(),
                      outputs=(name,), host="h0", started_at=at,
                      completed_at=at, status=0)
    done = HistoryRecord(task="synth", inputs=(), outputs=(name,),
                         steps=(step,))
    done.recorded_at = at
    return done


# ------------------------------------------------------------------- shape


def test_put_adds_one_tracked_object_per_version(db):
    db.put("cell", "first")               # the chain exists

    def puts():
        for _ in range(200):
            db.put("cell", "payload", creator="synth")

    added, _ = tracked_delta(puts)
    assert added == 200


def test_restore_adds_one_tracked_object_per_version(tmp_path):
    """A restore keeps one object per version, plus a bounded number per
    base, chunk and history record (list, handle, record node...)."""
    bases, versions, chunks, records = 20, 100, 10, 5
    lwt = LWTSystem(clock=VirtualClock())
    thread = lwt.create_thread("project", owner="a")
    for version in range(versions):
        for base in range(bases):
            lwt.clock.advance(1)
            obj = lwt.db.put(f"cell{base}",
                             {"pins": [(base + version) % chunks]})
    for n in range(records):
        thread.commit_record(record(str(obj), lwt.clock.now + n))
    save_system(lwt, tmp_path)
    target = LWTSystem(clock=VirtualClock())
    added, restored = tracked_delta(lambda: load_system(tmp_path, target))
    assert restored.db.stats()["live"] == bases * versions
    assert added <= bases * versions + 10 * (bases + chunks + records) + 100


# ---------------------------------------------------------- slot contract


def test_reclaim_leaves_the_archived_object_whole(db, clock):
    obj = db.put("cell", {"k": [1, 2]})
    db.delete(str(obj))
    clock.advance(10)
    archived: list[VersionedObject] = []
    assert db.reclaim(archive=archived.append) == [obj.name]
    assert archived == [obj]
    assert obj.payload == {"k": [1, 2]} and obj.size == 8 + 1 + 8 + 16
    assert obj.deleted_at == 0.0
    assert not db.exists("cell@1")
    assert db.stats() == {"live": 0, "tombstoned": 0, "reclaimed": 1,
                          "bytes_live": 0, "bases": 1}


def test_restored_get_decodes_in_place(tmp_path):
    """``get`` on a restored version hands out the chain's own object, with
    the decoded payload and the saved chunk address as its fingerprint."""
    db = DesignDatabase(clock=VirtualClock())
    db.put("cell", {"k": 1})
    chunks = save_database(db, tmp_path / "database.json",
                           ChunkStore(tmp_path / "objects"))
    (row,) = json.loads((tmp_path / "database.json").read_text())["objects"]
    assert chunks == {row["chunk"]}
    restored = load_database(tmp_path / "database.json",
                             DesignDatabase(clock=VirtualClock()))
    first = restored.get("cell@1")
    assert first is restored.get("cell") is restored._entry("cell@1")
    assert first.payload == {"k": 1}
    assert first.fingerprint == row["chunk"]
    assert str(first) == "cell@1" and first.name == db.get("cell@1").name


def test_journal_pin_on_a_reclaimed_slot_is_skipped(tmp_path):
    lwt = LWTSystem(clock=VirtualClock())
    lwt.db.put("cell", {"k": 1})
    lwt.db.delete("cell@1")
    lwt.clock.advance(10)
    lwt.db.reclaim()
    replay_journal(lwt, ChunkStore(tmp_path), [
        (1, {"op": "db.pin", "name": "cell@1", "pinned": True})])
    assert lwt.db.stats()["reclaimed"] == 1


# ---------------------------------------------------- slot round trip


OPS = st.lists(
    st.tuples(st.sampled_from(["put", "put", "alias", "delete", "undelete",
                               "pin", "unpin", "reclaim", "save"]),
              st.integers(0, 3), st.integers(0, 5)),
    min_size=1, max_size=25,
)


def slot_rows(db: DesignDatabase) -> list[tuple]:
    """Every slot as (base, version, created_at, creator, size,
    deleted_at, pinned, reclaimed)."""
    rows = []
    for base, chain in sorted(db._versions.items()):
        for version, slot in enumerate(chain, 1):
            if isinstance(slot, VersionedObject):
                assert (slot.base, slot.version) == (base, version)
                rows.append((base, version, slot.created_at, slot.creator,
                             slot.size, slot.deleted_at, slot.pinned, False))
            else:
                rows.append((base, version, None, None, None,
                             slot.deleted_at, None, True))
    return rows


def apply(db: DesignDatabase, op: str, i: int, j: int) -> None:
    base = f"obj{i}"
    latest = db.latest_version(base)
    name = f"{base}@{j % latest + 1}" if latest else None
    if op == "put":
        db.put(base, {"value": j % 3}, creator=f"tool{j}")
    elif op == "alias":
        source = f"obj{j % 4}"
        live = db.versions(source)
        if live:
            db.alias(base, str(live[-1]))
    elif op == "reclaim":
        db.reclaim(grace_seconds=2.0)
    elif name is None or not db.exists(name):
        return
    elif op == "delete":
        db.delete(name)
    elif op == "undelete":
        db.undelete(name)
    elif op in ("pin", "unpin"):
        db.pin(name, op == "pin")


class TestSlotRoundTrip:
    @settings(max_examples=settings.default.max_examples // 4,
              deadline=None)
    @given(ops=OPS, journal=st.booleans())
    def test_every_slot_survives_save_and_load(self, ops, journal):
        """Any put/alias/delete/undelete/pin/reclaim sequence, saved by
        checkpoints or by a session's journal, restores every slot and
        ``bytes_live`` exactly."""
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            lwt = LWTSystem(clock=VirtualClock())
            session = PersistentSession(lwt, directory)

            def save():
                if journal:
                    session.save()
                else:
                    save_system(lwt, directory)

            save()
            for op, i, j in ops:
                lwt.clock.advance(1)
                if op == "save":
                    save()
                else:
                    apply(lwt.db, op, i, j)
            save()
            session.close()
            restored = load_system(directory,
                                   LWTSystem(clock=VirtualClock())).db
            assert slot_rows(restored) == slot_rows(lwt.db)
            assert restored.bytes_live == lwt.db.bytes_live


# ------------------------------------------------------------ sized puts


@functools.lru_cache(maxsize=None)
def cad_payloads(kind: str, width: int) -> tuple:
    """The specs, networks, PLA and layouts one synthesis flow makes."""
    spec = BehavioralSpec(name="s", kind=kind, width=width)
    net = generate_network(spec)
    optimized = optimize_network(net)
    placed = place_network(optimized, rows=2)
    payloads = [spec, net, optimized, map_to_gates(optimized), placed,
                route_layout(placed)]
    if len(net.inputs) <= 8:
        payloads.append(collapse_to_pla(optimized))
    return tuple(payloads)


Point = collections.namedtuple("Point", "x y")

LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
          | st.text(max_size=6) | st.binary(max_size=6)
          | st.text(max_size=6).map(ReprPayload)
          | st.sampled_from(["01-", "1-0"]).map(Cube)
          | st.binary(max_size=6).map(bytearray)
          | st.tuples(st.sampled_from(BehavioralSpec.KINDS),
                      st.integers(1, 6)).flatmap(
                          lambda s: st.sampled_from(cad_payloads(*s))))

PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4) | st.integers(),
                                     inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3).map(collections.OrderedDict)
                   | st.tuples(inner, inner).map(lambda p: Point(*p))
                   | st.frozensets(st.integers(), max_size=3)
                   | st.sets(st.text(max_size=3), max_size=3)),
    max_leaves=12,
)


@settings(max_examples=settings.default.max_examples // 2, deadline=None)
@given(payload=PAYLOADS)
def test_put_size_matches_the_reference_walk(payload):
    assert _estimate_size(payload) == ref.estimate_size(payload)
