"""Tests for content-addressed persistence: chunk store, write-ahead
journal, lazy restore, and the round-trip edge cases the monolithic
format never had to face."""

from __future__ import annotations

import json
import shutil
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.activity.persistence import (
    FORMAT_VERSION,
    PersistentSession,
    compact_store,
    load_system,
    save_system,
)
from repro.activity.reclamation import Reclaimer
from repro.activity.upgrade import upgrade_directory
from repro.clock import VirtualClock
from repro.core import LWTSystem
from repro.core.history import HistoryRecord, StepRecord
from repro.errors import PersistenceError
from repro.obs import METRICS
from repro.octdb import DesignDatabase
from repro.octdb.chunkstore import (_CANONICAL_JSON, _JSON, ChunkStore,
                                    LazyPayload, canonical_chunk_bytes,
                                    chunk_digest, payload_digest,
                                    unwrap_payload)
from repro.octdb.database import _Reclaimed
from repro.octdb.naming import parse_name
from repro.octdb.persistence import load_database, save_database
from tests.cycles import collector_off, repro_garbage

FORMAT1_DIR = Path(__file__).parent / "fixtures" / "format1"
LEGACY_V2_DIR = Path(__file__).parent / "fixtures" / "legacy_v2"


def make_record(task: str, inputs=(), outputs=(), at: float = 0.0) -> HistoryRecord:
    record = HistoryRecord(
        task=task, inputs=tuple(inputs), outputs=tuple(outputs),
        steps=(StepRecord(name="run", tool=task, options=(),
                          inputs=tuple(inputs), outputs=tuple(outputs),
                          host="h0", started_at=at, completed_at=at,
                          status=0),),
    )
    record.recorded_at = at
    return record


@pytest.fixture
def lwt():
    return LWTSystem(clock=VirtualClock())


def counter(name: str) -> float:
    return METRICS.counter(name).value


def corrupt_record(pack: Path, offset: int, old: bytes, new: bytes) -> None:
    """Replace ``old`` by ``new`` in the bytes of the pack record at
    ``offset``, leaving its header alone."""
    data = pack.read_bytes()
    start = offset + 24
    length = int.from_bytes(data[offset + 20:start], "big")
    record = data[start:start + length]
    assert old in record
    pack.write_bytes(data[:start] + record.replace(old, new)
                     + data[start + length:])


# --------------------------------------------------------------- chunk store


class TestChunkStore:
    def test_identical_payloads_share_one_chunk(self, tmp_path):
        store = ChunkStore(tmp_path / "objects")
        d1 = store.put_payload({"netlist": list(range(50))})
        d2 = store.put_payload({"netlist": list(range(50))})
        assert d1 == d2
        assert len(store) == 1

    def test_pack_record_is_address_then_length_then_bytes(self, tmp_path):
        store = ChunkStore(tmp_path / "objects")
        digests = [store.put_payload({"x": 1}),
                   store.put_payload({"y": [1, 2]})]
        assert [p.name for p in (tmp_path / "objects").iterdir()] == ["pack"]
        pack = (tmp_path / "objects" / "pack").read_bytes()
        offset = 0
        for digest in digests:
            data = store.read_chunk(digest)
            assert pack[offset:offset + 20] == bytes.fromhex(digest)
            assert pack[offset + 20:offset + 24] == \
                len(data).to_bytes(4, "big")
            assert pack[offset + 24:offset + 24 + len(data)] == data
            offset += 24 + len(data)
        assert offset == len(pack)

    def test_missing_chunk_raises(self, tmp_path):
        store = ChunkStore(tmp_path / "objects")
        with pytest.raises(PersistenceError):
            store.load_payload("0" * 40)

    def test_decode_cache_bounds_lazy_decodes(self, tmp_path):
        store = ChunkStore(tmp_path / "objects")
        digest = store.put_payload({"big": "payload"})
        before = counter("persist.lazy_decodes")
        for _ in range(5):
            LazyPayload(store, digest).materialize()
        assert counter("persist.lazy_decodes") == before + 1

    def test_gc_deletes_only_unreferenced(self, tmp_path):
        store = ChunkStore(tmp_path / "objects")
        keep = store.put_payload({"keep": True})
        drop = store.put_payload({"drop": True})
        assert store.gc({keep}) == 1
        assert store.has(keep)
        assert not store.has(drop)

    def test_chunk_address_is_sha1_of_its_bytes(self, tmp_path):
        import hashlib

        store = ChunkStore(tmp_path / "objects")
        digest = store.put_payload({"netlist": [1, 2, 3]})
        data = ChunkStore(tmp_path / "objects").read_chunk(digest)
        assert hashlib.sha1(data).hexdigest() == digest

    def test_corrupt_chunk_bytes_raise_on_read(self, tmp_path):
        store = ChunkStore(tmp_path / "objects")
        digest = store.put_payload({"area_um2": 12345})
        # A later record: the scan checks only the final one's bytes.
        store.put_payload({"area_um2": 1})
        corrupt_record(tmp_path / "objects" / "pack", 0, b"12345", b"12346")
        before = counter("persist.chunk_corrupt")
        with pytest.raises(PersistenceError, match="does not match"):
            LazyPayload(ChunkStore(tmp_path / "objects"), digest).materialize()
        assert counter("persist.chunk_corrupt") == before + 1

    def test_corrupt_chunk_fails_a_restored_get(self, lwt, tmp_path):
        lwt.db.put("cell", {"pins": 40})
        save_system(lwt, tmp_path / "s")
        manifest = json.loads((tmp_path / "s" / "database.json").read_text())
        assert manifest["objects"][0]["chunk"]
        corrupt_record(tmp_path / "s" / "objects" / "pack", 0, b"40", b"41")
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        with pytest.raises(PersistenceError):
            restored.db.get("cell@1")

    def test_damaged_final_record_takes_no_write(self, tmp_path):
        """A complete final record whose bytes do not match its address is
        not a torn tail: it is indexed and reads as corrupt, and an append
        or a collection raises rather than truncate or drop it."""
        store = ChunkStore(tmp_path / "objects")
        kept = store.put_payload({"area_um2": 1})
        damaged = store.put_payload({"area_um2": 12345})
        pack = tmp_path / "objects" / "pack"
        corrupt_record(pack, pack.stat().st_size - len(
            store.read_chunk(damaged)) - 24, b"12345", b"12346")
        before = pack.read_bytes()
        fresh = ChunkStore(tmp_path / "objects")
        assert fresh.has(damaged)
        with pytest.raises(PersistenceError, match="does not match"):
            fresh.read_chunk(damaged)
        with pytest.raises(PersistenceError, match="does not match.*upgrade"):
            fresh.put_payload({"new": True})
        with pytest.raises(PersistenceError, match="does not match"):
            fresh.gc({kept})
        assert pack.read_bytes() == before
        assert fresh.load_payload(kept) == {"area_um2": 1}

    def test_gc_of_every_chunk_takes_new_chunks(self, tmp_path):
        store = ChunkStore(tmp_path / "objects")
        first = store.put_payload({"n": 0})
        second = store.put_payload({"n": 1})
        assert store.gc(set()) == 2
        assert (tmp_path / "objects" / "pack").stat().st_size == 0
        assert store.put_payload({"n": 1}) == second
        assert ChunkStore(tmp_path / "objects").load_payload(second) == \
            {"n": 1}
        assert store.put_payload({"n": 0}) == first
        assert store.load_payload(first) == {"n": 0}


# ------------------------------------------------------- database round-trip


class TestDatabaseFormat2:
    def test_manifest_has_no_embedded_payloads(self, tmp_path):
        clock = VirtualClock()
        db = DesignDatabase(clock=clock)
        db.put("cell", {"transistors": 4000})
        save_database(db, tmp_path / "database.json",
                      store=ChunkStore(tmp_path / "objects"))
        doc = json.loads((tmp_path / "database.json").read_text())
        assert doc["format"] == 2
        assert "payload" not in doc["objects"][0]
        assert doc["objects"][0]["chunk"]

    def test_restore_is_lazy_until_get(self, tmp_path):
        clock = VirtualClock()
        db = DesignDatabase(clock=clock)
        for i in range(20):
            db.put(f"cell{i}", {"index": i})
        save_database(db, tmp_path / "database.json",
                      store=ChunkStore(tmp_path / "objects"))

        before = counter("persist.lazy_decodes")
        db2 = DesignDatabase(clock=VirtualClock())
        load_database(tmp_path / "database.json", db2,
                      store=ChunkStore(tmp_path / "objects"))
        assert counter("persist.lazy_decodes") == before
        assert db2.get("cell7@1").payload == {"index": 7}
        assert counter("persist.lazy_decodes") == before + 1

    def test_versions_of_one_chunk_share_one_handle(self, tmp_path):
        db = DesignDatabase(clock=VirtualClock())
        db.put("a", {"same": 1})
        db.put("b", {"same": 1})
        db.alias("c", "a@1")
        save_database(db, tmp_path / "database.json",
                      store=ChunkStore(tmp_path / "objects"))

        db2 = DesignDatabase(clock=VirtualClock())
        load_database(tmp_path / "database.json", db2,
                      store=ChunkStore(tmp_path / "objects"))
        handles = {id(db2._entry(name).payload)
                   for name in ("a@1", "b@1", "c@1")}
        assert len(handles) == 1
        assert db2.get("b@1").payload is db2.get("c@1").payload

    def test_reclaimed_tombstone_only_chain_roundtrips(self, tmp_path):
        clock = VirtualClock()
        db = DesignDatabase(clock=clock)
        db.put("scratch", {"v": 1})
        db.put("scratch", {"v": 2})
        db.delete("scratch@1")
        db.delete("scratch@2")
        clock.advance(100)
        assert len(db.reclaim(grace_seconds=1.0)) == 2
        save_database(db, tmp_path / "database.json",
                      store=ChunkStore(tmp_path / "objects"))

        db2 = DesignDatabase(clock=VirtualClock())
        load_database(tmp_path / "database.json", db2,
                      store=ChunkStore(tmp_path / "objects"))
        # The chain survives as tombstones: version numbering stays dense,
        # and a third put allocates version 3, not version 1.
        assert db2.exists("scratch@1") is False
        assert db2.put("scratch", {"v": 3}).name.version == 3

    def test_alias_of_reclaimed_source_still_loads(self, tmp_path):
        clock = VirtualClock()
        db = DesignDatabase(clock=clock)
        db.put("tmp", {"shared": 1})
        db.alias("final", "tmp@1")
        db.delete("tmp@1")
        clock.advance(100)
        db.reclaim(grace_seconds=1.0)
        save_database(db, tmp_path / "database.json",
                      store=ChunkStore(tmp_path / "objects"))

        db2 = DesignDatabase(clock=VirtualClock())
        load_database(tmp_path / "database.json", db2,
                      store=ChunkStore(tmp_path / "objects"))
        assert db2.get("final@1").payload == {"shared": 1}

    def test_a_failed_save_leaves_the_previous_manifest(self, tmp_path):
        """Rows are streamed to the file as they are made, so a payload the
        codec cannot write, met part-way, must not cost the manifest the
        last save wrote."""
        db = DesignDatabase(clock=VirtualClock())
        db.put("a", {"v": 1})
        path = tmp_path / "database.json"
        save_database(db, path, store=ChunkStore(tmp_path / "objects"))
        before = path.read_bytes()
        db.put("b", {"v": {1, 2}})   # a set inside a dict: no JSON form
        with pytest.raises(TypeError):
            save_database(db, path, store=ChunkStore(tmp_path / "objects"))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["database.json", "objects"]

    def test_dangling_alias_raises_not_swallows(self, tmp_path):
        clock = VirtualClock()
        db = DesignDatabase(clock=clock)
        db.put("a", {"v": 1})
        db.alias("b", "a@1")
        path = tmp_path / "database.json"
        save_database(db, path, store=ChunkStore(tmp_path / "objects"))
        doc = json.loads(path.read_text())
        doc["aliases"]["b@1"] = "ghost@9"
        path.write_text(json.dumps(doc))

        db2 = DesignDatabase(clock=VirtualClock())
        with pytest.raises(PersistenceError):
            load_database(path, db2, store=ChunkStore(tmp_path / "objects"))

    def test_noncontiguous_chain_rejected(self, tmp_path):
        clock = VirtualClock()
        db = DesignDatabase(clock=clock)
        db.put("a", {"v": 1})
        db.put("a", {"v": 2})
        path = tmp_path / "database.json"
        save_database(db, path, store=ChunkStore(tmp_path / "objects"))
        doc = json.loads(path.read_text())
        del doc["objects"][0]  # drop a@1, keeping a@2
        path.write_text(json.dumps(doc))

        with pytest.raises(PersistenceError):
            load_database(path, DesignDatabase(clock=VirtualClock()),
                          store=ChunkStore(tmp_path / "objects"))


class TestReprFallback:
    def test_unregistered_payload_warns_once_and_counts(self, tmp_path):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        from repro.octdb.persistence import encode_payload

        before = counter("persist.repr_fallback")
        with pytest.warns(RuntimeWarning, match="Opaque"):
            encoded = encode_payload(Opaque())
        assert encoded["__type__"] == "repr"
        assert counter("persist.repr_fallback") == before + 1
        # Second fallback for the same type counts but does not re-warn.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            encode_payload(Opaque())
        assert counter("persist.repr_fallback") == before + 2

    def test_fingerprinting_is_not_persisting(self, tmp_path):
        """A payload with no codec is fingerprinted from the repr blob a
        save would write, without the save's warning or count."""
        import warnings

        from repro.core.memo import fingerprint

        class Unsaved:
            def __repr__(self):
                return "<unsaved>"

        before = counter("persist.repr_fallback")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            digest = fingerprint(Unsaved())
            db = DesignDatabase(clock=VirtualClock())
            db.put("u", Unsaved())
            assert db.fingerprint("u@1") == digest
        assert counter("persist.repr_fallback") == before
        with pytest.warns(RuntimeWarning, match="Unsaved"):
            assert ChunkStore(tmp_path).put_payload(Unsaved()) == digest
        assert counter("persist.repr_fallback") == before + 1

    def test_restored_repr_payload_keeps_its_identity(self, lwt, tmp_path):
        """A payload saved as its repr restores as that string, and
        fingerprints and re-saves as the chunk it was read from."""
        import warnings

        from repro.core.memo import fingerprint

        lwt.db.put("t", (1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            save_system(lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        payload = restored.db.get("t@1").payload
        assert payload == "(1, 2)"
        digest = lwt.db.fingerprint("t@1")
        assert restored.db.fingerprint("t@1") == digest
        assert fingerprint(payload) == digest
        before = counter("persist.repr_fallback")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ChunkStore(tmp_path / "again").put_payload(payload) == digest
        assert counter("persist.repr_fallback") == before


# ------------------------------------------------------------ system-level


class TestSystemRoundTripEdges:
    def test_empty_sds_roundtrips(self, lwt, tmp_path):
        lwt.create_thread("alpha", owner="a")
        lwt.create_sds("empty")
        save_system(lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        assert restored.sds("empty").objects() == frozenset()

    def test_import_of_since_dropped_thread(self, lwt, tmp_path):
        alpha = lwt.create_thread("alpha", owner="a")
        beta = lwt.create_thread("beta", owner="b")
        alpha.import_thread(beta)
        lwt.drop_thread("beta")
        save_system(lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        # The dangling import link is dropped, not resurrected and not fatal.
        assert "beta" not in restored.threads
        assert not restored.thread("alpha").imports

    def test_format1_snapshot_still_loads(self, tmp_path):
        # A directory written by the retired format-1 writer: a codec-tagged
        # payload, a deleted version, two reclaimed stubs, an alias of a
        # live source and an alias whose source was reclaimed.  It loads
        # once upgraded, and upgrading the result again changes no byte.
        first = upgraded(FORMAT1_DIR, tmp_path / "up")
        again = upgraded(first, tmp_path / "again")
        assert tree_bytes(again) == tree_bytes(first)
        restored = load_system(first, LWTSystem(clock=VirtualClock()))
        db = restored.db
        assert db.get("cell@1").payload == {"k": 1}
        assert db.get("spec@1").payload.kind == "shifter"
        assert db.is_deleted("note@1")
        assert db.get("note").payload == "second"
        assert not db.exists("scratch@1") and not db.exists("tmp@1")
        assert db.aliases() == {"final@1": "cell@1", "kept@1": "tmp@1"}
        assert db.get("final@1").payload is db.get("cell@1").payload
        assert db.get("final@1").size == 0
        assert db.get("kept@1").payload == {"shared": 1}
        alpha = restored.thread("alpha")
        assert len(alpha.stream) == 2 and alpha.current_cursor == 2
        assert restored.sds("lib").objects() == frozenset({"cell@1"})
        assert "alpha" in restored.thread("beta").imports

    def test_restored_fingerprint_is_the_manifest_chunk(self, lwt, tmp_path):
        obj = lwt.db.put("cell", {"k": 1})
        save_system(lwt, tmp_path / "snap")
        row, = json.loads((tmp_path / "snap" / "database.json").read_text()
                          )["objects"]
        decodes = counter("persist.lazy_decodes")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        assert restored.db.fingerprint(obj.name) == row["chunk"] \
            == lwt.db.fingerprint(obj.name)
        assert counter("persist.lazy_decodes") == decodes
        # A version decoded by ``get`` keeps its address too, so the next
        # save encodes nothing for it.
        again = load_system(tmp_path / "snap", LWTSystem(clock=VirtualClock()))
        again.db.get(obj.name)
        assert again.db._entry(obj.name).fingerprint == row["chunk"]

    def test_restore_defers_memo_warming(self, lwt, tmp_path):
        thread = lwt.create_thread("alpha", owner="a")
        obj = lwt.db.put("cell", {"k": 1})
        thread.commit_record(make_record("synth", outputs=(str(obj.name),)))
        save_system(lwt, tmp_path / "snap")

        decodes = counter("persist.lazy_decodes")
        warms = counter("memo.deferred_warms")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        # Restore itself fingerprints nothing and decodes nothing...
        assert counter("persist.lazy_decodes") == decodes
        assert counter("memo.deferred_warms") == warms
        # ...but the cache is fully warm on first use.
        assert len(restored.thread("alpha").memo) > 0
        assert counter("memo.deferred_warms") > warms


class TestPersistentSession:
    def test_incremental_save_appends_journal(self, lwt, tmp_path):
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, tmp_path / "s")
        obj = lwt.db.put("cell", {"k": 1})
        thread.commit_record(make_record("synth", outputs=(str(obj.name),)))
        session.save()
        assert not (tmp_path / "s" / "journal.jsonl").exists()

        lwt.clock.advance(5)
        obj2 = lwt.db.put("cell", {"k": 2})
        thread.commit_record(make_record("opt", inputs=(str(obj.name),),
                                         outputs=(str(obj2.name),),
                                         at=lwt.clock.now))
        manifest_before = (tmp_path / "s" / "database.json").read_text()
        session.save()
        # Incremental: the manifest was not rewritten, the journal carries
        # the delta.
        assert (tmp_path / "s" / "database.json").read_text() \
            == manifest_before
        assert (tmp_path / "s" / "journal.jsonl").exists()

        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert restored.db.get("cell@2").payload == {"k": 2}
        stream = restored.thread("alpha").stream
        assert [stream.node(p).record.task for p in stream.points()
                if stream.node(p).record] == ["synth", "opt"]
        assert restored.thread("alpha").current_cursor \
            == thread.current_cursor

    def test_rework_erase_replays(self, lwt, tmp_path):
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, tmp_path / "s")
        o1 = lwt.db.put("a", {"v": 1})
        p1 = thread.commit_record(make_record("synth",
                                              outputs=(str(o1.name),)))
        o2 = lwt.db.put("b", {"v": 2})
        thread.commit_record(make_record("route", inputs=(str(o1.name),),
                                         outputs=(str(o2.name),)))
        session.save()

        thread.move_cursor(p1, erase=True)
        session.save()

        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        r_thread = restored.thread("alpha")
        assert r_thread.current_cursor == p1
        assert len(r_thread.stream) == len(thread.stream)
        assert restored.db.is_deleted("b@1") == lwt.db.is_deleted("b@1")

    def test_vertical_aging_replays(self, lwt, tmp_path):
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, tmp_path / "s")
        o1 = lwt.db.put("a", {"v": 1})
        p1 = thread.commit_record(make_record("synth",
                                              outputs=(str(o1.name),)))
        session.save()
        lwt.clock.advance(30 * 24 * 3600.0)
        Reclaimer(thread).vertical_aging(older_than=7 * 24 * 3600.0)
        session.save()
        journal = (tmp_path / "s" / "journal.jsonl").read_text()
        assert '"op": "abstract"' in journal

        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        record = restored.thread("alpha").stream.record(p1)
        assert record.abstracted and record.steps == ()

    def test_cursor_on_a_spliced_out_round_replays(self, lwt, tmp_path):
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, tmp_path / "s")
        session.save()
        rounds = []
        for _ in range(3):
            out = lwt.db.put("p.logic", {"v": len(rounds)})
            rounds.append(thread.commit_record(make_record(
                "Create_Logic_Description", outputs=(str(out.name),))))
        thread.move_cursor(rounds[1])
        session.save()
        Reclaimer(thread).abstract_iterations(rounds)
        session.save()
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert thread.current_cursor == 0
        assert restored.thread("alpha").current_cursor == 0

    def test_unjournalable_structure_promotes_to_checkpoint(
            self, lwt, tmp_path):
        from repro.core.thread_ops import fork

        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, tmp_path / "s")
        session.save()
        assert not session.dirty
        lwt.adopt_thread(fork(thread, "alpha-fork"))
        assert session.dirty
        session.save()
        assert not session.dirty
        assert not (tmp_path / "s" / "journal.jsonl").exists()
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert "alpha-fork" in restored.threads

    def test_audit_trail_survives_journal_restore(self, lwt, tmp_path):
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, tmp_path / "s")
        session.save()
        obj = lwt.db.put("cell", {"k": 1})
        thread.commit_record(make_record("synth", outputs=(str(obj.name),)))
        session.save()
        trail = lwt.db.audit.to_dicts()

        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert restored.db.audit.to_dicts() == trail

    def test_journal_save_converts_only_the_new_audit_entries(
            self, lwt, tmp_path, monkeypatch):
        from repro.obs.audit import AuditEntry

        session = PersistentSession(lwt, tmp_path / "s")
        session.save()
        for i in range(500):
            lwt.db.audit.record("reclaim", thread="t", at=float(i))
        session.save()
        lwt.db.audit.record("reclaim", thread="t", at=500.0)
        lwt.db.put("cell", {"k": 1})

        calls = []
        to_dict = AuditEntry.to_dict
        monkeypatch.setattr(AuditEntry, "to_dict",
                            lambda entry: calls.append(entry) or
                            to_dict(entry))
        session.save()
        assert len(calls) == 1
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert len(restored.db.audit) == 501

    def test_database_entries_replay_onto_untouched_restored_bases(
            self, lwt, tmp_path):
        """A journal's put, delete, undelete, pin and reclaim each land on
        a base the restore built but nothing touched before the replay."""
        db = lwt.db
        session = PersistentSession(lwt, tmp_path / "s")
        for base in "abcde":
            db.put(base, {"base": base})
        db.delete("c@1")
        db.delete("e@1")
        lwt.clock.advance(100)
        session.save()  # checkpoint

        db.put("a", {"base": "a", "v": 2})
        db.delete("b@1")
        db.undelete("c@1")
        db.pin("d@1")
        assert db.reclaim(grace_seconds=50.0) == [parse_name("e@1")]
        session.save()  # journal
        ops = {json.loads(line)["op"] for line in
               (tmp_path / "s" / "journal.jsonl").read_text().splitlines()}
        assert {"db.put", "db.delete", "db.undelete", "db.pin",
                "db.reclaim"} <= ops

        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert restored.db.bytes_live == db.bytes_live
        assert installation_state(restored) == installation_state(lwt)

    def test_compact_collects_reclaimed_chunks(self, lwt, tmp_path):
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, tmp_path / "s")
        keep = lwt.db.put("keep", {"payload": "keep"})
        drop = lwt.db.put("drop", {"payload": "drop"})
        thread.commit_record(make_record("synth", outputs=(str(keep.name),
                                                           str(drop.name))))
        session.save()
        lwt.db.delete(str(drop.name))
        lwt.clock.advance(100)
        lwt.db.reclaim(grace_seconds=1.0)
        assert session.compact() == 1
        # The surviving snapshot still restores.
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert restored.db.get("keep@1").payload == {"payload": "keep"}
        # Standalone compaction finds nothing more to do.
        assert compact_store(tmp_path / "s") == 0

    def test_open_resumes_incrementally(self, lwt, tmp_path):
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, tmp_path / "s")
        obj = lwt.db.put("cell", {"k": 1})
        thread.commit_record(make_record("synth", outputs=(str(obj.name),)))
        session.save()

        resumed = PersistentSession.open(tmp_path / "s",
                                         LWTSystem(clock=VirtualClock()))
        obj2 = resumed.lwt.db.put("cell", {"k": 2})
        resumed.lwt.thread("alpha").commit_record(
            make_record("opt", inputs=(str(obj.name),),
                        outputs=(str(obj2.name),)))
        manifest_before = (tmp_path / "s" / "database.json").read_text()
        resumed.save()
        assert (tmp_path / "s" / "database.json").read_text() \
            == manifest_before

        final = load_system(tmp_path / "s",
                            LWTSystem(clock=VirtualClock()))
        assert final.db.get("cell@2").payload == {"k": 2}

    def test_two_sessions_on_one_installation_both_journal(
            self, lwt, tmp_path):
        thread = lwt.create_thread("alpha", owner="a")
        first = PersistentSession(lwt, tmp_path / "a")
        first.save()
        second = PersistentSession(lwt, tmp_path / "b")
        second.save()
        obj = lwt.db.put("x", {"k": 1})
        thread.commit_record(make_record("synth", outputs=(str(obj.name),)))
        first.save()
        second.save()
        for directory in ("a", "b"):
            restored = load_system(tmp_path / directory,
                                   LWTSystem(clock=VirtualClock()))
            assert restored.db.get("x@1").payload == {"k": 1}
            assert len(restored.thread("alpha").stream) == 1
        # Closing one session leaves the other journaling.
        first.close()
        lwt.db.put("x", {"k": 2})
        second.save()
        assert load_system(tmp_path / "b", LWTSystem(clock=VirtualClock())
                           ).db.get("x@2").payload == {"k": 2}
        assert first.pending_entries == 0

    def test_other_registry_on_the_same_database_is_not_journaled(
            self, lwt, tmp_path):
        session = PersistentSession(lwt, tmp_path / "s")
        session.save()
        other = LWTSystem(db=lwt.db, clock=lwt.clock)
        elsewhere = other.create_thread("elsewhere")
        obj = lwt.db.put("x", {"k": 1})
        elsewhere.commit_record(make_record("synth",
                                            outputs=(str(obj.name),)))
        session.save()
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert restored.db.get("x@1").payload == {"k": 1}
        assert "elsewhere" not in restored.threads


class TestDroppedSession:
    def test_dropped_restored_session_is_freed(self, lwt, tmp_path):
        """A restored session, its installation and its chunk store are
        freed by reference counting alone once the caller drops them:
        after a lazy get, a journal save and a compact."""
        thread = lwt.create_thread("alpha", owner="a")
        obj = lwt.db.put("cell", {"k": 1})
        thread.commit_record(make_record("synth", outputs=(str(obj.name),)))
        PersistentSession(lwt, tmp_path / "s").save()
        with collector_off():
            session = PersistentSession.open(tmp_path / "s",
                                             LWTSystem(clock=VirtualClock()))
            assert session.lwt.db.get("cell@1").payload == {"k": 1}
            session.lwt.db.put("cell", {"k": 2})
            session.save()
            assert (tmp_path / "s" / "journal.jsonl").exists()
            session.compact()
            refs = [weakref.ref(session), weakref.ref(session.lwt),
                    weakref.ref(session.store)]
            del session
            assert [ref() for ref in refs] == [None, None, None]
            assert not repro_garbage()


class TestJournalTail:
    @staticmethod
    def journaled(lwt, directory: Path) -> Path:
        """A checkpoint of ``cell@1`` plus one journal save of ``cell@2``."""
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, directory)
        obj = lwt.db.put("cell", {"k": 1})
        thread.commit_record(make_record("synth", outputs=(str(obj.name),)))
        session.save()
        lwt.clock.advance(5)
        lwt.db.put("cell", {"k": 2})
        session.save()
        session.close()
        return directory / "journal.jsonl"

    def test_torn_tail_is_dropped(self, lwt, tmp_path):
        journal = self.journaled(lwt, tmp_path / "s")
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"chunk": "ab12", "created_at": 5.0, "op": "db.pu')
        before = counter("persist.journal_torn_tail")
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert counter("persist.journal_torn_tail") == before + 1
        assert restored.db.get("cell@2").payload == {"k": 2}
        assert restored.db.latest_version("cell") == 2

    def test_session_on_a_torn_journal_checkpoints_first(self, lwt, tmp_path):
        journal = self.journaled(lwt, tmp_path / "s")
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"op": "clo')
        session = PersistentSession.open(tmp_path / "s",
                                         LWTSystem(clock=VirtualClock()))
        session.lwt.db.put("cell", {"k": 3})
        session.save()
        # Appending after the torn bytes would have corrupted the journal.
        assert not journal.exists()
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert restored.db.get("cell@3").payload == {"k": 3}

    def test_unterminated_last_line_that_parses_is_applied(self, lwt,
                                                           tmp_path):
        journal = self.journaled(lwt, tmp_path / "s")
        journal.write_text(journal.read_text().rstrip("\n"))
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert restored.db.get("cell@2").payload == {"k": 2}

    @pytest.mark.parametrize("garbage", ["{not json", '{"op": "clo'])
    def test_unparseable_line_before_the_end_raises(self, lwt, tmp_path,
                                                     garbage):
        journal = self.journaled(lwt, tmp_path / "s")
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:1] + [garbage] + lines[1:])
                           + "\n")
        with pytest.raises(PersistenceError, match="line 2"):
            load_system(tmp_path / "s", LWTSystem(clock=VirtualClock()))
        # A garbage last line that did get its newline is not a torn tail.
        journal.write_text("\n".join(lines + [garbage]) + "\n")
        with pytest.raises(PersistenceError):
            load_system(tmp_path / "s", LWTSystem(clock=VirtualClock()))

    def test_offline_gc_skips_a_torn_tail(self, lwt, tmp_path):
        journal = self.journaled(lwt, tmp_path / "s")
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"chunk": "ab12", "op": "db.put", "na')
        assert compact_store(tmp_path / "s") == 0
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert restored.db.get("cell@2").payload == {"k": 2}


class TestDecodeErrors:
    """A saved file that does not decode raises :class:`PersistenceError`
    naming the file (and, for the journal, the line)."""

    @pytest.mark.parametrize("name", ["database.json", "history.json"])
    def test_truncated_snapshot_file(self, lwt, tmp_path, name):
        lwt.db.put("cell", {"k": 1})
        save_system(lwt, tmp_path / "s")
        path = tmp_path / "s" / name
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(PersistenceError, match=f"{name} is not valid"):
            load_system(tmp_path / "s", LWTSystem(clock=VirtualClock()))

    def test_manifest_row_without_its_size(self, lwt, tmp_path):
        lwt.db.put("cell", {"k": 1})
        save_system(lwt, tmp_path / "s")
        path = tmp_path / "s" / "database.json"
        doc = json.loads(path.read_text())
        del doc["objects"][0]["size"]
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError,
                           match="database.json has a malformed row"):
            load_system(tmp_path / "s", LWTSystem(clock=VirtualClock()))

    @pytest.mark.parametrize("blanks", [0, 2])
    def test_journal_put_without_its_size(self, lwt, tmp_path, blanks):
        """A ``db.put`` without its ``size`` raises naming its line; blank
        lines before it are skipped, but still counted."""
        journal = TestJournalTail.journaled(lwt, tmp_path / "s")
        lines = journal.read_text().splitlines()
        number = next(number for number, line in enumerate(lines, 1)
                      if '"db.put"' in line)
        entry = json.loads(lines[number - 1])
        del entry["size"]
        lines[number - 1:number] = [""] * blanks + [
            json.dumps(entry, sort_keys=True)]
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(
                PersistenceError,
                match=f"journal.jsonl line {number + blanks} is not"):
            load_system(tmp_path / "s", LWTSystem(clock=VirtualClock()))

    def test_offline_compact_of_a_journal_put_without_its_chunk(
            self, lwt, tmp_path):
        """``compact_store`` reads the journal as ``load_system`` does: a
        ``db.put`` without its ``chunk`` raises naming its line, and
        nothing is collected."""
        journal = TestJournalTail.journaled(lwt, tmp_path / "s")
        lines = journal.read_text().splitlines()
        number = next(number for number, line in enumerate(lines, 1)
                      if '"db.put"' in line)
        entry = json.loads(lines[number - 1])
        del entry["chunk"]
        lines[number - 1] = json.dumps(entry, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        pack = (tmp_path / "s" / "objects" / "pack").read_bytes()
        for action in (compact_store, lambda directory: load_system(
                directory, LWTSystem(clock=VirtualClock()))):
            with pytest.raises(PersistenceError,
                               match=f"journal.jsonl line {number} is not"):
                action(tmp_path / "s")
        assert (tmp_path / "s" / "objects" / "pack").read_bytes() == pack

    def test_blank_journal_lines_are_skipped(self, lwt, tmp_path):
        journal = TestJournalTail.journaled(lwt, tmp_path / "s")
        journal.write_text("\n" + journal.read_text().replace("\n", "\n\n"))
        restored = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert restored.db.get("cell@2").payload == {"k": 2}


# ------------------------------------------------------------------ the pack


def pack_files(objects: Path) -> list[str]:
    return sorted(str(p.relative_to(objects)) for p in objects.rglob("*"))


class TestPack:
    def test_journal_save_appends_one_record_and_creates_no_file(
            self, lwt, tmp_path):
        session = PersistentSession(lwt, tmp_path / "s")
        lwt.db.put("cell", {"k": 1})
        session.save()                      # checkpoint
        objects = tmp_path / "s" / "objects"
        files = pack_files(objects)
        size = (objects / "pack").stat().st_size
        lwt.db.put("cell", {"k": 2})        # the one new payload
        lwt.db.put("other", {"k": 1})       # deduplicated
        session.save()                      # journal
        assert pack_files(objects) == files == ["pack"]
        data = ChunkStore(objects).read_chunk(lwt.db.fingerprint("cell@2"))
        assert (objects / "pack").stat().st_size == size + 24 + len(data)

    @pytest.mark.parametrize("offline", [False, True])
    def test_restored_session_reads_through_a_rewritten_pack(
            self, lwt, tmp_path, offline):
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, tmp_path / "s")
        names = [str(lwt.db.put(base, {base: 1}).name)
                 for base in ("doomed", "keep", "touched")]
        thread.commit_record(make_record("synth", outputs=names))
        session.save()
        session.close()
        restored = PersistentSession.open(tmp_path / "s",
                                          LWTSystem(clock=VirtualClock()))
        db = restored.lwt.db
        keep = db._versions["keep"][0].payload
        assert keep.store is restored.store
        # Index the pack before the collection; leave keep@1 undecoded.
        assert unwrap_payload(db.get("touched@1").payload) == {"touched": 1}
        pack = tmp_path / "s" / "objects" / "pack"
        inode, size = pack.stat().st_ino, pack.stat().st_size
        db.delete("doomed@1")
        restored.lwt.clock.advance(100)
        db.reclaim(grace_seconds=1.0)
        if offline:
            save_system(restored.lwt, tmp_path / "s", restored.store)
            assert compact_store(tmp_path / "s") == 1
        else:
            assert restored.compact() == 1
        assert pack.stat().st_ino != inode
        # Another writer grows the new pack past the old one's end, so
        # only the inode tells the session its offsets are stale.
        ChunkStore(pack.parent).put_payload({"later": "x" * 100})
        assert pack.stat().st_size > size
        assert isinstance(db._versions["keep"][0].payload, LazyPayload)
        assert unwrap_payload(db.get("keep@1").payload) == \
            lwt.db.get("keep@1").payload
        assert not ChunkStore(pack.parent).has(
            lwt.db.fingerprint("doomed@1"))

    def test_save_after_offline_compact_restores_a_collected_chunk(
            self, lwt, tmp_path):
        """An offline ``compact_store`` collects b@1's chunk under an open
        session; a journal save of the same payload must store it again,
        not deduplicate against the stale index."""
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, tmp_path / "s")
        names = [str(lwt.db.put(base, {base: 1})) for base in ("a", "b")]
        thread.commit_record(make_record("synth", outputs=names))
        session.save()
        session.close()
        restored = PersistentSession.open(tmp_path / "s",
                                          LWTSystem(clock=VirtualClock()))
        db = restored.lwt.db
        assert db.get("a@1").payload == {"a": 1}   # indexes the pack
        db.delete("b@1")
        restored.lwt.clock.advance(100)
        db.reclaim(grace_seconds=1.0)
        save_system(restored.lwt, tmp_path / "s")
        assert compact_store(tmp_path / "s") == 1
        db.put("b", {"b": 1})
        restored.save()
        reloaded = load_system(tmp_path / "s",
                               LWTSystem(clock=VirtualClock()))
        assert unwrap_payload(reloaded.db.get("b@2").payload) == {"b": 1}


PAYLOADS = st.lists(st.dictionaries(st.sampled_from("abc"),
                                    st.integers(0, 10 ** 6), min_size=1),
                    min_size=1, max_size=4)


class TestPackTail:
    @staticmethod
    def saved(directory: Path, payloads: list[dict]) -> tuple[list, dict]:
        """A checkpoint of ``payloads`` plus a journal save whose one new
        payload is the pack's last record; returns the checkpointed
        (name, payload) pairs and the last payload."""
        lwt = LWTSystem(clock=VirtualClock())
        thread = lwt.create_thread("alpha", owner="a")
        session = PersistentSession(lwt, directory)
        earlier = []
        for i, payload in enumerate(payloads):
            earlier.append((str(lwt.db.put(f"cell{i}", payload).name),
                            payload))
        thread.commit_record(make_record("synth", outputs=[earlier[0][0]]))
        session.save()
        last = {"last": len(payloads)}
        lwt.db.put("tail", last)
        session.save()
        session.close()
        return earlier, last

    @settings(max_examples=settings.default.max_examples // 4,
              deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payloads=PAYLOADS,
           cut=st.one_of(st.sampled_from(["record", "bytes"]),
                         st.integers(0)))
    def test_torn_last_record(self, payloads, cut, tmp_path):
        """Cut the pack inside its last record (``cut`` modulo the record
        length), or zero-fill that record or just its bytes: a fresh
        restore reads every earlier chunk, the torn chunk is not stored,
        and the next save appends where the torn record began."""
        import shutil

        directory = tmp_path / "s"
        shutil.rmtree(directory, ignore_errors=True)
        earlier, last = self.saved(directory, payloads)
        pack = directory / "objects" / "pack"
        data = pack.read_bytes()
        digest = payload_digest(last)
        length = len(ChunkStore(pack.parent).read_chunk(digest))
        start = len(data) - 24 - length
        if cut == "record":
            pack.write_bytes(data[:start] + bytes(24 + length))
        elif cut == "bytes":
            pack.write_bytes(data[:start + 24] + bytes(length))
        else:
            pack.write_bytes(data[:start + cut % (24 + length)])

        restored = load_system(directory, LWTSystem(clock=VirtualClock()))
        for name, payload in earlier:
            assert unwrap_payload(restored.db.get(name).payload) == payload
        with pytest.raises(PersistenceError):
            restored.db.get("tail@1")
        assert not ChunkStore(pack.parent).has(digest)

        session = PersistentSession.open(directory,
                                         LWTSystem(clock=VirtualClock()))
        session.lwt.db.put("tail", last)
        after = session.lwt.db.put("after", {"after": True}).name
        session.save()
        assert pack.stat().st_size == start + 2 * 24 + length + len(
            ChunkStore(pack.parent).read_chunk(
                session.lwt.db.fingerprint(str(after))))
        fresh = load_system(directory, LWTSystem(clock=VirtualClock()))
        assert unwrap_payload(fresh.db.get("tail@2").payload) == last
        assert unwrap_payload(fresh.db.get(str(after)).payload) == \
            {"after": True}
        for name, payload in earlier:
            assert unwrap_payload(fresh.db.get(name).payload) == payload


# ------------------------------------------------------- format-2 legacy


def legacy_scenario(directory: Path) -> LWTSystem:
    """The installation saved in ``tests/fixtures/legacy_v2``: a checkpoint
    followed by one journal save.

    The fixture was written by the format-2 writer that named chunks by the
    structural fingerprint of the encoded blob, before chunk addresses were
    the sha1 of the chunk bytes; today's writer cannot regenerate it.  The
    tests rebuild this same installation live to compare against.
    """
    from repro.cad import BehavioralSpec

    lwt = LWTSystem(clock=VirtualClock())
    db, clock = lwt.db, lwt.clock
    alpha = lwt.create_thread("alpha", owner="ann")
    beta = lwt.create_thread("beta", owner="bob")
    lwt.create_sds("lib", [alpha, beta])
    session = PersistentSession(lwt, directory)
    spec = db.put("spec", BehavioralSpec(name="s", kind="shifter", width=4),
                  creator="ann").name
    nets = []
    for i in range(3):
        clock.advance(1)
        nets.append(db.put("net", {"gates": [i, i + 1], "pins": ["a", "b"]},
                           creator="synth").name)
        alpha.commit_record(make_record(f"synth{i}", inputs=(str(spec),),
                                        outputs=(str(nets[-1]),),
                                        at=clock.now))
    db.put("copy", {"gates": [0, 1], "pins": ["a", "b"]})  # shares net@1's
    db.put("note", "plain text", creator="bob")
    db.alias("final", nets[2])
    db.pin(nets[0])
    db.put("scratch", {"tmp": True})
    db.delete("scratch@1")
    db.delete(nets[1])
    clock.advance(100)
    db.reclaim(grace_seconds=50.0)
    db.put("scratch", {"tmp": False})
    db.delete("scratch@2")
    beta.check_in("note@1")
    lwt.sds("lib").contribute(alpha, nets[2])
    session.save()  # checkpoint

    clock.advance(10)
    net4 = db.put("net", {"gates": [9], "pins": []}, creator="synth").name
    beta.commit_record(make_record("route", inputs=("note@1",),
                                   outputs=(str(net4),), at=clock.now))
    db.put("spec", BehavioralSpec(name="s", kind="adder", width=8))
    db.alias("final", net4)
    db.put("fresh", {"only": "in the journal"})
    session.save()  # journal
    session.close()
    return lwt


def installation_state(lwt: LWTSystem) -> tuple:
    """Every version (payload and bookkeeping), alias, thread history and
    SDS index of an installation, in comparable form."""
    db = lwt.db
    versions = {}
    for base in db.bases():
        for version in range(1, db.latest_version(base) + 1):
            name = f"{base}@{version}"
            if not db.exists(name):
                versions[name] = None
                continue
            obj = db.get(name)
            versions[name] = (unwrap_payload(obj.payload), obj.created_at,
                              obj.creator, obj.size, db.is_deleted(name),
                              db._entry(name).pinned)
    threads = {
        name: ([(r.task, r.inputs, r.outputs, r.recorded_at)
                for r in thread.stream.records()],
               thread.current_cursor, sorted(thread.extra_objects))
        for name, thread in lwt.threads.items()
    }
    spaces = {name: sds.objects() for name, sds in lwt.spaces.items()}
    return versions, db.aliases(), threads, spaces, lwt.clock.now


def tree_bytes(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory`` (relative path → bytes)."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def upgraded(source: Path, target: Path) -> Path:
    """``source`` upgraded into ``target``; the source is left unchanged."""
    before = tree_bytes(source)
    assert upgrade_directory(source, target) == target
    assert tree_bytes(source) == before
    return target


def packed_legacy(directory: Path) -> Path:
    """A copy of ``legacy_v2`` whose loose chunks are records of one pack
    under the same (mostly structural) addresses: what re-saving a legacy
    restore into a new directory wrote before the upgrade existed."""
    shutil.copytree(LEGACY_V2_DIR, directory,
                    ignore=shutil.ignore_patterns("objects"))
    records = []
    for chunk in sorted((LEGACY_V2_DIR / "objects").glob("*/*")):
        data = chunk.read_bytes()
        records.append(bytes.fromhex(chunk.name)
                       + len(data).to_bytes(4, "big") + data)
    (directory / "objects").mkdir()
    (directory / "objects" / "pack").write_bytes(b"".join(records))
    return directory


def legacy_upgrades(tmp_path: Path) -> list[Path]:
    """``legacy_v2`` upgraded from its loose files, from a pack of the same
    chunks, and upgraded a second time."""
    first = upgraded(LEGACY_V2_DIR, tmp_path / "up")
    return [first,
            upgraded(packed_legacy(tmp_path / "packed"), tmp_path / "up-pack"),
            upgraded(first, tmp_path / "up-again")]


def rows_of(directory: Path) -> dict[tuple[str, int], dict]:
    doc = json.loads((directory / "database.json").read_text())
    return {(row["base"], row["version"]): row for row in doc["objects"]}


class TestLegacyFormat2:
    def test_fixture_is_the_scenario(self, tmp_path):
        live = legacy_scenario(tmp_path / "live")
        upgrades = legacy_upgrades(tmp_path)
        for directory in upgrades:
            restored = load_system(directory, LWTSystem(clock=VirtualClock()))
            assert installation_state(restored) == installation_state(live)
            doc = json.loads((directory / "database.json").read_text())
            assert doc["format"] == FORMAT_VERSION
            assert (directory / "journal.jsonl").exists()
            assert pack_files(directory / "objects") == ["pack"]
        # Loose files or a pack, upgraded once or twice: the same bytes.
        first = tree_bytes(upgrades[0])
        assert all(tree_bytes(other) == first for other in upgrades[1:])

    def test_restored_legacy_versions_fingerprint_like_fresh_puts(
            self, tmp_path):
        """An upgraded chunk address is the content identity: every
        manifest row and journal put names the sha1 of its payload put
        fresh, and a restored version fingerprints as it without
        decoding anything."""
        from repro.core.memo import fingerprint

        live = legacy_scenario(tmp_path / "live")
        fresh = {name: fingerprint(live.db.get(name).payload)
                 for base in live.db.bases()
                 for name in (f"{base}@{version}" for version in range(
                     1, live.db.latest_version(base) + 1))
                 if live.db.exists(name)}
        legacy = [key for key, row in rows_of(LEGACY_V2_DIR).items()
                  if row.get("chunk") not in (None, fresh.get("%s@%d" % key))]
        assert legacy            # the fixture does hold legacy addresses
        for directory in legacy_upgrades(tmp_path):
            restored = load_system(directory, LWTSystem(clock=VirtualClock()))
            decodes = counter("persist.lazy_decodes")
            for (base, version), row in rows_of(directory).items():
                name = f"{base}@{version}"
                if row.get("reclaimed"):
                    continue
                assert row["chunk"] == fresh[name], name
                assert restored.db.fingerprint(name) == fresh[name], name
            assert counter("persist.lazy_decodes") == decodes
            puts = [entry for entry in map(json.loads, (
                directory / "journal.jsonl").read_text().splitlines())
                if entry["op"] == "db.put"]
            assert puts and all(entry["chunk"] == fresh[entry["name"]]
                                for entry in puts)

    def test_resave_into_a_fresh_directory_roundtrips(self, tmp_path):
        live = legacy_scenario(tmp_path / "live")
        for index, directory in enumerate(legacy_upgrades(tmp_path)):
            restored = load_system(directory, LWTSystem(clock=VirtualClock()))
            # Decode one version, look up another's chain without decoding
            # it, and leave the rest untouched since the restore.
            restored.db.get("spec@1")
            restored.db._versions["copy"]
            copy = tmp_path / f"copy{index}"
            save_system(restored, copy)
            reloaded = load_system(copy, LWTSystem(clock=VirtualClock()))
            assert installation_state(reloaded) == installation_state(live)

            # Untouched rows keep their addresses, and their chunks were
            # copied byte for byte.
            old, new = rows_of(directory), rows_of(copy)
            source = ChunkStore(directory / "objects")
            copied = ChunkStore(copy / "objects")
            for key in [("copy", 1), ("note", 1), ("net", 1), ("net", 3)]:
                assert new[key] == old[key]
                chunk = old[key]["chunk"]
                assert copied.read_chunk(chunk) == source.read_chunk(chunk)

    def test_compact_drops_dead_chunks_from_an_upgraded_pack(self, tmp_path):
        for index, directory in enumerate(legacy_upgrades(tmp_path)):
            live = legacy_scenario(tmp_path / f"live{index}")
            session = PersistentSession.open(directory,
                                             LWTSystem(clock=VirtualClock()))
            chunk, = [entry["chunk"] for entry in map(json.loads, (
                directory / "journal.jsonl").read_text().splitlines())
                if entry.get("name") == "fresh@1"]
            dead = {chunk, rows_of(directory)[("scratch", 2)]["chunk"]}
            stored = len(ChunkStore(directory / "objects"))
            for lwt in (live, session.lwt):
                lwt.db.delete("fresh@1")
                lwt.clock.advance(100)
                reclaimed = lwt.db.reclaim(grace_seconds=1.0)
            # The scenario's deleted scratch@2 ages out along with fresh@1.
            assert sorted(map(str, reclaimed)) == ["fresh@1", "scratch@2"]
            assert session.compact() == 2
            store = ChunkStore(directory / "objects")
            assert len(store) == stored - 2
            assert not any(store.has(digest) for digest in dead)
            restored = load_system(directory,
                                   LWTSystem(clock=VirtualClock()))
            assert installation_state(restored) == installation_state(live)


class TestUpgrade:
    @pytest.mark.parametrize("entry", ["load_system", "open", "compact"])
    @pytest.mark.parametrize("fixture", [FORMAT1_DIR, LEGACY_V2_DIR],
                             ids=["format1", "legacy_v2"])
    def test_live_entry_points_refuse_an_old_layout(self, fixture, entry,
                                                    tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(fixture, copy)
        before = tree_bytes(copy)
        with pytest.raises(PersistenceError,
                           match="upgrade <old-dir> <new-dir>"):
            if entry == "load_system":
                load_system(copy, LWTSystem(clock=VirtualClock()))
            elif entry == "open":
                PersistentSession.open(copy, LWTSystem(clock=VirtualClock()))
            else:
                compact_store(copy)
        assert tree_bytes(copy) == before

    def test_existing_target_is_refused(self, tmp_path):
        (tmp_path / "up").mkdir()
        with pytest.raises(PersistenceError, match="already exists"):
            upgrade_directory(LEGACY_V2_DIR, tmp_path / "up")
        assert list(tmp_path.iterdir()) == [tmp_path / "up"]

    @pytest.mark.parametrize("damage", ["flip", "remove"])
    def test_bad_chunk_fails_the_upgrade(self, damage, tmp_path):
        shutil.copytree(LEGACY_V2_DIR, tmp_path / "old")
        chunk = rows_of(tmp_path / "old")[("note", 1)]["chunk"]
        loose = tmp_path / "old" / "objects" / chunk[:2] / chunk
        if damage == "flip":
            loose.write_bytes(loose.read_bytes().replace(b"plain", b"plane"))
        else:
            loose.unlink()
        message = "matches neither" if damage == "flip" else "missing"
        with pytest.raises(PersistenceError, match=message):
            upgrade_directory(tmp_path / "old", tmp_path / "up")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "old"]

    def test_structural_pack_record_reads_as_corrupt_naming_upgrade(
            self, tmp_path):
        """The live reader cannot tell a structurally addressed pack record
        from a damaged one: it reports it as corrupt, naming ``upgrade``."""
        directory = packed_legacy(tmp_path / "packed")
        restored = load_system(directory, LWTSystem(clock=VirtualClock()))
        with pytest.raises(PersistenceError, match="does not match.*upgrade"):
            restored.db.get("note@1")

    @pytest.mark.parametrize("write", ["save", "compact"])
    def test_structural_pack_takes_no_write(self, write, tmp_path):
        """A save or a collection into a structurally addressed pack raises
        the corrupt-chunk error and leaves every file byte-identical: its
        final record is complete, so it is not truncated as a torn tail."""
        directory = packed_legacy(tmp_path / "packed")
        before = tree_bytes(directory)
        with pytest.raises(PersistenceError, match="does not match.*upgrade"):
            if write == "save":
                session = PersistentSession.open(
                    directory, LWTSystem(clock=VirtualClock()))
                session.lwt.db.put("new", {"new": True})
                session.save()
            else:
                compact_store(directory)
        assert tree_bytes(directory) == before
        upgraded(directory, tmp_path / "up")


# ------------------------------------------------------------- hypothesis


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 4), st.integers(0, 9)),
        st.tuples(st.just("commit"), st.integers(0, 4), st.integers(0, 9)),
        st.tuples(st.just("delete"), st.integers(0, 4), st.just(0)),
        st.tuples(st.just("alias"), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.just("contribute"), st.integers(0, 4), st.just(0)),
    ),
    min_size=1, max_size=20,
)


class TestManifestDeterminism:
    @settings(max_examples=settings.default.max_examples // 4,
              deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=OPS)
    def test_save_load_save_is_byte_identical(self, ops, tmp_path):
        """save → load → save reproduces both manifests byte for byte,
        for arbitrary mutation sequences."""
        import shutil

        for sub in ("a", "b"):
            shutil.rmtree(tmp_path / sub, ignore_errors=True)
        clock = VirtualClock()
        lwt = LWTSystem(clock=clock)
        thread = lwt.create_thread("alpha", owner="a")
        sds = lwt.create_sds("shared", [thread])
        for op, i, j in ops:
            clock.advance(1)
            base = f"obj{i}"
            if op == "put":
                lwt.db.put(base, {"value": j})
            elif op == "commit":
                obj = lwt.db.put(base, {"value": j})
                thread.commit_record(make_record(
                    f"task{j}", outputs=(str(obj.name),), at=clock.now))
            elif op == "delete":
                versions = lwt.db._versions.get(base, ())
                if versions and not lwt.db.is_deleted(f"{base}@1"):
                    lwt.db.delete(f"{base}@1")
            elif op == "alias":
                if lwt.db._versions.get(f"obj{j}"):
                    lwt.db.alias(base + "-alias", f"obj{j}@1")
            elif op == "contribute":
                from repro.errors import ObjectNotFound

                if lwt.db.exists(f"{base}@1") \
                        and not lwt.db.is_deleted(f"{base}@1"):
                    try:
                        sds.contribute(thread, f"{base}@1")
                    except ObjectNotFound:
                        pass  # never committed: not visible to the thread

        save_system(lwt, tmp_path / "a")
        reloaded = load_system(tmp_path / "a",
                               LWTSystem(clock=VirtualClock()))
        save_system(reloaded, tmp_path / "b")
        for name in ("database.json", "history.json"):
            assert (tmp_path / "a" / name).read_text() \
                == (tmp_path / "b" / name).read_text(), name


#: Text that JSON escapes, or that is not ASCII: base names (never the
#: version ``@``, nor white space at an end, which naming strips) and, with
#: white space, creators and payload strings.
NAME = st.text(st.sampled_from(['a', 'B', '"', '\\', '/', ':', '\x01', 'é',
                                '✓', '\U0001f600']), min_size=1, max_size=4)
TRICKY = st.text(st.sampled_from(['a', '"', '\\', ' ', '\n', '\x01', 'é',
                                  '\u2028', '\U0001f600']), max_size=4)

#: Nested payload blobs: every JSON type, int and str dict keys, NaN.
BLOBS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TRICKY,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(TRICKY, inner, max_size=3)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=8)


@st.composite
def databases(draw) -> DesignDatabase:
    """A database whose rows hold every kind of slot and value a manifest
    writes: tombstoned, pinned and reclaimed versions, aliases, int-valued
    and float times, and tricky bases and creators."""
    db = DesignDatabase(clock=VirtualClock())
    bases = draw(st.lists(NAME, min_size=1, max_size=3, unique=True))
    for _ in range(draw(st.integers(1, 12))):
        op, base = draw(st.sampled_from(
            ["put", "put", "alias", "delete", "pin", "reclaim", "tick",
             "advance"])), draw(st.sampled_from(bases))
        latest = db.latest_version(base)
        if op == "put":
            db.put(base, draw(BLOBS), creator=draw(TRICKY))
        elif op == "alias":
            source = draw(st.sampled_from(bases))
            if db.latest_version(source) and db.exists(f"{source}@1"):
                db.alias(base, f"{source}@1")
        elif op == "delete" and latest and db.exists(f"{base}@{latest}"):
            db.delete(f"{base}@{latest}")
        elif op == "pin" and latest and db.exists(f"{base}@1"):
            db.pin(f"{base}@1")
        elif op == "reclaim":   # of every tombstoned, unpinned version
            if latest and db.exists(f"{base}@{latest}"):
                db.delete(f"{base}@{latest}")
            db.reclaim()
        elif op == "tick":   # an int-valued clock: int times in the rows
            db.clock.advance_to(int(db.clock.now) + draw(st.integers(1, 3)))
        elif op == "advance":
            db.clock.advance(draw(st.floats(0.001, 10.0)))
    return db


def reference_manifest(db: DesignDatabase) -> str:
    """The manifest as a row dict per version through ``json.dumps``: what
    ``save_database`` wrote before it streamed its rows."""
    objects: list[dict] = []
    for base in sorted(db._versions):
        for version, obj in enumerate(db._versions[base], 1):
            if type(obj) is _Reclaimed:
                objects.append({"base": base, "version": version,
                                "reclaimed": True,
                                "deleted_at": obj.deleted_at})
            else:
                objects.append({"base": base, "version": version,
                                "created_at": obj.created_at,
                                "creator": obj.creator,
                                "chunk": obj.fingerprint, "size": obj.size,
                                "deleted_at": obj.deleted_at,
                                "pinned": obj.pinned})
    return json.dumps({"format": 2, "now": db.clock.now, "objects": objects,
                       "aliases": db.aliases()}, sort_keys=True)


class TestByteIdentity:
    """The streamed manifest writer and the module-level encoders write the
    bytes ``json.dumps(..., sort_keys=True)`` writes."""

    @settings(max_examples=60, deadline=None)
    @given(db=databases())
    def test_manifest_is_the_json_dumps_of_its_rows(self, db):
        live = sum(type(obj) is not _Reclaimed
                   for chain in db._versions.values() for obj in chain)
        with tempfile.TemporaryDirectory() as scratch:
            path, store = Path(scratch) / "database.json", \
                ChunkStore(Path(scratch) / "objects")
            deduped, written = (counter("persist.chunks_deduped"),
                                counter("persist.chunks_written"))
            chunks = save_database(db, path, store)
            text = path.read_text()
            assert text == reference_manifest(db)
            assert chunks == {row["chunk"]
                              for row in json.loads(text)["objects"]
                              if "chunk" in row}
            assert (counter("persist.chunks_deduped") - deduped
                    + counter("persist.chunks_written") - written) == live
            # Again: every chunk is indexed now, and so is every restored
            # handle's, so each row is a dedupe hit that encodes nothing;
            # the bytes do not change.
            deduped = counter("persist.chunks_deduped")
            assert save_database(db, path, store) == chunks
            restored = load_database(
                path, DesignDatabase(clock=VirtualClock()), store=store)
            assert save_database(restored, path, store) == chunks
            assert path.read_text() == text
            assert counter("persist.chunks_deduped") - deduped == 2 * live
            assert all(obj.fingerprint == obj.payload.digest
                       for chain in restored._versions.values()
                       for obj in chain if type(obj) is not _Reclaimed)

    def test_mixed_rows_are_the_json_dumps_of_their_rows(self, tmp_path):
        """One manifest mixing int and float times, a tombstone, a pinned
        row, a reclaimed slot and a creator that needs escaping is the
        ``json.dumps`` of its rows."""
        clock = VirtualClock()
        db = DesignDatabase(clock=clock)
        clock.advance_to(3)
        db.put("cell", {"w": 1}, creator='say "hi"\\\n\u00e9')
        db.put("gone", "x", creator="espresso")
        clock.advance(0.25)
        db.put("cell", [1.5, None], creator="espresso")
        db.pin("cell@2")
        db.delete("gone@1")
        db.reclaim()
        clock.advance_to(7)
        db.delete("cell@1")
        path = tmp_path / "database.json"
        save_database(db, path, ChunkStore(tmp_path / "objects"))
        text = path.read_text()
        assert text == reference_manifest(db)
        for row in ('"created_at": 3, "creator": "say \\"hi\\"\\\\\\n'
                    '\\u00e9", "deleted_at": 7, "pinned": false',
                    '"created_at": 3.25, "creator": "espresso", '
                    '"deleted_at": null, "pinned": true',
                    '"deleted_at": 3.25, "reclaimed": true'):
            assert row in text

    @settings(max_examples=200, deadline=None)
    @given(blob=BLOBS)
    def test_encoders_are_json_dumps(self, blob):
        assert _JSON(blob) == json.dumps(blob, sort_keys=True)
        assert canonical_chunk_bytes(blob) == json.dumps(
            blob, sort_keys=True, separators=(",", ":")).encode()

    @pytest.mark.parametrize("encode, separators", [
        (_JSON, (", ", ": ")), (_CANONICAL_JSON, (",", ":"))])
    def test_a_cycle_raises_and_the_encoder_still_works(self, encode,
                                                        separators):
        cycle: dict = {"a": [1]}
        cycle["a"].append(cycle)
        for _ in range(2):
            with pytest.raises(ValueError, match="Circular reference"):
                encode(cycle)
            with pytest.raises(ValueError, match="Circular reference"):
                canonical_chunk_bytes(cycle)
        # The containers the failed call was inside are not left marked.
        inner = cycle["a"]
        cycle["a"] = [2]
        assert encode(cycle) == json.dumps(cycle, sort_keys=True,
                                           separators=separators)
        assert encode(inner) == json.dumps(inner, sort_keys=True,
                                           separators=separators)


# ---------------------------------------------------------- budgeted reclaim


class TestBudgetedReclaim:
    def _aged_db(self):
        clock = VirtualClock()
        db = DesignDatabase(clock=clock)
        for i in range(10):
            db.put(f"junk{i}", {"i": i})
            db.delete(f"junk{i}@1")
        clock.advance(1000)
        return db

    def test_max_versions_caps_one_pass(self):
        db = self._aged_db()
        assert len(db.reclaim(grace_seconds=1.0, max_versions=3)) == 3

    def test_repeated_budgeted_passes_converge(self):
        budgeted = self._aged_db()
        total = []
        while True:
            got = budgeted.reclaim(grace_seconds=1.0, max_versions=4)
            if not got:
                break
            total.extend(got)
        unbudgeted = self._aged_db()
        assert sorted(map(str, total)) \
            == sorted(map(str, unbudgeted.reclaim(grace_seconds=1.0)))

    def test_sweep_accepts_time_budget(self, lwt):
        thread = lwt.create_thread("alpha", owner="a")
        reclaimer = Reclaimer(thread)
        # Zero budget: the sweep must still terminate and report cleanly.
        report = reclaimer.sweep(max_seconds=0.0, max_versions=0)
        assert report.records_pruned == 0
