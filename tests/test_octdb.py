"""Unit tests for the versioned design database (octdb)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ObjectNameError, ObjectNotFound, VersionConflict
from repro.octdb import DesignDatabase, parse_name
from repro.octdb.naming import ObjectName


class TestNaming:
    def test_plain_name(self):
        name = parse_name("ALU.logic")
        assert name.base == "ALU.logic"
        assert name.version is None

    def test_versioned_name(self):
        name = parse_name("ALU.logic@2")
        assert name.base == "ALU.logic"
        assert name.version == 2

    def test_path_name(self):
        assert parse_name("/user/chiueh/Multiplier").is_path
        assert not parse_name("Multiplier").is_path

    def test_oct_structure(self):
        name = parse_name("shifter:symbolic:contents@3")
        assert name.cell == "shifter"
        assert name.view == "symbolic"
        assert name.facet == "contents"
        assert name.version == 3

    def test_view_facet_absent(self):
        name = parse_name("shifter")
        assert name.view is None
        assert name.facet is None

    def test_roundtrip_str(self):
        for text in ("a", "a@1", "a:b:c@12"):
            assert str(parse_name(text)) == text

    def test_bad_names(self):
        for bad in ("", "  ", "@3", "a@x", "a@-1"):
            with pytest.raises(ObjectNameError):
                parse_name(bad)

    def test_version_zero_is_explicit_not_unversioned(self):
        # External check-ins may carry version 0; it is a real version.
        name = parse_name("a@0")
        assert name.version == 0
        assert name.version is not None
        assert str(name) == "a@0"

    def test_at_and_unversioned(self):
        name = parse_name("x")
        assert name.at(4).version == 4
        assert name.at(4).unversioned().version is None

    @given(st.text(alphabet="abcdef.:/_-", min_size=1),
           st.integers(min_value=1, max_value=999))
    def test_parse_roundtrip_property(self, base, version):
        name = ObjectName(base, version)
        assert parse_name(str(name)) == name


class TestDatabase:
    def test_put_allocates_versions(self, db):
        first = db.put("cell", {"v": 1})
        second = db.put("cell", {"v": 2})
        assert first.version == 1
        assert second.version == 2
        assert db.latest_version("cell") == 2

    def test_single_assignment_rejects_chosen_versions(self, db):
        db.put("cell", 1)
        with pytest.raises(VersionConflict):
            db.put("cell@5", 2)
        # ...but the exact next version is accepted
        assert db.put("cell@2", 2).version == 2

    def test_get_latest_and_explicit(self, db):
        db.put("cell", "a")
        db.put("cell", "b")
        assert db.get("cell").payload == "b"
        assert db.get("cell@1").payload == "a"

    def test_get_missing(self, db):
        with pytest.raises(ObjectNotFound):
            db.get("nope")
        db.put("cell", 1)
        with pytest.raises(ObjectNotFound):
            db.get("cell@9")

    def test_delete_is_tombstone_then_undelete(self, db):
        db.put("cell", "a")
        db.delete("cell@1")
        assert db.is_deleted("cell@1")
        # latest-version resolution skips tombstones
        with pytest.raises(ObjectNotFound):
            db.get("cell")
        db.undelete("cell@1")
        assert db.get("cell").payload == "a"

    def test_reclaim_respects_grace_period(self, db, clock):
        db.put("cell", "a")
        db.delete("cell@1")
        assert db.reclaim(grace_seconds=100) == []
        clock.advance(101)
        reclaimed = db.reclaim(grace_seconds=100)
        assert [str(n) for n in reclaimed] == ["cell@1"]
        with pytest.raises(ObjectNotFound):
            db.get("cell@1")

    def test_reclaim_skips_pinned(self, db, clock):
        db.put("cell", "a")
        db.delete("cell@1")
        db.pin("cell@1")
        clock.advance(10)
        assert db.reclaim() == []
        db.pin("cell@1", False)
        assert len(db.reclaim()) == 1

    def test_reclaim_archives(self, db, clock):
        db.put("cell", "payload")
        db.delete("cell@1")
        clock.advance(1)
        archived = []
        db.reclaim(archive=archived.append)
        assert len(archived) == 1
        assert archived[0].payload == "payload"

    def test_bytes_live_accounting(self, db, clock):
        db.put("cell", "x" * 100)
        before = db.bytes_live
        db.delete("cell@1")
        clock.advance(1)
        db.reclaim()
        assert db.bytes_live == before - 100

    def test_stats(self, db, clock):
        db.put("a", 1)
        db.put("a", 2)
        db.put("b", 3)
        db.delete("a@1")
        stats = db.stats()
        assert stats["live"] == 2
        assert stats["tombstoned"] == 1
        assert stats["bases"] == 2
        clock.advance(1)
        db.reclaim()
        assert db.stats()["reclaimed"] == 1

    def test_iteration_and_len(self, db):
        db.put("a", 1)
        db.put("b", 2)
        assert len(db) == 2
        assert {str(o.name) for o in db} == {"a@1", "b@1"}

    def test_versions_listing(self, db):
        db.put("a", 1)
        db.put("a", 2)
        assert [o.version for o in db.versions("a")] == [1, 2]

    @given(st.lists(st.integers(), min_size=1, max_size=20))
    def test_versions_strictly_increase(self, payloads):
        db = DesignDatabase()
        versions = [db.put("obj", p).version for p in payloads]
        assert versions == list(range(1, len(payloads) + 1))


class TestPersistence:
    def test_roundtrip(self, db, clock, tmp_path):
        from repro.octdb.chunkstore import ChunkStore
        from repro.octdb.persistence import load_database, save_database
        from repro.cad import BehavioralSpec  # registers codecs

        db.put("spec", BehavioralSpec("s", "shifter", 4))
        db.put("note", "plain string")
        db.put("note", "second version")
        db.delete("note@1")
        path = tmp_path / "db.json"
        save_database(db, path, ChunkStore(tmp_path / "objects"))
        restored = load_database(path, DesignDatabase(clock=clock))
        assert restored.get("note").payload == "second version"
        assert restored.is_deleted("note@1")
        spec = restored.get("spec").payload
        assert spec.kind == "shifter" and spec.width == 4

    def test_reclaimed_slot_preserved(self, db, clock, tmp_path):
        from repro.octdb.chunkstore import ChunkStore
        from repro.octdb.persistence import load_database, save_database

        db.put("a", 1)
        db.put("a", 2)
        db.delete("a@1")
        clock.advance(1)
        db.reclaim()
        path = tmp_path / "db.json"
        save_database(db, path, ChunkStore(tmp_path / "objects"))
        restored = load_database(path, DesignDatabase(clock=clock))
        # version numbering continues after the hole
        assert restored.latest_version("a") == 2
        assert restored.get("a@2").payload == 2
        with pytest.raises(ObjectNotFound):
            restored.get("a@1")


class TestOctQueries:
    def test_bases(self, db):
        db.put("b", 1)
        db.put("a", 1)
        assert db.bases() == ["a", "b"]

    def test_find_by_cell_view_facet(self, db):
        db.put("alu:symbolic:contents", 1)
        db.put("alu:symbolic:interface", 2)
        db.put("alu:physical:contents", 3)
        db.put("shifter:symbolic:contents", 4)
        assert len(db.find(cell="alu")) == 3
        assert len(db.find(cell="alu", view="symbolic")) == 2
        assert len(db.find(view="symbolic", facet="contents")) == 2
        assert db.find(cell="nope") == []

    def test_find_respects_liveness(self, db, clock):
        db.put("alu:symbolic", 1)
        db.put("alu:symbolic", 2)
        db.delete("alu:symbolic@1")
        assert [o.version for o in db.find(cell="alu")] == [2]
        assert [o.version for o in db.find(cell="alu", live_only=False)] \
            == [1, 2]

    def test_find_orders_by_name_then_version(self, db):
        db.put("z", 1)
        db.put("a", 1)
        db.put("a", 2)
        found = db.find()
        assert [(o.base, o.version) for o in found] == \
            [("a", 1), ("a", 2), ("z", 1)]
