"""One attribute mechanism: TDL ``attribute`` (the task manager's attribute
database, §4.3.6) and the Ch. 6 type system read the same measurement
table, :data:`repro.taskmgr.attrdb.MEASURES`."""

from __future__ import annotations

import weakref

import pytest

from repro import Papyrus
from repro.activity.reclamation import Reclaimer
from repro.cad import default_registry
from repro.cad.layout import Layout, Report
from repro.cad.logic import BehavioralSpec, BooleanNetwork, Cover, Pla
from repro.clock import VirtualClock
from repro.errors import MetadataError
from repro.metadata import AttributeSpec, MetadataInferenceEngine
from repro.metadata.attrindex import AttributeIndex
from repro.metadata.typesys import PROPAGATED
from repro.octdb import DesignDatabase
from repro.taskmgr import AttributeDatabase, TaskManager
from repro.taskmgr.attrdb import MEASURES
from repro.workloads import seed_designs, standard_library

from tests.cycles import collector_off, repro_garbage

#: Every payload class the synthetic CAD suite makes.
PAYLOAD_CLASSES = (BehavioralSpec, BooleanNetwork, Cover, Pla, Layout, Report)


@pytest.fixture
def synthesis():
    """A database holding a kept-intermediates Structure_Synthesis and
    PLA_Generation run, and the synthesis record."""
    clk = VirtualClock()
    db = DesignDatabase(clock=clk)
    seed = seed_designs(db)
    tm = TaskManager(db, default_registry(), standard_library(), clock=clk)
    record = tm.run_task(
        "Structure_Synthesis",
        inputs={"Incell": seed["adder.spec"], "Musa_Command": seed["musa.cmd"]},
        outputs={"Outcell": "adder.layout", "Cell_Statistics": "adder.stats"},
        keep_intermediates=True,
    )
    tm.run_task("PLA_Generation", inputs={"Incell": seed["decoder.net"]},
                outputs={"Outcell": "decoder.play"}, keep_intermediates=True)
    network = db.get(seed["adder.net"]).payload
    db.put("adder.cover", next(iter(network.nodes.values())).cover)
    return db, record


def _outcome(read, name: str, attr: str):
    """The value ``read`` gives, or :class:`MetadataError` if it raises one."""
    try:
        return read(name, attr)
    except MetadataError:
        return MetadataError


def test_task_manager_and_type_system_agree(synthesis):
    db, _ = synthesis
    versions: dict[type, str] = {}
    for obj in db:
        versions.setdefault(type(obj.payload), str(obj))
    assert set(PAYLOAD_CLASSES) <= set(versions)
    attrdb = AttributeDatabase(db)
    engine = MetadataInferenceEngine(db)
    compared = 0
    for cls in PAYLOAD_CLASSES:
        name = versions[cls]
        declared = engine.types[engine.type_of(name)]
        for attr in MEASURES:
            by_attrdb = _outcome(attrdb.get, name, attr)
            if attr not in declared:
                continue
            assert _outcome(engine.attribute, name, attr) == by_attrdb, \
                (cls.__name__, attr)
            # every attribute a type declares is measurable on it
            assert by_attrdb is not MetadataError, (cls.__name__, attr)
            compared += 1
    assert compared == 1 + 5 * 3 + 4 + 1


def test_unmeasurable_payload_raises_metadata_error(synthesis):
    db, _ = synthesis
    attrdb = AttributeDatabase(db)
    with pytest.raises(MetadataError, match="BehavioralSpec"):
        attrdb.get("adder.spec", "area")
    with pytest.raises(MetadataError, match="str"):
        attrdb.get("musa.cmd", "literals")


def test_intrinsic_attribute_needs_a_computation_tool():
    with pytest.raises(MetadataError, match="computation tool"):
        AttributeSpec("smell")
    assert AttributeSpec("smell", kind=PROPAGATED).name == "smell"


def test_a_broken_measure_propagates_out_of_observe(synthesis, monkeypatch):
    db, record = synthesis

    def broken(layout):
        raise ValueError("broken measure")

    monkeypatch.setitem(MEASURES["area"], Layout, broken)
    engine = MetadataInferenceEngine(db)
    with pytest.raises(ValueError, match="broken measure"):
        engine.observe(record)
    assert not engine.stats.type_violations


def test_output_reclaimed_before_it_is_observed():
    """Another thread's collection reclaims an intermediate the first
    thread's record still names; observing that record later measures
    nothing and reports no type violation."""
    papyrus = Papyrus.standard(hosts=2)
    first = papyrus.open_thread("t0", owner="x")
    second = papyrus.open_thread("t1", owner="y")
    first.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                 {"Outcell": "p.logic"})
    second.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                  {"Outcell": "q.logic"})
    papyrus.clock.advance(60 * 24 * 3600.0)
    Reclaimer(second.thread).sweep(reclaim_grace=0.0)
    papyrus.observe_history()
    assert papyrus.inference.stats.type_violations == []


def test_attribute_values_go_with_their_reclaimed_versions():
    """A version's cached attribute values go when another thread's
    collection reclaims it: ``has`` answers False, the cache no longer
    holds them, and the index does not take them back after a discard.
    The installation is still freed by reference counting alone."""
    with collector_off():
        papyrus = Papyrus.standard(hosts=2)
        first = papyrus.open_thread("t0", owner="x")
        second = papyrus.open_thread("t1", owner="y")
        first.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                     {"Outcell": "p.logic"})
        second.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                      {"Outcell": "q.logic"})
        papyrus.observe_history()
        attributes = papyrus.inference.attributes
        index = AttributeIndex()
        index.ingest(papyrus.inference)
        # Each run's intermediate spec (``cell.beh.t<N>s<M>@1``; the numbers
        # come from a process-wide counter) is tombstoned at its commit.
        reclaimed = index.in_range("behavioral", "width")
        assert len(reclaimed) == 2
        assert all(attributes.has(name, "width") for name in reclaimed)
        papyrus.clock.advance(60 * 24 * 3600.0)
        Reclaimer(papyrus.open_thread("t2", owner="z").thread).sweep(
            reclaim_grace=0.0)
        assert not any(attributes.has(name, "width") for name in reclaimed)
        assert not {name for name, _ in attributes._values} & {*reclaimed}
        assert attributes.has("p.logic@1", "num_inputs")     # not reclaimed
        for name in reclaimed:
            index.discard(name)
        index.ingest(papyrus.inference)
        assert index.in_range("behavioral", "width") == []
        installation = weakref.ref(papyrus)
        del papyrus, first, second, attributes
        assert installation() is None
        assert not repro_garbage()
