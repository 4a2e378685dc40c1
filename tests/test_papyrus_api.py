"""Tests for the top-level Papyrus facade and the scripted scenarios."""

from __future__ import annotations

import weakref

import pytest

from repro import Papyrus
from repro.core.thread_ops import fork
from repro.errors import SdsError, ThreadError
from repro.workloads.scenarios import (
    DAY,
    month_of_work,
    shifter_exploration,
    team_modules,
)
from tests.cycles import collector_off, repro_garbage


class TestPapyrusFacade:
    def test_standard_wiring(self):
        papyrus = Papyrus.standard(hosts=3)
        assert len(papyrus.taskmgr.cluster.hosts) == 3
        assert papyrus.db is papyrus.lwt.db
        assert papyrus.taskmgr.db is papyrus.db
        assert papyrus.taskmgr.clock is papyrus.clock
        # seeded designs present
        assert papyrus.db.exists("adder.spec@1")
        assert "Structure_Synthesis" in papyrus.taskmgr.library

    def test_standard_without_seed(self):
        papyrus = Papyrus.standard(hosts=1, seed=False)
        assert not papyrus.db.exists("adder.spec@1")

    def test_open_thread_registers(self):
        papyrus = Papyrus.standard(hosts=1)
        manager = papyrus.open_thread("work", owner="me")
        assert papyrus.activities["work"] is manager
        assert papyrus.lwt.thread("work") is manager.thread
        assert manager.thread.owner == "me"
        with pytest.raises(ThreadError):
            papyrus.open_thread("work")

    def test_reclaimer_helper(self):
        papyrus = Papyrus.standard(hosts=1)
        papyrus.open_thread("work")
        reclaimer = papyrus.reclaimer("work")
        assert reclaimer.thread is papyrus.lwt.thread("work")
        with pytest.raises(ThreadError):
            papyrus.reclaimer("ghost")

    def test_observe_history_is_incremental(self):
        papyrus = Papyrus.standard(hosts=2)
        manager = papyrus.open_thread("work")
        manager.invoke("Padp", {"Incell": "adder.net"}, {"Outcell": "a.pad"})
        papyrus.observe_history(manager)
        first = len(papyrus.inference.adg)
        # observing again must not duplicate (nor raise on re-observation)
        papyrus.observe_history(manager)
        assert len(papyrus.inference.adg) == first
        manager.invoke("Padp", {"Incell": "a.pad"}, {"Outcell": "a.pad2"})
        papyrus.observe_history(manager)
        assert len(papyrus.inference.adg) > first

    def test_dropped_installation_is_freed(self):
        """Ownership is a tree with weak back-references: an installation
        its caller drops is freed by reference counting alone, whatever it
        did (invokes, an erasing rework, SDS moves, an adopted fork,
        observed history)."""
        with collector_off():
            papyrus = Papyrus.standard(hosts=2)
            alice = papyrus.open_thread("alice", owner="a")
            bob = papyrus.open_thread("bob", owner="b")
            alice.invoke("Padp", {"Incell": "adder.net"},
                         {"Outcell": "a.pad"})
            first = alice.thread.current_cursor
            alice.invoke("Padp", {"Incell": "a.pad"}, {"Outcell": "b.pad"})
            alice.move_cursor(first, erase=True)
            sds = papyrus.lwt.create_sds("shared",
                                         members=[alice.thread, bob.thread])
            sds.contribute(alice.thread, "a.pad")
            sds.retrieve(bob.thread, "a.pad")
            papyrus.lwt.adopt_thread(fork(alice.thread, "alice.2",
                                          inherit="state"))
            papyrus.observe_history(alice)
            installation = weakref.ref(papyrus)
            db = weakref.ref(papyrus.db)
            del papyrus, alice, bob, sds
            assert installation() is None
            assert db() is None
            assert not repro_garbage()

    def test_mutually_importing_threads_are_freed(self):
        with collector_off():
            papyrus = Papyrus.standard(hosts=2)
            alice = papyrus.open_thread("alice", owner="a")
            bob = papyrus.open_thread("bob", owner="b")
            alice.invoke("Padp", {"Incell": "adder.net"},
                         {"Outcell": "a.pad"})
            alice.thread.import_thread(bob.thread)
            bob.thread.import_thread(alice.thread)
            assert "a.pad@1" in bob.thread.imported_workspace("alice")
            installation = weakref.ref(papyrus)
            del papyrus, alice, bob
            assert installation() is None
            assert not repro_garbage()

    def test_owner_activity_wiring(self):
        papyrus = Papyrus.standard(hosts=3, owner_period=50, owner_busy=10)
        schedules = [h.schedule for h in papyrus.taskmgr.cluster.hosts.values()
                     if h.name != "home"]
        assert all(s.busy == 10 for s in schedules)


class TestScenarios:
    def test_shifter_exploration_shape(self):
        papyrus = Papyrus.standard(hosts=3)
        outcome = shifter_exploration(papyrus)
        thread = outcome.designer.thread
        assert set(thread.stream.frontier()) == {outcome.sc_point,
                                                 outcome.pla_point}
        assert thread.find_annotation("The Start of PLA Approach") is not None

    def test_team_modules_shape(self):
        papyrus = Papyrus.standard(hosts=3)
        team = team_modules(papyrus)
        sds = papyrus.lwt.sds(team.sds_name)
        assert len(team.members) == 3
        for member in team.members.values():
            assert sds.is_registered(member.thread)
        assert len(sds.objects()) == 3

    def test_month_of_work_shape(self):
        papyrus = Papyrus.standard(hosts=2)
        outcome = month_of_work(papyrus)
        thread = outcome.designer.thread
        assert papyrus.clock.now >= 4 * 7 * DAY
        assert outcome.dead_branch_tip in thread.stream
        assert len(outcome.iteration_points) == 4
        assert thread.is_visible("w.iter.final")

    def test_sds_registry_errors(self):
        papyrus = Papyrus.standard(hosts=1)
        papyrus.lwt.create_sds("S")
        with pytest.raises(SdsError):
            papyrus.lwt.create_sds("S")
        with pytest.raises(SdsError):
            papyrus.lwt.sds("missing")
