"""Tests for the interactive shell."""

from __future__ import annotations

import pytest

from repro.cli import Shell, ShellError, _parse_bindings
from repro.errors import PersistenceError
from tests.cycles import collector_off, repro_garbage


@pytest.fixture
def shell() -> Shell:
    return Shell()


def text_of(lines: list[str]) -> str:
    return "\n".join(lines)


class TestParsing:
    def test_bindings_split_on_separator(self):
        inputs, outputs = _parse_bindings(
            ["Incell=adder.net", "Cmd=musa.cmd", "--", "Outcell=a.pad"])
        assert inputs == {"Incell": "adder.net", "Cmd": "musa.cmd"}
        assert outputs == {"Outcell": "a.pad"}

    def test_bad_binding(self):
        with pytest.raises(ShellError):
            _parse_bindings(["nonsense"])

    def test_unknown_command(self, shell):
        with pytest.raises(ShellError):
            shell.execute("frobnicate")

    def test_empty_line(self, shell):
        assert shell.execute("") == []
        assert shell.execute("# just a comment") == []


class TestRelease:
    def test_dropped_shell_leaves_no_garbage(self, tmp_path):
        """A shell its caller drops is freed by reference counting alone,
        with its installation, task manager, last execution and database.
        A shell that kept its bound command handlers held itself in a
        cycle and leaked all of them."""
        with collector_off():
            shell = Shell()
            shell.execute("thread work")
            shell.execute("invoke Padp Incell=adder.net -- Outcell=a.pad")
            shell.execute(f"save {tmp_path / 'snap'}")
            shell.execute(f"load {tmp_path / 'snap'}")
            del shell
            assert not repro_garbage()


class TestCommands:
    def test_help_and_listings(self, shell):
        assert "invoke" in text_of(shell.execute("help"))
        assert "Structure_Synthesis" in text_of(shell.execute("tasks"))
        assert "espresso" in text_of(shell.execute("tools"))

    def test_thread_required_for_scope(self, shell):
        with pytest.raises(ShellError):
            shell.execute("scope")

    def test_open_thread_and_invoke(self, shell):
        shell.execute("thread work")
        out = text_of(shell.execute(
            "invoke Padp Incell=adder.net -- Outcell=a.pad"))
        assert "committed at design point 1" in out
        assert "padplace" in out
        assert "a.pad@1" in text_of(shell.execute("scope"))

    def test_full_session(self, shell):
        shell.execute("thread work")
        shell.execute("invoke Create_Logic_Description Spec=shifter.spec "
                      "-- Outcell=s.logic")
        shell.execute("invoke Standard_Cell_PR Incell=s.logic "
                      "-- Outcell=s.sc")
        shell.execute("move 1")
        shell.execute("invoke PLA_Generation Incell=s.logic "
                      "-- Outcell=s.pla")
        rendered = text_of(shell.execute("render"))
        assert "Standard_Cell_PR" in rendered
        assert "PLA_Generation" in rendered
        assert "<= cursor" in rendered
        workspace = text_of(shell.execute("workspace"))
        assert "s.sc@1" in workspace and "s.pla@1" in workspace
        scope = text_of(shell.execute("scope"))
        assert "s.pla@1" in scope and "s.sc@1" not in scope

    def test_annotate_and_goto(self, shell):
        shell.execute("thread work")
        shell.execute("invoke Padp Incell=adder.net -- Outcell=a.pad")
        shell.execute("annotate 1 the pad milestone")
        out = text_of(shell.execute("goto note the pad milestone"))
        assert "design point 1" in out
        out = text_of(shell.execute("goto note never written"))
        assert "no matching" in out
        out = text_of(shell.execute("goto time 0"))
        assert "design point 1" in out

    def test_man_and_objects(self, shell):
        assert "wolfe" in text_of(shell.execute("man wolfe"))
        shell.execute("thread work")
        shell.execute("invoke Padp Incell=adder.net -- Outcell=a.pad")
        listing = text_of(shell.execute("objects a.pad"))
        assert "a.pad@1" in listing

    def test_advance_and_reclaim(self, shell):
        shell.execute("thread work")
        shell.execute("invoke Padp Incell=adder.net -- Outcell=a.pad")
        shell.execute("advance 100000")
        out = text_of(shell.execute("reclaim 0"))
        assert "reclaimed" in out

    def test_save_and_load_roundtrip(self, shell, tmp_path):
        shell.execute("thread work")
        shell.execute("invoke Padp Incell=adder.net -- Outcell=a.pad")
        shell.execute(f"save {tmp_path / 'snap'}")
        out = text_of(shell.execute(f"load {tmp_path / 'snap'}"))
        assert "loaded 1 threads" in out
        assert shell.current == "work"
        assert "a.pad@1" in text_of(shell.execute("scope"))

    def test_load_rebinds_the_task_manager(self, shell, tmp_path):
        from repro.workloads.designs import sparse_layout

        shell.execute(f"save {tmp_path / 'snap'}")
        shell.execute(f"load {tmp_path / 'snap'}")
        taskmgr = shell.papyrus.taskmgr
        assert taskmgr.attrdb.db is taskmgr.db is shell.papyrus.db
        assert taskmgr.clock is taskmgr.cluster.clock is shell.papyrus.clock
        fresh = sparse_layout(shell.papyrus.db, name="fresh")
        assert taskmgr.attrdb.get("fresh.placed", "area") == \
            float(fresh.payload.area)

    def test_upgrade_then_load(self, shell, tmp_path):
        from pathlib import Path

        legacy = Path(__file__).parent / "fixtures" / "legacy_v2"
        with pytest.raises(PersistenceError, match="upgrade"):
            shell.execute(f"load {legacy}")
        out = text_of(shell.execute(f"upgrade {legacy} {tmp_path / 'up'}"))
        assert out == f"upgraded {legacy} to {tmp_path / 'up'}"
        out = text_of(shell.execute(f"load {tmp_path / 'up'}"))
        assert "loaded 2 threads" in out
        with pytest.raises(ShellError, match="usage"):
            shell.execute(f"upgrade {legacy}")

    def test_move_erase(self, shell):
        shell.execute("thread work")
        shell.execute("invoke Create_Logic_Description Spec=adder.spec "
                      "-- Outcell=x.logic")
        shell.execute("invoke Padp Incell=x.logic -- Outcell=x.pad")
        out = text_of(shell.execute("move 1 erase"))
        assert "erased" in out
        assert "x.pad" not in text_of(shell.execute("workspace"))

    def test_threads_listing(self, shell):
        shell.execute("thread a")
        shell.execute("thread b")
        listing = text_of(shell.execute("threads"))
        assert "a" in listing and "b" in listing and "*" in listing

    def test_quit(self, shell):
        shell.execute("quit")
        assert shell.done

    def test_usage_errors(self, shell):
        shell.execute("thread t")
        for bad in ("thread", "move", "annotate 1", "goto sideways 3",
                    "man", "advance", "save", "load", "invoke"):
            with pytest.raises(ShellError):
                shell.execute(bad)


class TestNotebookCommand:
    def test_notebook(self, shell):
        shell.execute("thread work")
        shell.execute("invoke Padp Incell=adder.net -- Outcell=a.pad")
        text = text_of(shell.execute("notebook"))
        assert "Design thread: work" in text
        assert "Padp" in text
        assert "relationships inferred" in text


class TestLineageCommands:
    def test_why_blame_impact_after_erase_on_rework(self, shell):
        shell.execute("thread work")
        shell.execute("invoke Create_Logic_Description Spec=shifter.spec "
                      "-- Outcell=sh.logic")
        shell.execute("invoke Standard_Cell_PR Incell=sh.logic "
                      "-- Outcell=sh.sc")
        assert "  sh.sc@1" in shell.execute("impact shifter.spec@1")
        shell.execute("move 1 erase")
        impact = shell.execute("impact shifter.spec@1")
        assert "  sh.logic@1" in impact and "  sh.sc@1" not in impact
        assert not any("disagrees" in line for line in impact)
        assert shell.execute("why sh.sc@1") == [
            "why sh.sc@1", "  unknown object (no lineage recorded)"]
        assert shell.execute("blame sh.sc") == [
            "blame sh.sc", "  no versions recorded"]
        why = text_of(shell.execute("why sh.logic@1"))
        assert "source shifter.spec@1" in why and "[work p1]" in why
