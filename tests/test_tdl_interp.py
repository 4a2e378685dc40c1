"""Tests for the Tcl-subset interpreter and TDL template parsing."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import TdlError, TemplateError
from repro.tdl import Interp
from repro.tdl.expr import evaluate, format_result, truthy
from repro.tdl.lists import format_list, parse_list
from repro.tdl.template import (
    TemplateLibrary,
    parse_step_args,
    parse_subtask_args,
    parse_template,
)
from repro.tdl.tokenizer import split_words, strip_comments_and_split


@pytest.fixture
def interp() -> Interp:
    return Interp()


class TestTokenizer:
    def test_command_split(self):
        cmds = strip_comments_and_split("set a 1; set b 2\nset c 3")
        assert cmds == ["set a 1", "set b 2", "set c 3"]

    def test_comments_skipped(self):
        cmds = strip_comments_and_split("# a comment\nset a 1\n  # another\n")
        assert cmds == ["set a 1"]

    def test_braces_protect_separators(self):
        cmds = strip_comments_and_split("if {$a} {\nset b 1\n}")
        assert len(cmds) == 1

    def test_brackets_protect_separators(self):
        cmds = strip_comments_and_split("set a [cmd one; cmd two]")
        assert len(cmds) == 1

    def test_unbalanced_brace_raises(self):
        with pytest.raises(TdlError):
            strip_comments_and_split("set a {")

    def test_word_kinds(self):
        words = split_words('cmd bare {braced one} "quoted two"')
        assert words[0] == ("bare", "cmd")
        assert words[2] == ("braced", "braced one")
        assert words[3] == ("quoted", "quoted two")

    def test_nested_braces(self):
        words = split_words("set b {xyz {b c d}}")
        assert words[2] == ("braced", "xyz {b c d}")


class TestListOps:
    def test_roundtrip(self):
        elements = ["a", "b c", "", "{d}", "e"]
        assert parse_list(format_list(elements)) == elements

    @given(st.lists(st.text(alphabet="abc {}\n", min_size=0, max_size=6)))
    @example(["a\nb", "c"])
    def test_roundtrip_property(self, elements):
        # restrict to brace-balanced elements, as Tcl itself requires
        def balanced(text):
            depth = 0
            for ch in text:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth < 0:
                        return False
            return depth == 0

        elements = [e for e in elements if balanced(e)]
        assert parse_list(format_list(elements)) == elements

    def test_newline_kept_inside_braced_and_quoted_elements(self, interp):
        assert parse_list("{a\nb} c") == ["a\nb", "c"]
        assert parse_list('"a\nb"\nc') == ["a\nb", "c"]
        assert parse_list("a\nb\tc") == ["a", "b", "c"]
        assert interp.eval('lindex [list "a\nb" c] 0') == "a\nb"


class TestExpr:
    @pytest.mark.parametrize("text,expected", [
        ("1 + 2 * 3", 7),
        ("(1 + 2) * 3", 9),
        ("10 / 4", 2),
        ("10.0 / 4", 2.5),
        ("7 % 3", 1),
        ("1 << 4", 16),
        ("5 > 3 && 2 < 1", 0),
        ("5 > 3 || 2 < 1", 1),
        ("!0", 1),
        ("-3 + 5", 2),
        ("3 == 3.0", 1),
        ('"abc" == "abc"', 1),
        ('"abc" != "abd"', 1),
    ])
    def test_evaluate(self, text, expected):
        assert evaluate(text) == expected

    def test_division_by_zero(self):
        with pytest.raises(TdlError):
            evaluate("1 / 0")

    def test_empty_expression(self):
        with pytest.raises(TdlError):
            evaluate("")

    def test_truthy(self):
        assert truthy(1) and truthy("2") and truthy(0.5)
        assert not truthy(0) and not truthy("0")

    def test_format_result(self):
        assert format_result(4) == "4"
        assert format_result(2.5) == "2.5"


class TestInterp:
    def test_commands_registered_per_interpreter(self):
        first, second = Interp(), Interp()
        first.register("step", lambda interp, args: "issued")
        assert first.eval("step a") == "issued"
        assert "step" not in second.commands
        with pytest.raises(TdlError, match="invalid command name"):
            second.eval("step a")
        assert "step" not in Interp().commands
        assert second.eval("llength {a b}") == "2"

    def test_variable_substitution_forms(self, interp):
        interp.eval("set a 100; set b fg")
        assert interp.eval("set c Zs${a}d$b") == "Zs100dfg"

    def test_braces_suppress_substitution(self, interp):
        interp.eval("set a 1")
        assert interp.eval("set b {$a}") == "$a"

    def test_command_substitution(self, interp):
        interp.eval("set a 3")
        assert interp.eval("set b [expr $a * 2]") == "6"

    def test_quoted_words_substitute(self, interp):
        interp.eval("set who world")
        assert interp.eval('set msg "hello $who"') == "hello world"

    def test_unknown_command(self, interp):
        with pytest.raises(TdlError):
            interp.eval("frobnicate 1 2")

    def test_unset_variable_read(self, interp):
        with pytest.raises(TdlError):
            interp.eval("set x $missing")

    def test_if_then_else_chain(self, interp):
        interp.eval("set a 5")
        result = interp.eval(
            "if {$a > 10} {set r big} elseif {$a > 3} {set r mid} "
            "else {set r small}"
        )
        assert result == "mid"

    def test_if_old_style_else(self, interp):
        interp.eval("set a 0")
        assert interp.eval("if {$a > 1} {set b 1} {set b 0}") == "0"

    def test_while_and_break_continue(self, interp):
        interp.eval("""
            set total 0
            set i 0
            while {$i < 10} {
                incr i
                if {$i == 3} {continue}
                if {$i == 6} {break}
                set total [expr $total + $i]
            }
        """)
        assert interp.get_var("total") == str(1 + 2 + 4 + 5)

    def test_foreach(self, interp):
        interp.eval("set s {}; foreach x {a b c} {append s $x}")
        assert interp.get_var("s") == "abc"

    def test_proc_locals_dont_leak(self, interp):
        interp.eval("proc p {} {set inner 42; return ok}")
        assert interp.eval("p") == "ok"
        assert not interp.has_var("inner")

    def test_proc_defaults_and_varargs(self, interp):
        interp.eval("proc f {a {b 2} args} {return $a-$b-[llength $args]}")
        assert interp.eval("f 1") == "1-2-0"
        assert interp.eval("f 1 5 x y") == "1-5-2"

    def test_proc_wrong_arity(self, interp):
        interp.eval("proc g {a} {return $a}")
        with pytest.raises(TdlError):
            interp.eval("g")
        with pytest.raises(TdlError):
            interp.eval("g 1 2")

    def test_global_links(self, interp):
        interp.eval("set counter 0")
        interp.eval("proc bump {} {global counter; incr counter}")
        interp.eval("bump; bump")
        assert interp.get_var("counter") == "2"

    def test_recursion(self, interp):
        interp.eval("""
            proc fact {n} {
                if {$n <= 1} {return 1}
                return [expr $n * [fact [expr $n - 1]]]
            }
        """)
        assert interp.eval("fact 6") == "720"

    def test_catch(self, interp):
        assert interp.eval("catch {expr 1/0} msg") == "1"
        assert "division" in interp.get_var("msg")
        assert interp.eval("catch {expr 1+1} msg") == "0"
        assert interp.get_var("msg") == "2"

    def test_read_trace_fires(self, interp):
        fired = []
        interp.read_traces["status"] = lambda i: fired.append(True) or \
            i.set_var("status", "0") if not i.has_var("status") else None
        interp.set_var("status", "1")
        interp.read_traces["status"] = lambda i: fired.append(True)
        assert interp.eval("set x $status") == "1"
        assert fired

    def test_top_hook_only_at_top_level(self, interp):
        seen = []
        interp.eval(
            "set a 1\nif {$a} {set b 2; set c 3}\nset d 4",
            top_hook=lambda idx, raw: seen.append(raw.split()[0]),
        )
        assert seen == ["set", "if", "set"]

    def test_command_budget(self, interp):
        interp.MAX_COMMANDS = 100
        with pytest.raises(TdlError):
            interp.eval("while {1} {set x 1}")

    def test_escapes(self, interp):
        assert interp.eval(r'set a "x\ty"') == "x\ty"
        interp.eval("set v 9")
        assert interp.eval(r"set b \$v") == "$v"


class TestTemplates:
    PADP = """
task Padp {Incell} {Outcell}
step Pads_Placement {Incell} {Outcell} {padplace -c -o Outcell Incell}
"""

    def test_parse_header(self):
        template = parse_template(self.PADP)
        assert template.name == "Padp"
        assert template.inputs == ("Incell",)
        assert template.outputs == ("Outcell",)
        assert len(template.body_commands) == 1

    def test_missing_task_command(self):
        with pytest.raises(TemplateError):
            parse_template("step S {a} {b} {tool a b}")

    def test_duplicate_formals(self):
        with pytest.raises(TemplateError):
            parse_template("task T {A A} {B}")

    def test_empty_template(self):
        with pytest.raises(TemplateError):
            parse_template("   \n  ")

    def test_library(self):
        lib = TemplateLibrary()
        lib.add_source(self.PADP)
        assert "Padp" in lib
        assert lib.get("Padp").name == "Padp"
        assert lib.names() == ["Padp"]
        with pytest.raises(TemplateError):
            lib.get("Nope")

    def test_step_spec_full(self):
        spec = parse_step_args([
            "1 Vertical_Compaction", "ppOutput", "Outcell1",
            "sparcs -v -t -o Outcell1 ppOutput",
            "ResumedStep 1", "NonMigrate", "ControlDependency 2 3",
        ])
        assert spec.declared_id == 1
        assert spec.name == "Vertical_Compaction"
        assert spec.resumed_step == 1
        assert not spec.migratable
        assert spec.control_deps == (2, 3)
        assert spec.tool == "sparcs"

    def test_step_spec_latest_resume(self):
        spec = parse_step_args(["S", "a", "b", "t a b", "ResumedStep latest"])
        assert spec.resumed_step == "latest"

    def test_step_spec_bad_option(self):
        with pytest.raises(TemplateError):
            parse_step_args(["S", "a", "b", "t", "Sparkle 1"])

    def test_step_spec_too_few_args(self):
        with pytest.raises(TemplateError):
            parse_step_args(["S", "a", "b"])

    def test_subtask_forms(self):
        three = parse_subtask_args(["Padp", "cell.logic", "cell.padp"])
        assert three.is_subtask and three.declared_id is None
        with_id = parse_subtask_args(["2", "Padp", "cell.logic", "cell.padp"])
        assert with_id.declared_id == 2
        braced = parse_subtask_args(["2 Padp", "in", "out"])
        assert braced.declared_id == 2 and braced.name == "Padp"

    def test_subtask_bad_forms(self):
        with pytest.raises(TemplateError):
            parse_subtask_args(["Padp", "in"])
        with pytest.raises(TemplateError):
            parse_subtask_args(["x", "Padp", "in", "out"])


class TestListExtras:
    def test_lsort(self, interp):
        assert interp.eval("lsort {pear apple mango}") == "apple mango pear"
        assert interp.eval("lsort -integer {10 2 33}") == "2 10 33"
        with pytest.raises(TdlError):
            interp.eval("lsort -integer {a b}")

    def test_lsearch(self, interp):
        assert interp.eval("lsearch {a b c} c") == "2"
        assert interp.eval("lsearch {a b c} z") == "-1"

    def test_linsert(self, interp):
        assert interp.eval("linsert {a c} 1 b") == "a b c"
        assert interp.eval("linsert {a b} end c d") == "a b c d"

    def test_lreplace(self, interp):
        assert interp.eval("lreplace {a b c d} 1 2 X Y") == "a X Y d"
        assert interp.eval("lreplace {a b c} 1 end") == "a"

    def test_lreverse(self, interp):
        assert interp.eval("lreverse {1 2 3}") == "3 2 1"
