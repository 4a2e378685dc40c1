"""Differential property test: the TDL front end against its reference.

``tests/tdl_reference.py`` holds the original character-loop tokenizer and
list parser.  Every optimised function must return what its reference
returns on the same text, or raise a ``TdlError`` with the same message.
Inputs are drawn from an alphabet heavy in the characters the scanners
treat specially.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.errors import TdlError
from repro.tdl import lists, tokenizer
from tests import tdl_reference as ref

SPECIALS = ' \t\n\r;{}[]"$\\'
TEXT = st.text(alphabet=SPECIALS + "abx_.#", max_size=40)


def outcome(func, text):
    try:
        return "ok", func(text)
    except TdlError as exc:
        return "error", str(exc)


def same(new, old, text):
    assert outcome(new, text) == outcome(old, text), repr(text)


@settings(max_examples=500, deadline=None)
@given(TEXT)
@example('step s {a} {b} {mark 1.0}')
@example("{a\\}")
@example('"ab\\')
@example("[a \\")
def test_split_words(text):
    same(tokenizer.split_words, ref.split_words, text)


@settings(max_examples=500, deadline=None)
@given(TEXT)
@example("a\\")
@example("\\\\\\n\\\n")
def test_unescape(text):
    same(tokenizer.unescape, ref.unescape, text)


@settings(max_examples=500, deadline=None)
@given(TEXT)
@example("${x")
@example("$ $a.b_c[x [y]]\\$z")
@example("[a \\")
def test_find_substitutions(text):
    same(tokenizer.find_substitutions, ref.find_substitutions, text)


@settings(max_examples=500, deadline=None)
@given(TEXT)
@example("set a 1; # c\n  # d\nset b {x;\ny}")
@example('"a;b" \\\n c')
def test_strip_comments_and_split(text):
    same(tokenizer.strip_comments_and_split, ref.strip_comments_and_split,
         text)


@settings(max_examples=500, deadline=None)
@given(TEXT)
@example("a\tb\nc  d")
@example("{a\nb} c")
@example('"a\nb" [c\nd]')
def test_parse_list(text):
    same(lists.parse_list, ref.parse_list, text)
