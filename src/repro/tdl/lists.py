"""Tcl list handling.

A Tcl list is a string whose elements are separated by white space, with
braces grouping elements that themselves contain white space.
"""

from __future__ import annotations

import re

from repro.tdl.tokenizer import BRACED, split_list_words, unescape

#: Text without these is a plain blank-separated list.
_LIST_SPECIAL = re.compile(r'[{}"\\\[]')
_ELEMENT = re.compile(r"[^ \t\n]+")


def parse_list(text: str) -> list[str]:
    """Split a Tcl list string into its elements (no substitution).

    Elements are separated by spaces, tabs and newlines; a newline inside a
    braced or quoted element is part of the element.
    """
    if _LIST_SPECIAL.search(text) is None:
        return _ELEMENT.findall(text)
    return [word if kind == BRACED else unescape(word)
            for kind, word in split_list_words(text)]


def _braces_balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def format_element(element: str) -> str:
    """Quote one element so that parse_list round-trips it."""
    if element == "":
        return "{}"
    specials = " \t\n;\"$[]{}\\"
    if not any(ch in element for ch in specials):
        return element
    if _braces_balanced(element) and not element.endswith("\\"):
        return "{" + element + "}"
    # Unbalanced braces (or trailing backslash): escape every special.
    out = []
    for ch in element:
        if ch in specials:
            out.append("\\" + ("n" if ch == "\n" else "t" if ch == "\t" else ch))
        else:
            out.append(ch)
    return "".join(out)


def format_list(elements: list[str]) -> str:
    """Join elements into a Tcl list string."""
    return " ".join(format_element(e) for e in elements)
