"""Tcl list handling.

A Tcl list is a string whose elements are separated by white space, with
braces grouping elements that themselves contain white space.
"""

from __future__ import annotations

from repro.tdl.tokenizer import BARE, BRACED, QUOTED, split_words, unescape


def parse_list(text: str) -> list[str]:
    """Split a Tcl list string into its elements (no substitution)."""
    elements: list[str] = []
    # Newlines are element separators inside lists.
    for kind, word in split_words(text.replace("\n", " ")):
        if kind == BRACED:
            elements.append(word)
        else:
            elements.append(unescape(word))
    return elements


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
