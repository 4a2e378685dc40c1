"""Character-loop reference for the TDL front end.

These are the original one-character-at-a-time versions of
``strip_comments_and_split``, ``split_words``, ``unescape``,
``find_substitutions`` and ``parse_list``, kept as the oracle for
``test_tdl_differential``: the optimised functions in ``repro.tdl`` must
return exactly what these return, or raise a ``TdlError`` with the same
message.

The one deliberate difference from the original code is in list parsing: a
newline separates list elements only where a blank would (so it is kept
inside a braced or quoted element), where the original replaced every
newline with a blank first.  ``split_words`` therefore takes the set of
blank characters.
"""

from __future__ import annotations

from repro.errors import TdlError


def strip_comments_and_split(script: str) -> list[str]:
    """Split a script into command strings.

    Returns the raw text of each command (with grouping intact), skipping
    blank commands and ``#`` comments.
    """
    commands: list[str] = []
    buf: list[str] = []
    depth_brace = 0
    depth_bracket = 0
    in_quote = False
    i = 0
    n = len(script)
    at_command_start = True
    in_comment = False
    while i < n:
        ch = script[i]
        if in_comment:
            if ch == "\n":
                in_comment = False
                at_command_start = True
            i += 1
            continue
        if ch == "\\" and i + 1 < n:
            buf.append(script[i:i + 2])
            at_command_start = False
            i += 2
            continue
        if not in_quote:
            if ch == "{":
                depth_brace += 1
            elif ch == "}":
                depth_brace -= 1
                if depth_brace < 0:
                    raise TdlError("unbalanced '}'")
            elif ch == "[" and depth_brace == 0:
                depth_bracket += 1
            elif ch == "]" and depth_brace == 0:
                depth_bracket = max(0, depth_bracket - 1)
            elif ch == '"' and depth_brace == 0:
                in_quote = True
        elif ch == '"':
            in_quote = False
        top = depth_brace == 0 and depth_bracket == 0 and not in_quote
        if top and ch in "\n;":
            text = "".join(buf).strip()
            if text:
                commands.append(text)
            buf = []
            at_command_start = True
            i += 1
            continue
        if top and at_command_start and ch == "#":
            in_comment = True
            i += 1
            continue
        if at_command_start and ch in " \t":
            i += 1
            continue
        buf.append(ch)
        if ch not in " \t":
            at_command_start = False
        i += 1
    if depth_brace != 0:
        raise TdlError("unbalanced '{'")
    if in_quote:
        raise TdlError("unterminated quote")
    text = "".join(buf).strip()
    if text:
        commands.append(text)
    return commands


#: Word kinds produced by :func:`split_words`.
BARE, BRACED, QUOTED = "bare", "braced", "quoted"

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"',
            "$": "$", "[": "[", "]": "]", "{": "{", "}": "}", ";": ";",
            " ": " ", "\n": " "}


def unescape(text: str) -> str:
    """Resolve backslash escapes in bare/quoted word text."""
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def split_words(command: str,
                blanks: str = " \t") -> list[tuple[str, str]]:
    """Split one command into ``(kind, text)`` words.

    ``braced`` text has the outer braces removed and is substitution-free;
    ``quoted`` has the quotes removed; ``bare`` is as written.  Substitution
    of ``$`` and ``[...]`` inside bare/quoted words is the interpreter's job.
    """
    words: list[tuple[str, str]] = []
    i = 0
    n = len(command)
    while i < n:
        while i < n and command[i] in blanks:
            i += 1
        if i >= n:
            break
        ch = command[i]
        if ch == "{":
            depth = 1
            j = i + 1
            while j < n and depth:
                if command[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if command[j] == "{":
                    depth += 1
                elif command[j] == "}":
                    depth -= 1
                j += 1
            if depth:
                raise TdlError(f"unbalanced braces in {command!r}")
            words.append((BRACED, command[i + 1:j - 1]))
            i = j
        elif ch == '"':
            j = i + 1
            while j < n:
                if command[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if command[j] == '"':
                    break
                if command[j] == "[":
                    j = _skip_bracket(command, j)
                    continue
                j += 1
            if j >= n:
                raise TdlError(f"unterminated quote in {command!r}")
            words.append((QUOTED, command[i + 1:j]))
            i = j + 1
        else:
            j = i
            while j < n and command[j] not in blanks:
                if command[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if command[j] == "[":
                    j = _skip_bracket(command, j)
                    continue
                j += 1
            words.append((BARE, command[i:j]))
            i = j
    return words


def _skip_bracket(text: str, start: int) -> int:
    """Index just past the ``]`` matching the ``[`` at ``start``."""
    depth = 0
    i = start
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            i += 2
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise TdlError(f"unbalanced brackets in {text!r}")


def find_substitutions(text: str) -> list[tuple[int, int, str, str]]:
    """Locate ``$var``, ``${var}`` and ``[script]`` spans in a word.

    Returns ``(start, end, kind, payload)`` with kind ``var`` or ``cmd``.
    """
    spans: list[tuple[int, int, str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            i += 2
            continue
        if ch == "[":
            end = _skip_bracket(text, i)
            spans.append((i, end, "cmd", text[i + 1:end - 1]))
            i = end
            continue
        if ch == "$" and i + 1 < n:
            if text[i + 1] == "{":
                close = text.find("}", i + 2)
                if close < 0:
                    raise TdlError(f"unterminated ${{ in {text!r}")
                spans.append((i, close + 1, "var", text[i + 2:close]))
                i = close + 1
                continue
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            if j > i + 1:
                spans.append((i, j, "var", text[i + 1:j]))
                i = j
                continue
        i += 1
    return spans


def parse_list(text: str) -> list[str]:
    """Split a Tcl list string into its elements (no substitution)."""
    elements: list[str] = []
    # A newline separates elements wherever a blank does.
    for kind, word in split_words(text, " \t\n"):
        if kind == BRACED:
            elements.append(word)
        else:
            elements.append(unescape(word))
    return elements
