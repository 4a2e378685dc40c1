"""Tcl-style script tokenization.

Faithful to the small core of Tcl the thesis uses:

* commands are separated by newlines or semicolons (outside any grouping);
* ``{...}`` groups a word literally (no substitution), nestable;
* ``"..."`` groups a word with substitution;
* ``[...]`` is command substitution, ``$name``/``${name}`` variable
  substitution (performed later, by the interpreter — the tokenizer only
  finds word boundaries);
* ``#`` at a command position starts a comment;
* ``\\`` escapes the next character; a backslash-newline joins lines.
"""

from __future__ import annotations

import re

from repro.errors import TdlError

#: Word kinds produced by :func:`split_words`.
BARE, BRACED, QUOTED = "bare", "braced", "quoted"

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"',
            "$": "$", "[": "[", "]": "]", "{": "{", "}": "}", ";": ";",
            " ": " ", "\n": " "}

# The scanners below jump from one significant character to the next with a
# precompiled search, so text without specials costs a few C-level calls.
_NONBLANK = re.compile(r"[^ \t]")
#: Inside a bare word: the blank that ends it, or a bracket or escape.
_BARE_STOP = re.compile(r"[ \t\[\\]")
#: Lists also separate elements with newlines.
_LIST_NONBLANK = re.compile(r"[^ \t\n]")
_LIST_BARE_STOP = re.compile(r"[ \t\n\[\\]")
#: Inside a braced word: a brace or escape.
_BRACE_STOP = re.compile(r"[{}\\]")
#: Inside a quoted word: the closing quote, a bracket or an escape.
_QUOTE_STOP = re.compile(r'["\[\\]')
_BRACKET_STOP = re.compile(r"[\[\]\\]")
#: Splitting a script: outside any grouping, what opens one or ends the
#: command; inside quotes, the closing quote or an escape.
_COMMAND_STOP = re.compile(r'[{}\[\]"\\;\n]')
_QUOTE_END = re.compile(r'["\\]')
_SUBST_STOP = re.compile(r"[$\[\\]")
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
#: A plain word: braced with nothing nested or escaped, or bare with no
#: bracket or escape (and so ended by a blank).  A command of plain words
#: only is split by two regular-expression calls.
_PLAIN_WORD = r'\{([^{}\\]*)\}|([^ \t{"\[\\][^ \t\[\\]*)(?![^ \t])'
_PLAIN_WORDS = re.compile(_PLAIN_WORD)
_PLAIN_COMMAND = re.compile(rf"(?:[ \t]*(?:{_PLAIN_WORD}))*[ \t]*")


def strip_comments_and_split(script: str) -> list[str]:
    """Split a script into command strings.

    Returns the raw text of each command (with grouping intact), skipping
    blank commands and ``#`` comments.
    """
    commands: list[str] = []
    i = 0
    while True:
        start = _NONBLANK.search(script, i)
        if start is None:
            break
        i = start.start()
        ch = script[i]
        if ch == "#":
            newline = script.find("\n", i)
            if newline < 0:
                break
            i = newline + 1
            continue
        end = _command_end(script, i)
        text = script[i:end].strip()
        if text:
            commands.append(text)
        i = end + 1
    return commands


def _command_end(script: str, i: int) -> int:
    """Index of the newline or ``;`` that ends the command starting at
    ``i`` (``len(script)`` for the last command)."""
    depth_brace = 0
    depth_bracket = 0
    in_quote = False
    while True:
        if depth_brace:
            stop = _BRACE_STOP.search(script, i)
        elif in_quote:
            stop = _QUOTE_END.search(script, i)
        else:
            stop = _COMMAND_STOP.search(script, i)
        if stop is None:
            break
        j = stop.start()
        ch = stop.group()
        i = j + 1
        if ch == "\\":
            i += 1
        elif ch == "{":
            depth_brace += 1
        elif ch == "}":
            depth_brace -= 1
            if depth_brace < 0:
                raise TdlError("unbalanced '}'")
        elif ch == '"':
            in_quote = not in_quote
        elif ch == "[":
            depth_bracket += 1
        elif ch == "]":
            depth_bracket = max(0, depth_bracket - 1)
        elif not depth_bracket:
            return j
    if depth_brace:
        raise TdlError("unbalanced '{'")
    if in_quote:
        raise TdlError("unterminated quote")
    return len(script)


def _resolve_escape(match: re.Match) -> str:
    ch = match.group(1)
    return _ESCAPES.get(ch, ch)


def unescape(text: str) -> str:
    """Resolve backslash escapes in bare/quoted word text."""
    if "\\" not in text:
        return text
    return _ESCAPE.sub(_resolve_escape, text)


def split_words(command: str) -> list[tuple[str, str]]:
    """Split one command into ``(kind, text)`` words.

    ``braced`` text has the outer braces removed and is substitution-free;
    ``quoted`` has the quotes removed; ``bare`` is as written.  Substitution
    of ``$`` and ``[...]`` inside bare/quoted words is the interpreter's job.
    """
    if _PLAIN_COMMAND.fullmatch(command):
        return [(BARE, bare) if bare else (BRACED, braced)
                for braced, bare in _PLAIN_WORDS.findall(command)]
    return _split(command, _NONBLANK, _BARE_STOP)


def split_list_words(text: str) -> list[tuple[str, str]]:
    """:func:`split_words` for a Tcl list, where a newline is a blank too
    (inside a braced or quoted element it stays part of the element)."""
    return _split(text, _LIST_NONBLANK, _LIST_BARE_STOP)


def _split(command: str, nonblank: re.Pattern,
           bare_stop: re.Pattern) -> list[tuple[str, str]]:
    words: list[tuple[str, str]] = []
    n = len(command)
    start = nonblank.search(command)
    while start is not None:
        i = start.start()
        ch = command[i]
        if ch == "{":
            depth = 1
            j = i + 1
            while depth:
                stop = _BRACE_STOP.search(command, j)
                if stop is None:
                    raise TdlError(f"unbalanced braces in {command!r}")
                j = stop.end()
                ch = stop.group()
                if ch == "\\":
                    j += 1
                elif ch == "{":
                    depth += 1
                else:
                    depth -= 1
            words.append((BRACED, command[i + 1:j - 1]))
        elif ch == '"':
            j = i + 1
            while True:
                stop = _QUOTE_STOP.search(command, j)
                if stop is None:
                    raise TdlError(f"unterminated quote in {command!r}")
                j = stop.start()
                ch = stop.group()
                if ch == '"':
                    break
                j = j + 2 if ch == "\\" else _skip_bracket(command, j)
            words.append((QUOTED, command[i + 1:j]))
            j += 1
        else:
            j = i
            while True:
                stop = bare_stop.search(command, j)
                if stop is None:
                    j = n
                    break
                j = stop.start()
                ch = stop.group()
                if ch == "\\":
                    j += 2
                elif ch == "[":
                    j = _skip_bracket(command, j)
                else:
                    break
            words.append((BARE, command[i:j]))
        start = nonblank.search(command, j)
    return words


def _skip_bracket(text: str, start: int) -> int:
    """Index just past the ``]`` matching the ``[`` at ``start``."""
    depth = 0
    i = start
    while True:
        stop = _BRACKET_STOP.search(text, i)
        if stop is None:
            raise TdlError(f"unbalanced brackets in {text!r}")
        i = stop.end()
        ch = stop.group()
        if ch == "\\":
            i += 1
        elif ch == "[":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return i


def find_substitutions(text: str) -> list[tuple[int, int, str, str]]:
    """Locate ``$var``, ``${var}`` and ``[script]`` spans in a word.

    Returns ``(start, end, kind, payload)`` with kind ``var`` or ``cmd``.
    """
    if "$" not in text and "[" not in text:
        return []
    spans: list[tuple[int, int, str, str]] = []
    n = len(text)
    stop = _SUBST_STOP.search(text)
    while stop is not None:
        i = stop.start()
        ch = stop.group()
        if ch == "\\":
            i += 2
        elif ch == "[":
            end = _skip_bracket(text, i)
            spans.append((i, end, "cmd", text[i + 1:end - 1]))
            i = end
        elif text.startswith("{", i + 1):
            close = text.find("}", i + 2)
            if close < 0:
                raise TdlError(f"unterminated ${{ in {text!r}")
            spans.append((i, close + 1, "var", text[i + 2:close]))
            i = close + 1
        else:
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            if j > i + 1:
                spans.append((i, j, "var", text[i + 1:j]))
            i = j
        stop = _SUBST_STOP.search(text, i)
    return spans
