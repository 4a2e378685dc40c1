"""The Tcl-subset interpreter.

Everything is a string.  The interpreter keeps a frame stack for ``proc``
locals, a command table that extension layers (TDL, the task manager) add to
— the "dynamic binding" that made Tcl attractive to the thesis — and
optional *read traces*: callbacks fired when a named variable is about to be
substituted.  The task manager uses a read trace on ``status`` to synchronize
with the most recently issued design step before its exit code is inspected.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TdlBreak, TdlContinue, TdlError, TdlReturn
from repro.tdl.builtins import BUILTINS
from repro.tdl.tokenizer import (
    BRACED,
    find_substitutions,
    split_words,
    strip_comments_and_split,
    unescape,
)

Command = Callable[["Interp", list[str]], str]
TopHook = Callable[[int, str], None]


class _Frame:
    __slots__ = ("vars", "linked")

    def __init__(self):
        self.vars: dict[str, str] = {}
        self.linked: set[str] = set()


class Interp:
    """One interpreter instance (one task manager runs one of these)."""

    #: Guard against runaway scripts in tests and benchmarks.
    MAX_COMMANDS = 2_000_000

    def __init__(self):
        self._globals = _Frame()
        self._frames: list[_Frame] = [self._globals]
        self.commands: dict[str, Command] = dict(BUILTINS)
        self.procs: dict[str, tuple[list[tuple[str, str | None]], str]] = {}
        self.read_traces: dict[str, Callable[["Interp"], None]] = {}
        self.stdout: list[str] = []
        self._executed = 0

    # -------------------------------------------------------------- variables

    @property
    def frame(self) -> _Frame:
        return self._frames[-1]

    def get_var(self, name: str) -> str:
        trace = self.read_traces.get(name)
        if trace is not None:
            trace(self)
        frame = self.frame
        if name in frame.linked:
            frame = self._globals
        if name not in frame.vars:
            raise TdlError(f'can\'t read "{name}": no such variable')
        return frame.vars[name]

    def set_var(self, name: str, value: str) -> str:
        frame = self.frame
        if name in frame.linked:
            frame = self._globals
        frame.vars[name] = value
        return value

    def unset_var(self, name: str) -> None:
        frame = self.frame
        if name in frame.linked:
            frame = self._globals
        frame.vars.pop(name, None)

    def has_var(self, name: str) -> bool:
        frame = self.frame
        if name in frame.linked:
            frame = self._globals
        return name in frame.vars

    def link_global(self, name: str) -> None:
        if self.frame is not self._globals:
            self.frame.linked.add(name)

    # ------------------------------------------------------------ commands

    def register(self, name: str, func: Command) -> None:
        self.commands[name] = func

    # ---------------------------------------------------------- substitution

    def substitute(self, text: str) -> str:
        """Perform ``$var`` and ``[command]`` substitution plus escapes."""
        spans = find_substitutions(text)
        if not spans:
            return unescape(text)
        out: list[str] = []
        pos = 0
        for start, end, kind, payload in spans:
            out.append(unescape(text[pos:start]))
            if kind == "var":
                out.append(self.get_var(payload))
            else:
                out.append(self.eval(payload))
            pos = end
        out.append(unescape(text[pos:]))
        return "".join(out)

    # ------------------------------------------------------------- evaluation

    def eval(self, script: str, top_hook: TopHook | None = None) -> str:
        """Evaluate a script; the result is the last command's result.

        ``top_hook(index, raw)`` is called before each command of *this*
        script — the task manager uses it to track top-level command IDs for
        programmable aborts (§4.3.4).  Nested evaluations (control-structure
        bodies, ``[...]``) don't pass a hook, so commands inside them share
        the enclosing top-level command's ID, exactly as the thesis specifies.
        """
        result = ""
        for index, raw in enumerate(strip_comments_and_split(script)):
            if top_hook is not None:
                top_hook(index, raw)
            result = self.eval_command(raw)
        return result

    def eval_command(self, raw: str) -> str:
        self._executed += 1
        if self._executed > self.MAX_COMMANDS:
            raise TdlError("command budget exceeded (runaway script?)")
        words = []
        for kind, text in split_words(raw):
            # A braced word, or one with no $, [ or \, is its own value.
            if kind != BRACED and ("$" in text or "[" in text
                                   or "\\" in text):
                text = self.substitute(text)
            words.append(text)
        if not words:
            return ""
        name, args = words[0], words[1:]
        if name in self.procs:
            return self._call_proc(name, args)
        func = self.commands.get(name)
        if func is None:
            raise TdlError(f'invalid command name "{name}"')
        return func(self, args)

    # ------------------------------------------------------------------ procs

    def define_proc(self, name: str, params: list[tuple[str, str | None]],
                    body: str) -> None:
        self.procs[name] = (params, body)

    def _call_proc(self, name: str, args: list[str]) -> str:
        params, body = self.procs[name]
        frame = _Frame()
        consumed = 0
        for i, (pname, default) in enumerate(params):
            if pname == "args" and i == len(params) - 1:
                from repro.tdl.lists import format_list

                frame.vars["args"] = format_list(args[consumed:])
                consumed = len(args)
                break
            if consumed < len(args):
                frame.vars[pname] = args[consumed]
                consumed += 1
            elif default is not None:
                frame.vars[pname] = default
            else:
                raise TdlError(
                    f'wrong # args: should be "{name} '
                    + " ".join(p for p, _ in params) + '"'
                )
        if consumed < len(args):
            raise TdlError(f'wrong # args for proc "{name}"')
        self._frames.append(frame)
        try:
            return self.eval(body)
        except TdlReturn as ret:
            return ret.value
        finally:
            self._frames.pop()

    # --------------------------------------------------------------- helpers

    def expr(self, text: str):
        """Substitute then evaluate an expression (the ``expr`` semantics)."""
        from repro.tdl import expr as _expr

        return _expr.evaluate(self.substitute(text))

    def condition(self, text: str) -> bool:
        from repro.tdl import expr as _expr

        return _expr.truthy(self.expr(text))
