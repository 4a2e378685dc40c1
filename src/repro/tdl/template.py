"""Static task-template representation.

A task template is an ASCII TDL file (thesis §4.2): its first command is the
``task`` header; the remaining commands are the body, interpreted dynamically
by the task manager.  This module parses headers, holds parsed templates in a
library (templates are plain files — no database round-trip, one of the
thesis's stated design points), and parses ``step``/``subtask`` argument
lists into :class:`StepSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TemplateError
from repro.tdl.lists import parse_list
from repro.tdl.tokenizer import (
    BARE,
    BRACED,
    split_words,
    strip_comments_and_split,
)


@dataclass(frozen=True)
class TaskTemplate:
    """A parsed task template."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    body_commands: tuple[str, ...]


def parse_template(source: str) -> TaskTemplate:
    """Parse TDL source into a template (header + body commands)."""
    commands = strip_comments_and_split(source)
    if not commands:
        raise TemplateError("empty task template")
    words = split_words(commands[0])
    texts = [text for _, text in words]
    if not texts or texts[0] != "task":
        raise TemplateError(
            "a task template must begin with a 'task' command, got "
            f"{texts[:1] or ['<nothing>']}"
        )
    if len(texts) != 4:
        raise TemplateError(
            f"task header needs: task Name {{inputs}} {{outputs}}; "
            f"got {len(texts) - 1} arguments"
        )
    name = texts[1]
    inputs = tuple(parse_list(texts[2]))
    outputs = tuple(parse_list(texts[3]))
    seen: set[str] = set()
    for formal in inputs + outputs:
        if formal in seen:
            raise TemplateError(f"duplicate formal {formal!r} in task {name!r}")
        seen.add(formal)
    body_commands = tuple(commands[1:])
    seen_ids: set[int] = set()
    for declared in _literal_declared_ids(body_commands):
        if declared in seen_ids:
            raise TemplateError(
                f"task {name!r}: step ID {declared} declared twice — "
                "declared IDs must be unique within a template body "
                "(abort targets and control dependencies resolve by ID)"
            )
        seen_ids.add(declared)
    return TaskTemplate(
        name=name,
        inputs=inputs,
        outputs=outputs,
        body_commands=body_commands,
    )


def _literal_declared_ids(commands: tuple[str, ...]):
    """Yield declared step IDs statically visible in top-level body commands.

    Only *literal* declarations are considered: a ``step``/``subtask`` whose
    head is a braced ``{ID Name}`` word (braced words are substitution-free)
    or a 4-argument subtask with a bare all-digit leading ID.  Heads built by
    substitution are only known at interpretation time and are skipped, as
    are commands nested inside ``if``/``while`` bodies (those are braced
    arguments of the control command, not top-level commands).
    """
    for command in commands:
        try:
            words = split_words(command)
        except Exception:
            continue  # malformed: let the interpreter report it in context
        if not words or words[0][1] not in ("step", "subtask"):
            continue
        args = words[1:]
        if not args:
            continue
        if (words[0][1] == "subtask" and len(args) == 4
                and args[0][0] == BARE and args[0][1].isdigit()):
            yield int(args[0][1])
            continue
        if args[0][0] != BRACED:
            continue
        parts = parse_list(args[0][1])
        if len(parts) == 2:
            try:
                yield int(parts[0])
            except ValueError:
                pass


class TemplateLibrary:
    """The set of known task templates (what the "Invoke A Task" list shows)."""

    def __init__(self):
        self._templates: dict[str, TaskTemplate] = {}

    def add_source(self, source: str) -> TaskTemplate:
        template = parse_template(source)
        self._templates[template.name] = template
        return template

    def get(self, name: str) -> TaskTemplate:
        try:
            return self._templates[name]
        except KeyError:
            raise TemplateError(f"no task template named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._templates

    def names(self) -> list[str]:
        return sorted(self._templates)


# ------------------------------------------------------------ step parsing


@dataclass(frozen=True)
class StepSpec:
    """One parsed ``step`` (or ``subtask``) command instance."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    invocation: str = ""                 # raw invocation details (steps only)
    declared_id: int | None = None       # the integer label, if given
    migratable: bool = True
    resumed_step: int | str | None = None  # int id, "latest", or None (=0)
    control_deps: tuple[int, ...] = ()
    priority: int = 0                    # §1.4's tool-execution priority
    is_subtask: bool = False

    @property
    def tool(self) -> str:
        tokens = self.invocation.split()
        return tokens[0] if tokens else ""


def _parse_head(word: str) -> tuple[int | None, str]:
    """A step's first argument is ``Name`` or ``{ID Name}``."""
    parts = parse_list(word)
    if len(parts) == 2:
        try:
            return int(parts[0]), parts[1]
        except ValueError:
            pass
    return None, word


def parse_step_args(args: list[str]) -> StepSpec:
    """Parse the (already substituted) arguments of a ``step`` command.

    ``step [ID] Name {Inputs} {Outputs} {Invocation} [{Optional}...]``
    """
    if len(args) < 4:
        raise TemplateError(
            f"step needs name, inputs, outputs, invocation; got {len(args)}"
        )
    declared_id, name = _parse_head(args[0])
    inputs = tuple(parse_list(args[1]))
    outputs = tuple(parse_list(args[2]))
    invocation = " ".join(args[3].split())
    migratable = True
    resumed: int | str | None = None
    control: tuple[int, ...] = ()
    priority = 0
    for extra in args[4:]:
        fields = parse_list(extra)
        if not fields:
            continue
        tag = fields[0]
        if tag == "NonMigrate":
            migratable = False
        elif tag == "Priority":
            if len(fields) != 2:
                raise TemplateError("Priority needs exactly one value")
            priority = int(fields[1])
        elif tag == "ResumedStep":
            if len(fields) != 2:
                raise TemplateError("ResumedStep needs exactly one value")
            resumed = fields[1] if fields[1] == "latest" else int(fields[1])
        elif tag == "ControlDependency":
            try:
                control = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise TemplateError(
                    f"ControlDependency values must be step IDs: {fields[1:]}"
                ) from None
            if not control:
                raise TemplateError("ControlDependency needs at least one ID")
        else:
            raise TemplateError(f"unknown step option {tag!r}")
    return StepSpec(
        name=name,
        inputs=inputs,
        outputs=outputs,
        invocation=invocation,
        declared_id=declared_id,
        migratable=migratable,
        resumed_step=resumed,
        control_deps=control,
        priority=priority,
    )


def parse_subtask_args(args: list[str]) -> StepSpec:
    """Parse ``subtask [ID] Task_Name {Inputs} {Outputs}``.

    Accepted forms: 3 arguments (name may be ``{ID Name}``) or 4 arguments
    with a leading bare integer ID.
    """
    if len(args) == 4:
        try:
            declared_id: int | None = int(args[0])
        except ValueError:
            raise TemplateError(
                "subtask with 4 arguments needs a leading integer ID"
            ) from None
        name = args[1]
        in_word, out_word = args[2], args[3]
    elif len(args) == 3:
        declared_id, name = _parse_head(args[0])
        in_word, out_word = args[1], args[2]
    else:
        raise TemplateError(
            f"subtask needs name, inputs, outputs; got {len(args)}"
        )
    return StepSpec(
        name=name,
        inputs=tuple(parse_list(in_word)),
        outputs=tuple(parse_list(out_word)),
        declared_id=declared_id,
        is_subtask=True,
    )
