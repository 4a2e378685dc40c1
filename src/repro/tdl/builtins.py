"""Standard Tcl commands (the subset TDL and the thesis examples rely on)."""

from __future__ import annotations

from types import MappingProxyType

from repro.errors import TdlBreak, TdlContinue, TdlError, TdlReturn
from repro.tdl import expr as _expr
from repro.tdl.lists import format_list, parse_list


def _arity(name: str, args: list[str], minimum: int, maximum: int | None = None):
    if len(args) < minimum or (maximum is not None and len(args) > maximum):
        raise TdlError(f'wrong # args for "{name}"')


# ---------------------------------------------------------------- variables


def _cmd_set(interp, args):
    _arity("set", args, 1, 2)
    if len(args) == 1:
        return interp.get_var(args[0])
    return interp.set_var(args[0], args[1])


def _cmd_unset(interp, args):
    _arity("unset", args, 1)
    for name in args:
        interp.unset_var(name)
    return ""


def _cmd_incr(interp, args):
    _arity("incr", args, 1, 2)
    amount = int(args[1]) if len(args) == 2 else 1
    current = int(interp.get_var(args[0])) if interp.has_var(args[0]) else 0
    return interp.set_var(args[0], str(current + amount))


def _cmd_append(interp, args):
    _arity("append", args, 1)
    current = interp.get_var(args[0]) if interp.has_var(args[0]) else ""
    return interp.set_var(args[0], current + "".join(args[1:]))


def _cmd_global(interp, args):
    for name in args:
        interp.link_global(name)
    return ""


# -------------------------------------------------------------- expressions


def _cmd_expr(interp, args):
    _arity("expr", args, 1)
    # Tcl concatenates multiple args with spaces before evaluating.
    value = _expr.evaluate(" ".join(args))
    return _expr.format_result(value)


# ------------------------------------------------------------- control flow


def _cmd_if(interp, args):
    _arity("if", args, 2)
    i = 0
    while i < len(args):
        cond = args[i]
        i += 1
        if i < len(args) and args[i] == "then":
            i += 1
        if i >= len(args):
            raise TdlError("if: missing body")
        body = args[i]
        i += 1
        if _expr.truthy(_expr.evaluate(interp.substitute(cond))):
            return interp.eval(body)
        if i < len(args) and args[i] == "elseif":
            i += 1
            continue
        if i < len(args) and args[i] == "else":
            i += 1
            if i >= len(args):
                raise TdlError("if: missing else body")
            return interp.eval(args[i])
        if i < len(args) and i == len(args) - 1:
            # old-style implicit else: if cond body elsebody
            return interp.eval(args[i])
        return ""
    return ""


def _cmd_while(interp, args):
    _arity("while", args, 2, 2)
    cond, body = args
    result = ""
    while interp.condition(cond):
        try:
            result = interp.eval(body)
        except TdlBreak:
            break
        except TdlContinue:
            continue
    return ""


def _cmd_for(interp, args):
    _arity("for", args, 4, 4)
    init, cond, nxt, body = args
    interp.eval(init)
    while interp.condition(cond):
        try:
            interp.eval(body)
        except TdlBreak:
            break
        except TdlContinue:
            pass
        interp.eval(nxt)
    return ""


def _cmd_foreach(interp, args):
    _arity("foreach", args, 3, 3)
    var, list_text, body = args
    for element in parse_list(list_text):
        interp.set_var(var, element)
        try:
            interp.eval(body)
        except TdlBreak:
            break
        except TdlContinue:
            continue
    return ""


def _cmd_break(interp, args):
    raise TdlBreak()


def _cmd_continue(interp, args):
    raise TdlContinue()


def _cmd_return(interp, args):
    raise TdlReturn(args[0] if args else "")


def _cmd_proc(interp, args):
    _arity("proc", args, 3, 3)
    name, params_text, body = args
    params: list[tuple[str, str | None]] = []
    for element in parse_list(params_text):
        parts = parse_list(element)
        if len(parts) == 2:
            params.append((parts[0], parts[1]))
        else:
            params.append((element, None))
    interp.define_proc(name, params, body)
    return ""


def _cmd_eval(interp, args):
    _arity("eval", args, 1)
    return interp.eval(" ".join(args))


def _cmd_catch(interp, args):
    _arity("catch", args, 1, 2)
    try:
        result = interp.eval(args[0])
    except (TdlBreak, TdlContinue, TdlReturn):
        raise
    except Exception as exc:  # Tcl catch traps everything
        if len(args) == 2:
            interp.set_var(args[1], str(exc))
        return "1"
    if len(args) == 2:
        interp.set_var(args[1], result)
    return "0"


# -------------------------------------------------------------------- lists


def _cmd_list(interp, args):
    return format_list(args)


def _cmd_lindex(interp, args):
    _arity("lindex", args, 2, 2)
    elements = parse_list(args[0])
    index = int(args[1])
    if not 0 <= index < len(elements):
        return ""
    return elements[index]


def _cmd_llength(interp, args):
    _arity("llength", args, 1, 1)
    return str(len(parse_list(args[0])))


def _cmd_lappend(interp, args):
    _arity("lappend", args, 1)
    current = interp.get_var(args[0]) if interp.has_var(args[0]) else ""
    elements = parse_list(current)
    elements.extend(args[1:])
    return interp.set_var(args[0], format_list(elements))


def _cmd_lrange(interp, args):
    _arity("lrange", args, 3, 3)
    elements = parse_list(args[0])
    first = int(args[1])
    last = len(elements) - 1 if args[2] == "end" else int(args[2])
    return format_list(elements[first:last + 1])


def _cmd_concat(interp, args):
    combined: list[str] = []
    for arg in args:
        combined.extend(parse_list(arg))
    return format_list(combined)


def _cmd_join(interp, args):
    _arity("join", args, 1, 2)
    sep = args[1] if len(args) == 2 else " "
    return sep.join(parse_list(args[0]))


def _cmd_split(interp, args):
    _arity("split", args, 1, 2)
    seps = args[1] if len(args) == 2 else " \t\n"
    parts: list[str] = [""]
    for ch in args[0]:
        if ch in seps:
            parts.append("")
        else:
            parts[-1] += ch
    return format_list(parts)


# ------------------------------------------------------------------ strings


def _cmd_string(interp, args):
    _arity("string", args, 2)
    op = args[0]
    if op == "length":
        return str(len(args[1]))
    if op == "tolower":
        return args[1].lower()
    if op == "toupper":
        return args[1].upper()
    if op == "index":
        _arity("string index", args, 3, 3)
        idx = int(args[2])
        return args[1][idx] if 0 <= idx < len(args[1]) else ""
    if op == "range":
        _arity("string range", args, 4, 4)
        first = int(args[2])
        last = len(args[1]) - 1 if args[3] == "end" else int(args[3])
        return args[1][first:last + 1]
    if op == "compare":
        _arity("string compare", args, 3, 3)
        a, b = args[1], args[2]
        return str((a > b) - (a < b))
    if op == "match":
        _arity("string match", args, 3, 3)
        import fnmatch

        return "1" if fnmatch.fnmatchcase(args[2], args[1]) else "0"
    if op == "first":
        _arity("string first", args, 3, 3)
        return str(args[2].find(args[1]))
    raise TdlError(f'bad string operation "{op}"')


def _cmd_format(interp, args):
    _arity("format", args, 1)
    spec = args[0]
    values = []
    for value in args[1:]:
        try:
            values.append(int(value))
        except ValueError:
            try:
                values.append(float(value))
            except ValueError:
                values.append(value)
    try:
        return spec % tuple(values)
    except (TypeError, ValueError) as exc:
        raise TdlError(f"format: {exc}") from None


def _cmd_puts(interp, args):
    _arity("puts", args, 1, 2)
    text = args[-1]
    interp.stdout.append(text)
    return ""


def _cmd_info(interp, args):
    _arity("info", args, 1)
    op = args[0]
    if op == "exists":
        _arity("info exists", args, 2, 2)
        return "1" if interp.has_var(args[1]) else "0"
    if op == "commands":
        names = sorted(set(interp.commands) | set(interp.procs))
        return format_list(names)
    if op == "procs":
        return format_list(sorted(interp.procs))
    raise TdlError(f'bad info operation "{op}"')


# ------------------------------------------------------------ list extras


def _cmd_lsort(interp, args):
    _arity("lsort", args, 1, 2)
    numeric = len(args) == 2 and args[0] == "-integer"
    elements = parse_list(args[-1])
    if numeric:
        try:
            elements.sort(key=int)
        except ValueError:
            raise TdlError("lsort -integer: non-integer element") from None
    else:
        elements.sort()
    return format_list(elements)


def _cmd_lsearch(interp, args):
    _arity("lsearch", args, 2, 2)
    elements = parse_list(args[0])
    try:
        return str(elements.index(args[1]))
    except ValueError:
        return "-1"


def _cmd_linsert(interp, args):
    _arity("linsert", args, 3)
    elements = parse_list(args[0])
    index = len(elements) if args[1] == "end" else int(args[1])
    for offset, element in enumerate(args[2:]):
        elements.insert(index + offset, element)
    return format_list(elements)


def _cmd_lreplace(interp, args):
    _arity("lreplace", args, 3)
    elements = parse_list(args[0])
    first = int(args[1])
    last = len(elements) - 1 if args[2] == "end" else int(args[2])
    elements[first:last + 1] = list(args[3:])
    return format_list(elements)


def _cmd_lreverse(interp, args):
    _arity("lreverse", args, 1, 1)
    return format_list(list(reversed(parse_list(args[0]))))


#: The standard command table, built once; every interpreter starts with a
#: copy, to which extension layers add their own commands.
BUILTINS = MappingProxyType({
    "set": _cmd_set,
    "unset": _cmd_unset,
    "incr": _cmd_incr,
    "append": _cmd_append,
    "global": _cmd_global,
    "expr": _cmd_expr,
    "if": _cmd_if,
    "while": _cmd_while,
    "for": _cmd_for,
    "foreach": _cmd_foreach,
    "break": _cmd_break,
    "continue": _cmd_continue,
    "return": _cmd_return,
    "proc": _cmd_proc,
    "eval": _cmd_eval,
    "catch": _cmd_catch,
    "list": _cmd_list,
    "lindex": _cmd_lindex,
    "llength": _cmd_llength,
    "lappend": _cmd_lappend,
    "lrange": _cmd_lrange,
    "concat": _cmd_concat,
    "join": _cmd_join,
    "split": _cmd_split,
    "string": _cmd_string,
    "format": _cmd_format,
    "puts": _cmd_puts,
    "info": _cmd_info,
    "lsort": _cmd_lsort,
    "lsearch": _cmd_lsearch,
    "linsert": _cmd_linsert,
    "lreplace": _cmd_lreplace,
    "lreverse": _cmd_lreverse,
})
