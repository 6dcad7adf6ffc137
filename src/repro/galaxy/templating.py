r"""CheetahLite: the subset of Cheetah templating Galaxy tools rely on.

Galaxy command blocks are Cheetah templates.  The paper's Code 3 shows
the pattern GYAN depends on::

    #if $__galaxy_gpu_enabled__ == "true"
        racon_gpu --cudapoa-batches $batches ...
    #else
        racon -t $threads ...
    #end if

This module implements the pieces real wrappers use:

* ``$name`` / ``${name}`` / ``$name.attr`` substitution,
* ``\$`` as a literal dollar, so Galaxy's ``\${GALAXY_SLOTS:-4}`` reaches
  the shell as ``${GALAXY_SLOTS:-4}``,
* ``#if EXPR`` / ``#elif EXPR`` / ``#else`` / ``#end if`` blocks (nested),
* ``#for $x in EXPR`` / ``#end for`` loops,
* ``#set $name = EXPR`` assignments,
* expressions evaluated in a restricted namespace (no builtins beyond a
  safe whitelist).

It is deliberately *not* a full Cheetah: no ``#def``, no filters, no
``#import`` — tools in this repository do not need them, and a smaller
core is easier to reason about.
"""

from __future__ import annotations

import re
import shlex
from typing import Any, Iterator, Mapping

from repro.galaxy.errors import TemplateError

_SAFE_BUILTINS: dict[str, Any] = {
    "str": str,
    "int": int,
    "float": float,
    "len": len,
    "min": min,
    "max": max,
    "abs": abs,
    "round": round,
    "enumerate": enumerate,
    "range": range,
    "True": True,
    "False": False,
    "None": None,
}

# $name, ${name}, $name.attr, $name['key'] — longest match first.
_PLACEHOLDER = re.compile(
    r"\$\{(?P<braced>[^}]+)\}|\$(?P<plain>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)"
)
# In a text line a backslash-dollar is Cheetah's escape for a literal "$".
_TEXT_TOKEN = re.compile(r"\\\$|" + _PLACEHOLDER.pattern)


class TemplateNamespace(dict):
    """A dict namespace with attribute-style access for dotted lookups.

    Galaxy exposes parameters both as mapping entries and as attributes
    of section objects; tests use plain dicts, so we wrap values on the
    fly.
    """

    def resolve(self, dotted: str) -> Any:
        """Resolve ``a.b.c`` against the namespace.

        Raises
        ------
        TemplateError
            When any path component is missing.
        """
        parts = dotted.split(".")
        try:
            value: Any = self[parts[0]]
        except KeyError:
            raise TemplateError(f"undefined template variable ${parts[0]}") from None
        for part in parts[1:]:
            if isinstance(value, Mapping) and part in value:
                value = value[part]
            elif hasattr(value, part):
                value = getattr(value, part)
            else:
                raise TemplateError(f"cannot resolve ${dotted} (stopped at {part!r})")
        return value


def _strip_dollars(expression: str) -> str:
    """Rewrite Cheetah ``$name`` references into plain Python names."""

    def replace(match: re.Match) -> str:
        return match.group("braced") or match.group("plain")

    return _PLACEHOLDER.sub(replace, expression)


class CheetahLite:
    """Compile-once, render-many template engine.

    Construction parses blocks, splits text lines into segments and
    compiles every expression (:class:`_Expr`), so a template that is not
    well-formed raises :class:`TemplateError` here and not on its first job.

    Parameters
    ----------
    source:
        The template text (typically a tool's ``<command>`` block).
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self._program = _parse_block(iter(source.splitlines()), terminators=())

    def render(self, namespace: Mapping[str, Any]) -> str:
        """Render with ``namespace``; returns the produced text.

        Inline placeholders that resolve to ``None`` render as the empty
        string (Cheetah renders ``None`` — Galaxy wrappers guard with
        ``#if`` so this matters rarely).
        """
        ns = TemplateNamespace(namespace)
        out: list[str] = []
        _execute(self._program, ns, out)
        return "\n".join(out)

    def render_command(self, namespace: Mapping[str, Any]) -> str:
        """Render and normalise whitespace into a single command line.

        Galaxy collapses the command block to one line before handing it
        to the shell; multi-line ``#if`` arms therefore join with single
        spaces.
        """
        text = self.render(namespace)
        return " ".join(text.split())

    def render_argv(self, namespace: Mapping[str, Any]) -> tuple[str, list[str]]:
        """``(command_line, argv)``: :meth:`render_command` plus its tokens.

        Once whitespace is normalised the only blank left is a single
        U+0020, so unless the line holds a quote or an escape character
        the runs between blanks are exactly what POSIX ``shlex`` yields
        and its per-character loop is skipped.
        """
        command_line = self.render_command(namespace)
        if "'" in command_line or '"' in command_line or "\\" in command_line:
            return command_line, shlex.split(command_line)
        return command_line, command_line.split()


# --------------------------------------------------------------------- #
# parsing: a tiny recursive-descent block parser over lines
# --------------------------------------------------------------------- #
_DIRECTIVE = re.compile(r"^\s*#(if|elif|else|end\s+if|for|end\s+for|set)\b(.*)$")


class _Expr:
    """One Cheetah expression, compiled to a code object at parse."""

    __slots__ = ("source", "code")

    def __init__(self, source: str) -> None:
        self.source = source
        # As the built-in does for a source string: leading blanks go
        # (``${ threads }``) and syntax errors name "<string>".
        python_expr = _strip_dollars(source).lstrip(" \t")
        try:
            self.code = compile(python_expr, "<string>", "eval")
        except Exception as exc:
            raise TemplateError(f"failed to evaluate {source!r}: {exc}") from exc

    def evaluate(self, ns: TemplateNamespace) -> Any:
        """Evaluate in the restricted namespace."""
        try:
            return eval(  # noqa: S307 - restricted globals, template-author input
                self.code, {"__builtins__": {}}, _EvalScope(ns)
            )
        except TemplateError:
            raise
        except Exception as exc:
            raise TemplateError(f"failed to evaluate {self.source!r}: {exc}") from exc


def _parse_text(line: str) -> tuple:
    """``('text', line)``, or ``('subst', parts)`` when it has placeholders.

    ``parts`` alternates literal, placeholder, literal, ...; a placeholder
    is a dotted name (``$plain``) or an :class:`_Expr` (``${braced}``).
    """
    if "$" not in line:
        return ("text", line)
    # split() interleaves the two groups: literal, braced, plain, literal, ...
    pieces = _TEXT_TOKEN.split(line)
    parts: list[Any] = [pieces[:1]]  # a literal is a fragment list until joined below
    for braced, plain, literal in zip(pieces[1::3], pieces[2::3], pieces[3::3]):
        if braced is None and plain is None:  # the \$ escape
            parts[-1] += ["$", literal]
        else:
            parts += [plain or _Expr(braced), [literal]]
    parts[::2] = ["".join(fragments) for fragments in parts[::2]]
    return ("text", parts[0]) if len(parts) == 1 else ("subst", parts)


def _parse_block(lines: Iterator[str], terminators: tuple[str, ...]) -> list[tuple]:
    """Parse lines until one of ``terminators``; returns an op list.

    Ops are tuples: ``('text', line)``, ``('subst', parts)`` (see
    :func:`_parse_text`), ``('set', name, expr)``,
    ``('if', [(cond_expr_or_None, body), ...])``,
    ``('for', var, iterable_expr, body)``; every ``expr`` is an
    :class:`_Expr`.
    """
    program: list[tuple] = []
    for line in lines:
        match = _DIRECTIVE.match(line)
        if match is None:
            program.append(_parse_text(line))
            continue
        keyword = re.sub(r"\s+", " ", match.group(1))
        rest = match.group(2).strip()
        if keyword in terminators:
            program.append(("__terminator__", keyword, rest))
            return program
        if keyword == "if":
            arms: list[tuple[_Expr | None, list[tuple]]] = []
            condition = _Expr(rest.rstrip(":").strip())
            while True:
                body = _parse_block(lines, terminators=("elif", "else", "end if"))
                if not body or body[-1][0] != "__terminator__":
                    raise TemplateError("unterminated #if block")
                terminator = body.pop()
                arms.append((condition, body))
                if terminator[1] == "elif":
                    condition = _Expr(terminator[2].rstrip(":").strip())
                    continue
                if terminator[1] == "else":
                    body = _parse_block(lines, terminators=("end if",))
                    if not body or body[-1][0] != "__terminator__":
                        raise TemplateError("unterminated #else block")
                    body.pop()
                    arms.append((None, body))
                break
            program.append(("if", arms))
        elif keyword == "for":
            loop = re.match(r"^\$?([A-Za-z_][A-Za-z0-9_]*)\s+in\s+(.+?):?\s*$", rest)
            if loop is None:
                raise TemplateError(f"malformed #for: {rest!r}")
            body = _parse_block(lines, terminators=("end for",))
            if not body or body[-1][0] != "__terminator__":
                raise TemplateError("unterminated #for block")
            body.pop()
            program.append(("for", loop.group(1), _Expr(loop.group(2)), body))
        elif keyword == "set":
            assign = re.match(r"^\$?([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$", rest)
            if assign is None:
                raise TemplateError(f"malformed #set: {rest!r}")
            program.append(("set", assign.group(1), _Expr(assign.group(2))))
        elif keyword in ("elif", "else", "end if", "end for"):
            raise TemplateError(f"#{keyword} outside of a block")
    if terminators:
        raise TemplateError(f"expected one of {terminators}, hit end of template")
    return program


# --------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------- #
class _EvalScope(dict):
    """Locals mapping that falls back to the namespace then safe builtins."""

    def __init__(self, ns: TemplateNamespace) -> None:
        super().__init__()
        self._ns = ns

    def __missing__(self, key: str) -> Any:
        if key in self._ns:
            return self._ns[key]
        if key in _SAFE_BUILTINS:
            return _SAFE_BUILTINS[key]
        raise TemplateError(f"undefined template variable ${key}")


def _execute(program: list[tuple], ns: TemplateNamespace, out: list[str]) -> None:
    for op in program:
        kind = op[0]
        if kind == "text":
            out.append(op[1])
        elif kind == "subst":
            filled = op[1].copy()
            for index in range(1, len(filled), 2):
                ref = filled[index]
                value = ref.evaluate(ns) if type(ref) is _Expr else ns.resolve(ref)
                filled[index] = "" if value is None else str(value)
            out.append("".join(filled))
        elif kind == "set":
            ns[op[1]] = op[2].evaluate(ns)
        elif kind == "if":
            for condition, body in op[1]:
                if condition is None or condition.evaluate(ns):
                    _execute(body, ns, out)
                    break
        elif kind == "for":
            _var, iterable_expr, body = op[1], op[2], op[3]
            for item in iterable_expr.evaluate(ns):
                ns[_var] = item
                _execute(body, ns, out)
        elif kind == "__terminator__":  # pragma: no cover - defensive
            raise TemplateError("internal: unconsumed terminator")
        else:  # pragma: no cover - defensive
            raise TemplateError(f"internal: unknown op {kind!r}")
