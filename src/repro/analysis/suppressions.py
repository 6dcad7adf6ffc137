"""Inline suppression comments: the one engine behind every rule family.

Two syntaxes coexist:

* ``# gyan-lint: disable=SRC201`` / ``disable-file=SRC201`` — the
  original line/file-scoped form, kept working verbatim.  In XML it is
  a comment, ``<!-- gyan-lint: disable=GYAN103 -->``, and always
  file-wide: ElementTree gives config findings no line to match.
* ``# gyan: disable=PERF601`` — the richer form.  On an ordinary line
  it suppresses matching findings *on that line*; on a ``def`` line (or
  one of its decorator lines) it suppresses matching findings anywhere
  in that function's body.  Several IDs comma-separate.

The richer form is accountable: every ``# gyan: disable=`` comment is
tracked, and an ID that suppressed nothing raises SUP001 so stale
suppressions cannot silently accumulate.  Only rule families *active in
the current run* are audited — ``repro race --static-only`` runs DET
rules alone, so a ``# gyan: disable=PERF601`` in the same file is not
"unused" there, merely out of scope (``active_prefixes`` expresses
this).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.rules import SUP001

#: Legacy syntax: line-scoped trailing comment or explicit file scope.
_LEGACY_RE = re.compile(
    r"gyan-lint:\s*disable(?P<scope>-file)?\s*=\s*(?P<ids>[A-Z0-9, ]+)"
)
#: Current syntax (``gyan:`` prefix): line/def scope via ``disable=ID``,
#: whole-file scope via ``disable-file=ID``.
_GYAN_RE = re.compile(
    r"#\s*gyan:\s*disable(?P<scope>-file)?\s*=\s*(?P<ids>[A-Z0-9, ]+)"
)


#: The span of a file-wide suppression.
_WHOLE_FILE = (1, 1 << 30)


@dataclass
class _Pragma:
    """One suppression comment and what it has matched so far."""

    line: int  #: line the comment sits on
    ids: tuple[str, ...]
    scope: str  #: ``line`` | ``def`` | ``file``
    span: tuple[int, int]  #: inclusive line range the pragma covers
    audited: bool  #: the ``# gyan:`` form; ``gyan-lint:`` is never "unused"
    used: set[str] = field(default_factory=set)


def _split_ids(raw: str) -> tuple[str, ...]:
    return tuple(
        sorted({part.strip() for part in raw.split(",") if part.strip()})
    )


def _comment_lines(text: str) -> dict[int, str]:
    """Real ``#`` comment tokens by line — docstrings that merely *show*
    a suppression (like this module's) must not register one."""
    comments: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Fall back to raw lines for files that do not tokenize; worst
        # case a docstring example registers a pragma that then shows
        # as unused — the file already has bigger problems.
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
                comments[lineno] = line
    return comments


def _def_spans(tree: object) -> list[tuple[int, int, int]]:
    """(first-decorator-line, def-line, end-line) for every function of
    a parsed module; none for a file that has no tree."""
    if not isinstance(tree, ast.Module):
        return []
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min(
                [node.lineno] + [d.lineno for d in node.decorator_list]
            )
            spans.append((first, node.lineno, node.end_lineno or node.lineno))
    return spans


class SuppressionSet:
    """Parsed suppressions for one file."""

    def __init__(self) -> None:
        self._pragmas: list[_Pragma] = []

    def _add(
        self,
        lineno: int,
        match: re.Match[str],
        def_spans: list[tuple[int, int, int]] | None = None,
    ) -> None:
        """Record one comment; ``def_spans`` comes with the audited
        ``# gyan:`` form only."""
        ids = _split_ids(match.group("ids"))
        if not ids:
            return
        span, scope = (lineno, lineno), "line"
        if match.group("scope"):
            span, scope = _WHOLE_FILE, "file"
        else:
            # A pragma on a def line (or one of its decorators) covers
            # the whole function body; otherwise just its own line.
            for first, def_line, end in def_spans or ():
                if first <= lineno <= def_line:
                    span, scope = (first, end), "def"
                    break
        self._pragmas.append(
            _Pragma(lineno, ids, scope, span, audited=def_spans is not None)
        )

    @classmethod
    def parse_xml(cls, text: str) -> "SuppressionSet":
        """The suppressions of one XML config: every ID is file-wide."""
        out = cls()
        for match in _LEGACY_RE.finditer(text):
            ids = _split_ids(match.group("ids"))
            out._pragmas.append(_Pragma(1, ids, "file", _WHOLE_FILE, False))
        return out

    @classmethod
    def parse(cls, text: str, tree: object) -> "SuppressionSet":
        """The suppressions of one Python file; ``tree`` is its parsed
        module (or why it has none), which gives ``# gyan:`` pragmas
        their def scope."""
        out = cls()
        def_spans = _def_spans(tree)
        for lineno, line in sorted(_comment_lines(text).items()):
            if legacy := _LEGACY_RE.search(line):
                out._add(lineno, legacy)
            if match := _GYAN_RE.search(line):
                out._add(lineno, match, def_spans)
        return out

    # -------------------------------------------------------------- #
    def filter(self, findings: list[Finding]) -> list[Finding]:
        """Drop suppressed findings, recording which pragmas fired."""
        kept: list[Finding] = []
        for finding in findings:
            line = finding.line
            hit = [
                pragma for pragma in self._pragmas
                if finding.rule_id in pragma.ids and (
                    pragma.scope == "file"
                    or line is not None
                    and pragma.span[0] <= line <= pragma.span[1]
                )
            ]
            if not hit:
                kept.append(finding)
            elif all(pragma.audited for pragma in hit):
                # A ``gyan-lint:`` comment on the same finding takes it
                # first and leaves the ``# gyan:`` pragmas unused.
                for pragma in hit:
                    pragma.used.add(finding.rule_id)
        return kept

    def unused_findings(
        self, path: str, active_prefixes: set[str] | None = None
    ) -> list[Finding]:
        """SUP001 for every ``# gyan:`` ID that suppressed nothing.

        ``active_prefixes`` limits the audit to rule families this run
        actually evaluated (``{"DET"}`` for the race driver's static
        pass); ``None`` audits everything.
        """
        out: list[Finding] = []
        for pragma in self._pragmas:
            for rule_id in pragma.ids:
                if rule_id in pragma.used or not pragma.audited:
                    continue
                if active_prefixes is not None and not any(
                    rule_id.startswith(p) for p in active_prefixes
                ):
                    continue
                out.append(
                    SUP001.finding(
                        f"`# gyan: disable={rule_id}` suppressed nothing "
                        f"({pragma.scope} scope)",
                        path,
                        line=pragma.line,
                        suggestion="delete the stale suppression comment",
                    )
                )
        return out

    def apply(
        self,
        findings: list[Finding],
        path: str,
        active_prefixes: set[str] | None = None,
    ) -> list[Finding]:
        """filter() + unused_findings() in one call."""
        kept = self.filter(findings)
        kept.extend(self.unused_findings(path, active_prefixes))
        return kept
