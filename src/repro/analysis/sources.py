"""The one front end of ``lint``, ``verify``, ``race`` and ``perf``.

:func:`load_sources` finds, reads, classifies and parses every input
once: one :class:`Source` per file, plus the usage errors (a path that
does not exist, a file that cannot be read or is not UTF-8).  An
``.xml`` file is classified by the root tag of the same parse the
runtime parser builds its ``ToolDefinition`` / ``JobConfig`` from, so
what lint judges is what the runtime would load.
:func:`python_findings` is the one pipeline over the ``.py`` sources.
"""

from __future__ import annotations

import ast
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.analysis.findings import Finding
from repro.analysis.race.det_rules import analyze_det_tree
from repro.analysis.source_rules import analyze_source_tree
from repro.analysis.suppressions import SuppressionSet

if TYPE_CHECKING:
    from repro.analysis.perf.callgraph import CallGraph
    from repro.analysis.perf.hotmodel import HotModel

#: Root tags that make an XML document a Galaxy config.
_CONFIG_ROOTS = ("tool", "job_conf", "macros")


@dataclass
class Source:
    """One input file: where it is, what it says, what it is."""

    path: Path
    #: ``python`` | ``tool`` | ``job_conf`` | ``macros`` | ``json`` |
    #: ``invalid`` (XML, not well-formed) | ``skip`` (XML, not a config)
    kind: str
    text: str
    #: ``python``: the ``ast.Module`` or the exception ``ast.parse``
    #: raised; ``tool`` / ``job_conf``: the runtime parser's
    #: ``ToolDefinition`` / ``JobConfig`` or its typed error.
    parsed: Any = None


def parse_python(text: str, path: str) -> ast.Module | Exception:
    """The tree of one Python file, or why there is none."""
    try:
        return ast.parse(text, filename=path)
    except (SyntaxError, RecursionError, ValueError) as exc:
        return exc


def _read(path: Path) -> Source | str:
    """One file read and classified, or its ``cannot read`` error."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read {path}: {exc}"
    if path.suffix == ".py":
        return Source(path, "python", text, parse_python(text, str(path)))
    if path.suffix != ".xml":
        return Source(path, "json", text)
    try:
        root = ET.fromstring(text)
    except ET.ParseError:
        return Source(path, "invalid", text)
    kind = root.tag if root.tag in _CONFIG_ROOTS else "skip"
    return Source(path, kind, text, root)


def load_sources(
    paths: list[str], suffixes: tuple[str, ...]
) -> tuple[list[Source], list[str]]:
    """Every ``suffixes`` file reachable from ``paths``, loaded once.

    Directories are walked for files (a directory named ``x.py`` is not
    one); a file named explicitly is an input when it carries one of
    ``suffixes``.
    """
    sources: list[Source] = []
    errors: list[str] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files = [
                found
                for suffix in suffixes
                for found in sorted(path.rglob(f"*{suffix}"))
                if found.is_file()
            ]
        elif path.is_file():
            files = [path] if path.suffix in suffixes else []
        else:
            errors.append(f"no such file or directory: {raw}")
            continue
        for file in files:
            resolved = file.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            loaded = _read(file)
            if isinstance(loaded, Source):
                sources.append(loaded)
            else:
                errors.append(loaded)
    _parse_configs(sources)
    return sources, errors


def _macros_beside(folder: Path, sources: list[Source]) -> dict[str, str]:
    """Name -> text of the macros files in ``folder``: the run's, and
    those on disk that the run did not name."""
    named = [s for s in sources if s.path.parent == folder]
    paths = {s.path for s in named}
    unnamed = [
        _read(p) for p in sorted(folder.glob("*.xml"))
        if p not in paths and p.is_file()
    ]
    return {
        s.path.name: s.text
        for s in named + unnamed
        if isinstance(s, Source) and s.kind == "macros"
    }


def _parse_configs(sources: list[Source]) -> None:
    """Hand every tool / job_conf root element to the runtime parser; a
    wrapper imports macros from its own directory, as at runtime."""
    configs = [s for s in sources if s.kind in ("tool", "job_conf")]
    if not configs:
        return  # ``perf`` and ``race`` never load the Galaxy layer
    from repro.galaxy.errors import GalaxyError
    from repro.galaxy.job_conf import parse_job_conf_xml
    from repro.galaxy.tool_xml import parse_tool_xml

    macros: dict[Path, dict[str, str]] = {}
    for source in configs:
        folder = source.path.parent
        try:
            if source.kind == "job_conf":
                source.parsed = parse_job_conf_xml(source.parsed)
                continue
            if folder not in macros:
                macros[folder] = _macros_beside(folder, sources)
            source.parsed = parse_tool_xml(source.parsed, macros=macros[folder])
        except GalaxyError as exc:
            source.parsed = exc


def python_findings(
    sources: list[Source], families: set[str] | None
) -> tuple[list[Finding], CallGraph | None, HotModel | None]:
    """What the AST rule families find in the ``python`` sources.

    ``families`` names them by rule-id prefix (``SRC``, ``DET``,
    ``PERF``); ``None`` is all, as ``lint`` runs.  Suppressions are
    applied, and a stale ``# gyan:`` pragma is SUP001 only when its
    family was evaluated.  PERF also returns its call graph and model.
    """
    python = [s for s in sources if s.kind == "python"]
    graph: CallGraph | None = None
    model: HotModel | None = None
    hits: dict[str, list[Finding]] = {}
    if families is None or "PERF" in families:
        # Imported here: gyan-perf's driver is itself a caller of this
        # function, and ``race`` has no use for the call-graph builder.
        from repro.analysis.perf.driver import analyze_sources

        perf, graph, model = analyze_sources(
            [(str(s.path), s.parsed) for s in python]
        )
        for finding in perf:
            hits.setdefault(finding.path or "", []).append(finding)
    findings: list[Finding] = []
    for source in python:
        path = str(source.path)
        found: list[Finding] = []
        if families is None or "SRC" in families:
            found.extend(analyze_source_tree(source.parsed, path))
        if families is None or "DET" in families:
            found.extend(analyze_det_tree(source.parsed, path))
        found.extend(hits.get(path, []))
        suppressions = SuppressionSet.parse(source.text, source.parsed)
        findings.extend(suppressions.apply(found, path, families))
    return findings, graph, model
