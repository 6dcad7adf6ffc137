"""The toolbox: versioned tool lineages with panel search.

Galaxy's toolbox is a real subsystem: a tool id names a *lineage* of
installed versions (admins install upgrades side by side; workflows pin
versions), and the web panel searches them.  The mini-
Galaxy needs this for the GYAN story too — the paper's Racon wrapper
pins ``racon 1.4.20`` while a GPU-capable upgrade would install as a new
version of the same lineage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.galaxy.errors import GalaxyError, ToolNotFoundError
from repro.galaxy.tool_xml import ToolDefinition


class ToolVersionError(GalaxyError):
    """Raised for version-resolution failures."""


def _version_key(version: str) -> tuple:
    """Sortable key: numeric dotted components, then the raw string."""
    parts: list[object] = []
    for piece in version.split("."):
        parts.append(int(piece) if piece.isdigit() else piece)
    return (tuple(parts), version)


@dataclass
class ToolLineage:
    """All installed versions of one tool id."""

    tool_id: str
    versions: dict[str, ToolDefinition] = field(default_factory=dict)

    def install(self, tool: ToolDefinition) -> None:
        """Add a version (reinstalling the same version replaces it)."""
        if tool.tool_id != self.tool_id:
            raise ToolVersionError(
                f"tool {tool.tool_id!r} does not belong to lineage {self.tool_id!r}"
            )
        self.versions[tool.version] = tool

    @property
    def latest(self) -> ToolDefinition:
        """The highest installed version."""
        if not self.versions:
            raise ToolVersionError(f"lineage {self.tool_id!r} has no versions")
        newest = max(self.versions, key=_version_key)
        return self.versions[newest]

    def get(self, version: str | None = None) -> ToolDefinition:
        """A specific version, or the latest when ``None``."""
        if version is None:
            return self.latest
        try:
            return self.versions[version]
        except KeyError:
            raise ToolVersionError(
                f"{self.tool_id!r} has no version {version!r}; installed: "
                f"{sorted(self.versions, key=_version_key)}"
            ) from None

    def sorted_versions(self) -> list[str]:
        """Installed versions, oldest first."""
        return sorted(self.versions, key=_version_key)


class ToolBox:
    """Versioned tool lineages, with panel-style search."""

    def __init__(self) -> None:
        self._lineages: dict[str, ToolLineage] = {}

    # ------------------------------------------------------------------ #
    def install(self, tool: ToolDefinition) -> ToolLineage:
        """Install a tool version into its lineage."""
        lineage = self._lineages.get(tool.tool_id)
        if lineage is None:
            lineage = ToolLineage(tool_id=tool.tool_id)
            self._lineages[tool.tool_id] = lineage
        lineage.install(tool)
        return lineage

    def get(self, tool_id: str, version: str | None = None) -> ToolDefinition:
        """Resolve a tool id (+ optional version pin)."""
        lineage = self._lineages.get(tool_id)
        if lineage is None:
            raise ToolNotFoundError(tool_id)
        return lineage.get(version)

    def lineage(self, tool_id: str) -> ToolLineage:
        """The whole lineage of a tool id."""
        try:
            return self._lineages[tool_id]
        except KeyError:
            raise ToolNotFoundError(tool_id) from None

    # ------------------------------------------------------------------ #
    def search(self, query: str) -> list[ToolDefinition]:
        """Panel search: substring match on id and display name."""
        needle = query.lower().strip()
        if not needle:
            return []
        hits = []
        for lineage in self._lineages.values():
            tool = lineage.latest
            if needle in tool.tool_id.lower() or needle in tool.name.lower():
                hits.append(tool)
        return sorted(hits, key=lambda t: t.tool_id)

    def gpu_capable_tools(self) -> list[ToolDefinition]:
        """Latest versions that declare the GYAN compute requirement —
        what a 'GPU tools' panel section would list."""
        return sorted(
            (l.latest for l in self._lineages.values() if l.latest.requires_gpu),
            key=lambda t: t.tool_id,
        )

    def __len__(self) -> int:
        return len(self._lineages)
