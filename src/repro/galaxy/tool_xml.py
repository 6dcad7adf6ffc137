"""Tool wrapper XML parsing, including GYAN's new compute requirement.

A Galaxy tool is described by a wrapper file (paper Code 3) optionally
importing a ``macros.xml`` (paper Code 1).  The elements this parser
understands are the ones the execution core needs:

* ``<requirements>`` with ``<requirement type="..." version="...">`` —
  including GYAN's new ``type="compute"`` whose text is ``gpu`` or
  ``cpu`` and whose ``version`` attribute carries the requested **GPU
  minor IDs** (paper §IV-C "we used the existing 'version' XML tag ...
  the 'version' tag corresponds to the GPU minor ID(s)");
* ``<container type="docker|singularity">reference</container>``;
* ``<command>`` — a Cheetah template;
* ``<inputs><param .../></inputs>`` and ``<outputs><data .../></outputs>``;
* ``<macros><import>file</import></macros>`` + ``<expand macro="name"/>``
  with ``<xml name="...">`` definitions and ``<token name="@X@">`` text
  tokens.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from repro.galaxy.errors import TemplateError, ToolParseError
from repro.galaxy.templating import CheetahLite

#: GYAN's requirement type (Challenge I).  Values: "gpu" or "cpu".
COMPUTE_REQUIREMENT_TYPE = "compute"
GPU_REQUIREMENT_NAME = "gpu"
CPU_REQUIREMENT_NAME = "cpu"

#: Declarative resource requirements.  Following the compute-requirement
#: convention, ``<requirement type="resource" version="MIB">gpu_memory_mib``
#: overloads ``version`` as the tool's declared GPU framebuffer demand.
RESOURCE_REQUIREMENT_TYPE = "resource"
GPU_MEMORY_RESOURCE_NAME = "gpu_memory_mib"


def parse_gpu_minor_ids(version: str) -> list[int]:
    """Parse the comma-separated GPU minor IDs of a compute requirement.

    The ``version`` attribute of ``<requirement type="compute">gpu``
    overloads as the requested minor ID list ("0", "1", "0,1").  Each
    non-empty entry must be a non-negative integer; anything else raises
    :class:`ToolParseError` — catching the misdeclaration at parse time
    instead of letting the mapper silently fall back to CPU later.
    """
    minor_ids: list[int] = []
    for part in version.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            minor = int(part)
        except ValueError:
            raise ToolParseError(
                "compute requirement version must list integer GPU minor "
                f"IDs, got {part!r} in {version!r}"
            ) from None
        if minor < 0:
            raise ToolParseError(
                f"compute requirement GPU minor ID must be >= 0, got {minor} "
                f"in {version!r}"
            )
        minor_ids.append(minor)
    return minor_ids


@dataclass(frozen=True)
class ToolRequirement:
    """One ``<requirement>`` entry.

    For ``type="compute"`` requirements, :attr:`name` is the element text
    (``gpu``/``cpu``) and :attr:`version` overloads as the requested GPU
    minor ID(s), comma-separated ("0", "1", "0,1").
    """

    req_type: str
    name: str
    version: str | None = None

    @property
    def is_gpu_compute(self) -> bool:
        """True for GYAN's ``<requirement type="compute">gpu</requirement>``."""
        return self.req_type == COMPUTE_REQUIREMENT_TYPE and self.name == GPU_REQUIREMENT_NAME


@dataclass(frozen=True)
class ContainerSpec:
    """One ``<container>`` entry (Docker or Singularity reference)."""

    container_type: str  # 'docker' | 'singularity'
    identifier: str


@dataclass(frozen=True)
class ToolParameter:
    """One ``<param>`` from the ``<inputs>`` section."""

    name: str
    param_type: str = "text"
    default: str | None = None
    label: str = ""

    def coerce(self, raw: object) -> object:
        """Coerce a submitted value to the parameter's declared type."""
        if raw is None:
            raw = self.default
        if raw is None:
            return None
        if self.param_type == "integer":
            return int(raw)
        if self.param_type == "float":
            return float(raw)
        if self.param_type == "boolean":
            if isinstance(raw, bool):
                return raw
            # Delegate to the job_conf truthy helper so tool params and
            # destination params can never drift on what counts as true.
            from repro.galaxy.job_conf import parse_bool_param

            return parse_bool_param(str(raw))
        return str(raw)


@dataclass(frozen=True)
class ToolOutput:
    """One ``<data>`` from the ``<outputs>`` section."""

    name: str
    format: str = "data"
    label: str = ""


@dataclass
class ToolDefinition:
    """A parsed tool wrapper, ready for the evaluation/runner layers."""

    tool_id: str
    name: str
    version: str
    requirements: list[ToolRequirement] = field(default_factory=list)
    containers: list[ContainerSpec] = field(default_factory=list)
    command_template: CheetahLite | None = None
    inputs: list[ToolParameter] = field(default_factory=list)
    outputs: list[ToolOutput] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # GYAN Challenge I: interpreting the compute requirement
    # ------------------------------------------------------------------ #
    @property
    def compute_requirement(self) -> ToolRequirement | None:
        """The (single) compute-type requirement, if declared."""
        for req in self.requirements:
            if req.req_type == COMPUTE_REQUIREMENT_TYPE:
                return req
        return None

    @property
    def requires_gpu(self) -> bool:
        """True when the wrapper declares ``type="compute"`` name ``gpu``.

        The default — no compute requirement, or name ``cpu`` — is CPU,
        matching the paper ("The values of the compute requirement type
        can be 'gpu' or 'cpu' (default)").
        """
        req = self.compute_requirement
        return req is not None and req.name == GPU_REQUIREMENT_NAME

    @property
    def requested_gpu_ids(self) -> list[str]:
        """GPU minor IDs requested via the requirement's ``version`` tag.

        Empty when no preference was declared — in which case CUDA's
        default (all devices visible) applies.
        """
        req = self.compute_requirement
        if req is None or not req.is_gpu_compute or not req.version:
            return []
        return [part.strip() for part in req.version.split(",") if part.strip()]

    @property
    def declared_gpu_memory_mib(self) -> int | None:
        """GPU framebuffer demand (MiB) declared via a resource requirement.

        ``None`` when the wrapper declares no
        ``<requirement type="resource" version="MIB">gpu_memory_mib``
        entry — the common case; capacity checks then fall back to
        destination-level ``gpu_memory_mib`` params.
        """
        for req in self.requirements:
            if (
                req.req_type == RESOURCE_REQUIREMENT_TYPE
                and req.name == GPU_MEMORY_RESOURCE_NAME
                and req.version
            ):
                return int(req.version)
        return None

    def container_for(self, container_type: str) -> ContainerSpec | None:
        """The first container of the given type, if any."""
        for spec in self.containers:
            if spec.container_type == container_type:
                return spec
        return None


# --------------------------------------------------------------------- #
# macros
# --------------------------------------------------------------------- #
@dataclass
class MacroLibrary:
    """Parsed ``macros.xml``: named XML fragments and ``@TOKEN@`` texts."""

    xml_macros: dict[str, ET.Element] = field(default_factory=dict)
    tokens: dict[str, str] = field(default_factory=dict)


def parse_macros_xml(text: str) -> MacroLibrary:
    """Parse a ``macros.xml`` document (paper Code 1).

    Recognises ``<xml name="...">`` fragment macros and
    ``<token name="@NAME@">value</token>`` text tokens.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ToolParseError(f"macros.xml is not well-formed: {exc}") from exc
    if root.tag != "macros":
        raise ToolParseError(f"macros root must be <macros>, got <{root.tag}>")
    library = MacroLibrary()
    for child in root:
        name = child.get("name")
        if name is None:
            raise ToolParseError(f"<{child.tag}> macro missing name attribute")
        if child.tag == "xml":
            library.xml_macros[name] = child
        elif child.tag == "token":
            library.tokens[name] = (child.text or "").strip()
        else:
            raise ToolParseError(f"unknown macro element <{child.tag}>")
    return library


def _expand_macros(element: ET.Element, library: MacroLibrary) -> None:
    """Replace ``<expand macro="..."/>`` nodes with macro contents, in place."""
    for index, child in enumerate(list(element)):
        if child.tag == "expand":
            macro_name = child.get("macro")
            if macro_name is None:
                raise ToolParseError("<expand> missing macro attribute")
            macro = library.xml_macros.get(macro_name)
            if macro is None:
                raise ToolParseError(f"unknown macro {macro_name!r}")
            element.remove(child)
            for offset, node in enumerate(list(macro)):
                element.insert(index + offset, node)
        else:
            _expand_macros(child, library)


def _apply_tokens(text: str, library: MacroLibrary) -> str:
    for token, value in library.tokens.items():
        text = text.replace(token, value)
    return text


def _apply_tokens_tree(element: ET.Element, library: MacroLibrary) -> None:
    """Replace ``@TOKEN@`` occurrences in all text and attribute values.

    Galaxy expands tokens across the whole wrapper, including attributes
    like the tool ``version`` (the paper's wrapper uses
    ``version="@TOOL_VERSION@..."``).
    """
    if not library.tokens:
        return
    for node in element.iter():
        if node.text:
            node.text = _apply_tokens(node.text, library)
        for key, value in list(node.attrib.items()):
            node.attrib[key] = _apply_tokens(value, library)


# --------------------------------------------------------------------- #
# tool wrapper
# --------------------------------------------------------------------- #
def parse_tool_xml(
    text: str | ET.Element, macros: dict[str, str] | None = None
) -> ToolDefinition:
    """Parse a tool wrapper document (paper Code 3).

    Parameters
    ----------
    text:
        The wrapper XML, or its root element when the caller has already
        parsed it (the element is consumed: macros expand in place).
    macros:
        Mapping of importable macro file names to their XML text; consulted
        for each ``<macros><import>NAME</import></macros>`` entry.
    """
    try:
        root = ET.fromstring(text) if isinstance(text, str) else text
    except ET.ParseError as exc:
        raise ToolParseError(f"tool wrapper is not well-formed: {exc}") from exc
    if root.tag != "tool":
        raise ToolParseError(f"wrapper root must be <tool>, got <{root.tag}>")

    tool_id = root.get("id")
    if not tool_id:
        raise ToolParseError("tool is missing the id attribute")

    library = MacroLibrary()
    macros_node = root.find("macros")
    if macros_node is not None:
        for import_node in macros_node.findall("import"):
            source_name = (import_node.text or "").strip()
            if not macros or source_name not in macros:
                raise ToolParseError(f"macros import {source_name!r} not provided")
            imported = parse_macros_xml(macros[source_name])
            library.xml_macros.update(imported.xml_macros)
            library.tokens.update(imported.tokens)
        root.remove(macros_node)
    _expand_macros(root, library)
    _apply_tokens_tree(root, library)

    definition = ToolDefinition(
        tool_id=tool_id,
        name=root.get("name", tool_id),
        version=root.get("version", "1.0"),
    )

    requirements_node = root.find("requirements")
    if requirements_node is not None:
        for req in requirements_node.findall("requirement"):
            req_type = req.get("type")
            if not req_type:
                raise ToolParseError("requirement missing type attribute")
            definition.requirements.append(
                ToolRequirement(
                    req_type=req_type,
                    name=(req.text or "").strip(),
                    version=req.get("version"),
                )
            )
        for container in requirements_node.findall("container"):
            definition.containers.append(
                ContainerSpec(
                    container_type=container.get("type", "docker"),
                    identifier=(container.text or "").strip(),
                )
            )
        compute_reqs = [
            r for r in definition.requirements if r.req_type == COMPUTE_REQUIREMENT_TYPE
        ]
        if len(compute_reqs) > 1:
            raise ToolParseError("a tool may declare at most one compute requirement")
        for req in compute_reqs:
            if req.name not in (GPU_REQUIREMENT_NAME, CPU_REQUIREMENT_NAME):
                raise ToolParseError(
                    f"compute requirement must be 'gpu' or 'cpu', got {req.name!r}"
                )
            if req.name == GPU_REQUIREMENT_NAME and req.version:
                parse_gpu_minor_ids(req.version)
        for req in definition.requirements:
            if (
                req.req_type != RESOURCE_REQUIREMENT_TYPE
                or req.name != GPU_MEMORY_RESOURCE_NAME
            ):
                continue
            try:
                mib = int(req.version or "")
            except ValueError:
                raise ToolParseError(
                    "gpu_memory_mib resource requirement version must be an "
                    f"integer MiB count, got {req.version!r}"
                ) from None
            if mib <= 0:
                raise ToolParseError(
                    f"gpu_memory_mib resource requirement must be > 0, got {mib}"
                )

    command_node = root.find("command")
    if command_node is not None and command_node.text:
        try:
            definition.command_template = CheetahLite(
                _apply_tokens(command_node.text, library)
            )
        except TemplateError as exc:
            raise ToolParseError(f"command template: {exc}") from exc

    inputs_node = root.find("inputs")
    if inputs_node is not None:
        for param in inputs_node.findall("param"):
            name = param.get("name")
            if not name:
                raise ToolParseError("param missing name attribute")
            definition.inputs.append(
                ToolParameter(
                    name=name,
                    param_type=param.get("type", "text"),
                    default=param.get("value"),
                    label=param.get("label", ""),
                )
            )

    outputs_node = root.find("outputs")
    if outputs_node is not None:
        for data in outputs_node.findall("data"):
            name = data.get("name")
            if not name:
                raise ToolParseError("output data missing name attribute")
            definition.outputs.append(
                ToolOutput(
                    name=name,
                    format=data.get("format", "data"),
                    label=data.get("label", ""),
                )
            )

    return definition
