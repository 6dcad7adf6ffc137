"""``job_conf.xml`` parsing: destinations, runners, and dynamic rules.

Galaxy admins steer jobs with a configuration file (paper Code 2): each
``<destination>`` names a runner and parameters; a destination whose
runner is ``dynamic`` delegates the choice to a Python *rule function*
(GYAN's ``dynamic_destination.py``).  Rules here live in a registry so
tests can install GYAN's GPU rule alongside stock ones.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable

from repro.galaxy.errors import JobConfError

#: A dynamic rule receives (job, app) and returns a destination id.
DynamicRule = Callable[["object", "object"], str]

#: Spellings accepted as "true" for boolean destination params.  Real
#: Galaxy job_confs are written by hand and ``True``/``1``/``yes`` all
#: appear in the wild; anything else is false.
TRUTHY_PARAM_VALUES = frozenset({"true", "1", "yes", "on"})


def parse_bool_param(value: str | None) -> bool:
    """Normalise a destination boolean param (``docker_enabled`` etc.);
    an absent one is false."""
    if value is None:
        return False
    return value.strip().lower() in TRUTHY_PARAM_VALUES


@dataclass
class Destination:
    """One ``<destination>`` element."""

    destination_id: str
    runner: str
    params: dict[str, str] = field(default_factory=dict)

    @property
    def is_dynamic(self) -> bool:
        """True when the destination delegates to a rule function."""
        return self.runner == "dynamic"

    @property
    def rule_function(self) -> str | None:
        """Name of the rule function for dynamic destinations."""
        return self.params.get("function")

    @property
    def docker_enabled(self) -> bool:
        """Whether this destination launches tools in Docker containers."""
        return parse_bool_param(self.params.get("docker_enabled"))

    @property
    def resubmit_destination(self) -> str | None:
        """Where failed jobs are resubmitted (Galaxy's ``<resubmit>``).

        Real Galaxy job_confs commonly resubmit GPU-destination failures
        to a CPU destination — the recovery path for runtime GPU errors
        (driver faults, OOM) that slip past up-front availability checks.
        """
        return self.params.get("resubmit_destination")

    @property
    def singularity_enabled(self) -> bool:
        """Whether this destination launches tools in Singularity."""
        return parse_bool_param(self.params.get("singularity_enabled"))

    def _positive_float_param(self, name: str) -> float | None:
        raw = self.params.get(name)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            return None
        return value if value > 0 else None

    @property
    def max_queue_depth(self) -> int | None:
        """Inflight bound of this destination (None = unbounded).

        The overload layer's admission check: when this many jobs are
        admitted and unfinished, further submissions bounce with
        REJECTED_BUSY and either degrade along ``resubmit_destination``
        or wait under backpressure.
        """
        raw = self.params.get("max_queue_depth")
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            return None
        return value if value > 0 else None

    @property
    def deadline_s(self) -> float | None:
        """Queue-to-start deadline for jobs routed here (virtual seconds)."""
        return self._positive_float_param("deadline_s")


class DynamicRuleRegistry:
    """Named rule functions available to dynamic destinations."""

    def __init__(self) -> None:
        self._rules: dict[str, DynamicRule] = {}

    def register(self, name: str, rule: DynamicRule) -> None:
        """Install ``rule`` under ``name`` (overwrites silently, like Galaxy
        reloading ``rules/`` modules)."""
        self._rules[name] = rule

    def get(self, name: str) -> DynamicRule:
        """Look a rule up; raises :class:`JobConfError` when missing."""
        try:
            return self._rules[name]
        except KeyError:
            raise JobConfError(f"dynamic rule {name!r} is not registered") from None


@dataclass
class JobConfig:
    """The parsed job configuration.

    Attributes
    ----------
    destinations:
        All destinations by id.
    default_destination:
        Where jobs go when no tool mapping applies.
    tool_destinations:
        Per-tool-id overrides from the ``<tools>`` section.
    rules:
        The dynamic-rule registry this config resolves functions in.
    """

    destinations: dict[str, Destination] = field(default_factory=dict)
    default_destination: str | None = None
    tool_destinations: dict[str, str] = field(default_factory=dict)
    rules: DynamicRuleRegistry = field(default_factory=DynamicRuleRegistry)

    def destination(self, destination_id: str) -> Destination:
        """Destination by id; raises :class:`JobConfError` when unknown."""
        try:
            return self.destinations[destination_id]
        except KeyError:
            raise JobConfError(f"unknown destination {destination_id!r}") from None

    def destination_for_tool(self, tool_id: str) -> Destination:
        """Initial (possibly dynamic) destination for a tool."""
        dest_id = self.tool_destinations.get(tool_id, self.default_destination)
        if dest_id is None:
            raise JobConfError("job_conf has no default destination")
        return self.destination(dest_id)

    def resolve(self, job: object, app: object) -> Destination:
        """Follow dynamic destinations until a concrete one is reached.

        A chain of dynamic rules is legal (Galaxy allows it); cycles are
        detected and rejected.
        """
        destination = self.destination_for_tool(getattr(job, "tool").tool_id)
        seen: set[str] = set()
        while destination.is_dynamic:
            if destination.destination_id in seen:
                raise JobConfError(
                    f"dynamic destination cycle at {destination.destination_id!r}"
                )
            seen.add(destination.destination_id)
            function = destination.rule_function
            if function is None:
                raise JobConfError(
                    f"dynamic destination {destination.destination_id!r} "
                    "has no function param"
                )
            next_id = self.rules.get(function)(job, app)
            destination = self.destination(next_id)
        return destination


def parse_job_conf_xml(text: str | ET.Element) -> JobConfig:
    """Parse a ``job_conf.xml`` document (paper Code 2).

    ``text`` is the document, or its root element when the caller has
    already parsed the XML.  The ``<plugins>`` section is accepted but
    only recorded as runner names; plugin loading is a no-op in the
    simulator.
    """
    try:
        root = ET.fromstring(text) if isinstance(text, str) else text
    except ET.ParseError as exc:
        raise JobConfError(f"job_conf.xml is not well-formed: {exc}") from exc
    if root.tag != "job_conf":
        raise JobConfError(f"root must be <job_conf>, got <{root.tag}>")

    config = JobConfig(rules=DynamicRuleRegistry())

    destinations_node = root.find("destinations")
    if destinations_node is None:
        raise JobConfError("job_conf.xml needs a <destinations> section")
    config.default_destination = destinations_node.get("default")
    for node in destinations_node.findall("destination"):
        dest_id = node.get("id")
        runner = node.get("runner")
        if not dest_id or not runner:
            raise JobConfError("destination needs id and runner attributes")
        params = {}
        for param in node.findall("param"):
            param_id = param.get("id")
            if not param_id:
                raise JobConfError("destination param needs an id attribute")
            params[param_id] = (param.text or "").strip()
        config.destinations[dest_id] = Destination(
            destination_id=dest_id, runner=runner, params=params
        )

    if (
        config.default_destination is not None
        and config.default_destination not in config.destinations
    ):
        raise JobConfError(
            f"default destination {config.default_destination!r} is not defined"
        )

    tools_node = root.find("tools")
    if tools_node is not None:
        for node in tools_node.findall("tool"):
            tool_id = node.get("id")
            destination = node.get("destination")
            if not tool_id or not destination:
                raise JobConfError("tool mapping needs id and destination")
            if destination not in config.destinations:
                raise JobConfError(
                    f"tool {tool_id!r} maps to unknown destination {destination!r}"
                )
            config.tool_destinations[tool_id] = destination

    return config
