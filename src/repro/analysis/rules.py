"""The gyan-lint rule registry.

Every rule a linter family can fire is declared here with a stable ID,
a default severity, and catalogue text — the single source of truth the
CLI's ``--list-rules``, the docs, and the analyzers share.  Analyzers
construct findings through :meth:`LintRule.finding` so the registry's
severity and IDs cannot drift from what is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import Finding, Severity


@dataclass(frozen=True)
class LintRule:
    """One registered rule: identity, default severity, catalogue text."""

    rule_id: str
    title: str
    severity: Severity
    family: str  # see FAMILY_ORDER
    description: str

    def finding(
        self,
        message: str,
        path: str | None = None,
        line: int | None = None,
        suggestion: str | None = None,
        severity: Severity | None = None,
    ) -> Finding:
        """Build a finding attributed to this rule."""
        return Finding(
            rule_id=self.rule_id,
            severity=severity or self.severity,
            message=message,
            path=path,
            line=line,
            suggestion=suggestion,
        )


class RuleRegistry:
    """Rules by ID, with family views for the analyzers and docs."""

    def __init__(self) -> None:
        self._rules: dict[str, LintRule] = {}

    def register(self, rule: LintRule) -> LintRule:
        if rule.rule_id in self._rules:
            raise ValueError(f"duplicate rule id {rule.rule_id!r}")
        self._rules[rule.rule_id] = rule
        return rule

    def get(self, rule_id: str) -> LintRule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(f"unknown lint rule {rule_id!r}") from None

    def all_rules(self) -> list[LintRule]:
        return sorted(self._rules.values(), key=lambda r: r.rule_id)

    def family(self, family: str) -> list[LintRule]:
        return [r for r in self.all_rules() if r.family == family]


#: The default registry every analyzer registers into at import time.
REGISTRY = RuleRegistry()

#: Catalogue order of rule families, with the one-line doc the CLI's
#: grouped ``--list-rules`` prints under each family header.
FAMILY_ORDER: tuple[str, ...] = (
    "config", "source", "sanitizer", "verifier", "determinism",
    "performance",
)
FAMILY_DOCS: dict[str, str] = {
    "config": "GYAN1xx — static checks on job_conf/tool XML",
    "source": "SRC2xx — static checks on Python source",
    "sanitizer": "SIM3xx — runtime invariants fired by simsan",
    "verifier": "VER2xx/3xx/4xx/5xx — whole-deployment verification "
                "(python -m repro verify)",
    "determinism": "DET4xx static + DET5xx schedule-permutation checks "
                   "(python -m repro race)",
    "performance": "PERF6xx — hot-path checks (python -m repro perf); "
                   "error on @hot_path code and its callees, "
                   "info elsewhere",
}


def _rule(rule_id: str, title: str, severity: Severity, family: str, description: str) -> LintRule:
    return REGISTRY.register(
        LintRule(
            rule_id=rule_id,
            title=title,
            severity=severity,
            family=family,
            description=description,
        )
    )


# --------------------------------------------------------------------- #
# config analysis (GYAN1xx)
# --------------------------------------------------------------------- #
GYAN100 = _rule(
    "GYAN100", "config file does not parse", Severity.ERROR, "config",
    "The XML is not well-formed, or the repro parsers reject it outright (missing ids, unknown "
    "destinations, duplicate compute requirements, a command template that does not compile).",
)
GYAN101 = _rule(
    "GYAN101", "malformed GPU minor ID", Severity.ERROR, "config",
    "A compute requirement's version attribute must be a comma-separated "
    "list of non-negative integer GPU minor IDs; anything else would make "
    "the mapper silently fall back to CPU at job-launch time.",
)
GYAN102 = _rule(
    "GYAN102", "GPU minor ID out of range", Severity.ERROR, "config",
    "A requested minor ID does not exist on the configured host (default: "
    "the paper's 2-die K80 testbed, IDs 0 and 1; override with --devices).",
)
GYAN103 = _rule(
    "GYAN103", "container tool on non-container destination", Severity.WARNING, "config",
    "The tool declares a <container> but every static destination it can "
    "map to has neither docker_enabled nor singularity_enabled, so the "
    "container reference is dead configuration.",
)
GYAN104 = _rule(
    "GYAN104", "unregistered dynamic rule function", Severity.ERROR, "config",
    "A dynamic destination names a rule function that is not in the GYAN "
    "rule registry; resolution would raise JobConfError at submit time.",
)
GYAN105 = _rule(
    "GYAN105", "dynamic destination without function", Severity.ERROR, "config",
    "A destination with runner=\"dynamic\" has no <param id=\"function\">, "
    "so it can never resolve.",
)
GYAN106 = _rule(
    "GYAN106", "resubmit target unknown", Severity.ERROR, "config",
    "A destination's resubmit_destination names a destination id that is "
    "not defined in the same job_conf.",
)
GYAN107 = _rule(
    "GYAN107", "resubmit chain cycles", Severity.ERROR, "config",
    "Following resubmit_destination params from a destination returns to "
    "a destination already visited: a failed job would resubmit forever.",
)
GYAN108 = _rule(
    "GYAN108", "declared GPU memory oversubscribes framebuffer", Severity.WARNING, "config",
    "The gpu_memory_mib params declared across destinations exceed the "
    "simulated K80 framebuffer; concurrent jobs would OOM even though "
    "each destination looks fine in isolation.",
)
GYAN109 = _rule(
    "GYAN109", "no default destination", Severity.WARNING, "config",
    "The <destinations> section declares no default; any tool without an "
    "explicit <tools> mapping fails at submit time.",
)
GYAN110 = _rule(
    "GYAN110", "resubmit destination still requires a GPU", Severity.ERROR, "config",
    "A destination's resubmit_destination points at a destination that "
    "pins gpu_enabled_override to true: a job resubmitted after a GPU "
    "failure would be forced straight back onto a GPU, defeating the "
    "degrade-to-CPU recovery arm.",
)

# --------------------------------------------------------------------- #
# source analysis (SRC2xx)
# --------------------------------------------------------------------- #
SRC200 = _rule(
    "SRC200", "Python file does not parse", Severity.ERROR, "source",
    "The file has a syntax error; no other source rule can run on it.",
)
SRC201 = _rule(
    "SRC201", "wall clock inside virtual-clock code", Severity.ERROR, "source",
    "gpusim/ and core/ must run entirely on the VirtualClock; time.time, "
    "time.sleep, datetime.now and friends make simulations nondeterministic.",
)
SRC202 = _rule(
    "SRC202", "NVML device call before nvmlInit", Severity.ERROR, "source",
    "A device or system query on an NVML handle constructed in the same "
    "scope appears lexically before its nvmlInit() call; the real pynvml "
    "raises NVML_ERROR_UNINITIALIZED here.",
)
SUP001 = _rule(
    "SUP001", "unused suppression comment", Severity.WARNING, "source",
    "A `# gyan: disable=<RULE>` comment suppressed nothing: no finding "
    "of that rule was raised on the suppressed line or inside the "
    "suppressed function. Stale suppressions hide future regressions — "
    "delete the comment or narrow it to the rules that still fire.",
)

# --------------------------------------------------------------------- #
# runtime sanitizer (SIM3xx) — documented here, fired by simsan
# --------------------------------------------------------------------- #
SIM301 = _rule(
    "SIM301", "framebuffer leak at process exit", Severity.ERROR, "sanitizer",
    "A terminated process still owns device memory on some device — an "
    "allocation made on a device the process never attached to cannot be "
    "reclaimed by the driver's per-process cleanup.",
)
SIM302 = _rule(
    "SIM302", "double free of a device allocation", Severity.ERROR, "sanitizer",
    "An Allocation was freed twice (or freed on an allocator that never "
    "issued it).",
)
SIM303 = _rule(
    "SIM303", "device utilization out of range", Severity.ERROR, "sanitizer",
    "A device reported SM or memory-controller utilization outside "
    "[0, 100] — a timing-model accounting bug.",
)
SIM304 = _rule(
    "SIM304", "virtual clock moved backwards", Severity.ERROR, "sanitizer",
    "The clock's now decreased between observations, which breaks every "
    "duration computed from it.",
)
SIM305 = _rule(
    "SIM305", "framebuffer accounting violated", Severity.ERROR, "sanitizer",
    "used + free != capacity (or used exceeds capacity) on a device "
    "memory allocator.",
)
SIM306 = _rule(
    "SIM306", "lost device holds live processes", Severity.ERROR, "sanitizer",
    "A device marked unhealthy (fallen off the bus / quarantined) still "
    "reports live compute processes — mark_failed must kill every context "
    "on the device, exactly as XID 79 does on real hardware.",
)

# --------------------------------------------------------------------- #
# whole-deployment verifier (VER2xx dataflow, VER3xx capacity,
# VER4xx model checker) — fired by ``python -m repro verify``
# --------------------------------------------------------------------- #
VER200 = _rule(
    "VER200", "deployment does not load", Severity.ERROR, "verifier",
    "The deployment IR could not be built: a job_conf, tool wrapper, or "
    "chaos plan in the deployment failed to parse (or a wrapper's command "
    "template does not compile), so no cross-file pass can run.",
)
VER201 = _rule(
    "VER201", "GPU tool can never receive a GPU", Severity.ERROR, "verifier",
    "A tool declaring compute=gpu is reachable only via destinations that "
    "drop GPU visibility — CPU-pinned overrides, docker destinations that "
    "cannot pass --gpus, runners that never set CUDA_VISIBLE_DEVICES — so "
    "every run silently falls back to CPU.",
)
VER202 = _rule(
    "VER202", "resubmit chain re-enables GPU after CPU degrade",
    Severity.WARNING, "verifier",
    "A resubmit chain passes through a destination pinning "
    "gpu_enabled_override=false and a later hop pins it back to true: the "
    "degrade-to-CPU decision is undone and the job is resubmitted onto "
    "the hardware class that already failed it.",
)
VER203 = _rule(
    "VER203", "destination forces GPU it cannot deliver", Severity.ERROR,
    "verifier",
    "A destination pins gpu_enabled_override=true but its runner/container "
    "flags cannot hand a GPU to the job (docker runner without "
    "docker_enabled, or no container the tool provides): jobs there error "
    "out instead of computing.",
)
VER204 = _rule(
    "VER204", "GPU destination has no recovery arm", Severity.INFO,
    "verifier",
    "A GPU-capable destination declares no resubmit_destination: a mid-run "
    "device failure errors the job with nothing to resubmit it. Harmless "
    "if job loss is acceptable; the resilient job_conf pattern adds a "
    "CPU-pinned recovery arm.",
)
VER205 = _rule(
    "VER205", "chaos plan targets nonexistent device", Severity.ERROR,
    "verifier",
    "A chaos plan in the deployment injects faults into a device minor ID "
    "that the simulated testbed does not have; the plan can never fire as "
    "written.",
)
VER301 = _rule(
    "VER301", "declared GPU memory exceeds framebuffer", Severity.ERROR,
    "verifier",
    "A tool's declared gpu_memory_mib demand (or the destination's) "
    "exceeds the per-die framebuffer of the simulated testbed: every "
    "placement is a guaranteed OOM.",
)
VER302 = _rule(
    "VER302", "placement strategy can co-locate jobs past framebuffer",
    Severity.WARNING, "verifier",
    "Under a concrete allocation strategy (Process-ID or "
    "Process-Allocated-Memory), some admissible job interleaving "
    "co-locates declared demands on one die beyond its framebuffer — an "
    "OOM the per-file linter cannot see.",
)
VER303 = _rule(
    "VER303", "aggregate declared memory oversubscribes testbed",
    Severity.WARNING, "verifier",
    "The sum of declared GPU memory demands across concurrently-mappable "
    "tools exceeds the whole testbed's framebuffer; full-width concurrency "
    "is unsatisfiable.",
)
VER401 = _rule(
    "VER401", "resubmit livelock under faults", Severity.ERROR, "verifier",
    "Small-scope model checking found a fault schedule driving a job "
    "around a resubmit cycle until the hop cap kills it: the chain "
    "revisits a destination without making progress. The counterexample "
    "chaos plan reproduces it via `python -m repro faults --plan`.",
)
VER402 = _rule(
    "VER402", "job loss with no CPU fallback under faults", Severity.ERROR,
    "verifier",
    "Small-scope model checking found a fault schedule (device deaths "
    "within the scope bounds) after which a job errors on a GPU "
    "destination with no resubmit arm — lost outright where a CPU "
    "fallback would have saved it. The counterexample chaos plan "
    "reproduces it.",
)
VER403 = _rule(
    "VER403", "resubmit hop cap starves a recoverable job", Severity.WARNING,
    "verifier",
    "Small-scope model checking found a schedule where a job exhausts "
    "max_resubmit_hops while an untried recovery arm still exists — the "
    "chain made progress every hop but the cap starved it short of the "
    "destination that would have run it. The counterexample chaos plan "
    "reproduces it.",
)
VER501 = _rule(
    "VER501", "unbounded queue on an overload-protected route",
    Severity.WARNING, "verifier",
    "The deployment opts into overload protection (some destination "
    "declares max_queue_depth) but a concrete destination on the same "
    "routing graph is unbounded: a burst that bounces off the bounded "
    "destinations piles up there without limit, defeating the bound. "
    "Either bound every concrete destination or none.",
)
VER502 = _rule(
    "VER502", "bounded GPU destination has no degrade arm", Severity.ERROR,
    "verifier",
    "A destination that both grants GPU execution and bounds its queue "
    "(max_queue_depth) declares no resubmit_destination: every "
    "REJECTED_BUSY at the bound becomes an immediate typed shed instead "
    "of degrading to a CPU arm. CPU-pinned destinations are exempt — "
    "they are the wide end of the funnel where shedding is by design.",
)
VER503 = _rule(
    "VER503", "deadline shorter than the NVML retry budget",
    Severity.ERROR, "verifier",
    "A destination's deadline_s is not longer than the total backoff the "
    "dynamic rule's NVML probe can spend before launch: a job whose "
    "probe keeps hitting transient faults is guaranteed to expire "
    "before it reaches the runner, so the retry budget is wasted work "
    "that always ends in a deadline shed.",
)
VER504 = _rule(
    "VER504", "autoscaler max pool can never clear the declared peak",
    Severity.ERROR, "verifier",
    "An autoscale plan's fully-scaled-out pool (max_nodes x "
    "gpus_per_node slots) is smaller than the concurrent slot demand its "
    "own workload envelope declares (peak arrival rate x mean service "
    "time, Little's law): even at max scale the queues grow without "
    "bound through every peak and the overflow sheds. Elasticity cannot "
    "fix an undersized ceiling.",
)
VER505 = _rule(
    "VER505", "provisioning reaction slower than the shed deadline",
    Severity.WARNING, "verifier",
    "The autoscaler's worst-case reaction time (hysteresis_windows x "
    "eval_interval_s + provision_lag_s) is not shorter than the "
    "deadline_s the workload envelope declares: when a burst arrives, "
    "queued jobs expire and shed before the first elastic node lands, "
    "so scale-up only ever helps the tail of a storm.",
)

# --------------------------------------------------------------------- #
# determinism (DET4xx static, DET5xx dynamic) — fired by
# ``python -m repro race`` and the lint source pass
# --------------------------------------------------------------------- #
DET401 = _rule(
    "DET401", "unordered iteration flows into deterministic output",
    Severity.ERROR, "determinism",
    "A dict/set is iterated without sorting and the values flow into an "
    "exporter, telemetry record, or mapper decision in the same scope; "
    "Python set ordering (and pre-3.7 dict ordering) varies across "
    "processes, so byte-identical artifacts cannot be guaranteed. Sort "
    "the iterable (sorted(...) / sort_keys=True) before it reaches "
    "output.",
)
DET402 = _rule(
    "DET402", "unseeded entropy in simulation code", Severity.ERROR,
    "determinism",
    "random.*, uuid.uuid1/uuid4, time.time(), or os.urandom is called in "
    "simulation code without a seeded generator: replays of the same "
    "scenario diverge. Thread a random.Random(seed) through, or derive "
    "values from the virtual clock.",
)
DET403 = _rule(
    "DET403", "same-timestamp timers without a tie-break key",
    Severity.WARNING, "determinism",
    "Two or more timer registrations can land on the same virtual "
    "instant with no explicit tie-break key, so their relative firing "
    "order is only pinned by registration order — fragile under "
    "refactoring and unshardable. Pass call_at(..., key=...) to make "
    "the intended order part of the contract.",
)
DET404 = _rule(
    "DET404", "float accumulation over an unordered iterable",
    Severity.WARNING, "determinism",
    "A floating-point sum/accumulation folds over a set or other "
    "unordered iterable; float addition is not associative, so the "
    "total depends on iteration order. Sort the operands (or use "
    "math.fsum over a sorted sequence).",
)
DET501 = _rule(
    "DET501", "artifact diverges under a permuted tie schedule",
    Severity.ERROR, "determinism",
    "The happens-before checker replayed a scenario with one same-"
    "instant timer tie flipped and an emitted artifact changed bytes: "
    "the simulation's output depends on an ordering nothing pins. The "
    "finding carries the minimal tie-flip schedule; replay it with "
    "`python -m repro race --schedule`.",
)
# --------------------------------------------------------------------- #
# performance (PERF6xx) — hot-path rules, fired by
# ``python -m repro perf`` and the lint source pass.  Default severity
# is ERROR; the driver downgrades findings outside the hot set to INFO.
# --------------------------------------------------------------------- #
PERF601 = _rule(
    "PERF601", "per-row rendering in an exporter loop", Severity.ERROR,
    "performance",
    "A loop (or comprehension) renders output one row at a time — an "
    "unbuffered write() per iteration, a string built up with +=, or a "
    "multi-field f-string formatted per row of a sample/record sequence. "
    "On an exporter hot path every simulated sample pays the formatting "
    "cost; render runs of identical values once and emit buffered "
    "chunks (the CSV/Perfetto exporter smell).",
)
PERF602 = _rule(
    "PERF602", "linear scan where an index API exists", Severity.ERROR,
    "performance",
    "A comprehension filters a timeline/span/sample sequence by "
    "comparing per-element attributes (.time, .label, .job_id) — an "
    "O(n) scan repeated per query. Timeline serves time windows via "
    "bisect (between()) and labels from a per-label index (labelled()); "
    "exporters should group records once into a dict instead of "
    "rescanning per job.",
)
PERF603 = _rule(
    "PERF603", "per-job device probe inside a loop", Severity.ERROR,
    "performance",
    "A loop body probes the device surface per iteration — an nvml* "
    "query, get_gpu_usage_snapshot(), or a fresh snapshot construction "
    "— bypassing the mapper's same-instant snapshot cache. A burst of "
    "200 jobs should cost one nvidia-smi probe, not 200; hoist the "
    "probe out of the loop or go through the cached mapper surface.",
)
PERF604 = _rule(
    "PERF604", "per-tick timer chain where a span listener exists",
    Severity.ERROR, "performance",
    "A callback re-arms itself with call_at/call_later (or a loop "
    "registers one timer per simulated tick): O(samples) heap "
    "operations where the clock's span-listener API observes whole "
    "quiescent spans in O(state changes). The §V-C monitor's move to "
    "one span listener was ~52x on a 24 h job.",
)
PERF605 = _rule(
    "PERF605", "fresh allocation in a clock-advance inner loop",
    Severity.ERROR, "performance",
    "A comprehension or list()/dict()/set() construction runs inside a "
    "while-driven inner loop (the clock-advance/heap-drain shape): one "
    "allocation per fired timer or per drained event. Hoist the "
    "container out of the loop and reuse it.",
)
PERF606 = _rule(
    "PERF606", "deep-copy cloning on a hot path", Severity.ERROR,
    "performance",
    "copy.deepcopy() or a json.loads(json.dumps(...)) round-trip clones "
    "an object graph per call. Both walk every node and allocate "
    "everything twice; on a hot path prefer explicit shallow copies of "
    "the mutated fields, or immutable snapshots shared by reference.",
)

DET502 = _rule(
    "DET502", "conflicting same-instant callbacks share no tie-break key",
    Severity.WARNING, "determinism",
    "Two callbacks fired at the same virtual instant and their recorded "
    "read/write footprints on simulator state conflict, but neither "
    "carries an explicit tie-break key. Artifacts happened to match "
    "under every permutation tried, yet the order is load-bearing — "
    "pin it with call_at(..., key=...).",
)
