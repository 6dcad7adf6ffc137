"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Show the default deployment: node, devices, installed tools.
``smi``
    Render the simulated ``nvidia-smi`` console table (optionally with a
    demo workload running).
``racon`` / ``bonito``
    Run one tool through the GYAN dispatch path and print the job
    record (command line, environment, destination, timing breakdown).
``cases``
    Re-play the paper's four multi-GPU scheduling cases.
``trace``
    Replay a Poisson arrival trace on the paper's node, untraced (stats
    only) or traced (``--emit``/``--format json``/``--plan``).  Exit 0
    done, 1 when arrivals outrun the node's 48 CPU slots (one
    ``trace: …`` line naming ``--interarrival``), 2 unreadable ``--plan``,
    a ``--jobs``/``--interarrival`` that is not positive and finite, or
    arrivals past the clock's 2**53 s horizon.
``experiment``
    Regenerate one of the paper's headline results (fig3, fig5, e11,
    stalls) as a quick table.
``lint``
    gyan-lint: statically analyze tool wrapper XML, ``job_conf.xml``
    and repro Python sources for GPU misdeclarations (exit 0 clean,
    1 findings at/above ``--fail-on``, 2 usage error).
``faults``
    Run a named chaos scenario (or a JSON injection plan) against a
    deployment and report job survival (exit 0 iff every job reached
    OK, 2 unreadable plan or negative ``--jobs``).
``verify``
    gyan-verify: whole-deployment static verification — cross-file
    GPU-capability dataflow (VER2xx), capacity/schedulability against
    the simulated testbed (VER3xx), and small-scope exhaustive model
    checking of the mapper/health/resubmit machinery (VER4xx), with
    replayable counterexample chaos plans.
``race``
    gyan-race: the determinism checker — static DET4xx AST rules over
    Python sources plus a dynamic happens-before pass that permutes
    same-instant timer ties in the trace/chaos scenarios and
    byte-diffs the artifacts (DET5xx, with replayable minimal
    tie-flip schedules via ``--schedule``).
``perf``
    gyan-perf: the static performance analyzer — builds a call graph
    over the sources, seeds hotness from ``@hot_path`` annotations, and
    fires PERF6xx rules at error severity on hot paths (info
    elsewhere), each hot finding carrying its seed→function call
    chain.  Supports ``--baseline``/``--write-baseline`` for
    ratcheted adoption.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence


def _fresh(tools: Sequence[str] | None = None, allocation: str = "pid"):
    """A new deployment with the named paper tools installed (all of them
    when ``tools`` is None): a command parses the wrappers of the tools
    it runs and no others."""
    from repro.core.orchestrator import build_deployment
    from repro.tools.executors import PAPER_TOOLS

    deployment = build_deployment(allocation_strategy=allocation)
    for tool in PAPER_TOOLS if tools is None else tools:
        PAPER_TOOLS[tool](deployment.app)
    return deployment


# --------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------- #
def cmd_info(args: argparse.Namespace) -> int:
    deployment = _fresh()
    print(f"node: {deployment.node.hostname} "
          f"({deployment.node.resources.cpu_slots} CPU slots, "
          f"{deployment.node.resources.gpu_count} GPUs)")
    for device in deployment.gpu_host.devices:
        print(f"  GPU {device.minor_number}: {device.arch.name}, "
              f"{device.fb_total_mib} MiB, {device.arch.sm_count} SMs, "
              f"{device.arch.cuda_cores} cores")
    print(f"driver {deployment.gpu_host.driver_version}, "
          f"CUDA {deployment.gpu_host.cuda_version}")
    print("installed tools:")
    for tool_id, tool in sorted(deployment.app.tools.items()):
        tag = "gpu" if tool.requires_gpu else "cpu"
        ids = ",".join(tool.requested_gpu_ids) or "-"
        print(f"  {tool_id:<10} [{tag}] requested GPU ids: {ids}")
    print("destinations:", ", ".join(sorted(deployment.job_config.destinations)))
    return 0


def cmd_smi(args: argparse.Namespace) -> int:
    from repro.gpusim.smi import render_table

    deployment = _fresh(("racon",) if args.demo else ())
    if args.demo:
        deployment.launch_tool("racon", {"workload": "unit"})
    print(render_table(deployment.gpu_host), end="")
    return 0


def _print_job(job) -> None:
    print(f"state:        {job.state.value}")
    print(f"destination:  {job.metrics.destination_id}")
    print(f"command:      {job.command_line}")
    print(f"environment:  {job.environment}")
    print(f"gpu ids:      {job.metrics.gpu_ids or '-'}")
    runtime = job.metrics.runtime_seconds
    if runtime is not None:
        if runtime > 7200:
            print(f"runtime:      {runtime / 3600:.2f} h (virtual)")
        else:
            print(f"runtime:      {runtime:.3f} s (virtual)")
    if job.metrics.breakdown:
        print("breakdown:")
        for key, value in job.metrics.breakdown.items():
            print(f"  {key:<22}{value:.4f} s")
    if job.stdout:
        print(f"stdout:       {job.stdout}")
    if job.stderr:
        print(f"stderr:       {job.stderr}")


def cmd_racon(args: argparse.Namespace) -> int:
    deployment = _fresh(("racon",), args.allocation)
    params = {
        "threads": args.threads,
        "batches": args.batches,
        "banding": "true" if args.banded else "false",
        "workload": args.workload,
    }
    if args.dataset:
        params["dataset"] = args.dataset
    if args.container:
        deployment.route_tool_to("racon", "docker_dynamic")
    job = deployment.run_tool("racon", params)
    _print_job(job)
    return 0 if job.exit_code == 0 else 1


def cmd_bonito(args: argparse.Namespace) -> int:
    deployment = _fresh(("bonito",), args.allocation)
    params = {"workload": args.workload}
    if args.dataset:
        params["dataset"] = args.dataset
    job = deployment.run_tool("bonito", params)
    _print_job(job)
    return 0 if job.exit_code == 0 else 1


def cmd_topo(args: argparse.Namespace) -> int:
    from repro.gpusim.host import make_k80_host
    from repro.gpusim.smi import render_topology

    if args.boards < 1:
        print(f"topo: --boards must be 1 or more, got {args.boards}",
              file=sys.stderr)
        return 2
    print(render_topology(make_k80_host(boards=args.boards)), end="")
    return 0


def cmd_cases(args: argparse.Namespace) -> int:
    from repro.gpusim.smi import render_table

    unit = {"workload": "unit"}
    wanted = args.case
    if wanted in (0, 1):
        print("# Case 1: Racon->GPU0, Bonito->GPU1")
        deployment = _fresh(("racon", "bonito"))
        deployment.launch_tool("racon", unit)
        deployment.launch_tool("bonito", unit)
        print(render_table(deployment.gpu_host))
    if wanted in (0, 2):
        print("# Case 2: second Bonito diverted off busy GPU 1")
        deployment = _fresh(("bonito",))
        deployment.launch_tool("bonito", unit)
        deployment.launch_tool("bonito", unit)
        print(render_table(deployment.gpu_host))
    if wanted in (0, 3):
        print("# Case 3: four Racons, PID strategy")
        deployment = _fresh(("racon",))
        for _ in range(4):
            deployment.launch_tool("racon", unit)
        print(render_table(deployment.gpu_host))
    if wanted in (0, 4):
        print("# Case 4: memory strategy picks min-memory GPU")
        deployment = _fresh(("racon", "bonito"), "memory")
        deployment.launch_tool("racon", unit)
        bonito1 = deployment.launch_tool("bonito", unit)
        deployment.gpu_host.device(1).alloc(
            2674 * 1024**2, pid=bonito1.host_process.pid
        )
        deployment.launch_tool("bonito", unit)
        print(render_table(deployment.gpu_host))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.tools.bonito.perf_model import BonitoPerfModel
    from repro.tools.racon.perf_model import RaconPerfModel
    from repro.workloads.datasets import (
        ACINETOBACTER_PITTII,
        KLEBSIELLA_KSB2,
    )

    name = args.name
    if name == "all":
        from repro.reporting import render_report

        print(render_report(), end="")
        return 0
    if name == "fig3":
        model = RaconPerfModel()
        print("threads   CPU(s)   GPU(s)  GPU banded(s)")
        for threads in (1, 2, 4, 8):
            gpu = min(model.gpu_unit_time(threads, b) for b in (1, 4, 8, 16))
            banded = min(
                model.gpu_unit_time(threads, b, banded=True) for b in (1, 4, 8, 16)
            )
            print(f"{threads:>7}  {model.cpu_unit_time(threads):>7.2f}  "
                  f"{gpu:>7.2f}  {banded:>13.2f}")
    elif name == "fig5":
        model = BonitoPerfModel()
        print(f"{'dataset':<28}{'CPU (h)':>10}{'GPU (h)':>10}{'speedup':>9}")
        for dataset in (ACINETOBACTER_PITTII, KLEBSIELLA_KSB2):
            cpu = model.cpu_time(dataset).total_hours
            gpu = model.gpu_time(dataset).total_hours
            print(f"{dataset.name:<28}{cpu:>10.1f}{gpu:>10.2f}{cpu / gpu:>8.1f}x")
    elif name == "e11":
        model = RaconPerfModel()
        cpu = model.cpu_end_to_end()
        gpu = model.gpu_end_to_end()
        print(f"CPU end-to-end: {cpu.total_seconds:.1f} s "
              f"(polish {cpu.breakdown['polish']:.1f} s)")
        print(f"GPU end-to-end: {gpu.total_seconds:.1f} s")
        for key, value in gpu.breakdown.items():
            print(f"  {key:<20}{value:.4f} s")
        print(f"speedup: {model.speedup():.2f}x")
    elif name == "stalls":
        deployment = _fresh(("racon",))
        from repro.gpusim.profiler import CudaProfiler

        deployment.app.profiler = CudaProfiler()
        deployment.run_tool("racon", {"workload": "dataset"})
        stalls = deployment.app.profiler.stall_analysis()
        for key, value in stalls.as_dict().items():
            print(f"{key:<22}{value:.1f} %")
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.cluster.node import NodeCapacityError
    from repro.gpusim.errors import ClockError

    try:
        return _run_trace(args)
    except NodeCapacityError as exc:
        print(f"trace: {exc}: arrivals outrun the node; raise --interarrival "
              f"(now {args.interarrival:g} s) or lower --jobs", file=sys.stderr)
        return 1
    except (ValueError, ClockError) as exc:  # bad --jobs / --interarrival
        print(f"trace: {exc}", file=sys.stderr)
        return 2


def _run_trace(args: argparse.Namespace) -> int:
    traced = (
        args.plan is not None
        or args.emit is not None
        or args.format == "json"
    )
    if not traced:
        # The original untraced replay: stats only, zero tracing overhead.
        from repro.workloads.traces import TraceReplayer, generate_trace

        deployment = _fresh(allocation=args.allocation)
        trace = generate_trace(
            n_jobs=args.jobs, mean_interarrival_s=args.interarrival,
            seed=args.seed,
        )
        result = TraceReplayer(deployment, gpu_policy=args.policy).replay(trace)
        print(f"trace: {len(trace)} jobs, mix {trace.tool_counts()}")
        print(f"allocation={args.allocation} policy={args.policy}")
        print(f"GPU jobs:             {len(result.gpu_jobs)}")
        print(f"scattered jobs:       {result.scattered_jobs}")
        print(f"peak sharing per GPU: {result.max_concurrent_per_gpu}")
        print(f"mean completion time: {result.mean_completion_time():.2f} s")
        print(f"mean wait time:       {result.mean_wait_time():.2f} s")
        return 0

    from repro.observability.driver import trace_chaos, trace_workload

    if args.plan is not None:
        from repro.gpusim.faults import InjectionPlan

        try:
            plan = InjectionPlan.from_file(args.plan)
        except (OSError, ValueError, KeyError) as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 2
        artifacts = trace_chaos(plan)
    else:
        artifacts = trace_workload(
            jobs=args.jobs,
            interarrival=args.interarrival,
            seed=args.seed,
            allocation=args.allocation,
            policy=args.policy,
        )

    if args.emit is not None:
        for path in artifacts.write(args.emit):
            print(f"wrote {path}", file=sys.stderr)

    if args.format == "json":
        print(artifacts.summary_json(), end="")
    else:
        meta = artifacts.summary["metadata"]
        print(f"traced {meta['mode']} run: "
              f"{artifacts.summary['jobs_traced']} jobs, "
              f"{artifacts.summary['spans']} spans, "
              f"{artifacts.summary['events']} events")
        if args.emit is None:
            print(artifacts.timeline, end="")
    return 0


def _emit_findings(tool: str, report, args: argparse.Namespace) -> int:
    """The tail lint, verify, race and perf share: usage errors to stderr
    under the tool's name, the report to stdout in ``--format``, and the
    exit code ``--fail-on`` selects (0 clean, 1 findings, 2 usage)."""
    from repro.analysis.findings import Severity

    for error in report.errors:
        print(f"{tool}: {error}", file=sys.stderr)
    text = report.render_json() if args.format == "json" else report.render_text()
    # The race report's JSON document ends in its own newline.
    print(text.rstrip("\n"))
    return report.exit_code(Severity.from_name(args.fail_on))


def _listed_rules(args: argparse.Namespace) -> bool:
    """``--list-rules`` (lint, perf): print the catalogue instead of running."""
    if args.list_rules:
        from repro.analysis.linter import list_rules_text

        print(list_rules_text(), end="")
    return args.list_rules


def _devices_ok(tool: str, args: argparse.Namespace) -> bool:
    """``--devices`` describes a host: zero or more GPUs."""
    if args.devices >= 0:
        return True
    print(f"{tool}: --devices must be 0 or more, got {args.devices}",
          file=sys.stderr)
    return False


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.findings import EXIT_CLEAN, EXIT_USAGE
    from repro.analysis.linter import LintOptions, lint_paths

    if _listed_rules(args):
        return EXIT_CLEAN

    if not args.paths:
        print("lint: no paths given (try: python -m repro lint examples/ src/)",
              file=sys.stderr)
        return EXIT_USAGE
    if not _devices_ok("lint", args):
        return EXIT_USAGE

    options = LintOptions(
        device_count=args.devices,
        baseline=args.baseline,
        write_baseline_path=args.write_baseline,
    )
    return _emit_findings("lint", lint_paths(args.paths, options), args)


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.analysis.findings import EXIT_CLEAN
    from repro.analysis.perf.driver import PerfOptions, run_perf

    if _listed_rules(args):
        return EXIT_CLEAN

    paths = args.paths or ["src/repro"]
    options = PerfOptions(
        baseline=args.baseline,
        write_baseline_path=args.write_baseline,
    )
    return _emit_findings("perf", run_perf(paths, options), args)


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.workloads.chaos import resolve_plan, run_chaos

    if args.jobs is not None and args.jobs < 0:
        print(f"faults: --jobs must be 0 or more, got {args.jobs}",
              file=sys.stderr)
        return 2
    try:
        plan = resolve_plan(scenario=args.scenario, plan_file=args.plan,
                            seed=args.seed)
    except (OSError, ValueError, KeyError) as exc:
        print(f"faults: {exc}", file=sys.stderr)
        return 2

    result = run_chaos(
        plan, jobs=args.jobs,
        resilient=False if args.no_resilience else None,
    )

    spec = plan.workload
    mode = "resilient" if result.resilient else "stock (no resilience)"
    print(f"plan: {plan.name} (seed {plan.seed}, {len(plan.events)} events), "
          f"mode: {mode}")
    if spec is not None:
        detail = f"  embedded workload: {spec.jobs} job(s), tools {spec.tools}"
        if spec.expect:
            detail += f", expect: {spec.expect}"
        print(detail)
    for event in plan.events:
        target = f" device {event.device}" if event.device is not None else ""
        print(f"  t={event.time:>8.3f}s  {event.kind.value}{target}"
              f"{'  ' + event.note if event.note else ''}")

    print()
    for job in result.jobs:
        chain = (f"  resubmitted via {list(job.resubmit_chain)}"
                 if job.resubmit_chain else "")
        print(f"  {job.tool:<8} {job.state:<6} -> {job.destination}{chain}")
    if result.crashed is not None:
        print(f"  mapping crashed: {result.crashed}")
        print(f"  ({result.jobs_requested - len(result.jobs)} job(s) never "
              "submitted)")

    print()
    print(f"faults fired:        {result.faults_fired}")
    print(f"nvml errors served:  {result.nvml_errors_served}")
    print(f"container failures:  {result.container_failures_served}")
    print(f"launch requeues:     {result.launch_requeues}")
    print(f"degraded queries:    {result.degraded_queries}")
    if result.quarantine_events:
        events = ", ".join(f"GPU {d}:{k}" for d, k in result.quarantine_events)
        print(f"quarantine events:   {events}")
    print(f"survived:            {result.survived}/{result.jobs_requested}")
    return 0 if result.all_ok else 1


def cmd_storm(args: argparse.Namespace) -> int:
    if not 0.0 <= args.max_shed_fraction <= 1.0:
        print(f"storm: --max-shed-fraction must be a fraction in [0, 1], "
              f"got {args.max_shed_fraction:g}", file=sys.stderr)
        return 2
    from repro.workloads.storm import run_storm

    try:
        result = run_storm(
            jobs=args.jobs,
            seed=args.seed,
            hardened=not args.no_hardening,
            scenario=None if args.no_faults else args.scenario,
            burst_factor=args.burst_factor,
        )
    except ValueError as exc:
        print(f"storm: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(result.to_json(), end="")
    else:
        mode = "hardened (overload layer)" if result.hardened else \
            "stock (no overload protection)"
        print(f"storm: {result.jobs_requested} jobs, seed {result.seed}, "
              f"scenario {result.scenario or 'none'}, {mode}")
        print(f"admitted:           {result.admitted}")
        print(f"completed ok:       {result.completed_ok}")
        print(f"lost (admitted):    {result.lost_admitted}")
        shed = ", ".join(f"{k}={v}" for k, v in sorted(result.shed.items()))
        print(f"shed:               {result.shed_total}"
              f"{'  (' + shed + ')' if shed else ''}")
        peaks = ", ".join(
            f"{d}={p}" for d, p in sorted(result.peak_inflight.items())
        )
        print(f"peak inflight:      {peaks or 'n/a'}")
        print(f"redirects:          {result.redirects}")
        print(f"brownout peak:      rung {result.brownout_peak_level}")
        print(f"breaker trips:      {result.breaker_trips}")
        if result.crashed is not None:
            print(f"CRASHED: {result.crashed} "
                  f"({result.never_submitted} job(s) never submitted)")

    shed_fraction = (
        result.shed_total / result.jobs_requested
        if result.jobs_requested else 0.0
    )
    ok = (
        result.crashed is None
        and result.lost_admitted == 0
        and shed_fraction <= args.max_shed_fraction
    )
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.findings import EXIT_USAGE
    from repro.analysis.verifier.driver import VerifyOptions, verify_paths
    from repro.analysis.verifier.model_check import Scope

    if not args.paths:
        print("verify: no paths given "
              "(try: python -m repro verify examples/configs/)",
              file=sys.stderr)
        return EXIT_USAGE

    try:
        parts = [int(p) for p in args.scope.split(",")]
        if len(parts) != 3:
            raise ValueError("expected three comma-separated integers")
        scope = Scope(devices=parts[0], jobs=parts[1], faults=parts[2])
    except ValueError as exc:
        print(f"verify: bad --scope {args.scope!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not _devices_ok("verify", args):
        return EXIT_USAGE

    options = VerifyOptions(
        device_count=args.devices,
        scope=scope,
        model_check=not args.no_model_check,
        emit_plans=args.emit_plans,
    )
    return _emit_findings("verify", verify_paths(args.paths, options), args)


def cmd_race(args: argparse.Namespace) -> int:
    from repro.analysis.findings import EXIT_CLEAN, EXIT_USAGE
    from repro.analysis.race.checker import get_scenario, scenario_names
    from repro.analysis.race.driver import (
        RaceOptions,
        run_race,
        run_schedule_replay,
    )

    if args.list_scenarios:
        for name in scenario_names():
            scenario = get_scenario(name)
            tag = "" if scenario.default else "  [seeded-bad]"
            print(f"{name:<18}{scenario.description}{tag}")
        return EXIT_CLEAN

    if args.schedule is not None:
        report = run_schedule_replay(args.schedule)
    else:
        if args.static_only and args.dynamic_only:
            print("race: --static-only and --dynamic-only are mutually "
                  "exclusive", file=sys.stderr)
            return EXIT_USAGE
        if args.permutations < 1:
            print(f"race: --permutations must be 1 or more, got "
                  f"{args.permutations}", file=sys.stderr)
            return EXIT_USAGE
        options = RaceOptions(
            paths=args.paths,
            scenarios=args.scenarios,
            permutations=args.permutations,
            seed=args.seed,
            run_static=not args.dynamic_only,
            run_dynamic=not args.static_only,
        )
        report = run_race(options)
    return _emit_findings("race", report, args)


def _fleet_autoscale_config(args: argparse.Namespace):
    from repro.cluster.autoscale import AutoscalerConfig

    if not args.autoscale:
        return None
    return AutoscalerConfig(
        min_nodes=args.min_nodes,
        max_nodes=args.max_nodes if args.max_nodes is not None else args.nodes,
        eval_interval_s=args.eval_interval,
        provision_lag_s=args.provision_lag,
        scale_up_step=args.scale_up_step,
        scale_down_step=args.scale_down_step,
        hysteresis_windows=args.hysteresis,
        cooldown_s=args.cooldown,
    )


def _fleet_parity_errors(result, config, tools, batches) -> list[str]:
    """Run the per-job reference over the batch objects the columnar
    ``result`` came from; list every field that diverges."""
    from repro.cluster.fleet_reference import ObjectFleetReference

    reference = ObjectFleetReference(config, tools)
    store = reference.run(batches)
    checks = [
        ("store_digest", result.store_digest, store.digest()),
        ("submitted", result.jobs_submitted, reference.counts["submitted"]),
        ("completed", result.completed, reference.counts["completed"]),
        ("shed", result.shed, reference.shed),
        ("failed", result.failed, reference.counts["failed"]),
        ("node_seconds", result.node_seconds, reference.meter.total),
    ]
    return [
        f"{name}: columnar={ours!r} reference={theirs!r}"
        for name, ours, theirs in checks
        if ours != theirs
    ]


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.cluster.fleet import FleetConfig, FleetSimulator
    from repro.cluster.jobstore import gpu_wait_percentile
    from repro.observability.export import render_document
    from repro.workloads.diurnal import (
        AB_STORM_DURATION,
        AB_STORM_START,
        DiurnalProfile,
        ab_storm_profile,
    )

    storm_lo = AB_STORM_START
    storm_hi = AB_STORM_START + AB_STORM_DURATION
    try:
        autoscale = _fleet_autoscale_config(args)
        if args.ab or args.storm:
            profile = ab_storm_profile(args.jobs, seed=args.seed)
        else:
            profile = DiurnalProfile(seed=args.seed).scaled_to(args.jobs)
        policies = list(args.ab_policies) if args.ab else [args.policy]
        runs = []
        for policy in policies:
            config = FleetConfig(
                nodes=args.nodes,
                gpus_per_node=args.gpus_per_node,
                queue_limit=args.queue_limit,
                placement=policy,
                autoscale=autoscale,
            )
            simulator = FleetSimulator(config, profile.tools)
            result = simulator.run(profile.batches)
            if args.check_parity:
                errors = _fleet_parity_errors(
                    result, config, profile.tools, profile.batches
                )
                if errors:
                    for error in errors:
                        print(f"fleet: parity mismatch [{policy}] {error}",
                              file=sys.stderr)
                    return 1
            p95 = gpu_wait_percentile(
                simulator.store, 0.95, storm_lo, storm_hi
            )
            runs.append((policy, result, p95))
    except ValueError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        if args.ab:
            payload = {
                "schema": "gyan.fleet-ab/v1",
                "jobs": args.jobs,
                "seed": args.seed,
                "storm": [storm_lo, storm_hi],
                "runs": {
                    policy: {
                        **result.to_dict(),
                        "storm_gpu_wait_p95": round(p95, 6),
                    }
                    for policy, result, p95 in runs
                },
            }
            print(render_document(payload), end="")
        else:
            print(runs[0][1].to_json(), end="")
        return 0

    for policy, result, p95 in runs:
        shed_total = sum(result.shed.values())
        print(f"policy {policy}: {result.jobs_submitted} jobs on "
              f"{result.nodes}x{result.gpus_per_node} "
              f"(peak {result.peak_nodes} nodes)")
        print(f"  completed:     {result.completed}")
        print(f"  degraded:      {result.degraded}")
        print(f"  shed:          {shed_total}")
        print(f"  failed:        {result.failed}")
        print(f"  node-seconds:  {result.node_seconds:.0f}")
        print(f"  storm p95 GPU wait: {p95:.1f}s")
        if result.scale_ups or result.scale_downs:
            print(f"  scale events:  {result.scale_ups} up / "
                  f"{result.scale_downs} down "
                  f"({result.provisioned_nodes} provisioned, "
                  f"{result.decommissioned_nodes} decommissioned)")
        print(f"  digest:        {result.store_digest[:16]}…")
    if args.check_parity:
        print("parity: columnar and reference runs are bit-identical")
    return 0


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #
def _smi_arguments(smi: argparse.ArgumentParser) -> None:
    smi.add_argument("--demo", action="store_true",
                     help="launch a demo GPU job before rendering")


def _topo_arguments(topo: argparse.ArgumentParser) -> None:
    topo.add_argument("--boards", type=int, default=2)


def _racon_arguments(racon: argparse.ArgumentParser) -> None:
    racon.add_argument("--threads", type=int, default=4)
    racon.add_argument("--batches", type=int, default=1)
    racon.add_argument("--banded", action="store_true")
    racon.add_argument("--workload", choices=("unit", "dataset"), default="unit")
    racon.add_argument("--dataset", default=None)
    racon.add_argument("--container", action="store_true",
                       help="run via the Docker destination")
    racon.add_argument("--allocation", choices=("pid", "memory", "utilization"),
                       default="pid")


def _bonito_arguments(bonito: argparse.ArgumentParser) -> None:
    bonito.add_argument("--workload", choices=("unit", "dataset"), default="dataset")
    bonito.add_argument("--dataset", default="Acinetobacter_pittii")
    bonito.add_argument("--allocation", choices=("pid", "memory", "utilization"),
                        default="pid")


def _cases_arguments(cases: argparse.ArgumentParser) -> None:
    cases.add_argument("--case", type=int, choices=(0, 1, 2, 3, 4), default=0,
                       help="which case (0 = all)")


def _experiment_arguments(experiment: argparse.ArgumentParser) -> None:
    experiment.add_argument("name", choices=("all", "fig3", "fig5", "e11", "stalls"))


def _trace_arguments(trace: argparse.ArgumentParser) -> None:
    trace.add_argument("--jobs", type=int, default=20)
    trace.add_argument("--interarrival", type=float, default=2.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--allocation", choices=("pid", "memory", "utilization"),
                       default="pid")
    trace.add_argument("--policy", choices=("place", "wait"), default="place")
    trace.add_argument("--plan", type=Path, default=None, metavar="FILE",
                       help="replay a fault-injection plan (JSON) with "
                            "tracing enabled instead of a Poisson workload")
    trace.add_argument("--emit", type=Path, default=None, metavar="DIR",
                       help="write the trace artifacts (Perfetto JSON, "
                            "Prometheus metrics, per-job timeline, summary) "
                            "into DIR; implies tracing")
    trace.add_argument("--format", choices=("text", "json"), default="text",
                       help="json prints the byte-stable run summary; "
                            "implies tracing")


#: The flags the analyzer verbs share, declared once: ``--format`` and
#: ``--fail-on`` on all four, the rest on ``lint`` and ``perf``.  A verb
#: names the ones it takes, in its own ``--help`` order.
_ANALYZER_FLAGS: dict[str, dict] = {
    "--format": dict(choices=("text", "json"), default="text"),
    "--fail-on": dict(choices=("error", "warning", "info"), default="error",
                      help="lowest severity that makes the exit code "
                           "nonzero"),
    "--list-rules": dict(action="store_true",
                         help="print the rule catalogue and exit"),
    "--baseline": dict(default=None, metavar="FILE",
                       help="subtract a gyan.baseline/v1 capture: only new "
                            "findings affect the exit code (the ratchet)"),
    "--write-baseline": dict(default=None, metavar="FILE",
                             help="capture this run's findings as a byte-"
                                  "deterministic baseline file"),
}


def _analyzer_flags(
    parser: argparse.ArgumentParser, *flags: str, **extra: str
) -> None:
    for flag in flags:
        parser.add_argument(flag, **_ANALYZER_FLAGS[flag], **extra)


def _lint_arguments(lint: argparse.ArgumentParser) -> None:
    lint.add_argument("paths", nargs="*",
                      help="files or directories (.xml configs, .py sources)")
    _analyzer_flags(lint, "--format", "--fail-on")
    lint.add_argument("--devices", type=int, default=2,
                      help="GPU device count of the target host (default: "
                           "the paper's 2-die K80 testbed)")
    _analyzer_flags(lint, "--list-rules", "--baseline", "--write-baseline")


def _perf_arguments(perf: argparse.ArgumentParser) -> None:
    perf.add_argument("paths", nargs="*",
                      help="files or directories of .py sources "
                           "(default: src/repro)")
    _analyzer_flags(perf, "--format", help="json emits the byte-"
                    "deterministic gyan.perf/v1 report")
    _analyzer_flags(perf, "--fail-on", "--baseline", "--write-baseline",
                    "--list-rules")


def _faults_arguments(faults: argparse.ArgumentParser) -> None:
    faults.add_argument("--scenario", default="k80-die-midrun",
                        help="named scenario (see repro.gpusim.faults.SCENARIOS)")
    faults.add_argument("--plan", default=None,
                        help="JSON injection plan file (overrides --scenario)")
    faults.add_argument("--jobs", type=int, default=None,
                        help="how many alternating Racon/Bonito jobs to run "
                             "(default: the plan's embedded workload, else 8)")
    faults.add_argument("--seed", type=int, default=0,
                        help="scenario seed (plans are (name, seed)-determined)")
    faults.add_argument("--no-resilience", action="store_true",
                        help="run the stock, fragile deployment for comparison")


def _storm_arguments(storm: argparse.ArgumentParser) -> None:
    storm.add_argument("--jobs", type=int, default=48,
                       help="submissions in the storm trace")
    storm.add_argument("--seed", type=int, default=0,
                       help="seed for both the trace and the fault scenario")
    storm.add_argument("--burst-factor", type=float, default=10.0,
                       help="arrival-rate multiplier inside burst windows")
    storm.add_argument("--scenario", default="burst-storm",
                       help="fault scenario armed alongside the storm")
    storm.add_argument("--no-faults", action="store_true",
                       help="pure load storm, no injected faults")
    storm.add_argument("--no-hardening", action="store_true",
                       help="run the stock deployment (no overload layer) "
                            "for comparison")
    storm.add_argument("--max-shed-fraction", type=float, default=0.5,
                       help="fail (exit 1) when more than this fraction of "
                            "jobs is shed")
    storm.add_argument("--format", choices=("text", "json"), default="text")


def _verify_arguments(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("paths", nargs="*",
                        help="files or directories (job_conf.xml, tool "
                             "wrappers, chaos-plan JSON)")
    _analyzer_flags(verify, "--format", "--fail-on")
    verify.add_argument("--devices", type=int, default=2,
                        help="GPU device count of the target host (default: "
                             "the paper's 2-die K80 testbed)")
    verify.add_argument("--scope", default="2,3,4",
                        help="model-check bounds as devices,jobs,faults "
                             "(default 2,3,4; hard caps 2,3,4)")
    verify.add_argument("--no-model-check", action="store_true",
                        help="skip the VER4xx exhaustive pass (static "
                             "passes only)")
    verify.add_argument("--emit-plans", default=None, metavar="DIR",
                        help="write each VER4xx counterexample as a "
                             "replayable chaos-plan JSON into DIR")


def _fleet_arguments(fleet: argparse.ArgumentParser) -> None:
    from repro.cluster.autoscale import PLACEMENT_POLICIES, PLACEMENT_SPREAD
    from repro.cluster.fleet import (
        AB_FLEET_GPUS_PER_NODE,
        AB_FLEET_JOBS,
        AB_FLEET_NODES,
        AB_FLEET_QUEUE_LIMIT,
        AB_FLEET_SEED,
    )

    fleet.add_argument("--nodes", type=int, default=AB_FLEET_NODES,
                       help="fleet chassis count (default: %(default)s)")
    fleet.add_argument("--gpus-per-node", type=int,
                       default=AB_FLEET_GPUS_PER_NODE,
                       help="GPUs per node (default: %(default)s)")
    fleet.add_argument("--queue-limit", type=int,
                       default=AB_FLEET_QUEUE_LIMIT,
                       help="bounded per-node queue depth "
                            "(default: %(default)s)")
    fleet.add_argument("--jobs", type=int, default=AB_FLEET_JOBS,
                       help="target jobs over the day (default: %(default)s)")
    fleet.add_argument("--seed", type=int, default=AB_FLEET_SEED,
                       help="diurnal workload seed (default: %(default)s)")
    fleet.add_argument("--policy", choices=PLACEMENT_POLICIES,
                       default=PLACEMENT_SPREAD,
                       help="placement policy (default: %(default)s)")
    fleet.add_argument("--storm", action="store_true",
                       help="ride the canonical midday A/B burst storm")
    fleet.add_argument("--ab", action="store_true",
                       help="run every placement policy on the canonical "
                            "storm fixture and emit a comparison")
    fleet.add_argument("--check-parity", action="store_true",
                       help="also run the per-job-object reference model "
                            "and fail unless bit-identical")
    fleet.add_argument("--autoscale", action="store_true",
                       help="enable the elastic node pool")
    fleet.add_argument("--min-nodes", type=int, default=10,
                       help="autoscale: always-on base pool size "
                            "(default: %(default)s)")
    fleet.add_argument("--max-nodes", type=int, default=None,
                       help="autoscale: elastic ceiling "
                            "(default: --nodes)")
    fleet.add_argument("--eval-interval", type=float, default=300.0,
                       help="autoscale: seconds between evaluations "
                            "(default: %(default)s)")
    fleet.add_argument("--provision-lag", type=float, default=900.0,
                       help="autoscale: delay before ordered nodes arrive "
                            "warm (default: %(default)s)")
    fleet.add_argument("--scale-up-step", type=int, default=8,
                       help="autoscale: max nodes ordered per evaluation "
                            "(default: %(default)s)")
    fleet.add_argument("--scale-down-step", type=int, default=4,
                       help="autoscale: max nodes drained per evaluation "
                            "(default: %(default)s)")
    fleet.add_argument("--hysteresis", type=int, default=2,
                       help="autoscale: consecutive windows before acting "
                            "(default: %(default)s)")
    fleet.add_argument("--cooldown", type=float, default=600.0,
                       help="autoscale: seconds between scale actions "
                            "(default: %(default)s)")
    fleet.add_argument("--format", choices=("text", "json"), default="text")
    fleet.set_defaults(ab_policies=PLACEMENT_POLICIES)


def _race_arguments(race: argparse.ArgumentParser) -> None:
    race.add_argument("paths", nargs="*",
                      help="files or directories for the static DET4xx "
                           "pass (.py sources; default: none)")
    race.add_argument("--scenario", action="append", dest="scenarios",
                      metavar="NAME",
                      help="permute only the named scenario (repeatable; "
                           "default: every non-seeded-bad scenario)")
    race.add_argument("--permutations", type=int, default=3,
                      help="max seeded permutations tried per "
                           "non-commutative tie (default 3)")
    race.add_argument("--seed", type=int, default=0,
                      help="seed for the tie-permutation generator")
    race.add_argument("--schedule", type=Path, default=None, metavar="FILE",
                      help="replay a saved gyan.race/v1 tie-flip schedule "
                           "and report whether the divergence reproduces")
    race.add_argument("--static-only", action="store_true",
                      help="run only the DET4xx AST pass")
    race.add_argument("--dynamic-only", action="store_true",
                      help="run only the happens-before scenario pass")
    _analyzer_flags(race, "--format", "--fail-on")
    race.add_argument("--list-scenarios", action="store_true",
                      help="list dynamic scenario names and exit")


#: name -> (help, add_arguments or None, handler): the one place commands
#: are declared; :func:`build_parser` registers all of them or just one.
_COMMANDS = {
    "info": ("show the default deployment", None, cmd_info),
    "smi": ("render the simulated nvidia-smi table", _smi_arguments, cmd_smi),
    "topo": ("render the GPU topology matrix", _topo_arguments, cmd_topo),
    "racon": ("run the Racon tool through GYAN", _racon_arguments, cmd_racon),
    "bonito": ("run the Bonito tool through GYAN", _bonito_arguments,
               cmd_bonito),
    "cases": ("replay the multi-GPU cases", _cases_arguments, cmd_cases),
    "experiment": ("regenerate a headline result", _experiment_arguments,
                   cmd_experiment),
    "trace": ("replay a Poisson arrival trace and print scheduling stats",
              _trace_arguments, cmd_trace),
    "lint": ("statically analyze GYAN configs and repro sources",
             _lint_arguments, cmd_lint),
    "perf": ("static performance analysis (PERF6xx): error on @hot_path "
             "code and its callees, info elsewhere", _perf_arguments,
             cmd_perf),
    "faults": ("run a chaos scenario and report job survival",
               _faults_arguments, cmd_faults),
    "storm": ("drive a burst-arrival storm and report the overload ledger",
              _storm_arguments, cmd_storm),
    "verify": ("whole-deployment verification: dataflow, capacity, and "
               "small-scope model checking", _verify_arguments, cmd_verify),
    "fleet": ("run the fleet-scale simulator (placement + autoscaling)",
              _fleet_arguments, cmd_fleet),
    "race": ("determinism checker: DET4xx static rules + happens-before "
             "tie permutation (DET5xx)", _race_arguments, cmd_race),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` parser with every command, or with just ``only``
    (a declared command name; anything else is a ``KeyError``).

    One CLI call runs one command, so :func:`main` passes ``argv[0]``
    when it names one and pays for a single sub-parser.  The top-level
    usage line (printed with "unrecognized arguments") still lists every
    command: with ``only`` the list is given as the metavar argparse
    would otherwise derive from the registered choices.
    """
    parser = argparse.ArgumentParser(
        prog="repro", description="GYAN reproduction command line"
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{%s}" % ",".join(_COMMANDS),
    )
    for name in _COMMANDS if only is None else (only,):
        help_text, add_arguments, handler = _COMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        if add_arguments is not None:
            add_arguments(command)
        command.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    # GYAN_SIMSAN=1 sanitizes any command; unset, skip importing repro.analysis.
    if os.environ.get("GYAN_SIMSAN"):
        from repro.analysis import sanitizer as simsan

        simsan.install_from_env()
    argv = sys.argv[1:] if argv is None else list(argv)
    # Anything but a known command first (--help, a typo, nothing) gets
    # the full parser and so the full help and error text.
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(only).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
