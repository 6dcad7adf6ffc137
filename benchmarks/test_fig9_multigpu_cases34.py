"""Figure 9 — multi-GPU support Cases 3 and 4.

Case 3 (PID strategy, containerized): four Racon instances — the first
two fill GPUs 0 and 1 exclusively; the remaining two, finding every GPU
busy, are scattered across both (Fig. 11's console output).
Case 4 (Memory strategy): Racon on GPU 0, Bonito on GPU 1 (heavy
footprint); a second Bonito goes to the GPU with minimum used memory —
GPU 0 with its 60 MiB — rather than being spread across all devices.
"""


from repro.gpusim.smi import process_placement


UNIT = {"workload": "unit"}


def run_cases(fresh_deployment):
    results = {}

    # -- Case 3: four containerized Racons under the PID strategy ----- #
    dep = fresh_deployment(allocation_strategy="pid")
    dep.route_tool_to("racon", "docker_dynamic")
    dep.registry.pull("gulsumgudukbay/racon_dockerfile:latest")
    launched = [dep.launch_tool("racon", UNIT) for _ in range(4)]
    results["case3_pids"] = [l.host_process.pid for l in launched]
    results["case3_placement"] = process_placement(dep.gpu_host)
    results["case3_commands"] = [r.command_line for r in dep.docker_runtime.run_log]

    # -- Case 4: mixed tools under the Memory strategy ------------------ #
    dep4 = fresh_deployment(allocation_strategy="memory")
    racon = dep4.launch_tool("racon", UNIT)
    bonito1 = dep4.launch_tool("bonito", UNIT)
    # Bonito's resident network: Fig. 10 shows 2734 MiB on its GPU.
    dep4.gpu_host.device(1).alloc(2674 * 1024**2, pid=bonito1.host_process.pid)
    bonito2 = dep4.launch_tool("bonito", UNIT)
    results["case4_pids"] = (
        racon.host_process.pid,
        bonito1.host_process.pid,
        bonito2.host_process.pid,
    )
    results["case4_placement"] = process_placement(dep4.gpu_host)
    results["case4_fb"] = {
        d.minor_number: d.fb_used_mib for d in dep4.gpu_host.devices
    }
    return results


def test_fig9_multigpu_cases34(benchmark, report, fresh_deployment):
    results = benchmark.pedantic(
        run_cases, args=(fresh_deployment,), rounds=1, iterations=1
    )

    pids = results["case3_pids"]
    placement3 = results["case3_placement"]
    report.add("Case 3: four containerized Racon instances, PID allocation")
    report.table(["GPU", "PIDs"], [[g, p] for g, p in placement3.items()])
    # first -> GPU 0 alone among firsts; second -> GPU 1; 3rd+4th scattered
    assert placement3[0][0] == pids[0]
    assert placement3[1][0] == pids[1]
    for pid in pids[2:]:
        assert pid in placement3[0] and pid in placement3[1]
    assert len(placement3[0]) == 3 and len(placement3[1]) == 3  # Fig. 11
    assert all("--gpus all" in c for c in results["case3_commands"])

    racon_pid, bonito1_pid, bonito2_pid = results["case4_pids"]
    placement4 = results["case4_placement"]
    report.add()
    report.add("Case 4: Racon + Bonito + second Bonito, Memory allocation")
    report.table(
        ["GPU", "PIDs", "fb used (MiB)"],
        [[g, placement4[g], results["case4_fb"][g]] for g in placement4],
    )
    assert placement4[0][0] == racon_pid
    assert placement4[1] == [bonito1_pid]
    # The second Bonito joins GPU 0 (min memory), on a single device.
    assert bonito2_pid in placement4[0]
    assert bonito2_pid not in placement4[1]
    assert results["case4_fb"][1] > results["case4_fb"][0]

    benchmark.extra_info["case3"] = {str(k): v for k, v in placement3.items()}
    benchmark.extra_info["case4"] = {str(k): v for k, v in placement4.items()}
    report.finish()
