"""Ablation A1 — PID vs Memory allocation under contention.

DESIGN.md calls out the §IV-C design choice: the Process-ID strategy
scatters overflow jobs across all GPUs, while the Process-Allocated-
Memory strategy packs each onto the single least-loaded device.  This
ablation submits a burst of mixed jobs under both strategies and
compares (a) how many jobs end up spread across multiple devices and
(b) the peak memory imbalance between devices.
"""


from repro.gpusim.smi import process_placement

BURST = ["racon", "bonito", "bonito", "racon", "bonito", "racon"]
MIB = 1024**2
#: Simulated resident footprint per tool while running.
FOOTPRINT = {"racon": 400 * MIB, "bonito": 2000 * MIB}


def run_burst(fresh_deployment, strategy):
    deployment = fresh_deployment(allocation_strategy=strategy)
    launched = []
    for tool_id in BURST:
        handle = deployment.launch_tool(tool_id, {"workload": "unit"})
        pid = handle.host_process.pid
        for index in handle.host_process.device_indices:
            deployment.gpu_host.device(index).alloc(
                FOOTPRINT[tool_id] // len(handle.host_process.device_indices), pid=pid
            )
        launched.append((tool_id, handle))
    devices = deployment.gpu_host.devices
    return {
        "placement": process_placement(deployment.gpu_host),
        "spread_jobs": sum(
            1 for _, h in launched if len(h.host_process.device_indices) > 1
        ),
        "fb": [d.fb_used_mib for d in devices],
        "imbalance": max(d.fb_used_mib for d in devices)
        - min(d.fb_used_mib for d in devices),
    }


def run_both(fresh_deployment):
    return {
        strategy: run_burst(fresh_deployment, strategy)
        for strategy in ("pid", "memory")
    }


def test_ablation_allocation(benchmark, report, fresh_deployment):
    results = benchmark.pedantic(
        run_both, args=(fresh_deployment,), rounds=1, iterations=1
    )
    report.add(f"Burst of {len(BURST)} overlapping jobs: {BURST}")
    report.table(
        ["strategy", "multi-GPU jobs", "fb per device (MiB)", "imbalance (MiB)"],
        [
            [name, r["spread_jobs"], r["fb"], r["imbalance"]]
            for name, r in results.items()
        ],
    )

    pid, memory = results["pid"], results["memory"]
    # PID scatters overflow jobs; Memory never exposes more than one GPU.
    assert pid["spread_jobs"] > 0
    assert memory["spread_jobs"] == 0
    # Memory balancing yields equal-or-lower peak imbalance.
    assert memory["imbalance"] <= pid["imbalance"] + 200
    # Every device hosts work under both strategies (no starvation).
    for r in results.values():
        assert all(pids for pids in r["placement"].values())

    benchmark.extra_info["results"] = {
        k: {"spread": v["spread_jobs"], "imbalance": v["imbalance"]}
        for k, v in results.items()
    }
    report.finish()
