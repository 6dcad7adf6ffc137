"""Ablation A5 — placement policies on a small multi-node fleet.

The paper's abstract scopes GYAN to "single or multiple GPU nodes based
on the availability in the cluster"; its evaluation uses one node.  This
ablation scales the availability rule up through the fleet tier's node
indexes: three short traces on 2 nodes x 2 GPUs with no queue room (a
job that finds no free GPU degrades to the CPU arm), each run under
every placement policy, reporting where and when each job started.

* burst — six degradable racon-like jobs one second apart: every policy
  fills node 0's GPUs, then node 1's, then falls back to the CPU;
* spread vs pack — a late job after node 0 has emptied: ``spread``
  takes the lowest free node, ``pack`` the fullest one;
* benefit reserve — a low-benefit job arriving when only the reserved
  slot is free: ``benefit-aware`` degrades it, ``spread`` spends it.
"""

from repro.cluster.fleet import FleetConfig, FleetSimulator
from repro.cluster.placement import NODE_INDEXES
from repro.workloads.diurnal import DEFAULT_FLEET_TOOLS, ArrivalBatch, FleetToolClass

RACON, BONITO, SHORT, LONG = range(4)
TOOLS = (
    DEFAULT_FLEET_TOOLS[0],  # racon_gpu: degradable, GPU benefit 10 (low)
    DEFAULT_FLEET_TOOLS[1],  # bonito_gpu: GPU benefit 24 (high)
    FleetToolClass("short_gpu", True, 100.0, 2_000.0, 0.0),
    FleetToolClass("long_gpu", True, 300.0, 6_000.0, 0.0),
)

#: trace → (gpu_reserve_fraction, arrival batches)
TRACES = {
    "burst": (0.10, [ArrivalBatch(float(t), RACON, 1) for t in range(6)]),
    "spread vs pack": (0.10, [
        ArrivalBatch(0.0, SHORT, 2),
        ArrivalBatch(0.0, LONG, 1),
        ArrivalBatch(150.0, LONG, 1),
    ]),
    "benefit reserve": (0.25, [
        ArrivalBatch(0.0, BONITO, 3),
        ArrivalBatch(1.0, RACON, 1),
    ]),
}

CPU = -1  # the store's destination for a CPU-arm job


def run_trace(policy, reserve, batches):
    """Rows ``(destination, gpu, start)`` of one trace under one policy."""
    config = FleetConfig(
        nodes=2, gpus_per_node=2, queue_limit=0, placement=policy,
        gpu_reserve_fraction=reserve,
    )
    simulator = FleetSimulator(config, TOOLS)
    simulator.run(batches)
    return [(r.destination, r.gpu, r.start) for r in simulator.store.rows()]


def run_all():
    return {
        trace: {
            policy: run_trace(policy, reserve, batches)
            for policy in NODE_INDEXES
        }
        for trace, (reserve, batches) in TRACES.items()
    }


def placements(rows):
    return " ".join(
        f"{'cpu' if node == CPU else f'n{node}'}@{start:g}"
        for node, _gpu, start in rows
    )


def test_ablation_cluster(benchmark, report):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report.add("3 traces on 2 nodes x 2 GPUs, queue_limit=0 (node@start)")
    report.table(
        ["trace", "policy", "index", "placements"],
        [
            [trace, policy, NODE_INDEXES[policy].__name__, placements(rows)]
            for trace, by_policy in results.items()
            for policy, rows in by_policy.items()
        ],
    )

    # The availability rule fills node 0's GPUs before spilling to node
    # 1, and the CPU arm takes what no GPU can — under every policy.
    burst = [(0, True, 0), (0, True, 1), (1, True, 2), (1, True, 3),
             (CPU, False, 4), (CPU, False, 5)]
    for policy, rows in results["burst"].items():
        assert rows == burst, policy

    # Node 0 has emptied, node 1 still runs a long job: spread takes the
    # lowest free node, pack the fullest one.
    late = {policy: rows[-1] for policy, rows
            in results["spread vs pack"].items()}
    assert late == {
        "spread": (0, True, 150), "pack": (1, True, 150),
        "benefit-aware": (0, True, 150),
    }

    # Only the reserved slot is free: benefit-aware keeps it for
    # high-benefit work and degrades the low-benefit job to the CPU.
    low = {policy: rows[-1] for policy, rows
           in results["benefit reserve"].items()}
    assert low == {
        "spread": (1, True, 1), "pack": (1, True, 1),
        "benefit-aware": (CPU, False, 1),
    }

    benchmark.extra_info["results"] = results
    report.finish()
