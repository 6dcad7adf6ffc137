"""Multi-node GPU-aware dispatch."""

import pytest

from repro.cluster.multinode import (
    POLICIES,
    ClusterDispatcher,
    FirstAvailableGpuPolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    build_cluster,
    node_load,
)
from repro.galaxy.job import JobState


@pytest.fixture
def cluster():
    return build_cluster(gpu_nodes=2, cpu_nodes=1)


class TestBuildCluster:
    def test_topology(self, cluster):
        names = sorted(n.hostname for n in cluster.nodes)
        assert names == ["cpu-node-0", "gpu-node-0", "gpu-node-1"]
        assert sum(1 for n in cluster.nodes if n.has_gpus) == 2

    def test_shared_clock(self, cluster):
        clocks = {id(d.clock) for d in cluster.deployments.values()}
        assert len(clocks) == 1

    def test_loads_shape(self, cluster):
        loads = cluster.loads()
        assert [l.hostname for l in loads] == ["cpu-node-0", "gpu-node-0", "gpu-node-1"]
        assert loads[1].gpu_total == 2 and loads[1].gpu_idle == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build_cluster(gpu_nodes=1, policy="random")

    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            ClusterDispatcher([])


class TestFirstAvailableGpuPolicy:
    def test_gpu_tool_goes_to_first_gpu_node(self, cluster):
        job = cluster.submit_and_run("racon", {"workload": "unit"})
        assert job.state is JobState.OK
        assert cluster.history[-1].hostname == "gpu-node-0"
        assert cluster.history[-1].wants_gpu

    def test_cpu_tool_goes_to_cpu_node(self, cluster):
        cluster.submit_and_run("seqstats", {"threads": 1})
        assert cluster.history[-1].hostname == "cpu-node-0"
        assert not cluster.history[-1].wants_gpu

    def test_overflow_spills_to_second_gpu_node(self, cluster):
        """Fill node 0's GPUs with overlapped jobs; the next GPU job
        lands on node 1 — scheduling 'on single or multiple GPU nodes
        based on the availability in the cluster'."""
        cluster.launch_overlapped("racon")   # gpu-node-0, GPU 0
        cluster.launch_overlapped("bonito")  # gpu-node-0, GPU 1
        deployment, _, handle = cluster.launch_overlapped("racon")
        assert deployment.node.hostname == "gpu-node-1"
        assert handle.host_process.device_indices == [0]

    def test_all_busy_picks_least_processes(self, cluster):
        for _ in range(2):
            cluster.launch_overlapped("racon")
            cluster.launch_overlapped("bonito")
        # all four GPUs busy; next job goes to the node with fewest procs
        deployment, _, _ = cluster.launch_overlapped("racon")
        assert deployment.node.hostname in ("gpu-node-0", "gpu-node-1")

    def test_gpu_tool_on_cpu_only_cluster_degrades(self):
        cluster = build_cluster(gpu_nodes=0, cpu_nodes=2)
        job = cluster.submit_and_run("racon", {"workload": "unit"})
        assert job.state is JobState.OK
        assert job.command_line.startswith("racon ")


class TestOtherPolicies:
    def test_round_robin_rotates(self):
        cluster = build_cluster(gpu_nodes=2, cpu_nodes=0, policy="round-robin")
        hosts = []
        for _ in range(4):
            cluster.submit_and_run("racon", {"workload": "unit"})
            hosts.append(cluster.history[-1].hostname)
        assert hosts == ["gpu-node-0", "gpu-node-1", "gpu-node-0", "gpu-node-1"]

    def test_least_loaded_balances(self):
        cluster = build_cluster(gpu_nodes=2, cpu_nodes=0, policy="least-loaded")
        cluster.launch_overlapped("racon")  # loads gpu-node-0
        deployment, _, _ = cluster.launch_overlapped("racon")
        assert deployment.node.hostname == "gpu-node-1"

    def test_policy_instances_accepted(self):
        for policy in (FirstAvailableGpuPolicy(), RoundRobinPolicy(), LeastLoadedPolicy()):
            cluster = build_cluster(gpu_nodes=1, policy=policy.name)
            assert cluster.policy.name == policy.name


class TestPlacementSequence:
    """The exact placement history of a 12-job overlapped burst, per
    policy — the literals hold whichever way a policy finds its node."""

    GPU0, GPU1, CPU0 = "gpu-node-0", "gpu-node-1", "cpu-node-0"
    EXPECTED = {
        "first-available-gpu": [
            GPU0, GPU0, CPU0, GPU1, GPU1, CPU0,
            GPU0, GPU1, CPU0, GPU0, GPU1, CPU0,
        ],
        # One shared rotation counter: seqstats always draws 2 mod 3 of
        # (cpu-node-0, gpu-node-0, gpu-node-1).
        "round-robin": [
            GPU0, GPU1, GPU1, GPU1, GPU0, GPU1,
            GPU0, GPU1, GPU1, GPU1, GPU0, GPU1,
        ],
        "least-loaded": [GPU0, GPU1, CPU0] * 4,
    }

    @pytest.mark.parametrize("policy", sorted(EXPECTED))
    def test_overlapped_burst_history(self, policy):
        cluster = build_cluster(gpu_nodes=2, cpu_nodes=1, policy=policy)
        tools = sorted(next(iter(cluster.deployments.values())).app.tools)
        assert tools == ["bonito", "racon", "seqstats"]
        for i in range(12):
            cluster.launch_overlapped(tools[i % 3])
        assert [(r.tool_id, r.hostname) for r in cluster.history] == [
            (tools[i % 3], host)
            for i, host in enumerate(self.EXPECTED[policy])
        ]


class TestNodeLoad:
    def test_gpu_node_load(self, cluster):
        node = next(n for n in cluster.nodes if n.hostname == "gpu-node-0")
        load = node_load(node)
        assert load.gpu_total == 2 and load.gpu_idle == 2 and load.gpu_processes == 0

    def test_cpu_node_load(self, cluster):
        node = next(n for n in cluster.nodes if n.hostname == "cpu-node-0")
        load = node_load(node)
        assert load.gpu_total == 0 and load.cpu_free == 48


class TestNodeDeparture:
    """``nodes`` is each call's whole membership: a node that left the
    cluster (scale-in drain, quarantine) is simply not passed, and every
    policy answers from the survivors alone."""

    def test_departed_node_never_selected(self):
        cluster = build_cluster(gpu_nodes=3, cpu_nodes=0,
                                policy="least-loaded")
        # Load the other two nodes so gpu-node-2 is the least loaded…
        busy = [cluster.launch_overlapped("racon") for _ in range(2)]
        assert cluster.policy.select(
            cluster.nodes, wants_gpu=True
        ).hostname == "gpu-node-2"
        # …then retire exactly that node mid-window.
        survivors = [n for n in cluster.nodes
                     if n.hostname != "gpu-node-2"]
        for name in sorted(POLICIES):
            policy = POLICIES[name]()
            for _ in range(5):
                chosen = policy.select(survivors, wants_gpu=True)
                assert chosen.hostname != "gpu-node-2"
        for handle in busy:
            cluster.finish_overlapped(*handle)

    def test_no_gpu_node_left_falls_back_to_all_nodes(self):
        cluster = build_cluster(gpu_nodes=1, cpu_nodes=1)
        survivors = [n for n in cluster.nodes if not n.has_gpus]
        for name in sorted(POLICIES):
            chosen = POLICIES[name]().select(survivors, wants_gpu=True)
            assert chosen.hostname == "cpu-node-0"

    def test_readmitted_node_selected_again(self):
        """A node passed again (commissioned by an autoscaler) joins
        selection immediately."""
        cluster = build_cluster(gpu_nodes=2, cpu_nodes=0,
                                policy="least-loaded")
        survivors = [n for n in cluster.nodes
                     if n.hostname != "gpu-node-1"]
        busy = cluster.launch_overlapped("racon")  # loads gpu-node-0
        assert cluster.policy.select(
            survivors, wants_gpu=True
        ).hostname == "gpu-node-0"
        assert cluster.policy.select(
            cluster.nodes, wants_gpu=True
        ).hostname == "gpu-node-1"
        cluster.finish_overlapped(*busy)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("wants_gpu", [True, False])
def test_empty_nodes_raise_lookup_error(policy, wants_gpu):
    with pytest.raises(LookupError, match="no nodes available"):
        POLICIES[policy]().select([], wants_gpu)
