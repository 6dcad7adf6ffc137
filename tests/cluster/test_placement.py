"""The placement seam: node indexes against their brute-force
definitions, the one node lifecycle behind them, and ablation A5's
placements pinned row for row."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.autoscale import PLACEMENT_POLICIES, AutoscalerConfig
from repro.cluster.fleet import (
    _DRAINING,
    _OFF,
    _QUARANTINED,
    _USABLE,
    FleetConfig,
    FleetSimulator,
    NodeFailure,
)
from repro.cluster.fleet_reference import ObjectFleetReference
from repro.cluster.placement import NODE_INDEXES, PackIndex, SpreadIndex
from repro.workloads.diurnal import (
    DEFAULT_FLEET_TOOLS,
    ArrivalBatch,
    FleetToolClass,
    ab_storm_profile,
    diurnal_batches,
)

NODES = 6


def brute_force(index_class, counts, usable):
    """The definition each index must equal: ``min`` over usable nodes
    with a positive count, by node (spread) or by (count, node) (pack)."""
    return min(
        (node for node in range(len(counts))
         if usable[node] and counts[node] > 0),
        key=(lambda node: (counts[node], node))
        if index_class is PackIndex else None,
        default=None,
    )


steps = st.lists(
    st.one_of(
        st.tuples(st.just("count"), st.integers(0, NODES - 1),
                  st.integers(0, 4)),
        st.tuples(st.just("usable"), st.integers(0, NODES - 1),
                  st.booleans()),
        # A redundant report, which must be harmless.
        st.tuples(st.just("touch"), st.integers(0, NODES - 1),
                  st.just(0)),
    ),
    max_size=60,
)


@pytest.mark.parametrize("index_class", [SpreadIndex, PackIndex])
@settings(max_examples=150, deadline=None)
@given(
    start_counts=st.lists(st.integers(0, 4), min_size=NODES, max_size=NODES),
    start_usable=st.lists(st.booleans(), min_size=NODES, max_size=NODES),
    steps=steps,
)
def test_peek_equals_the_brute_force_definition(
    index_class, start_counts, start_usable, steps
):
    """Random count changes, usable flips and touches: every ``peek``
    is the brute-force ``min``.  Draws include all-exhausted fleets
    (→ ``None``), all-zero counts (``queue_limit=0``) and a node that
    leaves and re-enters while its stale entry is still in the heap."""
    counts, usable = list(start_counts), list(start_usable)
    index = index_class(counts, usable)
    assert index.peek() == brute_force(index_class, counts, usable)
    for kind, node, value in steps:
        if kind == "count":
            counts[node] = value
        elif kind == "usable":
            usable[node] = value
        # The protocol's minimum: a change is reported only when it
        # leaves the node usable with a positive count.
        if kind == "touch" or (usable[node] and counts[node] > 0):
            index.touch(node)
        assert index.peek() == brute_force(index_class, counts, usable)


@pytest.mark.parametrize("index_class", [SpreadIndex, PackIndex])
def test_stale_entry_survives_a_round_trip(index_class):
    """Node 0 retires with its entry still in the heap, node 1 serves,
    node 0 returns with a different count: no duplicate, no ghost."""
    counts, usable = [2, 3], [True, True]
    index = index_class(counts, usable)
    assert index.peek() == 0
    usable[0] = False  # retiring needs no touch
    assert index.peek() == 1
    usable[0], counts[0] = True, 4
    index.touch(0)
    assert index.peek() == (1 if index_class is PackIndex else 0)
    counts[0] = counts[1] = 0  # exhausting needs no touch
    assert index.peek() is None


def test_every_policy_names_an_index():
    assert set(NODE_INDEXES) == set(PLACEMENT_POLICIES)


# Ablation A5's traces (benchmarks/test_ablation_cluster.py) on 2 nodes
# x 2 GPUs with no queue room.  Rows are (destination, gpu, start); -1
# is the CPU arm.
RACON, BONITO, SHORT, LONG = range(4)
A5_TOOLS = (
    DEFAULT_FLEET_TOOLS[0],  # degradable, GPU benefit 10 (low)
    DEFAULT_FLEET_TOOLS[1],  # GPU benefit 24 (high)
    FleetToolClass("short_gpu", True, 100.0, 2_000.0, 0.0),
    FleetToolClass("long_gpu", True, 300.0, 6_000.0, 0.0),
)
SPILL = [(0, True, 0), (0, True, 1), (1, True, 2), (1, True, 3),
         (-1, False, 4), (-1, False, 5)]
EARLY = [(0, True, 0), (0, True, 0), (1, True, 0)]
A5_TRACES = {
    # Node 0's GPUs fill before node 1's, then the CPU arm: every policy.
    "burst": (0.10, [ArrivalBatch(float(t), RACON, 1) for t in range(6)], {
        "spread": SPILL, "pack": SPILL, "benefit-aware": SPILL,
    }),
    # Node 0 has emptied by t=150: spread takes it, pack the fuller node.
    "spread-vs-pack": (0.10, [
        ArrivalBatch(0.0, SHORT, 2),
        ArrivalBatch(0.0, LONG, 1),
        ArrivalBatch(150.0, LONG, 1),
    ], {
        "spread": EARLY + [(0, True, 150)],
        "pack": EARLY + [(1, True, 150)],
        "benefit-aware": EARLY + [(0, True, 150)],
    }),
    # Only the reserved slot is free: benefit-aware degrades low benefit.
    "benefit-reserve": (0.25, [
        ArrivalBatch(0.0, BONITO, 3),
        ArrivalBatch(1.0, RACON, 1),
    ], {
        "spread": EARLY + [(1, True, 1)],
        "pack": EARLY + [(1, True, 1)],
        "benefit-aware": EARLY + [(-1, False, 1)],
    }),
}


@pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
@pytest.mark.parametrize("trace", sorted(A5_TRACES))
def test_ablation_a5_rows(trace, policy):
    """Where and when each job of an A5 trace starts, per policy; the
    per-job oracle agrees row for row."""
    reserve, batches, expected = A5_TRACES[trace]
    config = FleetConfig(
        nodes=2, gpus_per_node=2, queue_limit=0, placement=policy,
        gpu_reserve_fraction=reserve,
    )
    simulator = FleetSimulator(config, A5_TOOLS)
    simulator.run(batches)
    rows = [(r.destination, r.gpu, r.start) for r in simulator.store.rows()]
    assert rows == expected[policy]
    oracle = ObjectFleetReference(config, A5_TOOLS).run(batches)
    assert [(r.destination, r.gpu, r.start) for r in oracle.rows()] == rows


def recount(simulator):
    state, n = simulator._state, simulator.config.nodes
    limit = simulator.config.queue_limit
    assert all(s in (_OFF, _USABLE, _QUARANTINED, _DRAINING) for s in state)
    assert simulator._usable == [s == _USABLE for s in state]
    usable = [node for node in range(n) if state[node] == _USABLE]
    assert simulator._usable_count == len(usable)
    assert simulator._active_count == sum(s != _OFF for s in state)
    assert simulator._draining_count == state.count(_DRAINING)
    assert simulator._free_total == sum(simulator._free[v] for v in usable)
    assert simulator._queued_now == sum(limit - r for r in simulator._room)
    assert simulator._busy == sum(
        hi - lo for pieces in simulator._live
        for lo, hi, _tool in pieces.values()
    )
    for node in range(n):
        queued = sum(hi - lo for lo, hi, _t, _d in simulator._queues[node])
        assert simulator._room[node] == limit - queued
        if state[node] != _USABLE:
            assert not simulator._queues[node]
        if state[node] in (_OFF, _QUARANTINED):
            assert not simulator._live[node]


@pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
def test_one_lifecycle_state_and_totals_equal_a_recount(policy):
    """A storm day on an elastic pool with two mid-storm failures,
    inspected at every autoscaler evaluation — while nodes are
    quarantined, draining and off — and at the end: every node is in
    exactly one state and the totals the autoscaler and the reserve
    gate read equal a recount from per-node state."""
    auto = AutoscalerConfig(
        min_nodes=4, max_nodes=12, eval_interval_s=300.0,
        provision_lag_s=300.0, cooldown_s=300.0,
    )
    config = FleetConfig(
        nodes=12, gpus_per_node=4, queue_limit=8, placement=policy,
        autoscale=auto,
        failures=(NodeFailure(46_800.0, 1, 1_800.0),
                  NodeFailure(47_000.0, 5, 3_600.0)),
    )
    profile = ab_storm_profile(8000, seed=3)
    simulator = FleetSimulator(config, profile.tools)
    seen = set()
    evaluate = simulator._on_eval

    def checked(now):
        evaluate(now)
        recount(simulator)
        seen.update(simulator._state)

    # Handlers are looked up when pushed: every evaluation after the
    # first (pushed by the constructor) re-arms through this one.
    simulator._on_eval = checked
    result = simulator.run(diurnal_batches(profile))
    recount(simulator)
    assert seen == {_OFF, _USABLE, _QUARANTINED, _DRAINING}
    assert result.resubmitted > 0 and result.scale_downs > 0
