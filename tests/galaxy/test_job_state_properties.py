"""Property tests: the transition table as oracle, no requeue edge, and
multi-hop resubmission chains under the runtime hop cap."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.orchestrator import build_deployment
from repro.galaxy.app import ToolExecutionResult
from repro.galaxy.errors import JobStateError
from repro.galaxy.job import _TRANSITIONS, GalaxyJob, JobState
from repro.galaxy.tool_xml import parse_tool_xml


def make_job():
    return GalaxyJob(
        tool=parse_tool_xml('<tool id="t"><command>failtool</command></tool>')
    )


class TestTransitionTableIsTheOracle:
    @given(st.lists(st.sampled_from(list(JobState)), max_size=16))
    def test_transition_accepted_iff_table_allows(self, targets):
        job = make_job()
        for target in targets:
            allowed = target in _TRANSITIONS[job.state]
            if allowed:
                job.transition(target)
                assert job.state is target
            else:
                with pytest.raises(JobStateError):
                    job.transition(target)

    def test_every_state_has_a_row(self):
        assert set(_TRANSITIONS) == set(JobState)


class TestRequeueEdge:
    """There is no requeue edge: a job enters QUEUED once, from NEW, and
    a transient launch failure is retried inside the runner instead."""

    def test_queued_is_entered_once(self):
        job = make_job()
        job.transition(JobState.QUEUED)
        with pytest.raises(JobStateError):
            job.transition(JobState.QUEUED)

    def test_requeue_requires_queued(self):
        job = make_job()
        job.transition(JobState.QUEUED)
        job.transition(JobState.RUNNING)
        with pytest.raises(JobStateError):
            job.transition(JobState.QUEUED)  # no demotion from RUNNING


# --------------------------------------------------------------------- #
# resubmission chains
# --------------------------------------------------------------------- #

#: hop0 -> hop1 -> ... -> hop5: deep enough that the runtime cap, not
#: the config, ends the chain for every hop count under test.
CHAIN_CONF = "".join(
    ['<job_conf><destinations default="hop0">']
    + [
        f'<destination id="hop{i}" runner="local">'
        f'<param id="resubmit_destination">hop{i + 1}</param>'
        "</destination>"
        for i in range(6)
    ]
    + ['<destination id="hop6" runner="local"/>', "</destinations></job_conf>"]
)


def _chain_deployment(max_hops: int, fail_first_n: int):
    """A deployment whose only tool fails its first ``fail_first_n`` runs."""
    deployment = build_deployment(
        job_conf_xml=CHAIN_CONF, max_resubmit_hops=max_hops
    )
    tool = parse_tool_xml(
        '<tool id="t" name="T" version="1"><command>failtool</command></tool>'
    )
    deployment.app.install_tool(tool)
    calls = {"n": 0}

    def sometimes(argv, ctx):
        calls["n"] += 1
        if calls["n"] <= fail_first_n:
            raise RuntimeError(f"attempt {calls['n']} failed")
        return ToolExecutionResult(stdout=f"attempt {calls['n']} ok")

    deployment.app.register_executor("failtool", sometimes)
    return deployment


class TestResubmitChains:
    @settings(max_examples=20, deadline=None)
    @given(max_hops=st.integers(min_value=0, max_value=4))
    def test_cap_bounds_chain_length(self, max_hops):
        dep = _chain_deployment(max_hops, fail_first_n=99)
        final = dep.run_tool("t")
        assert final.state is JobState.ERROR
        # Original attempt + exactly max_hops resubmissions, never more.
        assert len(dep.app.jobs) == max_hops + 1
        chain = [j for j in dep.app.jobs.values()]
        if max_hops == 0:
            assert all(j.metrics.resubmit_chain == [] for j in chain)
        else:
            ids = sorted(j.job_id for j in chain)
            # Every hop carries the identical full chain, root first.
            for hop in chain:
                assert hop.metrics.resubmit_chain == ids

    @settings(max_examples=20, deadline=None)
    @given(succeed_on=st.integers(min_value=1, max_value=4))
    def test_chain_stops_at_first_success(self, succeed_on):
        dep = _chain_deployment(max_hops=5, fail_first_n=succeed_on - 1)
        final = dep.run_tool("t")
        assert final.state is JobState.OK
        assert len(dep.app.jobs) == succeed_on
        assert final.metrics.destination_id == f"hop{succeed_on - 1}"

    def test_hops_linked_via_resubmitted_as(self):
        dep = _chain_deployment(max_hops=3, fail_first_n=99)
        dep.run_tool("t")
        jobs = sorted(dep.app.jobs.values(), key=lambda j: j.job_id)
        for earlier, later in zip(jobs, jobs[1:], strict=False):
            assert earlier.metrics.resubmitted_as == later.job_id
        assert jobs[-1].metrics.resubmitted_as is None

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            build_deployment(job_conf_xml=CHAIN_CONF, max_resubmit_hops=-1)
