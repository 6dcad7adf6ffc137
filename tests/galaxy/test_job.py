"""Job lifecycle state machine — property-tested monotonicity."""

import pytest
from hypothesis import given, strategies as st

from repro.galaxy.errors import JobStateError
from repro.galaxy.job import TERMINAL_STATES, GalaxyJob, JobState
from repro.galaxy.tool_xml import parse_tool_xml


def make_job():
    return GalaxyJob(tool=parse_tool_xml('<tool id="t"><command>x</command></tool>'))


class TestLifecycle:
    def test_happy_path(self):
        job = make_job()
        for state in (JobState.QUEUED, JobState.RUNNING, JobState.OK):
            job.transition(state)
        assert job.is_terminal

    def test_error_path(self):
        job = make_job()
        job.transition(JobState.QUEUED)
        job.transition(JobState.RUNNING)
        job.fail("boom")
        assert job.state is JobState.ERROR
        assert job.exit_code == 1
        assert "boom" in job.stderr

    def test_queued_can_error_directly(self):
        job = make_job()
        job.transition(JobState.QUEUED)
        job.transition(JobState.ERROR)
        assert job.is_terminal

    def test_deletion_from_any_nonterminal(self):
        for path in ([], [JobState.QUEUED], [JobState.QUEUED, JobState.RUNNING]):
            job = make_job()
            for state in path:
                job.transition(state)
            job.transition(JobState.DELETED)
            assert job.is_terminal

    def test_terminal_states_absorbing(self):
        for terminal in TERMINAL_STATES:
            job = make_job()
            job.transition(JobState.QUEUED)
            if terminal is JobState.OK:
                job.transition(JobState.RUNNING)
            job.transition(terminal) if job.state is not terminal else None
            for target in JobState:
                with pytest.raises(JobStateError):
                    job.transition(target)

    def test_cannot_skip_queued(self):
        with pytest.raises(JobStateError):
            make_job().transition(JobState.RUNNING)

    def test_cannot_finish_from_new(self):
        with pytest.raises(JobStateError):
            make_job().transition(JobState.OK)

    def test_history_records_times(self):
        job = make_job()
        job.transition(JobState.QUEUED, now=1.0)
        job.transition(JobState.RUNNING, now=2.0)
        job.transition(JobState.OK, now=5.0)
        assert job.state_history == [
            (JobState.QUEUED, 1.0),
            (JobState.RUNNING, 2.0),
            (JobState.OK, 5.0),
        ]


class TestMetrics:
    def test_runtime_and_queue_seconds(self):
        job = make_job()
        job.metrics.submit_time = 1.0
        job.metrics.start_time = 3.0
        job.metrics.end_time = 10.0
        assert job.metrics.runtime_seconds == pytest.approx(7.0)
        assert job.metrics.queue_seconds == pytest.approx(2.0)

    def test_runtime_none_until_finished(self):
        job = make_job()
        assert job.metrics.runtime_seconds is None
        job.metrics.start_time = 1.0
        assert job.metrics.runtime_seconds is None

    def test_job_ids_unique(self):
        assert make_job().job_id != make_job().job_id


@given(st.lists(st.sampled_from(list(JobState)), max_size=12))
def test_state_never_leaves_terminal(states):
    """Whatever transition sequence is attempted, once terminal always
    terminal, and every accepted transition appends to history."""
    job = make_job()
    for target in states:
        was_terminal = job.is_terminal
        before = job.state
        try:
            job.transition(target)
        except JobStateError:
            assert job.state is before  # rejected transitions change nothing
        else:
            assert not was_terminal
    assert len(job.state_history) <= len(states)
