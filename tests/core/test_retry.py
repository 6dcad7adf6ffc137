"""Backoff policies and retry_call — table-driven schedules, clock use."""

from __future__ import annotations

import pytest

from repro.core.retry import (
    DEFAULT_LAUNCH_RETRY,
    DEFAULT_NVML_RETRY,
    BackoffPolicy,
    is_transient_nvml_error,
    retry_call,
)
from repro.gpusim.clock import VirtualClock
from repro.gpusim.errors import NVMLError


class TestBackoffSchedule:
    """The schedule is the contract: exact delays, table-driven."""

    SCHEDULES = [
        (BackoffPolicy(max_attempts=4, base_delay_s=0.25),
         [0.25, 0.5, 1.0]),
        (BackoffPolicy(max_attempts=3, base_delay_s=1.0),
         [1.0, 2.0]),
        (BackoffPolicy(max_attempts=7, base_delay_s=1.0),
         [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),  # doubling has no cap
        (BackoffPolicy(max_attempts=1, base_delay_s=0.5),
         []),  # a single attempt never waits
        (BackoffPolicy(max_attempts=4, base_delay_s=0.0),
         [0.0, 0.0, 0.0]),  # immediate retries are legal
    ]

    @pytest.mark.parametrize("policy,expected", SCHEDULES,
                             ids=[f"case{i}" for i in range(len(SCHEDULES))])
    def test_schedule(self, policy, expected):
        assert policy.schedule() == pytest.approx(expected)

    def test_defaults_documented_in_docstrings(self):
        assert DEFAULT_NVML_RETRY.schedule() == pytest.approx([0.25, 0.5, 1.0])
        assert DEFAULT_LAUNCH_RETRY.schedule() == pytest.approx([1.0, 2.0])

    def test_delay_for_is_one_based(self):
        with pytest.raises(ValueError):
            BackoffPolicy().delay_for(0)

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay_s": -1.0},
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)


class TestRetryCall:
    def test_success_first_try_never_touches_clock(self):
        clock = VirtualClock()
        assert retry_call(clock, BackoffPolicy(), lambda: 42) == 42
        assert clock.now == 0.0

    def test_transient_failures_advance_virtual_clock(self):
        clock = VirtualClock()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise NVMLError(NVMLError.NVML_ERROR_TIMEOUT, "flake")
            return "ok"

        policy = BackoffPolicy(max_attempts=4, base_delay_s=0.25)
        assert retry_call(clock, policy, flaky) == "ok"
        assert calls["n"] == 3
        # Two retries: 0.25 + 0.5 of *virtual* time, no wall time.
        assert clock.now == pytest.approx(0.75)

    def test_budget_exhaustion_reraises_last(self):
        clock = VirtualClock()

        def always_fails():
            raise NVMLError(NVMLError.NVML_ERROR_UNKNOWN, "still down")

        policy = BackoffPolicy(max_attempts=3, base_delay_s=1.0)
        with pytest.raises(NVMLError, match="still down"):
            retry_call(clock, policy, always_fails)
        assert clock.now == pytest.approx(3.0)  # 1.0 + 2.0, no wait after last

    def test_non_retryable_propagates_immediately(self):
        clock = VirtualClock()
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise NVMLError(NVMLError.NVML_ERROR_UNINITIALIZED, "not init")

        with pytest.raises(NVMLError):
            retry_call(clock, BackoffPolicy(), fatal)
        assert calls["n"] == 1
        assert clock.now == 0.0

    def test_on_retry_hook_sees_each_retry(self):
        clock = VirtualClock()
        seen = []

        def flaky():
            if len(seen) < 2:
                raise NVMLError(NVMLError.NVML_ERROR_TIMEOUT, "flake")
            return True

        retry_call(clock, BackoffPolicy(), flaky,
                   on_retry=lambda i, exc: seen.append((i, exc.code)))
        assert seen == [(1, NVMLError.NVML_ERROR_TIMEOUT),
                        (2, NVMLError.NVML_ERROR_TIMEOUT)]


class TestTransientClassification:
    @pytest.mark.parametrize("code,transient", [
        (NVMLError.NVML_ERROR_TIMEOUT, True),
        (NVMLError.NVML_ERROR_GPU_IS_LOST, True),
        (NVMLError.NVML_ERROR_UNKNOWN, True),
        (NVMLError.NVML_ERROR_UNINITIALIZED, False),
        (NVMLError.NVML_ERROR_INVALID_ARGUMENT, False),
    ])
    def test_nvml_codes(self, code, transient):
        assert is_transient_nvml_error(NVMLError(code, "x")) is transient

    def test_smi_runtime_error_is_transient(self):
        assert is_transient_nvml_error(RuntimeError("nvidia-smi failed: boom"))

    def test_other_errors_are_not(self):
        assert not is_transient_nvml_error(RuntimeError("tool exploded"))
        assert not is_transient_nvml_error(ValueError("nope"))


# --------------------------------------------------------------------- #
# property-based contract
# --------------------------------------------------------------------- #
from hypothesis import given, settings, strategies as st  # noqa: E402

policies = st.builds(
    BackoffPolicy,
    max_attempts=st.integers(min_value=1, max_value=8),
    base_delay_s=st.floats(min_value=0.0, max_value=4.0,
                           allow_nan=False, allow_infinity=False),
)


class TestBackoffProperties:
    @settings(max_examples=80)
    @given(policy=policies)
    def test_delays_are_bounded_and_nonnegative(self, policy):
        ceiling = policy.base_delay_s * 2.0 ** max(policy.max_attempts - 2, 0)
        delays = policy.schedule()
        assert len(delays) == policy.max_attempts - 1
        assert all(0.0 <= delay <= ceiling for delay in delays)
