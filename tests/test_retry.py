"""Tests for the transient-failure retry policy."""

import pytest

from repro.exceptions import ExperimentError
from repro.harness import RetryPolicy, RunRecord, run_with_retry
from repro.harness.retry import MAX_BACKOFF_SECONDS


def _record(failed=False, error=""):
    return RunRecord(
        algorithm="a", dataset="d", noise_type="one-way", noise_level=0.0,
        repetition=0, assignment="jv",
        measures={} if failed else {"accuracy": 1.0},
        similarity_time=0.1, assignment_time=0.1,
        failed=failed, error=error,
    )


class TestRetryPolicyValidation:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ExperimentError):
            RetryPolicy(max_attempts=0)

    def test_rejects_negative_backoff(self):
        with pytest.raises(ExperimentError):
            RetryPolicy(backoff_seconds=-1)


class TestTransienceClassification:
    def test_default_transients(self):
        policy = RetryPolicy()
        assert policy.is_transient("LinAlgError: singular matrix")
        assert policy.is_transient("ConvergenceError: no convergence")

    def test_permanent_failures_not_retried(self):
        policy = RetryPolicy()
        assert not policy.is_transient("timeout after 120s")
        assert not policy.is_transient("MemoryError: 256Gb exceeded")
        assert not policy.is_transient("AlgorithmError: unknown algorithm")

    def test_custom_classes(self):
        policy = RetryPolicy(retry_on=("TimeoutError",))
        assert policy.is_transient("TimeoutError: flaky network")
        assert not policy.is_transient("LinAlgError: singular matrix")


class TestBackoffSchedule:
    def test_exponential_growth(self):
        policy = RetryPolicy(backoff_seconds=1.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 4.0

    def test_zero_backoff_means_no_sleep(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, backoff_seconds=0.0)
        run_with_retry(
            lambda attempt: _record(failed=True, error="LinAlgError: x"),
            policy, sleep=slept.append,
        )
        assert slept == []


class TestDecorrelatedJitter:
    def test_deterministic_per_seed(self):
        policy = RetryPolicy(backoff_seconds=1.0)
        for attempt in (1, 2, 3):
            assert policy.delay(attempt, jitter_seed=42,
                                distributed=True) == \
                policy.delay(attempt, jitter_seed=42, distributed=True)

    def test_decorrelated_across_seeds(self):
        """Adjacent seeds — the lockstep-retry scenario — get different
        schedules; that is the whole point of the jitter."""
        policy = RetryPolicy(backoff_seconds=1.0)
        delays = {round(policy.delay(2, jitter_seed=seed,
                                     distributed=True), 9)
                  for seed in range(20)}
        assert len(delays) > 15

    def test_delays_bounded(self):
        policy = RetryPolicy(backoff_seconds=10.0)
        delays = [policy.delay(attempt, jitter_seed=7, distributed=True)
                  for attempt in range(1, 30)]
        assert all(10.0 <= delay <= MAX_BACKOFF_SECONDS for delay in delays)
        assert max(delays) == MAX_BACKOFF_SECONDS  # the cap binds

    def test_unjittered_schedule_unchanged(self):
        """Non-distributed and no-seed calls keep the historical uncapped
        exponential schedule bit-for-bit."""
        policy = RetryPolicy(backoff_seconds=1.0)
        assert [policy.delay(a, jitter_seed=1) for a in (1, 2, 3)] == \
            [1.0, 2.0, 4.0]
        assert policy.delay(2, distributed=True) == 2.0  # no seed to draw
        assert policy.delay(8, jitter_seed=1) == 128.0  # no cap

    def test_zero_backoff_stays_zero_with_jitter(self):
        policy = RetryPolicy(backoff_seconds=0.0)
        assert policy.delay(3, jitter_seed=1, distributed=True) == 0.0

    def test_run_with_retry_threads_jitter_through(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, backoff_seconds=0.1)
        run_with_retry(
            lambda attempt: _record(failed=True, error="LinAlgError: x"),
            policy, sleep=slept.append, jitter_seed=11, distributed=True,
        )
        assert slept == [policy.delay(1, jitter_seed=11, distributed=True),
                         policy.delay(2, jitter_seed=11, distributed=True)]


    @pytest.mark.parametrize("fan_out,distributed", [
        ({}, False), ({"workers": 2}, True),
    ], ids=["serial", "workers"])
    def test_sweep_cell_is_distributed_under_several_processes(
            self, monkeypatch, fan_out, distributed):
        from repro.graphs.generators import erdos_renyi_graph
        from repro.harness import ExperimentConfig, runner
        from repro.noise import make_pair

        seen = []

        def recording_retry(run, policy, jitter_seed=None,
                            distributed=False):
            seen.append(distributed)
            return _record()

        monkeypatch.setattr(runner, "run_with_retry", recording_retry)
        config = ExperimentConfig(name="x", algorithms=["isorank"],
                                  retry_policy=RetryPolicy(), **fan_out)
        pair = make_pair(erdos_renyi_graph(10, 0.3, seed=0), "one-way",
                         0.0, seed=0)
        runner._execute_cell(config, "isorank", pair, "d", 0, 0)
        assert seen == [distributed]


class TestRunWithRetry:
    def test_success_first_try(self):
        calls = []
        policy = RetryPolicy(max_attempts=3)
        record = run_with_retry(
            lambda attempt: calls.append(attempt) or _record(), policy
        )
        assert calls == [1]
        assert record.attempts == 1
        assert not record.failed

    def test_transient_failure_retried_to_success(self):
        policy = RetryPolicy(max_attempts=3)

        def flaky(attempt):
            if attempt < 3:
                return _record(failed=True, error="LinAlgError: flaky")
            return _record()

        record = run_with_retry(flaky, policy)
        assert not record.failed
        assert record.attempts == 3

    def test_permanent_failure_fails_fast(self):
        calls = []
        policy = RetryPolicy(max_attempts=5)
        record = run_with_retry(
            lambda attempt: calls.append(attempt)
            or _record(failed=True, error="timeout after 9s"),
            policy,
        )
        assert calls == [1]
        assert record.failed
        assert record.attempts == 1

    def test_exhaustion_keeps_last_failure(self):
        policy = RetryPolicy(max_attempts=2)
        record = run_with_retry(
            lambda attempt: _record(failed=True,
                                    error=f"LinAlgError: try {attempt}"),
            policy,
        )
        assert record.failed
        assert record.attempts == 2
        assert "try 2" in record.error

    def test_backoff_slept_between_attempts(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, backoff_seconds=0.5)
        run_with_retry(
            lambda attempt: _record(failed=True, error="LinAlgError: x"),
            policy, sleep=slept.append,
        )
        assert slept == [0.5, 1.0]  # no sleep after the final attempt
