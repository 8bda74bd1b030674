"""Tests for the fault-tolerant task loop under the process pool.

Fault injection into the *harness* itself works through file sentinels:
each task carries an optional marker path, and a worker misbehaves only
while the marker is absent (writing it first), so the first attempt fails
and every retry succeeds.  Files are visible across fork'd worker
processes and across pool rebuilds, unlike in-memory flags.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import campaign as campaign_mod, run_campaign
from repro.core import run_campaign, uniform_sample
from repro.core.experiment import SampleSpace
from repro.parallel.executor import ProcessPoolCampaignExecutor
from repro.parallel.resilience import (
    CampaignHealth,
    RetryPolicy,
    TaskError,
    TaskTimeout,
    WorkerDeath,
)

# ----------------------------------------------------------- worker tasks
# (module-level so they pickle into pool workers)


def _square(task):
    x, _ = task
    return x * x


def _fail_once(task):
    x, marker = task
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("injected task failure")
    return x * x


def _always_fail(task):
    raise ValueError("unconditionally broken task")


def _die_once(task):
    x, marker = task
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _die_always(task):
    import multiprocessing

    if multiprocessing.parent_process() is not None:  # never kill pytest
        os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("poison task reached the parent process")


def _hang_once(task):
    x, marker = task
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(60)
    return x * x


def _hang_always(task):
    time.sleep(60)


def _sleep_then_square(task):
    time.sleep(0.3)
    return _square(task)


def _mark_then_nap(task):
    """Leave a marker file named after the task, then take 50 ms."""
    i, marker_dir = task
    open(os.path.join(marker_dir, f"ran-{i}"), "w").close()
    time.sleep(0.05)
    return i


def _tasks(n, tmp_path=None, bad=()):
    """n tasks; those in ``bad`` carry a fresh sentinel marker."""
    return [(i, str(tmp_path / f"marker-{i}") if i in bad else None)
            for i in range(n)]


def _run(executor, fn, tasks):
    try:
        return executor.run(fn, tasks)
    finally:
        executor.shutdown()


EXPECTED = [i * i for i in range(8)]


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.task_timeout is None

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"task_timeout": 0.0},
        {"task_timeout": -1.0},
        {"max_pool_rebuilds": -1},
        {"poll_interval": 0.0},
        {"backoff_base": -0.1},
        {"backoff_max": 0.0},
    ])
    def test_invalid_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_disabled_by_default(self):
        policy = RetryPolicy()
        assert policy.backoff_delay(1) == 0.0
        assert policy.backoff_delay(100) == 0.0

    def test_backoff_doubles_per_attempt_within_jitter(self):
        import random

        policy = RetryPolicy(backoff_base=0.1, backoff_max=100.0)
        rng = random.Random(42)
        for attempts, nominal in ((1, 0.1), (2, 0.2), (3, 0.4), (4, 0.8)):
            for _ in range(20):
                delay = policy.backoff_delay(attempts, rng)
                # half-to-full jitter around the doubled nominal delay
                assert nominal * 0.5 <= delay <= nominal

    def test_backoff_capped_at_max(self):
        import random

        policy = RetryPolicy(backoff_base=1.0, backoff_max=4.0)
        rng = random.Random(7)
        for _ in range(50):
            assert policy.backoff_delay(30, rng) <= 4.0

    def test_backoff_zeroth_attempt_free(self):
        assert RetryPolicy(backoff_base=1.0).backoff_delay(0) == 0.0


class TestCampaignHealth:
    def test_clean_run(self):
        assert CampaignHealth(attempts=5).clean
        assert not CampaignHealth(attempts=5, retries=1).clean
        assert not CampaignHealth(degraded_to_serial=True).clean

    def test_merge_sums_counts_and_ors_flags(self):
        a = CampaignHealth(attempts=3, retries=1, worker_deaths=1)
        b = CampaignHealth(attempts=4, timeouts=2, degraded_to_serial=True)
        merged = a.merged_with(b)
        assert merged.attempts == 7
        assert merged.retries == 1
        assert merged.timeouts == 2
        assert merged.worker_deaths == 1
        assert merged.degraded_to_serial

    def test_merge_with_none_copies(self):
        a = CampaignHealth(attempts=2, retries=1)
        copy = a.merged_with(None)
        assert copy == a and copy is not a

    def test_summary_mentions_failures(self):
        health = CampaignHealth(attempts=9, retries=2, worker_deaths=1)
        line = health.summary()
        assert "retries=2" in line and "worker_deaths=1" in line
        assert "timeouts" not in CampaignHealth(attempts=1).summary()

    def test_three_way_merge_with_overlapping_failure_kinds(self):
        # Three partial healths, as streamed from three campaign phases
        # (or three nodes' shares of one), with failure kinds that
        # overlap pairwise: every counter must add up, every flag OR.
        a = CampaignHealth(attempts=10, retries=2, task_errors=1,
                           node_deaths=1)
        b = CampaignHealth(attempts=20, retries=1, task_errors=2,
                           lease_expiries=3)
        c = CampaignHealth(attempts=5, timeouts=1, node_deaths=2,
                           lease_expiries=1, degraded_to_serial=True)
        merged = a.merged_with(b).merged_with(c)
        assert merged.attempts == 35
        assert merged.retries == 3
        assert merged.task_errors == 3
        assert merged.timeouts == 1
        assert merged.node_deaths == 3
        assert merged.lease_expiries == 4
        assert merged.degraded_to_serial
        assert not merged.clean

    def test_merge_is_commutative_and_associative(self):
        a = CampaignHealth(attempts=1, node_deaths=1)
        b = CampaignHealth(attempts=2, lease_expiries=2)
        c = CampaignHealth(attempts=4, retries=1, worker_deaths=1)
        assert a.merged_with(b) == b.merged_with(a)
        assert a.merged_with(b).merged_with(c) \
            == a.merged_with(b.merged_with(c))

    def test_merge_does_not_mutate_operands(self):
        a = CampaignHealth(attempts=1, node_deaths=1)
        b = CampaignHealth(attempts=2, degraded_to_serial=True)
        a.merged_with(b)
        assert a.node_deaths == 1 and a.attempts == 1
        assert not a.degraded_to_serial
        assert b.attempts == 2

    def test_dist_failure_kinds_surface_in_summary(self):
        health = CampaignHealth(attempts=8, retries=3, node_deaths=2,
                                lease_expiries=1)
        line = health.summary()
        assert "node_deaths=2" in line
        assert "lease_expiries=1" in line


class TestResilientExecutor:
    """The pool's recovery: every ``ProcessPoolCampaignExecutor`` runs
    the retry loop."""

    def test_clean_run_matches_serial(self, tmp_path):
        ex = ProcessPoolCampaignExecutor(n_workers=2)
        assert _run(ex, _square, _tasks(8)) == EXPECTED
        assert ex.health.clean
        assert ex.health.attempts == 8

    def test_failed_task_retried(self, tmp_path):
        ex = ProcessPoolCampaignExecutor(
            n_workers=2, policy=RetryPolicy(max_retries=2))
        results = _run(ex, _fail_once, _tasks(8, tmp_path, bad={3}))
        assert results == EXPECTED
        assert ex.health.task_errors == 1
        assert ex.health.retries == 1
        assert not ex.health.clean

    def test_retry_budget_exhausted_raises_task_error(self):
        ex = ProcessPoolCampaignExecutor(
            n_workers=2, policy=RetryPolicy(max_retries=1))
        with pytest.raises(TaskError) as excinfo:
            _run(ex, _always_fail, _tasks(4))
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_worker_death_recovered_with_requeue(self, tmp_path):
        """A SIGKILL'd worker breaks the pool; in-flight tasks requeue and
        the rebuilt pool produces results identical to a serial run."""
        ex = ProcessPoolCampaignExecutor(
            n_workers=2, policy=RetryPolicy(max_retries=2))
        results = _run(ex, _die_once, _tasks(8, tmp_path, bad={2}))
        assert results == EXPECTED
        assert ex.health.worker_deaths >= 1
        assert ex.health.pool_rebuilds == 1
        assert ex.health.retries >= 1  # the killed task plus innocents
        assert not ex.health.degraded_to_serial

    def test_poison_task_raises_worker_death(self, tmp_path):
        """A task that kills its worker on every attempt must not loop:
        its bumped attempt count exhausts the retry budget."""
        policy = RetryPolicy(max_retries=1, max_pool_rebuilds=10)
        ex = ProcessPoolCampaignExecutor(n_workers=2, policy=policy)
        with pytest.raises(WorkerDeath):
            _run(ex, _die_always, _tasks(2))

    def test_degrades_to_serial_when_rebuilds_exhausted(self, tmp_path):
        policy = RetryPolicy(max_retries=2, max_pool_rebuilds=0)
        ex = ProcessPoolCampaignExecutor(n_workers=2, policy=policy)
        results = _run(ex, _die_once, _tasks(8, tmp_path, bad={1}))
        assert results == EXPECTED
        assert ex.health.degraded_to_serial
        assert ex.health.pool_rebuilds == 0

    def test_hung_task_times_out_and_completes(self, tmp_path):
        policy = RetryPolicy(max_retries=2, task_timeout=0.5,
                             poll_interval=0.02)
        ex = ProcessPoolCampaignExecutor(n_workers=2, policy=policy)
        start = time.monotonic()
        results = _run(ex, _hang_once, _tasks(8, tmp_path, bad={0}))
        elapsed = time.monotonic() - start
        assert results == EXPECTED
        assert ex.health.timeouts >= 1
        assert ex.health.pool_rebuilds == 1
        assert elapsed < 30  # nowhere near the 60 s hang

    def test_timeout_budget_exhausted_raises(self, tmp_path):
        policy = RetryPolicy(max_retries=0, task_timeout=0.3,
                             poll_interval=0.02)
        ex = ProcessPoolCampaignExecutor(n_workers=2, policy=policy)
        with pytest.raises(TaskTimeout):
            _run(ex, _hang_always, _tasks(2))

    def test_run_stream_yields_every_index_once(self, tmp_path):
        ex = ProcessPoolCampaignExecutor(n_workers=2)
        try:
            seen = dict(ex.run_stream(_square, _tasks(10)))
        finally:
            ex.shutdown()
        assert seen == {i: i * i for i in range(10)}

    def test_shutdown_idempotent(self):
        ex = ProcessPoolCampaignExecutor(n_workers=2)
        ex.run(_square, _tasks(2))
        ex.shutdown()
        ex.shutdown()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolCampaignExecutor(n_workers=0)

    def test_deadline_runs_from_start_not_submission(self):
        """The window holds more tasks than workers, so a task may wait
        behind others before it starts; that wait is not its time."""
        policy = RetryPolicy(max_retries=0, task_timeout=0.5)
        ex = ProcessPoolCampaignExecutor(n_workers=2, policy=policy)
        assert _run(ex, _sleep_then_square, _tasks(6)) == EXPECTED[:6]
        assert ex.health.timeouts == 0


class TestReleaseOnClose:
    def test_pool_runs_no_more_than_its_window(self, cg_tiny, tmp_path):
        """A consumer that stops mid-stream (the job service's cancel or
        claim-lost hook raising from ``progress.update``) leaves only the
        in-flight window to finish; the other tasks never run."""
        tasks = [(i, str(tmp_path)) for i in range(40)]
        with pytest.raises(RuntimeError, match="cancelled"):
            with campaign_mod._campaign_executor(cg_tiny, 2) as pool:
                stream = pool.run_stream(_mark_then_nap, tasks)
                for _ in stream:  # held open, as campaign drivers do
                    raise RuntimeError("cancelled")
        assert len(list(tmp_path.glob("ran-*"))) <= 1 + pool.window


# ------------------------------------------------- campaign-level resilience

_REAL_TASK_OUTCOMES = campaign_mod._task_outcomes
_FLAKY_MARKER = {"path": None}


def _flaky_task_outcomes(chunk):
    """Fail the first chunk attempt ever made, then behave normally."""
    marker = _FLAKY_MARKER["path"]
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("injected campaign fault")
    return _REAL_TASK_OUTCOMES(chunk)


class TestCampaignResilience:
    def test_injected_failure_retried_with_unchanged_results(
            self, cg_tiny, rng, tmp_path, monkeypatch):
        """Acceptance: a single-task failure is retried, the campaign
        completes with ``health.retries > 0`` and results identical to a
        fault-free serial run."""
        flat = uniform_sample(SampleSpace.of_program(cg_tiny.program),
                              300, rng)
        reference = run_campaign(cg_tiny, mode="sample", experiments=flat).sampled

        _FLAKY_MARKER["path"] = str(tmp_path / "campaign-fault")
        monkeypatch.setattr(campaign_mod, "_task_outcomes",
                            _flaky_task_outcomes)
        try:
            result = run_campaign(cg_tiny, mode="sample", experiments=flat, n_workers=2, batch_budget=1 << 14, retry_policy=RetryPolicy(max_retries=2)).sampled
        finally:
            _FLAKY_MARKER["path"] = None

        assert result.health is not None
        assert result.health.retries > 0
        assert result.health.task_errors >= 1
        assert np.array_equal(result.flat, reference.flat)
        assert np.array_equal(result.outcomes, reference.outcomes)
        assert np.array_equal(result.injected_errors,
                              reference.injected_errors)

    def test_clean_pool_run_reports_health(self, cg_tiny, rng):
        """A pool campaign runs under ``RetryPolicy()`` unless told
        otherwise, so it always reports health."""
        flat = uniform_sample(SampleSpace.of_program(cg_tiny.program),
                              200, rng)
        result = run_campaign(cg_tiny, mode="sample", experiments=flat,
                              n_workers=2, batch_budget=1 << 14).sampled
        assert result.health is not None
        assert result.health.clean
        assert result.health.attempts > 0

    def test_serial_run_has_no_health(self, cg_tiny, rng):
        flat = uniform_sample(SampleSpace.of_program(cg_tiny.program),
                              100, rng)
        result = run_campaign(cg_tiny, mode="sample", experiments=flat).sampled
        assert result.health is None
