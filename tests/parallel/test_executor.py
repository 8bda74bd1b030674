"""Tests for campaign executors."""

import numpy as np
import pytest

from repro.parallel.executor import (
    ProcessPoolCampaignExecutor,
    SerialExecutor,
    default_workers,
    pool_start_method,
)

from tests.helpers import extra_thread, run_fresh

_STATE = {}


def _init(value):
    _STATE["v"] = value


def _square_plus_state(x):
    return x * x + _STATE.get("v", 0)


def _square(x):
    return x * x


KILL_SCRIPT = """
import os, threading
from repro.parallel.executor import ProcessPoolCampaignExecutor, \\
    pool_start_method
from repro.parallel.resilience import RetryPolicy, WorkerDeath
pool = ProcessPoolCampaignExecutor(n_workers=2,
                                   policy=RetryPolicy(max_retries=0))
assert pool.start_method == "fork"
try:
    pool.run(os._exit, [1])
except WorkerDeath:
    pass
else:
    raise AssertionError("the worker did not die")
pool.kill()
assert threading.active_count() == 1, threading.enumerate()
assert pool_start_method() == "fork"
"""


class TestSerialExecutor:
    def test_runs_in_order(self):
        ex = SerialExecutor()
        assert ex.run(_square, [1, 2, 3]) == [1, 4, 9]
        ex.shutdown()

    def test_initializer_runs_immediately(self):
        _STATE.clear()
        ex = SerialExecutor(initializer=_init, initargs=(10,))
        assert ex.run(_square_plus_state, [2]) == [14]
        ex.shutdown()


class TestProcessPoolExecutor:
    def test_matches_serial(self):
        tasks = list(range(20))
        serial = SerialExecutor().run(_square, tasks)
        with ProcessPoolCampaignExecutor(n_workers=2) as pool:
            parallel = pool.run(_square, tasks)
        assert serial == parallel

    def test_initializer_reaches_workers(self):
        with ProcessPoolCampaignExecutor(initializer=_init, initargs=(5,),
                                         n_workers=2) as pool:
            results = pool.run(_square_plus_state, [0, 1])
        assert results == [5, 6]

    def test_numpy_payloads(self):
        arrays = [np.full(10, i) for i in range(4)]
        with ProcessPoolCampaignExecutor(n_workers=2) as pool:
            sums = pool.run(np.sum, arrays)
        assert sums == [0, 10, 20, 30]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolCampaignExecutor(n_workers=0)

    def test_run_stream_yields_all_results(self):
        tasks = list(range(12))
        with ProcessPoolCampaignExecutor(n_workers=2) as pool:
            seen = dict(pool.run_stream(_square, tasks))
        assert seen == {i: i * i for i in tasks}

    def test_shutdown_idempotent(self):
        pool = ProcessPoolCampaignExecutor(n_workers=2)
        pool.run(_square, [1, 2])
        pool.shutdown()
        pool.shutdown()

    def test_kill_then_shutdown_safe(self):
        pool = ProcessPoolCampaignExecutor(n_workers=2)
        pool.run(_square, [1, 2])
        pool.kill()
        pool.kill()
        pool.shutdown()


class TestSerialStream:
    def test_run_stream_in_order(self):
        ex = SerialExecutor()
        assert list(ex.run_stream(_square, [1, 2, 3])) == [(0, 1), (1, 4),
                                                           (2, 9)]
        ex.shutdown()


class TestDefaults:
    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestStartMethod:
    def test_one_thread_forks(self):
        run_fresh("from repro.parallel.executor import pool_start_method\n"
                  "assert pool_start_method() == 'fork'")

    def test_extra_thread_means_forkserver(self):
        with extra_thread():
            assert pool_start_method() == "forkserver"
            with ProcessPoolCampaignExecutor(n_workers=2) as pool:
                assert pool.start_method == "forkserver"

    def test_kill_lets_the_next_pool_fork(self):
        """A killed pool's manager thread is gone when ``kill`` returns, so
        a rebuild in a one-thread process forks again."""
        run_fresh(KILL_SCRIPT)

    def test_forkserver_workers_run_the_initializer(self):
        with extra_thread(), ProcessPoolCampaignExecutor(
                initializer=_init, initargs=(5,), n_workers=2) as pool:
            assert pool.start_method == "forkserver"
            assert pool.run(_square_plus_state, [0, 1]) == [5, 6]

    def test_start_method_is_not_an_argument(self):
        """The thread count picks the start method; there is no knob."""
        with pytest.raises(TypeError, match="start_method"):
            ProcessPoolCampaignExecutor(n_workers=2, start_method="fork")
