"""Pool workers start by fork or from a forkserver; the numbers never show it.

Which start method a pool uses follows from how many threads the process
runs (:func:`repro.parallel.executor.pool_start_method`), so each case
sets that up itself: the fork case runs in a fresh interpreter, whose
only thread is its main thread, and the forkserver case keeps a second
thread alive around its campaigns.  Outcomes, injected errors and
boundaries must be bit-identical to serial runs, as they are for the
distributed plane, on the straight-line kernels, a dynamic CFG kernel
and a lowered CFG program.  However a campaign ends, its executor leaves
no live worker behind.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from repro import kernels
from repro.core import campaign as campaign_mod
from repro.core import run_campaign
from repro.core.checkpoint import CampaignCheckpoint
from repro.dist import DistConfig, DistPlane, NodeAgent
from repro.parallel.executor import pool_start_method
from repro.parallel.resilience import RetryPolicy, WorkerDeath

from tests.helpers import extra_thread, run_fresh

#: every workload family the planes must agree on: name -> (kernel, params)
WORKLOADS = {
    "cg": ("cg", {"n": 8, "iters": 8}),
    "lu": ("lu", {"n": 8, "block": 4}),
    "fft": ("fft", {"n": 16}),
    "cg-dyn": ("cg-dyn", {"n": 6}),
    "cfg-lowered": ("cfg-lowered",
                    {"kernel": "cg", "params": {"n": 4, "iters": 3}}),
}

POOL = {"n_workers": 2}


def build(name: str):
    kernel, params = WORKLOADS[name]
    return kernels.build(kernel, **params)


def campaign_arrays(wl, **config) -> dict[str, np.ndarray]:
    """Exhaustive grids plus a Monte-Carlo sample and its boundary."""
    golden = run_campaign(wl, mode="exhaustive", **config).exhaustive
    mc = run_campaign(wl, mode="monte_carlo", sampling_rate=0.2, seed=5,
                      **config)
    return {"outcomes": golden.outcomes,
            "injected": golden.injected_errors,
            "mc_outcomes": mc.sampled.outcomes,
            "thresholds": mc.boundary.thresholds,
            "exact": mc.boundary.exact}


def assert_same(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


FORK_SCRIPT = """
import sys, threading
import numpy as np
from repro.parallel.executor import pool_start_method
from tests.core.test_start_methods import POOL, WORKLOADS, build, \\
    campaign_arrays
assert threading.active_count() == 1 and pool_start_method() == "fork"
out = {}
for name in WORKLOADS:
    for key, arr in campaign_arrays(build(name), **POOL).items():
        out[f"{name}/{key}"] = arr
np.savez(sys.argv[1], **out)
"""


@pytest.fixture(scope="module")
def serial():
    return {name: campaign_arrays(build(name)) for name in WORKLOADS}


@pytest.fixture(scope="module")
def forked(tmp_path_factory):
    path = tmp_path_factory.mktemp("fork") / "fork.npz"
    run_fresh(FORK_SCRIPT, str(path))
    with np.load(path) as data:
        return {name: {key.split("/", 1)[1]: data[key] for key in data.files
                       if key.startswith(f"{name}/")}
                for name in WORKLOADS}


@pytest.fixture(scope="module")
def dist_node():
    """A distributed plane with one attached node: ``(plane, agent)``."""
    with DistPlane(DistConfig()) as plane:
        agent = NodeAgent(plane.host, plane.port, n_workers=2)
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        assert plane.wait_for_nodes(1, timeout=30.0)
        yield plane, agent
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("name", list(WORKLOADS))
class TestPlaneParity:
    def test_fork_matches_serial(self, name, serial, forked):
        assert_same(forked[name], serial[name])

    def test_forkserver_matches_serial(self, name, serial):
        wl = build(name)
        with extra_thread():
            assert pool_start_method() == "forkserver"
            got = campaign_arrays(wl, **POOL)
        assert_same(got, serial[name])

    def test_dist_matches_serial(self, name, serial, dist_node):
        plane, agent = dist_node
        served = agent.leases_served
        got = campaign_arrays(build(name), dist=plane)
        assert agent.leases_served > served  # ``dist=`` alone selects it
        assert_same(got, serial[name])


class TestSpeclessTape:
    def test_runs_under_forkserver(self, cg_tiny):
        bare = copy.copy(cg_tiny)
        bare.program = copy.copy(cg_tiny.program)
        bare.program.spec = None
        flat = np.arange(0, 2000, 3)
        want = run_campaign(bare, mode="sample", experiments=flat).sampled
        with extra_thread():
            got = run_campaign(bare, mode="sample", experiments=flat,
                               **POOL).sampled
        np.testing.assert_array_equal(got.outcomes, want.outcomes)
        np.testing.assert_array_equal(got.injected_errors,
                                      want.injected_errors)


#: marker file of :func:`_outcomes_killing_once`; set by RECOVERY_SCRIPT
KILL_MARKER = None
_TASK_OUTCOMES = campaign_mod._task_outcomes


def _outcomes_killing_once(chunk):
    """Phase-A task whose first call in a forked pool worker kills that
    worker (forkserver workers import this module afresh, unmarked)."""
    if KILL_MARKER is not None \
            and multiprocessing.parent_process() is not None \
            and not os.path.exists(KILL_MARKER):
        open(KILL_MARKER, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return _TASK_OUTCOMES(chunk)


RECOVERY_SCRIPT = """
import sys, threading
import numpy as np
from repro import core
from repro.cfg.workload import CfgWorkload
from repro.core import campaign
from repro.parallel.resilience import RetryPolicy
from tests.cfg.conftest import build_countdown
from tests.core import test_start_methods as here
bare = CfgWorkload(program=build_countdown(), tolerance=0.5,
                   description="spec-less countdown")
serial = core.run_campaign(bare, mode="exhaustive").exhaustive
here.KILL_MARKER = sys.argv[1]
campaign._task_outcomes = here._outcomes_killing_once
methods = []
build = campaign._process_pool

def recording(*args):
    methods.append(campaign.pool_start_method())
    return build(*args)

campaign._process_pool = recording
assert threading.active_count() == 1
result = core.run_campaign(bare, mode="exhaustive", n_workers=2,
                           retry_policy=RetryPolicy(max_retries=2))
health = result.health
assert (health.worker_deaths, health.pool_rebuilds) == (1, 1), health
assert methods == ["fork", "fork"], methods
assert not health.degraded_to_serial
np.testing.assert_array_equal(result.exhaustive.outcomes, serial.outcomes)
np.testing.assert_array_equal(result.exhaustive.injected_errors,
                              serial.injected_errors)
"""


class TestRecovery:
    def test_rebuilt_pool_forks_again(self, tmp_path):
        """A worker death in a one-thread campaign rebuilds the pool by
        ``fork``, and the campaign finishes bit-identical to serial."""
        run_fresh(RECOVERY_SCRIPT, str(tmp_path / "killed"))
        assert (tmp_path / "killed").exists()


def _die(_chunk):
    os.kill(os.getpid(), signal.SIGKILL)


class TestForkserverTeardown:
    """A campaign's executor leaves no live worker behind, whatever ends
    the campaign; a second thread makes its workers start from the
    forkserver."""

    def test_normal_run_leaves_no_child(self, cg_tiny):
        before = set(multiprocessing.active_children())
        with extra_thread(), campaign_mod._campaign_executor(
                cg_tiny, 2) as pool:
            assert pool_start_method() == "forkserver"
            chunks = campaign_mod._chunk_flats(cg_tiny,
                                               np.arange(64), 1 << 14)
            pool.run(campaign_mod._task_outcomes, chunks)
            assert set(multiprocessing.active_children()) > before
        assert set(multiprocessing.active_children()) <= before

    def test_killed_worker_leaves_no_child(self, cg_tiny):
        # No retry: after a rebuild the serial drain would run _die here.
        before = set(multiprocessing.active_children())
        with pytest.raises(WorkerDeath), extra_thread():
            with campaign_mod._campaign_executor(
                    cg_tiny, 2, RetryPolicy(max_retries=0)) as pool:
                pool.run(_die, [np.arange(4)])
        assert set(multiprocessing.active_children()) <= before

    def test_keyboard_interrupt_leaves_no_child(self, cg_tiny):
        before = set(multiprocessing.active_children())
        with pytest.raises(KeyboardInterrupt), extra_thread():
            with campaign_mod._campaign_executor(cg_tiny, 2) as pool:
                pool.run(campaign_mod._task_outcomes, [np.arange(4)])
                assert set(multiprocessing.active_children()) > before
                raise KeyboardInterrupt  # user hits ^C mid-campaign
        assert set(multiprocessing.active_children()) <= before


def _count_builds(monkeypatch) -> list:
    """Record every pool the campaigns build (each ``_process_pool``
    call)."""
    builds = []
    build = campaign_mod._process_pool

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(campaign_mod, "_process_pool", counting)
    return builds


class TestOnePoolPerCampaign:
    @pytest.mark.parametrize("config", [
        {"mode": "monte_carlo", "sampling_rate": 0.05, "seed": 3},
        {"mode": "adaptive", "seed": 1},
    ], ids=["monte_carlo", "adaptive"])
    def test_campaign_builds_one_pool(self, cg_tiny, monkeypatch, config):
        builds = _count_builds(monkeypatch)
        result = run_campaign(cg_tiny, n_workers=2, **config)
        if config["mode"] == "adaptive":
            assert result.rounds > 1
        assert len(builds) == 1

    def test_resumed_campaign_builds_no_pool(self, cg_tiny, monkeypatch,
                                             tmp_path):
        """The pool starts with the first pending chunk, so a campaign
        whose checkpoint holds every chunk starts none."""
        cp = CampaignCheckpoint(tmp_path / "cp", cg_tiny)
        first = run_campaign(cg_tiny, mode="exhaustive", checkpoint=cp)
        builds = _count_builds(monkeypatch)
        again = run_campaign(cg_tiny, mode="exhaustive", n_workers=2,
                             checkpoint=CampaignCheckpoint(
                                 tmp_path / "cp", cg_tiny, resume=True))
        assert len(builds) == 0
        np.testing.assert_array_equal(again.exhaustive.outcomes,
                                      first.exhaustive.outcomes)

    def test_resumed_campaign_builds_no_replay_plan(self, monkeypatch,
                                                    tmp_path):
        """Nor does it plan a replay: a fresh workload's trace still
        holds no replay plan after the resumed pool campaign."""
        first = run_campaign(build("cg"), mode="exhaustive",
                             checkpoint=CampaignCheckpoint(tmp_path / "cp",
                                                           build("cg")))
        fresh = build("cg")
        builds = _count_builds(monkeypatch)
        again = run_campaign(fresh, mode="exhaustive", n_workers=2,
                             checkpoint=CampaignCheckpoint(
                                 tmp_path / "cp", fresh, resume=True))
        assert len(builds) == 0
        assert "_replay_plan" not in vars(fresh.trace)
        np.testing.assert_array_equal(again.exhaustive.outcomes,
                                      first.exhaustive.outcomes)
