"""A golden trace pickles without its memoized replay plan.

Forkserver pool workers unpickle the campaign workload; a trace whose
plan was already built (by any earlier replay in the process, a serial
campaign's for one) must not carry the plan along, and an unpickled
trace builds its own on first use.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro import kernels
from repro.core import run_campaign
from repro.engine.plan import plan_for
from repro.parallel.executor import pool_start_method

from tests.helpers import assert_same_adaptive, extra_thread


def test_plan_memo_stays_out_of_the_pickle():
    wl = kernels.build("fft", n=16)
    before = len(pickle.dumps(wl.trace))
    plan = plan_for(wl.trace)
    assert len(pickle.dumps(wl.trace)) == before
    clone = pickle.loads(pickle.dumps(wl.trace))
    assert "_replay_plan" not in clone.__dict__
    rebuilt = plan_for(clone)
    assert rebuilt is not plan and rebuilt.n_slots == plan.n_slots
    np.testing.assert_array_equal(clone.values, wl.trace.values)


def test_forkserver_adaptive_matches_serial():
    wl = kernels.build("cg", n=8, iters=8)
    config = dict(mode="adaptive", seed=2)
    want = run_campaign(wl, **config)
    with extra_thread():
        assert pool_start_method() == "forkserver"
        got = run_campaign(wl, n_workers=2, **config)
    assert_same_adaptive(got, want)
