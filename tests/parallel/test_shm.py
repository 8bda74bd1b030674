"""Tests for the shared-memory array transport (repro.parallel.shm)."""

import os
import pickle
import signal

import numpy as np
import pytest

from repro.core import campaign as campaign_mod
from repro.parallel import shm as shm_mod
from repro.parallel.shm import (
    attach_arrays,
    owned_segment_names,
    publish_arrays,
)

from tests.helpers import extra_thread


def _arrays():
    return {
        "ops": np.arange(7, dtype=np.uint8),
        "values": np.linspace(-1.0, 1.0, 11, dtype=np.float32),
        "operands": np.arange(12, dtype=np.int32).reshape(4, 3),
        "flags": np.array([True, False, True]),
    }


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


class TestRoundtrip:
    def test_attach_sees_identical_arrays_and_meta(self):
        with publish_arrays(_arrays(), meta={"kernel": "toy", "n": 8}) as b:
            att = attach_arrays(b.handle)
            try:
                assert set(att.arrays) == set(_arrays())
                for key, src in _arrays().items():
                    got = att.arrays[key]
                    assert got.dtype == src.dtype and got.shape == src.shape
                    np.testing.assert_array_equal(got, src)
                assert att.meta == {"kernel": "toy", "n": 8}
            finally:
                att.close()

    def test_views_are_read_only(self):
        with publish_arrays(_arrays()) as b:
            att = attach_arrays(b.handle)
            try:
                with pytest.raises(ValueError):
                    att.arrays["values"][0] = 99.0
            finally:
                att.close()

    def test_layout_is_aligned(self):
        with publish_arrays(_arrays()) as b:
            assert all(s.offset % shm_mod._ALIGN == 0
                       for s in b.handle.specs)

    def test_handle_is_picklable(self):
        with publish_arrays(_arrays(), meta={"k": 1}) as b:
            handle = pickle.loads(pickle.dumps(b.handle))
            att = attach_arrays(handle)
            try:
                np.testing.assert_array_equal(att.arrays["ops"],
                                              _arrays()["ops"])
            finally:
                att.close()

    def test_empty_publish_rejected(self):
        with pytest.raises(ValueError):
            publish_arrays({})


class TestLifecycle:
    def test_close_unlinks_and_is_idempotent(self):
        bundle = publish_arrays(_arrays())
        name = bundle.name
        assert name in owned_segment_names()
        assert _segment_exists(name)
        bundle.close()
        bundle.close()  # idempotent
        assert name not in owned_segment_names()
        assert not _segment_exists(name)
        with pytest.raises(FileNotFoundError):
            attach_arrays(bundle.handle)

    def test_context_manager_unlinks_on_error(self):
        with pytest.raises(RuntimeError):
            with publish_arrays(_arrays()) as bundle:
                name = bundle.name
                raise RuntimeError("campaign blew up")
        assert not _segment_exists(name)
        assert name not in owned_segment_names()

    def test_attachments_survive_owner_unlink(self):
        # Closing the plane while a pool drains must not kill live readers:
        # unlink removes the name, existing mappings stay valid.
        bundle = publish_arrays(_arrays())
        att = attach_arrays(bundle.handle)
        bundle.close()
        try:
            np.testing.assert_array_equal(att.arrays["values"],
                                          _arrays()["values"])
        finally:
            att.close()

    def test_attach_does_not_register_with_resource_tracker(self):
        # A worker attachment must stay invisible to the (shared, under
        # fork) resource tracker; otherwise worker exit unlinks the
        # owner's live segment.
        from multiprocessing import resource_tracker

        registered = []
        original = resource_tracker.register

        def recording_register(*a, **k):
            registered.append(a)
            return original(*a, **k)

        resource_tracker.register = recording_register
        try:
            with publish_arrays(_arrays()) as b:
                name = b.name
                att = attach_arrays(b.handle)
                att.close()
        finally:
            resource_tracker.register = original
        # exactly one registration: the owner's create — not the attach
        assert [a[0].lstrip("/") for a in registered] == [name]


def _die(_chunk):
    os.kill(os.getpid(), signal.SIGKILL)


class TestCampaignPlaneLeaks:
    """The executor context must never leak a segment, even on crashes.

    The campaign publishes a segment only for workers the forkserver
    starts, which it does while a second thread runs."""

    def test_normal_run_leaves_no_segments(self, cg_tiny):
        before = set(owned_segment_names())
        with extra_thread(), campaign_mod._campaign_executor(
                cg_tiny, 2) as pool:
            assert set(owned_segment_names()) == before  # built lazily
            chunks = campaign_mod._chunk_flats(cg_tiny,
                                               np.arange(64), 1 << 14)
            pool.run(campaign_mod._task_outcomes, chunks)
            assert set(owned_segment_names()) > before
        assert set(owned_segment_names()) == before

    def test_broken_pool_leaves_no_segments(self, cg_tiny):
        before = set(owned_segment_names())
        with pytest.raises(Exception), extra_thread():
            with campaign_mod._campaign_executor(cg_tiny, 2) as pool:
                pool.run(_die, [np.arange(4)])
        assert set(owned_segment_names()) == before
        leftovers = [n for n in os.listdir("/dev/shm")
                     if n.startswith(shm_mod.SEGMENT_PREFIX)]
        assert leftovers == []

    def test_keyboard_interrupt_leaves_no_segments(self, cg_tiny):
        before = set(owned_segment_names())
        with pytest.raises(KeyboardInterrupt), extra_thread():
            with campaign_mod._campaign_executor(cg_tiny, 2) as pool:
                pool.run(campaign_mod._task_outcomes, [np.arange(4)])
                assert set(owned_segment_names()) > before
                raise KeyboardInterrupt  # user hits ^C mid-campaign
        assert set(owned_segment_names()) == before
