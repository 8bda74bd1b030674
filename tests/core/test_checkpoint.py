"""Tests for campaign checkpoint/resume.

The central property: a campaign interrupted at any point and resumed
from its checkpoint produces results *bit-identical* to an uninterrupted
run.  Interruption is injected through a progress hook that raises
``KeyboardInterrupt`` after a fixed number of chunk completions — the
same signal a user's Ctrl-C delivers between chunks.
"""

import json

import numpy as np
import pytest

from repro.core import (
    CampaignCheckpoint,
    CheckpointMismatchError,
    ProgressiveConfig,
    SampleSpace,
    infer_boundary,
    run_campaign,
    uniform_sample,
)
from repro.core import campaign as campaign_mod
from repro.core.campaign import _chunk_flats
from repro.core.checkpoint import _FORMAT_VERSION
from repro.io.recordlog import read_records
from repro.kernels import build

# Small chunks so campaigns span many checkpointable units.
BUDGET = 1 << 14


class InterruptAfter:
    """Progress hook that raises KeyboardInterrupt mid-campaign."""

    def __init__(self, updates: int):
        self.updates = updates
        self.seen = 0

    def update(self, done, total):
        self.seen += 1
        if self.seen > self.updates:
            raise KeyboardInterrupt

    def finish(self):
        pass


class InterruptInPhase:
    """Progress hook that raises KeyboardInterrupt after ``updates``
    chunk completions of phase ``phase`` (counted from 0 by ``finish``)."""

    def __init__(self, phase: int, updates: int):
        self.phase = phase
        self.updates = updates
        self.finished = 0
        self.seen = 0

    def update(self, done, total):
        if self.finished == self.phase:
            self.seen += 1
            if self.seen > self.updates:
                raise KeyboardInterrupt

    def finish(self):
        self.finished += 1


@pytest.fixture
def sample_flat(cg_tiny, rng):
    space = SampleSpace.of_program(cg_tiny.program)
    return uniform_sample(space, 400, rng)


class TestCheckpointDirectory:
    def test_requires_spec_built_workload(self, cg_tiny, tmp_path):
        import copy

        bare = copy.copy(cg_tiny)
        bare.program = copy.copy(cg_tiny.program)
        bare.program.spec = None
        with pytest.raises(ValueError, match="from_spec"):
            CampaignCheckpoint(tmp_path, bare)

    def test_existing_state_requires_resume(self, cg_tiny, tmp_path):
        CampaignCheckpoint(tmp_path, cg_tiny)
        with pytest.raises(ValueError, match="--resume"):
            CampaignCheckpoint(tmp_path, cg_tiny)
        CampaignCheckpoint(tmp_path, cg_tiny, resume=True)  # fine

    def test_workload_mismatch_rejected(self, cg_tiny, tmp_path):
        CampaignCheckpoint(tmp_path, cg_tiny)
        other = build("cg", n=8, iters=4)
        with pytest.raises(CheckpointMismatchError, match="from_spec"):
            CampaignCheckpoint(tmp_path, other, resume=True)

    def test_tolerance_change_is_a_mismatch(self, tmp_path):
        a = build("cg", n=8, iters=8)
        CampaignCheckpoint(tmp_path, a)
        b = build("cg", n=8, iters=8)
        b.tolerance = a.tolerance * 2
        with pytest.raises(CheckpointMismatchError):
            CampaignCheckpoint(tmp_path, b, resume=True)

    def test_unknown_format_version_rejected(self, cg_tiny, tmp_path):
        CampaignCheckpoint(tmp_path, cg_tiny)
        meta_path = tmp_path / "checkpoint.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = _FORMAT_VERSION + 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format version"):
            CampaignCheckpoint(tmp_path, cg_tiny, resume=True)


class TestPhaseAResume:
    def test_interrupted_run_resumes_bit_identical(self, cg_tiny,
                                                   sample_flat, tmp_path):
        reference = run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET).sampled
        ck = CampaignCheckpoint(tmp_path, cg_tiny)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET, checkpoint=ck, progress=InterruptAfter(2)).sampled
        resumed = run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET, checkpoint=CampaignCheckpoint(tmp_path, cg_tiny, resume=True)).sampled
        assert np.array_equal(resumed.flat, reference.flat)
        assert np.array_equal(resumed.outcomes, reference.outcomes)
        assert np.array_equal(resumed.injected_errors,
                              reference.injected_errors)

    def test_resume_skips_completed_chunks(self, cg_tiny, sample_flat,
                                           tmp_path, monkeypatch):
        ck = CampaignCheckpoint(tmp_path, cg_tiny)
        run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET, checkpoint=ck).sampled

        from repro.core import campaign as campaign_mod

        def _boom(chunk):
            raise AssertionError("completed chunk was re-run")

        monkeypatch.setattr(campaign_mod, "_task_outcomes", _boom)
        resumed = run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET, checkpoint=CampaignCheckpoint(tmp_path, cg_tiny, resume=True)).sampled
        assert resumed.n_samples == len(sample_flat)

    def test_corrupt_chunk_file_ignored_and_rerun(self, cg_tiny,
                                                  sample_flat, tmp_path):
        ck = CampaignCheckpoint(tmp_path, cg_tiny)
        run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET, checkpoint=ck).sampled
        (chunk_log,) = tmp_path.glob("a-*.log")
        assert len(read_records(chunk_log)) > 2
        chunk_log.write_bytes(b"not a record log")
        resumed = run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET, checkpoint=CampaignCheckpoint(tmp_path, cg_tiny, resume=True)).sampled
        reference = run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET).sampled
        assert np.array_equal(resumed.outcomes, reference.outcomes)

    def test_different_chunk_layout_starts_clean(self, cg_tiny,
                                                 sample_flat, tmp_path):
        """A resume with a different batch budget must not mix layouts."""
        ck = CampaignCheckpoint(tmp_path, cg_tiny)
        run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET, checkpoint=ck).sampled
        resumed = run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET * 2, checkpoint=CampaignCheckpoint(tmp_path, cg_tiny, resume=True)).sampled
        reference = run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET * 2).sampled
        assert np.array_equal(resumed.outcomes, reference.outcomes)


class TestPhaseBResume:
    def test_interrupted_inference_resumes_bit_identical(
            self, cg_tiny, sample_flat, tmp_path):
        sampled = run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET).sampled
        reference = infer_boundary(cg_tiny, sampled, batch_budget=BUDGET)
        ck = CampaignCheckpoint(tmp_path, cg_tiny)
        with pytest.raises(KeyboardInterrupt):
            infer_boundary(cg_tiny, sampled, batch_budget=BUDGET,
                           checkpoint=ck, progress=InterruptAfter(1))
        resumed = infer_boundary(
            cg_tiny, sampled, batch_budget=BUDGET,
            checkpoint=CampaignCheckpoint(tmp_path, cg_tiny, resume=True))
        assert np.array_equal(resumed.thresholds, reference.thresholds)
        assert np.array_equal(resumed.info, reference.info)
        assert np.array_equal(resumed.exact, reference.exact)

    def test_filter_settings_key_the_partial(self, cg_tiny, sample_flat,
                                             tmp_path):
        """Filtered and unfiltered aggregations must not share state."""
        sampled = run_campaign(cg_tiny, mode="sample", experiments=sample_flat, batch_budget=BUDGET).sampled
        ck = CampaignCheckpoint(tmp_path, cg_tiny)
        b_filtered = infer_boundary(cg_tiny, sampled, batch_budget=BUDGET,
                                    use_filter=True, checkpoint=ck)
        ck2 = CampaignCheckpoint(tmp_path, cg_tiny, resume=True)
        b_plain = infer_boundary(cg_tiny, sampled, batch_budget=BUDGET,
                                 use_filter=False, exact_rule=False,
                                 checkpoint=ck2)
        reference = infer_boundary(cg_tiny, sampled, batch_budget=BUDGET,
                                   use_filter=False, exact_rule=False)
        assert np.array_equal(b_plain.thresholds, reference.thresholds)
        assert np.any(b_plain.thresholds != b_filtered.thresholds)


class TestMonteCarloResume:
    def test_killed_campaign_resumes_bit_identical_to_serial(
            self, cg_tiny, tmp_path):
        """Acceptance: kill a checkpointed campaign mid-run (parent
        KeyboardInterrupt), resume with the same seed, and get results
        bit-identical to the uninterrupted serial run."""
        _mc = run_campaign(cg_tiny, mode="monte_carlo", sampling_rate=0.05, rng=np.random.default_rng(11), batch_budget=BUDGET)
        ref_sampled, ref_boundary = _mc.sampled, _mc.boundary

        ck = CampaignCheckpoint(tmp_path, cg_tiny)
        with pytest.raises(KeyboardInterrupt):
            # interrupt phase A partway through its chunks
            run_campaign(cg_tiny, mode="sample", experiments=uniform_sample(SampleSpace.of_program(cg_tiny.program),
                               ref_sampled.n_samples,
                               np.random.default_rng(11)), batch_budget=BUDGET, checkpoint=ck, progress=InterruptAfter(2)).sampled

        _mc = run_campaign(cg_tiny, mode="monte_carlo", sampling_rate=0.05, rng=np.random.default_rng(11), batch_budget=BUDGET, checkpoint=CampaignCheckpoint(tmp_path, cg_tiny, resume=True))
        sampled, boundary = _mc.sampled, _mc.boundary
        assert np.array_equal(sampled.flat, ref_sampled.flat)
        assert np.array_equal(sampled.outcomes, ref_sampled.outcomes)
        assert np.array_equal(sampled.injected_errors,
                              ref_sampled.injected_errors)
        assert np.array_equal(boundary.thresholds, ref_boundary.thresholds)
        assert np.array_equal(boundary.info, ref_boundary.info)


class TestAdaptiveResume:
    def test_partial_rounds_resume_bit_identical(self, cg_tiny, tmp_path):
        config = ProgressiveConfig(round_fraction=0.01, max_rounds=6)
        reference = run_campaign(cg_tiny, mode="adaptive", rng=np.random.default_rng(42), progressive=config)

        # run only the first two rounds, checkpointing each
        partial_cfg = ProgressiveConfig(round_fraction=0.01, max_rounds=2)
        partial = run_campaign(cg_tiny, mode="adaptive", rng=np.random.default_rng(42), progressive=partial_cfg, checkpoint=CampaignCheckpoint(tmp_path,
                                                             cg_tiny))
        assert partial.rounds == 2

        resumed = run_campaign(cg_tiny, mode="adaptive", rng=np.random.default_rng(42), progressive=config, checkpoint=CampaignCheckpoint(tmp_path, cg_tiny, resume=True))
        assert resumed.rounds == reference.rounds
        assert np.array_equal(resumed.sampled.flat, reference.sampled.flat)
        assert np.array_equal(resumed.sampled.outcomes,
                              reference.sampled.outcomes)
        assert np.array_equal(resumed.boundary.thresholds,
                              reference.boundary.thresholds)
        assert resumed.round_history == reference.round_history

    def test_interrupted_inside_a_round_resumes_bit_identical(
            self, cg_tiny, tmp_path):
        """Ctrl-C in the middle of round 3: rounds 1-2 are on disk, the
        resumed run rebuilds the sampler and the guide from them and
        redraws round 3 exactly."""
        config = ProgressiveConfig(round_fraction=0.01, max_rounds=6)
        reference = run_campaign(cg_tiny, mode="adaptive",
                                 rng=np.random.default_rng(42),
                                 progressive=config, batch_budget=BUDGET)
        ck = CampaignCheckpoint(tmp_path, cg_tiny)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(cg_tiny, mode="adaptive",
                         rng=np.random.default_rng(42), progressive=config,
                         batch_budget=BUDGET, checkpoint=ck,
                         progress=InterruptInPhase(phase=2, updates=10))
        assert len(read_records(tmp_path / "adaptive.log")) == 2

        resumed = run_campaign(
            cg_tiny, mode="adaptive", rng=np.random.default_rng(42),
            progressive=config, batch_budget=BUDGET,
            checkpoint=CampaignCheckpoint(tmp_path, cg_tiny, resume=True))
        assert resumed.rounds == reference.rounds
        assert resumed.round_history == reference.round_history
        for key in ("flat", "outcomes", "injected_errors"):
            assert np.array_equal(getattr(resumed.sampled, key),
                                  getattr(reference.sampled, key)), key
        for key in ("thresholds", "info", "exact"):
            assert np.array_equal(getattr(resumed.boundary, key),
                                  getattr(reference.boundary, key)), key

    def test_round_records_hold_only_new_samples(self, cg_tiny, tmp_path):
        """A round appends its own samples (17 B each) and a constant,
        never state that grows with the campaign or the program."""
        config = ProgressiveConfig(round_fraction=0.01, max_rounds=6)
        result = run_campaign(cg_tiny, mode="adaptive",
                              rng=np.random.default_rng(42),
                              progressive=config,
                              checkpoint=CampaignCheckpoint(tmp_path,
                                                            cg_tiny))
        records = read_records(tmp_path / "adaptive.log")
        assert len(records) == result.rounds
        start = 0
        for record in records:
            n = len(record.arrays["flat"])
            assert record.end - start <= 17 * n + 4096
            start = record.end
        assert sum(len(r.arrays["flat"]) for r in records) \
            == result.sampled.n_samples

    def test_finished_campaign_resumes_without_rerunning_rounds(
            self, cg_tiny, tmp_path):
        config = ProgressiveConfig(round_fraction=0.01, max_rounds=3)
        first = run_campaign(cg_tiny, mode="adaptive", rng=np.random.default_rng(42), progressive=config, checkpoint=CampaignCheckpoint(tmp_path,
                                                           cg_tiny))
        again = run_campaign(cg_tiny, mode="adaptive", rng=np.random.default_rng(42), progressive=config, checkpoint=CampaignCheckpoint(tmp_path, cg_tiny, resume=True))
        assert again.rounds == first.rounds
        assert np.array_equal(again.sampled.flat, first.sampled.flat)
        assert np.array_equal(again.boundary.thresholds,
                              first.boundary.thresholds)


def _sample(workload, flat, directory, **kwargs):
    """A checkpointed sample campaign resumed from ``directory``."""
    return run_campaign(workload, mode="sample", experiments=flat,
                        batch_budget=BUDGET,
                        checkpoint=CampaignCheckpoint(directory, workload,
                                                      resume=True),
                        **kwargs).sampled


def _reran_chunks(monkeypatch) -> list[np.ndarray]:
    """Record every phase-A chunk that runs from here on."""
    ran = []
    task = campaign_mod._task_outcomes

    def recording(chunk):
        ran.append(np.array(chunk))
        return task(chunk)

    monkeypatch.setattr(campaign_mod, "_task_outcomes", recording)
    return ran


def _assert_same_sample(a, b):
    for key in ("flat", "outcomes", "injected_errors"):
        assert np.array_equal(getattr(a, key), getattr(b, key)), key


class TestLogFailureModes:
    """Damage a finished campaign's logs the way a crash, a bad disk or
    a zombie writer would; resume must re-run exactly the lost chunks and
    stay bit-identical to an uninterrupted run."""

    @pytest.fixture
    def finished(self, cg_tiny, sample_flat, tmp_path):
        run_campaign(cg_tiny, mode="sample", experiments=sample_flat,
                     batch_budget=BUDGET,
                     checkpoint=CampaignCheckpoint(tmp_path, cg_tiny))
        (log,) = tmp_path.glob("a-*.log")
        return log, read_records(log)

    @pytest.fixture
    def reference(self, cg_tiny, sample_flat):
        return run_campaign(cg_tiny, mode="sample", experiments=sample_flat,
                            batch_budget=BUDGET).sampled

    def test_torn_tail_reruns_only_that_chunk(
            self, cg_tiny, sample_flat, tmp_path, finished, reference,
            monkeypatch):
        log, records = finished
        # A writer killed mid-append leaves half of the last record.
        with open(log, "r+b") as fh:
            fh.truncate((records[-2].end + records[-1].end) // 2)
        ran = _reran_chunks(monkeypatch)
        _assert_same_sample(_sample(cg_tiny, sample_flat, tmp_path),
                            reference)
        chunks = _chunk_flats(cg_tiny, np.asarray(sample_flat), BUDGET)
        assert len(ran) == 1
        assert np.array_equal(ran[0], chunks[records[-1].meta["chunk"]])
        # The torn half was cut off before the re-run chunk was appended.
        healed = read_records(log)
        assert len(healed) == len(records)
        assert healed[-1].end == log.stat().st_size

    def test_corrupt_middle_record_reruns_it_and_every_later_one(
            self, cg_tiny, sample_flat, tmp_path, finished, reference,
            monkeypatch):
        log, records = finished
        k = len(records) // 2
        data = bytearray(log.read_bytes())
        data[records[k].end - 1] ^= 0x40  # an injected error's top byte
        log.write_bytes(bytes(data))
        ran = _reran_chunks(monkeypatch)
        _assert_same_sample(_sample(cg_tiny, sample_flat, tmp_path),
                            reference)
        chunks = _chunk_flats(cg_tiny, np.asarray(sample_flat), BUDGET)
        lost = sorted(r.meta["chunk"] for r in records[k:])
        assert len(ran) == len(lost)
        for index, chunk in zip(lost, sorted(ran, key=lambda c: c[0])):
            assert np.array_equal(chunk, chunks[index])
        assert read_records(log)[-1].end == log.stat().st_size

    def test_duplicate_records_count_once(self, cg_tiny, sample_flat,
                                          tmp_path, finished, reference):
        """A zombie owner of a taken-over job appends copies of records
        the new owner already holds; none may count twice."""
        sampled = reference
        boundary = infer_boundary(cg_tiny, sampled, batch_budget=BUDGET)
        infer_boundary(cg_tiny, sampled, batch_budget=BUDGET,
                       checkpoint=CampaignCheckpoint(tmp_path, cg_tiny,
                                                     resume=True))
        a_log, a_records = finished
        (b_log,) = tmp_path.glob("b-*.log")
        for log, first in ((a_log, a_records[0]),
                           (b_log, read_records(b_log)[0])):
            with open(log, "ab") as fh:
                fh.write(log.read_bytes()[:first.end])
        _assert_same_sample(_sample(cg_tiny, sample_flat, tmp_path),
                            reference)
        resumed = infer_boundary(
            cg_tiny, sampled, batch_budget=BUDGET,
            checkpoint=CampaignCheckpoint(tmp_path, cg_tiny, resume=True))
        for key in ("thresholds", "info", "exact"):
            assert np.array_equal(getattr(resumed, key),
                                  getattr(boundary, key)), key

    def test_log_of_another_experiment_set_is_ignored(
            self, cg_tiny, sample_flat, tmp_path, finished):
        """Same size, same chunk lengths, other experiments: only the
        tag in the log's name tells the two layouts apart."""
        space = SampleSpace.of_program(cg_tiny.program)
        other = uniform_sample(space, len(sample_flat),
                               np.random.default_rng(99))
        reference = run_campaign(cg_tiny, mode="sample", experiments=other,
                                 batch_budget=BUDGET).sampled
        _assert_same_sample(_sample(cg_tiny, other, tmp_path), reference)
        assert len(list(tmp_path.glob("a-*.log"))) == 2
