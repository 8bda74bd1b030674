"""When an adaptive campaign's final phase B runs.

A round's one sweep per experiment classifies it and feeds the guide, so
after the last round the guide holds phase B's unfiltered aggregate of
the whole sample.  The boundary is the guide's unless the §3.5 filter
contests a row (a guide ``delta_e`` above its cap); only then are the
masked experiments replayed under the caps.  Either way the boundary
must equal :func:`infer_boundary` on the campaign's sample.
"""

import numpy as np
import pytest

from repro.core import (
    CampaignCheckpoint,
    ProgressiveConfig,
    infer_boundary,
    run_campaign,
)
from repro.core import campaign as campaign_mod
from repro.core.campaign import _filter_caps


def _phase_b_chunks(monkeypatch) -> list[np.ndarray]:
    """Record every phase-B chunk that runs from here on."""
    ran = []
    task = campaign_mod._task_aggregate

    def recording(args):
        ran.append(np.array(args[0]))
        return task(args)

    monkeypatch.setattr(campaign_mod, "_task_aggregate", recording)
    return ran


def _assert_same_boundary(got, want):
    for key in ("thresholds", "info", "exact"):
        np.testing.assert_array_equal(getattr(got, key), getattr(want, key),
                                      key)


def _contested_rows(workload, sampled) -> int:
    """Rows where the unfiltered aggregate exceeds its §3.5 cap."""
    plain = infer_boundary(workload, sampled, use_filter=False,
                           exact_rule=False)
    caps = _filter_caps(workload, sampled)[sampled.space.site_indices]
    return int(np.count_nonzero(plain.thresholds > caps))


class TestFinalPhaseB:
    def test_uncontested_guide_is_the_boundary(self, fft_tiny, monkeypatch):
        ran = _phase_b_chunks(monkeypatch)
        result = run_campaign(fft_tiny, mode="adaptive", seed=0)
        assert ran == [], "an uncontested guide replayed phase B"
        assert result.sampled.masked_mask.any()
        assert _contested_rows(fft_tiny, result.sampled) == 0
        _assert_same_boundary(result.boundary,
                              infer_boundary(fft_tiny, result.sampled))

    def test_contested_rows_run_phase_b(self, cg_tiny, monkeypatch):
        ran = _phase_b_chunks(monkeypatch)
        result = run_campaign(cg_tiny, mode="adaptive", seed=0)
        assert ran, "contested rows must be replayed under the caps"
        masked = result.sampled.flat[result.sampled.masked_mask]
        assert np.array_equal(np.sort(np.concatenate(ran)), np.sort(masked))
        assert _contested_rows(cg_tiny, result.sampled) > 0
        _assert_same_boundary(result.boundary,
                              infer_boundary(cg_tiny, result.sampled))

    def test_filter_off_takes_the_guide(self, cg_tiny, monkeypatch):
        ran = _phase_b_chunks(monkeypatch)
        result = run_campaign(cg_tiny, mode="adaptive", seed=0,
                              use_filter=False)
        assert ran == []
        _assert_same_boundary(result.boundary, infer_boundary(
            cg_tiny, result.sampled, use_filter=False))

    def test_guide_counts_information_at_the_campaign_threshold(
            self, fft_tiny, monkeypatch):
        """The guide takes ``rel_info_threshold``, so a derived boundary's
        ``info`` is phase B's at that threshold."""
        ran = _phase_b_chunks(monkeypatch)
        result = run_campaign(fft_tiny, mode="adaptive", seed=1,
                              rel_info_threshold=1e-3)
        assert ran == []
        want = infer_boundary(fft_tiny, result.sampled,
                              rel_info_threshold=1e-3)
        _assert_same_boundary(result.boundary, want)
        default = run_campaign(fft_tiny, mode="adaptive", seed=1)
        assert np.any(default.boundary.info != result.boundary.info)

    @pytest.mark.parametrize("kernel", ["fft", "cg"])
    def test_one_finished_phase_b_either_way(self, fft_tiny, cg_tiny,
                                             kernel):
        """Progress sees one phase per round, then one complete phase B;
        tracing sees one ``campaign.phase_b`` span."""
        wl = {"fft": fft_tiny, "cg": cg_tiny}[kernel]
        calls, records = [], []
        result = run_campaign(
            wl, mode="adaptive", seed=0, trace_sink=records.append,
            progress=lambda d, t, phase: calls.append((d, t, phase)))
        n_masked = int(np.count_nonzero(result.sampled.masked_mask))
        final = [(d, t) for d, t, phase in calls if phase == result.rounds]
        assert final[-1] == (n_masked, n_masked)
        assert max(phase for _, _, phase in calls) == result.rounds
        (phase_b,) = [r for r in records if r["name"] == "campaign.phase_b"]
        assert phase_b["n_masked"] == n_masked
        assert phase_b.get("from_guide", False) == (kernel == "fft")


class TestResumedBoundary:
    def test_finished_campaign_derives_without_replaying_rounds(
            self, fft_tiny, tmp_path, monkeypatch):
        """Resuming a finished campaign rebuilds the guide from its
        rounds and derives the boundary: no round runs again and no
        phase-B log is written."""
        config = ProgressiveConfig(round_fraction=0.01, max_rounds=4)
        first = run_campaign(fft_tiny, mode="adaptive", seed=3,
                             progressive=config,
                             checkpoint=CampaignCheckpoint(tmp_path,
                                                           fft_tiny))
        rounds = []
        task = campaign_mod._task_round
        monkeypatch.setattr(campaign_mod, "_task_round",
                            lambda args: rounds.append(args) or task(args))
        again = run_campaign(fft_tiny, mode="adaptive", seed=3,
                             progressive=config,
                             checkpoint=CampaignCheckpoint(
                                 tmp_path, fft_tiny, resume=True))
        assert rounds == []
        assert list(tmp_path.glob("b-*.log")) == []
        _assert_same_boundary(again.boundary, first.boundary)
        assert again.round_history == first.round_history
