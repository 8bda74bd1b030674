"""The paper's contribution: fault tolerance boundary construction,
inference, sampling strategies, campaign drivers and evaluation metrics."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".baselines": (
        "PilotGroupingResult",
        "StatisticalEstimate",
        "pilot_grouping_campaign",
        "site_groups",
        "statistical_sdc_estimate",
    ),
    ".boundary": ("FaultToleranceBoundary", "exhaustive_boundary"),
    ".campaign": (
        "AdaptiveResult",
        "CampaignConfig",
        "CampaignResult",
        "ExhaustiveCampaignResult",
        "MonteCarloCampaignResult",
        "SampleCampaignResult",
        "infer_boundary",
        "make_replayer",
        "run_campaign",
    ),
    ".checkpoint": ("CampaignCheckpoint", "CheckpointMismatchError"),
    ".combined": ("CombinedResult", "run_combined"),
    ".confidence": (
        "HoldoutEstimate",
        "holdout_validation",
        "wilson_interval",
    ),
    ".detectors": (
        "DetectorPlan",
        "derive_ranges",
        "detector_plan",
        "evaluate_detectors",
    ),
    ".experiment": ("ExhaustiveResult", "SampledResult", "SampleSpace"),
    ".inference": ("ThresholdAggregator", "exact_site_thresholds"),
    ".metrics": (
        "PredictionQuality",
        "TrialStats",
        "delta_sdc_per_site",
        "evaluate_boundary",
        "precision_recall",
        "sdc_ratio",
        "uncertainty",
    ),
    ".prediction": ("BoundaryPredictor",),
    ".protection": (
        "ProtectionPlan",
        "plan_by_budget",
        "plan_by_target",
        "validate_plan",
    ),
    ".reporting": (
        "format_percent",
        "format_series",
        "format_table",
        "sparkline",
    ),
    ".sampling": (
        "ProgressiveConfig",
        "ProgressiveSampler",
        "bias_probabilities",
        "biased_sample",
        "uniform_sample",
    ),
    ".session": ("CampaignSession",),
})
