"""Parallel campaign execution: partitioning, RNG streams, executors,
fault tolerance."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".executor": (
        "CampaignExecutor",
        "ProcessPoolCampaignExecutor",
        "SerialExecutor",
        "default_workers",
        "pool_start_method",
    ),
    ".partition": (
        "chunk_balanced_by_cost",
        "chunk_by_size",
        "chunk_evenly",
        "chunk_for_workers",
    ),
    ".progress": (
        "CallbackProgress",
        "NullProgress",
        "StderrProgress",
        "as_progress",
    ),
    ".resilience": (
        "CampaignExecutionError",
        "CampaignHealth",
        "RetryPolicy",
        "TaskError",
        "TaskTimeout",
        "WorkerDeath",
    ),
    ".rng": ("spawn_generators", "trial_generators"),
})
