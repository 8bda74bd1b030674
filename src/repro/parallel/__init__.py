"""Parallel campaign execution: partitioning, RNG streams, executors,
fault tolerance."""

from .executor import (
    CampaignExecutor,
    ProcessPoolCampaignExecutor,
    SerialExecutor,
    default_workers,
    pool_start_method,
)
from .partition import (
    chunk_balanced_by_cost,
    chunk_by_size,
    chunk_evenly,
    chunk_for_workers,
)
from .progress import (
    CallbackProgress,
    NullProgress,
    StderrProgress,
    as_progress,
)
from .resilience import (
    CampaignExecutionError,
    CampaignHealth,
    ResilientExecutor,
    RetryPolicy,
    TaskError,
    TaskTimeout,
    WorkerDeath,
)
from .rng import spawn_generators, trial_generators

__all__ = [
    "CampaignExecutionError",
    "CampaignExecutor",
    "CampaignHealth",
    "CallbackProgress",
    "NullProgress",
    "ProcessPoolCampaignExecutor",
    "ResilientExecutor",
    "RetryPolicy",
    "SerialExecutor",
    "StderrProgress",
    "TaskError",
    "TaskTimeout",
    "WorkerDeath",
    "as_progress",
    "chunk_balanced_by_cost",
    "chunk_by_size",
    "chunk_evenly",
    "chunk_for_workers",
    "default_workers",
    "pool_start_method",
    "spawn_generators",
    "trial_generators",
]
