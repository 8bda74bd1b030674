"""Parallel campaign execution: partitioning, RNG streams, executors,
shared-memory transport, fault tolerance."""

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
from .shm import (
    ShmArrayBundle,
    ShmAttachment,
    ShmHandle,
    attach_arrays,
    owned_segment_names,
    publish_arrays,
)

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
    "ShmArrayBundle",
    "ShmAttachment",
    "ShmHandle",
    "StderrProgress",
    "TaskError",
    "TaskTimeout",
    "WorkerDeath",
    "as_progress",
    "attach_arrays",
    "chunk_balanced_by_cost",
    "chunk_by_size",
    "chunk_evenly",
    "chunk_for_workers",
    "default_workers",
    "owned_segment_names",
    "pool_start_method",
    "publish_arrays",
    "spawn_generators",
    "trial_generators",
]
