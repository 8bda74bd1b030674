"""Persistence of campaign artifacts."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".programs": (
        "load_program",
        "load_workload",
        "save_program",
        "save_workload",
    ),
    ".store": (
        "CampaignCache",
        "StoreCorruptError",
        "StoreError",
        "StoreNotFoundError",
        "atomic_savez",
        "atomic_write_json",
        "load_boundary",
        "load_exhaustive",
        "load_front",
        "load_plan",
        "load_sampled",
        "save_boundary",
        "save_exhaustive",
        "save_front",
        "save_plan",
        "save_sampled",
    ),
})
