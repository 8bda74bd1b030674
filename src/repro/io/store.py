"""Persistence of campaign results and boundaries (NumPy ``.npz``).

Exhaustive ground truth is the expensive artifact of this library (it is
the thing the paper's method exists to avoid); benches and examples cache
it on disk keyed by the workload's ``(kernel, params)`` spec so repeated
runs of different tables reuse one campaign.
"""

from __future__ import annotations

import json
import os
import time
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.boundary import FaultToleranceBoundary
from ..core.experiment import ExhaustiveResult, SampledResult, SampleSpace
from ..kernels.workload import workload_key
from ..obs import metrics as _metrics

__all__ = [
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
]

_FORMAT_VERSION = 1


class StoreError(ValueError):
    """An on-disk artifact is unusable.

    Subclasses distinguish *absent* from *present but undecodable*, so
    services fronting the store can map them to distinct failure modes
    (404 vs 409) instead of parsing ``KeyError``/``OSError`` strings.
    ``ValueError`` stays a base class for backward compatibility.
    """


class StoreNotFoundError(StoreError, FileNotFoundError):
    """The artifact path does not exist."""


class StoreCorruptError(StoreError):
    """The artifact exists but cannot be decoded.

    Covers truncated/garbage archives, missing keys, unsupported schema
    versions, payloads of the wrong kind, and payloads whose contents
    fail validation.
    """


#: Errors meaning "this cached file is unusable" — for explicit ``load_*``
#: calls they propagate (a user-supplied path must fail loudly), but
#: :class:`CampaignCache` treats them as a miss and recomputes.
#: :class:`StoreError` is covered through its ``ValueError``/``OSError``
#: bases.
_CACHE_MISS_ERRORS = (OSError, ValueError, KeyError, EOFError,
                     zipfile.BadZipFile)


@contextmanager
def _open_artifact(path: str | Path, kind: str):
    """Open an ``.npz`` artifact, mapping failures to typed store errors.

    Decode failures raised by the caller's body (missing keys, validation
    errors in the reconstructed objects) are converted too, so every
    reader raises :class:`StoreNotFoundError` / :class:`StoreCorruptError`
    and nothing else.
    """
    path = Path(path)
    if not path.exists():
        raise StoreNotFoundError(f"no {kind} artifact at {path}")
    try:
        with np.load(path, allow_pickle=False) as npz:
            if str(npz["kind"]) != kind:
                raise StoreCorruptError(
                    f"{path} does not hold a {kind} artifact "
                    f"(kind={str(npz['kind'])!r})")
            yield npz
    except StoreError:
        raise
    except _CACHE_MISS_ERRORS as exc:
        raise StoreCorruptError(
            f"cannot decode {kind} artifact {path}: {exc}") from exc


def atomic_savez(path: str | Path, *, compress: bool = True,
                 **arrays) -> None:
    """Write an ``.npz`` atomically (tmp file + rename).

    Artifacts are published while readers may be loading them; a crash or
    Ctrl-C mid-write must never leave a truncated archive where a valid
    one stood.  Published artifacts are zlib-compressed once, here;
    ``compress=False`` suits state rewritten often and read rarely, such
    as the optimize search's per-generation checkpoint.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    metered = _metrics.METRICS.enabled
    if metered:
        t0 = time.perf_counter()
    try:
        with open(tmp, "wb") as fh:  # file handle: savez must not append .npz
            (np.savez_compressed if compress else np.savez)(fh, **arrays)
        if metered:
            _metrics.inc("store.write_bytes", tmp.stat().st_size)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if metered:
        _metrics.inc("store.writes")
        _metrics.observe("store.write_seconds", time.perf_counter() - t0)


def atomic_write_json(path: str | Path, payload: dict) -> None:
    """Write a JSON document atomically (tmp file + rename)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _version_arrays() -> dict[str, np.ndarray]:
    # "schema_version" is the current key; "format_version" survives so
    # pre-versioned archives keep loading (both must agree when present).
    return {
        "format_version": np.asarray(_FORMAT_VERSION),
        "schema_version": np.asarray(_FORMAT_VERSION),
    }


def _check_version(npz) -> None:
    version = int(npz["format_version"])
    if "schema_version" in npz:
        version = max(version, int(npz["schema_version"]))
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported store format version {version}")


def _space_arrays(space: SampleSpace) -> dict[str, np.ndarray]:
    return {
        "space_site_indices": space.site_indices,
        "space_bits": np.asarray(space.bits),
        **_version_arrays(),
    }


def _space_from(npz) -> SampleSpace:
    _check_version(npz)
    return SampleSpace(site_indices=npz["space_site_indices"],
                       bits=int(npz["space_bits"]))


def save_exhaustive(path: str | Path, result: ExhaustiveResult) -> None:
    """Persist exhaustive ground truth (outcome + injected-error grids).

    Written atomically (as are all ``save_*`` writers): concurrent
    readers — the campaign cache, the query service's artifact cache —
    see either the previous complete archive or the new one, never a
    torn file.
    """
    atomic_savez(
        path,
        kind="exhaustive",
        outcomes=result.outcomes,
        injected_errors=result.injected_errors,
        **_space_arrays(result.space),
    )


def load_exhaustive(path: str | Path) -> ExhaustiveResult:
    with _open_artifact(path, "exhaustive") as npz:
        return ExhaustiveResult(
            space=_space_from(npz),
            outcomes=npz["outcomes"],
            injected_errors=npz["injected_errors"],
        )


def save_sampled(path: str | Path, result: SampledResult) -> None:
    """Persist a sampled campaign result (atomic write)."""
    atomic_savez(
        path,
        kind="sampled",
        flat=result.flat,
        outcomes=result.outcomes,
        injected_errors=result.injected_errors,
        **_space_arrays(result.space),
    )


def load_sampled(path: str | Path) -> SampledResult:
    with _open_artifact(path, "sampled") as npz:
        return SampledResult(
            space=_space_from(npz),
            flat=npz["flat"],
            outcomes=npz["outcomes"],
            injected_errors=npz["injected_errors"],
        )


def save_boundary(path: str | Path, boundary: FaultToleranceBoundary) -> None:
    """Persist a fault tolerance boundary (thresholds + provenance masks).

    Atomic: republishing a boundary under a live query service must
    never expose a half-written archive.
    """
    extra = {}
    if boundary.info is not None:
        extra["info"] = boundary.info
    atomic_savez(
        path,
        kind="boundary",
        thresholds=boundary.thresholds,
        exact=boundary.exact,
        **extra,
        **_space_arrays(boundary.space),
    )


def load_boundary(path: str | Path) -> FaultToleranceBoundary:
    with _open_artifact(path, "boundary") as npz:
        return FaultToleranceBoundary(
            space=_space_from(npz),
            thresholds=npz["thresholds"],
            exact=npz["exact"],
            info=npz["info"] if "info" in npz else None,
        )


def save_plan(path: str | Path, plan) -> None:
    """Persist a :class:`~repro.core.protection.ProtectionPlan` (atomic)."""
    atomic_savez(
        path,
        kind="protection-plan",
        protected=np.asarray(plan.protected, dtype=np.int64),
        predicted_residual_sdc=np.asarray(float(plan.predicted_residual_sdc)),
        predicted_unprotected_sdc=np.asarray(
            float(plan.predicted_unprotected_sdc)),
        overhead=np.asarray(float(plan.overhead)),
        **_version_arrays(),
    )


def load_plan(path: str | Path):
    from ..core.protection import ProtectionPlan
    with _open_artifact(path, "protection-plan") as npz:
        _check_version(npz)
        return ProtectionPlan(
            protected=npz["protected"].astype(np.int64),
            predicted_residual_sdc=float(npz["predicted_residual_sdc"]),
            predicted_unprotected_sdc=float(
                npz["predicted_unprotected_sdc"]),
            overhead=float(npz["overhead"]),
        )


def save_front(path: str | Path, front, meta: dict | None = None) -> None:
    """Persist a :class:`~repro.optimize.search.ParetoFront` (atomic).

    ``meta`` (JSON-serializable) rides along for provenance — the job
    service stores the workload key and search config there.
    """
    atomic_savez(
        path,
        kind="pareto-front",
        placements=np.asarray(front.placements, dtype=np.int8),
        costs=np.asarray(front.costs, dtype=np.float64),
        residuals=np.asarray(front.residuals, dtype=np.float64),
        modes=np.asarray(list(front.modes)),
        meta_json=np.asarray(json.dumps(meta or {}, sort_keys=True)),
        **_version_arrays(),
    )


def load_front(path: str | Path):
    """Load a Pareto front; returns ``(front, meta)``."""
    from ..optimize.search import ParetoFront
    with _open_artifact(path, "pareto-front") as npz:
        _check_version(npz)
        placements = npz["placements"].astype(np.int8)
        costs = npz["costs"].astype(np.float64)
        residuals = npz["residuals"].astype(np.float64)
        if placements.ndim != 2 or len(placements) != len(costs) \
                or len(costs) != len(residuals):
            raise ValueError("pareto-front arrays are inconsistent")
        front = ParetoFront(
            placements=placements,
            costs=costs,
            residuals=residuals,
            modes=tuple(str(m) for m in npz["modes"]),
        )
        meta = json.loads(str(npz["meta_json"]))
        return front, meta


class CampaignCache:
    """Disk cache of exhaustive results keyed by workload spec.

    >>> cache = CampaignCache("/tmp/repro-cache")           # doctest: +SKIP
    >>> golden = cache.exhaustive(
    ...     workload,
    ...     lambda wl: run_campaign(wl, mode="exhaustive").exhaustive,
    ... )                                                   # doctest: +SKIP
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _key(spec: tuple[str, dict], tolerance: float, norm: str) -> str:
        return workload_key(spec, tolerance, norm)

    def exhaustive(self, workload, runner: Callable) -> ExhaustiveResult:
        """Load the cached ground truth for ``workload`` or run and store it.

        ``runner`` is called as ``runner(workload)`` on a cache miss
        (normally a partial of :func:`repro.core.run_campaign` with
        ``mode="exhaustive"`` that unpacks ``result.exhaustive``).
        """
        if workload.spec is None:
            return runner(workload)  # unnameable workloads are not cached
        key = self._key(workload.spec, workload.tolerance, workload.norm)
        path = self.directory / f"exhaustive-{key}.npz"
        if path.exists():
            try:
                return load_exhaustive(path)
            except _CACHE_MISS_ERRORS:
                pass  # corrupt/truncated/stale-schema file: recompute
        result = runner(workload)
        save_exhaustive(path, result)
        return result
