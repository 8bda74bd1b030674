"""Correctness oracle of the end-to-end benchmark.

Three checks, strongest first:

* **Reference digests** (``reference.json``): sha256 of each exhaustive
  outcome grid, of each adaptive boundary's thresholds plus its sampled
  indices, and of every boundary the service publishes, recorded for
  seeds 0-4 at the commit that defined the benchmark.  An output with a
  reference must match it bit for bit.
* **Spot checks** for outputs without a reference: a seeded sample of
  experiments is re-run serially through ``repro.core.run_campaign`` and
  must classify exactly as the checked output says.
* **Query verdicts**: every boundary point query must return a
  threshold published for that key and ``masked == (eps <= threshold)``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

#: Experiments re-run per spot-checked output.
SPOT_CHECKS = 64


def digest(*arrays: np.ndarray) -> str:
    """sha256 over dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


class References:
    """Reference digests keyed ``<workload>/<item>/s<seed>``.

    With ``record=True`` every digest passed to :meth:`check` is stored
    instead of compared, and :meth:`save` writes the file.
    """

    def __init__(self, path: Path = REFERENCE, record: bool = False):
        self.path = path
        self.record = record
        self.items: dict[str, str] = {}
        if path.exists():
            self.items = json.loads(path.read_text())["items"]

    def check(self, key: str, value: str) -> str:
        """``verified``, ``partial`` (no reference) or ``mismatch``."""
        if self.record:
            self.items[key] = value
            return "verified"
        expected = self.items.get(key)
        if expected is None:
            return "partial"
        return "verified" if expected == value else "mismatch"

    def save(self) -> None:
        doc = {"about": "sha256 digests of benchmark outputs; see "
                        "oracle.py for what each digest covers",
               "items": dict(sorted(self.items.items()))}
        self.path.write_text(json.dumps(doc, indent=1) + "\n")


def exhaustive_output(path: Path):
    """``(n_experiments, digest, result)`` of an exhaustive ``.npz``."""
    from repro.io.store import load_exhaustive

    result = load_exhaustive(path)
    return int(result.outcomes.size), digest(result.outcomes), result


def adaptive_output(boundary_path: Path, sampled_path: Path):
    """``(n_experiments, digest, sampled)`` of an adaptive campaign."""
    from repro.io.store import load_boundary, load_sampled

    boundary = load_boundary(boundary_path)
    sampled = load_sampled(sampled_path)
    return (int(sampled.n_samples), digest(boundary.thresholds, sampled.flat),
            sampled)


def boundary_thresholds(path: Path) -> np.ndarray:
    from repro.io.store import load_boundary

    return load_boundary(path).thresholds


def spot_check(kernel: str, params: dict, flat: np.ndarray,
               outcomes: np.ndarray, seed: int) -> bool:
    """Re-run a seeded subset of ``flat`` serially; outcomes must agree.

    ``outcomes[i]`` is the checked output's verdict for ``flat[i]``.
    """
    from repro import core, kernels

    rng = np.random.default_rng(seed)
    pick = rng.choice(len(flat), size=min(SPOT_CHECKS, len(flat)),
                      replace=False)
    expected = dict(zip(flat[pick].tolist(), outcomes[pick].tolist()))
    result = core.run_campaign(kernels.build(kernel, **params),
                               mode="sample", experiments=flat[pick])
    got = dict(zip(result.sampled.flat.tolist(),
                   result.sampled.outcomes.tolist()))
    return got == expected


def spot_check_exhaustive(kernel: str, params: dict, result,
                          seed: int) -> bool:
    flat = np.arange(result.space.size, dtype=np.int64)
    return spot_check(kernel, params, flat, result.outcomes.ravel(), seed)


def spot_check_sampled(kernel: str, params: dict, sampled,
                       seed: int) -> bool:
    return spot_check(kernel, params, sampled.flat, sampled.outcomes, seed)


def query_ok(resp: dict, site: int, eps: float,
             versions: list[np.ndarray]) -> bool:
    """A point verdict is right when its threshold is one published for
    the key at ``site`` and ``masked == (eps <= threshold)``."""
    thr = resp.get("threshold")
    if resp.get("site") != site or not isinstance(thr, float):
        return False
    published = any(float(v[site]) == thr
                    or (math.isnan(thr) and math.isnan(float(v[site])))
                    for v in versions)
    return published and resp.get("masked") == bool(eps <= thr)
