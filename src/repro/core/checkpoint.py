"""Checkpoint/resume for long fault-injection campaigns.

A campaign is a pure function of its workload spec and experiment set, and
its partial results compose exactly:

* **phase A** (outcome classification) concatenates per-chunk outcome and
  injected-error arrays — any completed chunk is final;
* **phase B** (Algorithm 1 aggregation) merges
  :class:`~repro.core.inference.ThresholdAggregator` partials by per-site
  max (``delta_e``) and sum (``info``) — commutative and associative, so a
  partial checkpoint extended by the missing chunks is bit-identical to an
  uninterrupted run;
* **adaptive campaigns** checkpoint per round: the round's new samples and
  the generator state after its draw, so a resumed loop rebuilds the
  sampler and guide from the samples and draws exactly the rounds the
  uninterrupted loop would have drawn.

:class:`CampaignCheckpoint` persists these as append-only record logs
(:mod:`repro.io.recordlog`) in one directory per campaign: each completed
chunk or round appends one uncompressed record, and nothing written is
ever rewritten.  Every artifact is *content-keyed*: the directory is
pinned to a workload (its ``(kernel, params)`` spec + tolerance + norm)
and each phase's log name embeds a hash of the experiment set and chunk
layout, so a stale or foreign log can never be resumed into the wrong
campaign — it is simply ignored, or, for a workload mismatch, rejected
loudly.  Records are keyed by chunk index or round number and the first
copy of a key wins, so a duplicate appended by a zombie owner of a
taken-over job is never counted twice.

Checkpoint format (version 2), inside the checkpoint directory:

* ``checkpoint.json`` — format version + workload provenance/key;
* ``a-<tag>.log`` — one record per completed phase-A chunk: its index,
  outcomes and injected errors;
* ``b-<tag>.log`` — one record per absorbed phase-B chunk: its index,
  experiment count and ``delta_e``/``info`` partial;
* ``adaptive.log`` — one record per adaptive round: its number, new
  samples (flat indices, outcomes, injected errors), history entry,
  masked fraction and the generator state after its draw.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from ..io.recordlog import RecordLog
from ..kernels.workload import Workload, workload_key
from ..obs import metrics as _metrics

__all__ = ["CampaignCheckpoint", "CheckpointMismatchError"]

_FORMAT_VERSION = 2

_SPEC_HINT = (
    "checkpointed campaigns need a workload rebuilt from its "
    "(kernel, params) spec; build it through the kernel registry "
    "(kernels.build / from_spec) so program.spec is set"
)


class CheckpointMismatchError(ValueError):
    """The checkpoint directory belongs to a different campaign."""


def _chunks_tag(chunks: list[np.ndarray], *extra: bytes) -> str:
    """Content hash of an experiment set's chunk layout.

    Hashing every chunk's flat indices pins both the experiment set and
    the chunk boundaries (which depend on the batch budget), so a resume
    with different parameters starts cleanly instead of mixing layouts.
    """
    digest = hashlib.sha256()
    digest.update(np.int64(len(chunks)).tobytes())
    for chunk in chunks:
        digest.update(np.ascontiguousarray(chunk, dtype=np.int64).tobytes())
    for blob in extra:
        digest.update(blob)
    return digest.hexdigest()[:16]


def _append(log: RecordLog, counter: str, meta: dict, **arrays) -> None:
    """Append one record to ``log``, metering it under ``counter``."""
    t0 = time.perf_counter()
    size = log.append(meta, **arrays)
    if _metrics.METRICS.enabled:
        _metrics.inc(counter)
        _metrics.inc("checkpoint.write_bytes", size)
        _metrics.observe("checkpoint.write_seconds",
                         time.perf_counter() - t0)


def _first_per_key(log: RecordLog, key: str, fits=None):
    """``(index, record)`` of the first record of each index in ``log``.

    The index is the record's integer ``meta[key]``.  With ``fits``, only
    records for which ``fits(index, arrays)`` holds count; the rest are
    skipped as if they were not there.
    """
    seen: set[int] = set()
    for record in log.read():
        index = record.meta.get(key)
        if isinstance(index, int) and index not in seen \
                and (fits is None or fits(index, record.arrays)):
            seen.add(index)
            yield index, record


def _shaped(arrays: dict, names: tuple[str, ...], shape: tuple) -> bool:
    return all(name in arrays and arrays[name].shape == shape
               for name in names)


class CampaignCheckpoint:
    """Durable partial state of one workload's campaigns.

    Parameters
    ----------
    directory:
        Checkpoint directory; created if missing.  One directory holds the
        state of one workload's campaign (phase A + phase B + adaptive).
    workload:
        The live workload.  Must be spec-built; the spec/tolerance/norm
        key is stored on first use and verified on every later open.
    resume:
        Opening a directory that already holds campaign state requires
        ``resume=True`` (the CLI's ``--resume``); without it the existing
        state is assumed to be a mistake and rejected.
    """

    def __init__(self, directory: str | Path, workload: Workload,
                 resume: bool = False):
        if workload.spec is None:
            raise ValueError(_SPEC_HINT)
        self.directory = Path(directory)
        self.workload_key = workload_key(workload.spec, workload.tolerance,
                                         workload.norm)
        self._meta_path = self.directory / "checkpoint.json"
        self._adaptive = RecordLog(self.directory / "adaptive.log")
        if self._meta_path.exists():
            meta = json.loads(self._meta_path.read_text())
            version = meta.get("format_version")
            if version != _FORMAT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint format version {version!r} "
                    f"at {self.directory}")
            if meta.get("workload_key") != self.workload_key:
                raise CheckpointMismatchError(
                    f"checkpoint at {self.directory} was written for "
                    f"workload {meta.get('kernel')!r} "
                    f"(key {meta.get('workload_key')}), but the live "
                    f"workload has key {self.workload_key}; {_SPEC_HINT}, "
                    f"with the same params/tolerance/norm as the original "
                    f"campaign — or point the checkpoint at a fresh "
                    f"directory")
            if not resume:
                raise ValueError(
                    f"checkpoint directory {self.directory} already holds "
                    f"campaign state; pass resume=True (--resume) to "
                    f"continue it, or choose a fresh directory")
        else:
            from ..io.store import atomic_write_json  # io.store imports core

            self.directory.mkdir(parents=True, exist_ok=True)
            name, params = workload.spec
            atomic_write_json(self._meta_path, {
                "format_version": _FORMAT_VERSION,
                "workload_key": self.workload_key,
                "kernel": name,
                "params": {str(k): str(v) for k, v in params.items()},
                "tolerance": workload.tolerance,
                "norm": workload.norm,
            })

    # ----------------------------------------------------------- phase A

    def phase_a(self, chunks: list[np.ndarray]) -> "PhaseACheckpoint":
        """Open the phase-A checkpoint of one chunked experiment set."""
        return PhaseACheckpoint(self.directory, chunks)

    # ----------------------------------------------------------- phase B

    def phase_b(
        self,
        chunks: list[np.ndarray],
        caps: np.ndarray | None,
        rel_info_threshold: float,
        n_instructions: int,
    ) -> "PhaseBCheckpoint":
        """Open the phase-B checkpoint of one chunked masked subset."""
        extra = [np.float64(rel_info_threshold).tobytes()]
        extra.append(b"nocaps" if caps is None
                     else np.ascontiguousarray(caps, np.float64).tobytes())
        tag = _chunks_tag(chunks, *extra)
        return PhaseBCheckpoint(self.directory, tag, len(chunks),
                                n_instructions)

    # ---------------------------------------------------------- adaptive

    def save_adaptive_round(self, state: dict, **arrays: np.ndarray) -> None:
        """Append one completed adaptive round.

        ``state`` is the round's JSON-serialisable part and carries its
        number under ``"round"``; ``arrays`` are its new samples.
        """
        _append(self._adaptive, "checkpoint.rounds_written", state, **arrays)

    def load_adaptive_round(self) -> list[tuple[dict, dict[str, np.ndarray]]]:
        """Every completed adaptive round as ``(state, arrays)``, in order.

        Round ``k`` is the first record numbered ``k``; later copies are
        duplicates and skipped, and the rounds end at the first gap.
        """
        rounds = []
        for index, record in _first_per_key(self._adaptive, "round"):
            if index != len(rounds) + 1:
                break
            rounds.append((record.meta, record.arrays))
        return rounds


class PhaseACheckpoint:
    """Per-chunk persistence of phase-A (outcome) results.

    Chunks are final as soon as they complete, so each appends one record
    to the phase's log; a crash loses at most the chunk in flight.
    """

    def __init__(self, directory: Path, chunks: list[np.ndarray]):
        self.chunks = chunks
        self.tag = _chunks_tag(chunks)
        self.log = RecordLog(directory / f"a-{self.tag}.log")

    def completed(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Load all completed chunks: ``{chunk_index: (outcomes, injected)}``.

        Records that fail validation (wrong length, an index outside the
        layout, a copy of an earlier record) are ignored — a chunk without
        a valid record simply re-runs.
        """
        def fits(index, arrays):
            return 0 <= index < len(self.chunks) and _shaped(
                arrays, ("outcomes", "injected_errors"),
                (len(self.chunks[index]),))

        return {index: (record.arrays["outcomes"],
                        record.arrays["injected_errors"])
                for index, record in _first_per_key(self.log, "chunk", fits)}

    def record(self, index: int, outcomes: np.ndarray,
               injected: np.ndarray) -> None:
        """Persist one completed chunk."""
        _append(self.log, "checkpoint.chunks_written", {"chunk": int(index)},
                outcomes=outcomes, injected_errors=injected)


class PhaseBCheckpoint:
    """Per-chunk persistence of phase-B (Algorithm 1) aggregation.

    ``delta_e`` merges by per-instruction max and ``info`` by sum, so the
    chunks' partials merged once each reconstruct the exact aggregation
    state; each absorbed chunk appends its own partial to the phase's log.
    """

    def __init__(self, directory: Path, tag: str, n_chunks: int,
                 n_instructions: int):
        self.log = RecordLog(directory / f"b-{tag}.log")
        self.delta_e = np.zeros(n_instructions, dtype=np.float64)
        self.info = np.zeros(n_instructions, dtype=np.int64)
        self.done = np.zeros(n_chunks, dtype=bool)
        self.n_done = 0

        def fits(index, arrays):
            return 0 <= index < n_chunks and _shaped(
                arrays, ("delta_e", "info"), (n_instructions,))

        for index, record in _first_per_key(self.log, "chunk", fits):
            self._merge(index, record.arrays["delta_e"],
                        record.arrays["info"], record.meta.get("n", 0))

    def _merge(self, index: int, delta_e: np.ndarray, info: np.ndarray,
               n_experiments: int) -> None:
        np.maximum(self.delta_e, delta_e, out=self.delta_e)
        self.info += info
        self.done[index] = True
        self.n_done += int(n_experiments)

    def record(self, index: int, delta_e: np.ndarray, info: np.ndarray,
               n_experiments: int) -> None:
        """Merge one chunk's aggregator partial and persist it."""
        self._merge(index, delta_e, info, n_experiments)
        _append(self.log, "checkpoint.partials_written",
                {"chunk": int(index), "n": int(n_experiments)},
                delta_e=np.asarray(delta_e, dtype=np.float64),
                info=np.asarray(info, dtype=np.int64))
