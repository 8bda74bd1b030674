"""Work partitioning for campaign parallelism.

Fault-injection campaigns are embarrassingly parallel across experiments,
but the batched replayer strongly prefers *contiguous site blocks* (the
replay sweep starts at the block's earliest site, so scattering sites across
a chunk wastes replay work).  The partitioners here therefore deal in
ordered index ranges:

* :func:`chunk_evenly` — split ``n`` items into ``k`` near-equal contiguous
  chunks (block partitioning; good locality, slight tail imbalance).
* :func:`chunk_by_size` — fixed-size contiguous chunks (many more chunks
  than workers, letting the pool load-balance dynamically).
* :func:`chunk_for_workers` — :func:`chunk_by_size` with the chunk width
  shrunk so every pool worker gets several chunks; a memory-budget chunk
  size can otherwise leave all the work in one or two chunks and most of
  the pool idle.  It never shrinks below :data:`MIN_POOL_CHUNK` lanes.
* :func:`chunk_balanced_by_cost` — contiguous chunks with approximately
  equal *cost*; exhaustive replay cost of a site block is proportional to
  the tape length remaining after the block start, so early blocks are more
  expensive and naive equal-size chunks leave late workers idle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MIN_POOL_CHUNK", "chunk_evenly", "chunk_by_size",
           "chunk_balanced_by_cost", "chunk_for_workers"]

#: Narrowest chunk :func:`chunk_for_workers` cuts for load balance.  A
#: replay-and-classify call costs about the same at any narrow width
#: (fft n=64: 3.1 ms at 32 lanes, 5.0 ms at 256, 13.1 ms at 1024, i.e.
#: 97, 19 and 13 us per lane; cg-dyn n=8: 11.6 ms at 32, 23.7 ms at
#: 1024), so cutting below this pays that cost again per chunk for
#: balance a pool of a few workers does not need.
MIN_POOL_CHUNK = 1024


def chunk_evenly(n_items: int, n_chunks: int) -> list[np.ndarray]:
    """Split ``range(n_items)`` into ``n_chunks`` near-equal contiguous runs."""
    if n_items < 0 or n_chunks < 1:
        raise ValueError("need non-negative items and at least one chunk")
    if n_items == 0:
        return []
    n_chunks = min(n_chunks, n_items)
    return [np.asarray(c, dtype=np.int64)
            for c in np.array_split(np.arange(n_items), n_chunks)]


def chunk_by_size(indices: np.ndarray, chunk_size: int) -> list[np.ndarray]:
    """Split an index array into consecutive chunks of ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError("chunk size must be positive")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return []
    return [indices[i:i + chunk_size] for i in range(0, indices.size, chunk_size)]


def chunk_for_workers(indices: np.ndarray, chunk_size: int,
                      n_workers: int | None,
                      min_chunks_per_worker: int = 4) -> list[np.ndarray]:
    """Size-bounded chunks, shrunk so the pool can load-balance.

    ``chunk_size`` is the memory-budget ceiling (never exceeded).  When a
    pool is in play, the effective chunk width is additionally capped so
    each worker sees at least ``min_chunks_per_worker`` chunks — early
    chunks of an exhaustive campaign replay much longer tape suffixes than
    late ones, and with one chunk per worker the stragglers dominate —
    but never below ``min(MIN_POOL_CHUNK, chunk_size)``.
    Chunking never changes campaign results (chunk merges are commutative
    over the sorted experiment order), only the dispatch granularity.
    """
    if min_chunks_per_worker < 1:
        raise ValueError("need at least one chunk per worker")
    indices = np.asarray(indices, dtype=np.int64)
    if n_workers and n_workers > 1 and indices.size:
        target = -(-indices.size // (n_workers * min_chunks_per_worker))
        chunk_size = max(1, min(chunk_size, max(target, MIN_POOL_CHUNK)))
    return chunk_by_size(indices, chunk_size)


def chunk_balanced_by_cost(costs: np.ndarray, n_chunks: int) -> list[np.ndarray]:
    """Contiguous chunks of ``range(len(costs))`` with ~equal total cost.

    Uses the prefix-sum heuristic: cut at the positions where cumulative
    cost crosses multiples of ``total / n_chunks``.  For exhaustive replay,
    pass ``costs[i] = tape_length - site_start[i]``.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if np.any(costs < 0):
        raise ValueError("costs must be non-negative")
    if n_chunks < 1:
        raise ValueError("need at least one chunk")
    n = costs.size
    if n == 0:
        return []
    n_chunks = min(n_chunks, n)
    cum = np.cumsum(costs)
    total = cum[-1]
    if total == 0:
        return chunk_evenly(n, n_chunks)
    targets = total * np.arange(1, n_chunks) / n_chunks
    cuts = np.searchsorted(cum, targets, side="left") + 1
    cuts = np.unique(np.clip(cuts, 1, n - 1)) if n > 1 else np.empty(0, np.int64)
    pieces = np.split(np.arange(n), cuts)
    return [np.asarray(p, dtype=np.int64) for p in pieces if p.size]
