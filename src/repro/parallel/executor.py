"""The geometry computer: face-pair kernels for one pair of face sets.

Two block sizes live here. ``cpu_block`` sizes the per-pair kernels
below — small fixed-size blocks with early exit between them, the
multicore-CPU baseline of the paper. ``gpu_block`` sizes the fused
flushes of :mod:`repro.core.batch`, which refinement uses for every
round: numpy vectorization at the kernel-saturating batch size across
all of a round's pairs stands in for the paper's CUDA kernels (the same
batched-versus-blocked contrast, inside one process). The blocked
per-pair methods have no production caller; the per-pair test oracle
and the benchmark's layer tracing use them.

Every call runs inline on the caller's thread; parallelism lives one
level up, in the query executor's target chunks.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.geometry.distance import tri_tri_distance_batch
from repro.geometry.tritri import tri_tri_intersect_batch
from repro.obs import metrics as obs_metrics

__all__ = ["GeometryComputer", "iter_pair_blocks"]

# Batch sizes span 1 .. gpu_block; powers of two keep the histogram honest.
_BATCH_BUCKETS = (1, 8, 16, 32, 48, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

_CPU_BLOCK = 48
_GPU_BLOCK = 4096


def iter_pair_blocks(
    n_a: int, n_b: int, block: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (ii, jj) index arrays covering the n_a x n_b pair space.

    The flattened pair index space is cut into contiguous blocks of
    ``block`` pairs — the paper's small tasks "with a fixed number of
    face pair evaluations" (Section 5.2). Pairs are enumerated row-major
    (all of face 0's pairs first), so an early exit after the first
    blocks has touched whole faces of the first operand — the locality
    the decode cache likes.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    total = n_a * n_b
    for start in range(0, total, block):
        flat = np.arange(start, min(start + block, total))
        yield flat // n_b, flat % n_b


class GeometryComputer:
    """Evaluates intersection / distance between two decoded face sets."""

    def __init__(
        self,
        cpu_block: int = _CPU_BLOCK,
        gpu_block: int = _GPU_BLOCK,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ):
        self.cpu_block = cpu_block
        self.gpu_block = gpu_block
        registry = metrics if metrics is not None else obs_metrics.REGISTRY
        self._m_batch_size = registry.histogram(
            "repro_face_pair_batch_size",
            "Face pairs per kernel launch",
            buckets=_BATCH_BUCKETS,
        )
        self._m_face_pairs = registry.counter(
            "repro_face_pairs_total", "Face pairs evaluated by batched kernels"
        )

    def _note_batch(self, size: int) -> None:
        self._m_batch_size.observe(size)
        self._m_face_pairs.inc(size)

    # -- intersection ---------------------------------------------------------

    def intersects(
        self,
        tris_a: np.ndarray,
        tris_b: np.ndarray,
        stats: dict | None = None,
    ) -> bool:
        """True when any face pair between the two sets intersects.

        Intersection tests are early-exit dominated (most positive pairs
        hit within the first few dozen face pairs), so they use the small
        task granularity; saturating mega-batches would only evaluate
        thousands of pairs past the first hit. This matches the paper's
        Table 1, where GPU acceleration is neutral for the intersection
        test.
        """
        pairs_seen = 0
        hit = False
        for ii, jj in iter_pair_blocks(len(tris_a), len(tris_b), self.cpu_block):
            pairs_seen += len(ii)
            self._note_batch(len(ii))
            if bool(tri_tri_intersect_batch(tris_a[ii], tris_b[jj]).any()):
                hit = True
                break
        if stats is not None:
            stats["pairs"] = stats.get("pairs", 0) + pairs_seen
        return hit

    # -- distance -------------------------------------------------------------

    def min_distance(
        self,
        tris_a: np.ndarray,
        tris_b: np.ndarray,
        stop_below: float = 0.0,
        stats: dict | None = None,
    ) -> float:
        """Minimum face-pair distance between the two sets.

        ``stop_below`` allows early return once the result is known to
        clear a threshold (within queries).
        """
        best = math.inf
        pairs_seen = 0
        for ii, jj in iter_pair_blocks(len(tris_a), len(tris_b), self.cpu_block):
            pairs_seen += len(ii)
            self._note_batch(len(ii))
            dist = float(
                tri_tri_distance_batch(
                    tris_a[ii], tris_b[jj], check_intersection=False
                ).min()
            )
            best = min(best, dist)
            if best <= stop_below:
                break
        if stats is not None:
            stats["pairs"] = stats.get("pairs", 0) + pairs_seen
        return best

    # -- distance per job ------------------------------------------------------

    def pairwise_min_distances(
        self,
        jobs: list[tuple[np.ndarray, np.ndarray]],
        stats: dict | None = None,
    ) -> list[float]:
        """Minimum distance per (tris_a, tris_b) job.

        Each job runs its own blocked loop (:meth:`min_distance`), which
        adds the pairs it evaluated to ``stats["pairs"]``.
        """
        return [self.min_distance(a, b, stats=stats) for a, b in jobs]
