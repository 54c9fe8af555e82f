"""Per-query execution statistics and time accounting.

Every join returns a :class:`QueryStats` whose fields are the raw
material of the paper's evaluation artifacts:

* the filter / decode / compute time split (Fig. 10),
* object pairs evaluated and pruned per LOD (Fig. 12 and the Section 4.4
  LOD-selection rule),
* face-pair kernel counts and cache hit/miss counters (Table 2).

One query, one account: the decode provider records each call's cache
traffic, decode time, failures and decoded vertices on the stats of the
query that made it, and the per-LOD pair ledger lives only in the
:class:`~repro.obs.funnel.QueryFunnel` — ``pairs_evaluated_by_lod``,
``pairs_pruned_by_lod``, ``cache_hits`` and ``cache_misses`` are
read-only views of it. Every other field is a plain total, so chunk
stats merge as sums.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.core.jsonsafe import json_safe
from repro.obs.funnel import QueryFunnel

__all__ = ["QueryStats"]

#: Scalar fields that round-trip through ``as_dict``/``from_dict``
#: unchanged (``face_pairs_by_lod`` and the funnel are handled apart).
_SCALAR_FIELDS = (
    "total_seconds", "filter_seconds", "decode_seconds", "compute_seconds",
    "targets", "candidates", "results", "decoded_vertices",
    "degraded_objects", "decode_failures",
)


@dataclass
class QueryStats:
    """Counters and timers for one query or join execution."""

    query: str = ""
    config_label: str = ""

    filter_seconds: float = 0.0
    decode_seconds: float = 0.0
    compute_seconds: float = 0.0
    total_seconds: float = 0.0

    targets: int = 0
    candidates: int = 0
    results: int = 0

    # Face-pair kernel work, per LOD.
    face_pairs_by_lod: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    # Records reinserted by this query's cache-miss decodes, each
    # charged from the base mesh to the served LOD.
    decoded_vertices: int = 0

    # Degraded-mode accounting: distinct objects whose geometry was
    # served below the requested fidelity (LOD fallback, salvage, or
    # total decode failure), and individual decode attempts that raised.
    degraded_objects: int = 0
    decode_failures: int = 0

    # Refinement funnel: the one per-LOD pair ledger (written through
    # RefineContext's ledger_* helpers) plus the decode traffic the
    # provider charges to each requested LOD.
    funnel: QueryFunnel = field(default_factory=QueryFunnel)

    @contextmanager
    def clock(self, phase: str):
        """Accumulate wall time into ``<phase>_seconds``."""
        attr = f"{phase}_seconds"
        if not hasattr(self, attr):
            raise AttributeError(f"unknown phase {phase!r}")
        start = time.perf_counter()
        try:
            yield
        finally:
            setattr(self, attr, getattr(self, attr) + time.perf_counter() - start)

    @property
    def face_pairs_total(self) -> int:
        return sum(self.face_pairs_by_lod.values())

    # -- read-only views of the funnel ---------------------------------------

    @property
    def pairs_evaluated_by_lod(self) -> MappingProxyType:
        """Pairs refined per LOD (Fig. 12): the funnel's ``evaluated``."""
        return self._stage_view("evaluated")

    @property
    def pairs_pruned_by_lod(self) -> MappingProxyType:
        """Pairs settled (result or discard) per LOD: the funnel's ``settled``."""
        return self._stage_view("settled")

    @property
    def cache_hits(self) -> int:
        return sum(stage.cache_hits for stage in self.funnel.stages.values())

    @property
    def cache_misses(self) -> int:
        return sum(stage.cache_misses for stage in self.funnel.stages.values())

    def _stage_view(self, name: str) -> MappingProxyType:
        return MappingProxyType({
            lod: getattr(stage, name)
            for lod, stage in sorted(self.funnel.stages.items())
            if getattr(stage, name)
        })

    @property
    def other_seconds(self) -> float:
        """Wall time not attributed to filter/decode/compute."""
        return max(
            0.0,
            self.total_seconds
            - self.filter_seconds
            - self.decode_seconds
            - self.compute_seconds,
        )

    def pruned_fraction(self, lod: int) -> float:
        """Fraction of pairs refined at ``lod`` that were settled there."""
        evaluated = self.pairs_evaluated_by_lod.get(lod, 0)
        if not evaluated:
            return 0.0
        return self.pairs_pruned_by_lod.get(lod, 0) / evaluated

    def merge(self, other: "QueryStats") -> None:
        """Fold another stats object into this one (multi-batch joins)."""
        self.filter_seconds += other.filter_seconds
        self.decode_seconds += other.decode_seconds
        self.compute_seconds += other.compute_seconds
        self.total_seconds += other.total_seconds
        self.targets += other.targets
        self.candidates += other.candidates
        self.results += other.results
        self.decoded_vertices += other.decoded_vertices
        self.degraded_objects += other.degraded_objects
        self.decode_failures += other.decode_failures
        for lod, count in other.face_pairs_by_lod.items():
            self.face_pairs_by_lod[lod] += count
        self.funnel.merge(other.funnel)

    def as_dict(self) -> dict:
        # json_safe at the boundary: LOD keys and counter values can be
        # numpy scalars (LODTable cumulatives, kernel reductions), which
        # json.dumps rejects; the export contract is builtins only.
        return json_safe({
            "query": self.query,
            "config": self.config_label,
            "total_seconds": self.total_seconds,
            "filter_seconds": self.filter_seconds,
            "decode_seconds": self.decode_seconds,
            "compute_seconds": self.compute_seconds,
            "other_seconds": self.other_seconds,
            "targets": self.targets,
            "candidates": self.candidates,
            "results": self.results,
            "face_pairs_total": self.face_pairs_total,
            "pairs_evaluated_by_lod": dict(self.pairs_evaluated_by_lod),
            "pairs_pruned_by_lod": dict(self.pairs_pruned_by_lod),
            "face_pairs_by_lod": dict(self.face_pairs_by_lod),
            "decoded_vertices": self.decoded_vertices,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "degraded_objects": self.degraded_objects,
            "decode_failures": self.decode_failures,
            "funnel": self.funnel.as_dict(),
        })

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryStats":
        """Rebuild stats from :meth:`as_dict` output (the wire round trip).

        Accepts ``face_pairs_by_lod`` keys as ints or decimal strings —
        JSON stringifies object keys — and restores the funnel, so the
        funnel's conservation invariants survive a serialize →
        deserialize cycle. Derived fields (``other_seconds``,
        ``face_pairs_total``, and the funnel views: the pair ledgers and
        cache counters) are recomputed, not stored.
        """
        stats = cls(
            query=payload.get("query", ""),
            config_label=payload.get("config", ""),
        )
        for name in _SCALAR_FIELDS:
            if name in payload:
                setattr(stats, name, payload[name])
        for lod, count in payload.get("face_pairs_by_lod", {}).items():
            stats.face_pairs_by_lod[int(lod)] += count
        if "funnel" in payload:
            stats.funnel = QueryFunnel.from_dict(payload["funnel"])
        return stats

    def summary(self) -> str:
        """One-line human-readable digest."""
        line = (
            f"{self.query or 'query'} [{self.config_label}] "
            f"total={self.total_seconds:.3f}s "
            f"(filter={self.filter_seconds:.3f} decode={self.decode_seconds:.3f} "
            f"compute={self.compute_seconds:.3f}) "
            f"targets={self.targets} candidates={self.candidates} "
            f"results={self.results} face_pairs={self.face_pairs_total}"
        )
        if self.degraded_objects or self.decode_failures:
            line += (
                f" degraded_objects={self.degraded_objects}"
                f" decode_failures={self.decode_failures}"
            )
        return line
