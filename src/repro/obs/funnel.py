"""Refinement-funnel telemetry: where candidates, bytes, and time go.

3DPro's whole argument is a cost funnel (the paper's Fig. 10/12
breakdown): the filter prunes candidates, progressive decode spends
bytes, and refinement confirms or rejects pairs LOD by LOD. A
:class:`QueryFunnel` records that flow for one query:

* query-level counts — ``candidates`` entering refinement,
  ``mbb_pruned`` dropped by MBB distance ranges before any decode,
  ``filter_confirmed`` settled by the filter alone (within's definite
  matches), and ``confirmed_final`` confirmed at final selection without
  a per-LOD settle (NN's returned top-k);
* per-LOD :class:`FunnelStage` records — pairs ``evaluated`` /
  ``settled`` (split into ``confirmed`` / ``rejected`` / ``degraded``)
  plus the decode traffic behind them (cache hits/misses, decoded
  objects and bytes, decode failures).

The funnel is the query's only per-LOD pair ledger: refinement writes
the pair counters through
:meth:`~repro.core.refine.RefineContext.ledger_evaluated` /
:meth:`~repro.core.refine.RefineContext.ledger_settled`, the decode
provider writes the decode traffic on each call, and
``QueryStats.pairs_evaluated_by_lod`` / ``pairs_pruned_by_lod`` /
``cache_hits`` / ``cache_misses`` are read-only views of it.

A funnel lives on its query's :class:`~repro.core.stats.QueryStats`
(``stats.funnel``), so it is picklable, ships across the process
backend inside each chunk's stats, and merges with them. The executor
emits the merged funnel exactly once per query as labeled counters
(``repro_funnel_*``) and attaches it to the root span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FunnelStage", "QueryFunnel"]

#: Per-stage pair counters, in funnel order (for exports and the CLI).
PAIR_STAGES = ("evaluated", "settled", "confirmed", "rejected", "degraded")


@dataclass
class FunnelStage:
    """One LOD's slice of the refinement funnel.

    ``evaluated`` pairs were refined at this LOD; ``settled`` of them
    stopped here — ``confirmed`` as results, ``rejected`` as definite
    non-results, ``degraded`` dropped or settled via degraded geometry
    (decode failure, MBB-only fallback, inexact exclusion). The decode
    counters describe the cache traffic *requested at* this LOD:
    ``decoded_objects``/``decoded_bytes`` are cache-miss decodes that
    produced geometry, ``decode_failures`` are misses whose whole
    fallback ladder failed.
    """

    evaluated: int = 0
    settled: int = 0
    confirmed: int = 0
    rejected: int = 0
    degraded: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    decoded_objects: int = 0
    decoded_bytes: int = 0
    decode_failures: int = 0

    def merge(self, other: "FunnelStage") -> None:
        self.evaluated += other.evaluated
        self.settled += other.settled
        self.confirmed += other.confirmed
        self.rejected += other.rejected
        self.degraded += other.degraded
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.decoded_objects += other.decoded_objects
        self.decoded_bytes += other.decoded_bytes
        self.decode_failures += other.decode_failures

    def as_dict(self) -> dict:
        return {
            "evaluated": self.evaluated,
            "settled": self.settled,
            "confirmed": self.confirmed,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "decoded_objects": self.decoded_objects,
            "decoded_bytes": self.decoded_bytes,
            "decode_failures": self.decode_failures,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FunnelStage":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class QueryFunnel:
    """The full refinement funnel for one query (or one worker chunk)."""

    candidates: int = 0
    mbb_pruned: int = 0
    filter_confirmed: int = 0
    confirmed_final: int = 0
    stages: dict[int, FunnelStage] = field(default_factory=dict)

    def stage(self, lod: int) -> FunnelStage:
        """The (created-on-demand) stage record for ``lod``."""
        stage = self.stages.get(lod)
        if stage is None:
            stage = self.stages[lod] = FunnelStage()
        return stage

    @property
    def confirmed_total(self) -> int:
        """Results from every path: per-LOD, filter-only, and final-selection."""
        return (
            sum(stage.confirmed for stage in self.stages.values())
            + self.filter_confirmed
            + self.confirmed_final
        )

    @property
    def decoded_bytes_total(self) -> int:
        return sum(stage.decoded_bytes for stage in self.stages.values())

    def merge(self, other: "QueryFunnel") -> None:
        """Fold another funnel in (chunk merge across backends)."""
        self.candidates += other.candidates
        self.mbb_pruned += other.mbb_pruned
        self.filter_confirmed += other.filter_confirmed
        self.confirmed_final += other.confirmed_final
        for lod, stage in other.stages.items():
            self.stage(lod).merge(stage)

    def as_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "mbb_pruned": self.mbb_pruned,
            "filter_confirmed": self.filter_confirmed,
            "confirmed_final": self.confirmed_final,
            "confirmed_total": self.confirmed_total,
            "stages": {
                str(lod): stage.as_dict()
                for lod, stage in sorted(self.stages.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryFunnel":
        """Rebuild a funnel from :meth:`as_dict` output (wire round trip).

        Stage keys arrive as the decimal strings ``as_dict`` emits (or
        ints, pre-JSON); derived totals (``confirmed_total``) are
        recomputed so :meth:`violations` gives the same verdict on both
        sides of the wire.
        """
        funnel = cls(
            candidates=payload.get("candidates", 0),
            mbb_pruned=payload.get("mbb_pruned", 0),
            filter_confirmed=payload.get("filter_confirmed", 0),
            confirmed_final=payload.get("confirmed_final", 0),
        )
        for lod, stage in payload.get("stages", {}).items():
            funnel.stages[int(lod)] = FunnelStage.from_dict(stage)
        return funnel

    # -- consistency ----------------------------------------------------------

    def violations(self, stats=None, strict: bool = False) -> list[str]:
        """Funnel-consistency violations (empty = consistent).

        Always checked, per LOD: the stage counts are monotonically
        non-increasing (``evaluated >= settled``) and the settle split
        adds up (``confirmed + rejected + degraded == settled``).

        With ``stats`` (a :class:`~repro.core.stats.QueryStats`): the
        funnel's candidates must equal ``stats.candidates`` (two separate
        writes; baselines that skip refinement write only the latter).
        With ``strict`` (sound only for queries that ran to completion):
        every result is accounted to exactly one confirmation path
        (``confirmed_total == stats.results``).
        """
        problems: list[str] = []
        for lod, stage in sorted(self.stages.items()):
            if stage.settled > stage.evaluated:
                problems.append(
                    f"LOD {lod}: settled {stage.settled} > evaluated {stage.evaluated}"
                )
            split = stage.confirmed + stage.rejected + stage.degraded
            if split != stage.settled:
                problems.append(
                    f"LOD {lod}: confirmed {stage.confirmed} + rejected "
                    f"{stage.rejected} + degraded {stage.degraded} != "
                    f"settled {stage.settled}"
                )
        if self.candidates < self.mbb_pruned:
            problems.append(
                f"mbb_pruned {self.mbb_pruned} > candidates {self.candidates}"
            )
        # Candidates bound per-LOD entry: no LOD can refine more pairs
        # than entered refinement after the MBB prune.
        for lod, stage in sorted(self.stages.items()):
            if stage.evaluated > self.candidates - self.mbb_pruned:
                problems.append(
                    f"LOD {lod}: evaluated {stage.evaluated} > surviving "
                    f"candidates {self.candidates - self.mbb_pruned}"
                )
        if stats is not None:
            if self.candidates != stats.candidates:
                problems.append(
                    f"funnel candidates {self.candidates} != "
                    f"stats candidates {stats.candidates}"
                )
            if strict and self.confirmed_total != stats.results:
                problems.append(
                    f"confirmed_total {self.confirmed_total} != "
                    f"stats results {stats.results}"
                )
        return problems

    def summary(self) -> str:
        """One-line digest: candidates -> evaluated -> confirmed."""
        evaluated = sum(s.evaluated for s in self.stages.values())
        return (
            f"candidates={self.candidates} mbb_pruned={self.mbb_pruned} "
            f"evaluated={evaluated} confirmed={self.confirmed_total} "
            f"(filter={self.filter_confirmed} final={self.confirmed_final}) "
            f"decoded_bytes={self.decoded_bytes_total}"
        )
