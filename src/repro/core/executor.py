"""The shared query executor: one driver for every query kind.

:class:`QueryExecutor` runs a compiled :class:`~repro.core.plan.QueryPlan`
through the single pipeline the paper's Fig. 8 describes — filter
(global index) → progressive refine → accumulate — with the per-kind
differences delegated to the plan's strategy. There is one target loop:
each target list is filtered per target and refined as *one group*
(``KindStrategy.group_refine``), whose rounds share evaluator calls
across the group's targets; a streamed query (``QuerySpec.progress``)
runs each target as a group of one so its frames stay target-major.

The executor owns the cross-cutting machinery the five old drivers each
re-implemented: phase timing (`TimedPhase` keeps `QueryStats` and the
span tree in lockstep, and the decode recorded inside the compute phase
is booked as decode), degraded-target tracking, the root query span, and
the query metrics.

A query runs one of two ways. With one worker it runs serially, in
this process. With ``EngineConfig.query_workers > 1`` the targets are
split into contiguous, cuboid-aligned chunks of the cuboid-ordered
target list (``KindStrategy.target_chunks``, so each worker keeps the
decode-cache locality the serial loop has), and each chunk becomes a
self-contained sub-query (``QuerySpec.target_ids``) executed by a worker
*process* with its own engine and decode cache
(:mod:`repro.parallel.procpool`). Workers ship back one
:class:`~repro.parallel.procpool.ChunkOutcome` per chunk: pairs, stats,
degraded keys, span trees, and metrics deltas. Chunks the supervisor
quarantines run in-process through :meth:`QueryExecutor._run_chunk`.
When the pool or the transport is unavailable, the whole query runs
serially instead. Containment has one pseudo-target, so it is always
serial.

One merge (:meth:`QueryExecutor._merge`) folds the outcomes **in chunk
order**, so ``pairs``, ``degraded_targets``, and every merged counter
are identical to the serial run (the refinement layer keeps per-decode
outcomes order-independent; see ``repro.core.refine._gather_face_pairs``
and the provider's LOD-aware fail-fast).

Merge semantics worth knowing: summed phase seconds are *busy* time
across workers — under parallel execution ``compute_seconds`` can exceed
``total_seconds`` (which stays the root span's wall clock).
"""

from __future__ import annotations

import logging
import time

from repro.core.config import resolve_setting
from repro.core.deadline import Deadline
from repro.core.errors import DeadlineExceededError, ErrorBudgetExceededError
from repro.core.plan import QueryCompleteness, QueryPlan, QueryResult
from repro.core.refine import RefineContext
from repro.core.stats import QueryStats
from repro.obs.funnel import PAIR_STAGES
from repro.obs.logs import get_logger, log_event
from repro.obs.profile import phase_scope
from repro.obs.trace import Span, TimedPhase

__all__ = ["QueryExecutor"]

_LOG = get_logger("executor")


class QueryExecutor:
    """Runs query plans; the only query driver in the engine."""

    def __init__(self, engine):
        self.engine = engine
        self.config = engine.config
        self.metrics = engine.metrics
        self._m_queries = self.metrics.counter(
            "repro_queries_total", "Queries executed, labeled by join kind"
        )
        self._m_query_seconds = self.metrics.histogram(
            "repro_query_seconds", "End-to-end query wall time"
        )
        self._m_degraded = self.metrics.counter(
            "repro_degraded_objects_total",
            "Distinct objects served below requested fidelity, per query",
        )
        self._m_deadline_exceeded = self.metrics.counter(
            "repro_deadline_exceeded_total",
            "Queries returning partial results (deadline expiry or cancellation)",
        )
        # SLO accounting: end-to-end latency and deadline headroom, per
        # query kind. The unlabeled repro_query_seconds above stays the
        # stable aggregate; these carry the per-kind SLO series.
        self._m_query_latency = self.metrics.histogram(
            "repro_query_latency_seconds",
            "End-to-end query wall time, labeled by query kind",
        )
        self._m_headroom = self.metrics.histogram(
            "repro_deadline_headroom_ratio",
            "Fraction of the deadline budget left when the query returned",
            buckets=(0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
        )
        # Refinement-funnel series, emitted once per query from the
        # merged QueryStats.funnel (worker emissions are skipped by the
        # procpool metrics-delta filter, so counts never double).
        self._m_funnel_candidates = self.metrics.counter(
            "repro_funnel_candidates_total",
            "Candidates entering refinement, labeled by query kind",
        )
        self._m_funnel_mbb_pruned = self.metrics.counter(
            "repro_funnel_mbb_pruned_total",
            "Candidates dropped by MBB distance ranges before any decode",
        )
        self._m_funnel_pairs = self.metrics.counter(
            "repro_funnel_pairs_total",
            "Refinement pair flow, labeled by kind, LOD, and funnel stage",
        )
        self._m_funnel_decoded_objects = self.metrics.counter(
            "repro_funnel_decoded_objects_total",
            "Cache-miss decodes that produced geometry, labeled by kind and LOD",
        )
        self._m_funnel_decoded_bytes = self.metrics.counter(
            "repro_funnel_decoded_bytes_total",
            "Bytes of decoded geometry produced, labeled by kind and LOD",
        )
        self._m_funnel_cache = self.metrics.counter(
            "repro_funnel_decode_cache_total",
            "Decode cache accesses during refinement, labeled by kind, LOD, result",
        )
        self._m_funnel_decode_failures = self.metrics.counter(
            "repro_funnel_decode_failures_total",
            "Decode requests whose whole fallback ladder failed, by kind and LOD",
        )
        # Process-backend supervision counters, registered eagerly so
        # they export (at zero) from any engine; incremented by
        # repro.parallel.procpool's chunk supervisor.
        self._m_worker_restarts = self.metrics.counter(
            "repro_worker_restarts_total",
            "Worker pools killed and respawned (crash or hang) during queries",
        )
        self._m_quarantined = self.metrics.counter(
            "repro_chunks_quarantined_total",
            "Suspect chunks retired from the pool to serial in-process execution",
        )
        # Optional callable invoked at target-loop boundaries; the
        # process backend's workers point it at their chunk's heartbeat
        # file so the parent's hang detector sees liveness per target.
        self.heartbeat = None

    @property
    def tracer(self):
        return self.engine.tracer

    # -- driving ---------------------------------------------------------------

    def run(self, plan: QueryPlan) -> QueryResult:
        """Run a plan, under the sampling profiler when one is configured.

        The ``other`` phase scope covers the whole query on the driving
        thread; planning/merge samples land there, while TimedPhase and
        the decode provider push ``filter``/``compute``/``decode`` on
        top of it. Profiler start/stop nest (probe queries recurse into
        ``run``), so one sampler covers the outer query.
        """
        profiler = self.engine.profiler
        if profiler is None:
            return self._run(plan)
        profiler.start()
        try:
            with phase_scope("other"):
                return self._run(plan)
        finally:
            profiler.stop()

    def _run(self, plan: QueryPlan) -> QueryResult:
        stats = QueryStats(query=plan.label, config_label=self.config.label)
        started = time.perf_counter()
        tids = plan.strategy.target_ids(plan)
        workers = min(self.engine.query_workers, max(1, len(tids)))
        deadline = self._deadline_for(plan.spec)

        pairs: dict = {}
        degraded_targets: set = set()
        reason = None
        root = self.tracer.span(
            "query",
            query=stats.query,
            config=self.config.label,
            target=plan.span_target,
            source=plan.source.name,
            lods=plan.lods,
            schedule=plan.schedule,
        )
        outcomes = None
        with root:
            if workers > 1:
                outcomes = self._run_process(plan, stats, tids, workers, deadline)
            if outcomes is None:
                ctx = self._context(plan, stats, deadline)
                degraded_keys = ctx.degraded_keys
                finished, inflight, interrupt = self._refine_targets(
                    plan, ctx, stats, tids, pairs, degraded_targets, deadline
                )
                if interrupt is not None:
                    reason = interrupt.reason
        if outcomes is not None:
            degraded_keys, finished, inflight, reason = self._merge(
                outcomes, pairs, degraded_targets, stats, root
            )
        completeness = self._completeness(
            len(tids), finished, inflight, reason, stats, deadline
        )
        self._finish_stats(stats, started, root)
        self._emit_attribution(plan, stats, completeness, root)
        if not completeness.complete:
            self._note_partial(stats, completeness, root)
        log_event(
            _LOG, "query", query=stats.query, lods=plan.lods,
            schedule=plan.schedule, seconds=stats.total_seconds,
            complete=completeness.complete,
        )
        return QueryResult(
            pairs,
            stats,
            degraded_targets,
            plan.spec,
            degraded_keys=degraded_keys,
            completeness=completeness,
        )

    def _deadline_for(self, spec) -> Deadline | None:
        """Per-query deadline via the one resolver: spec > config > env."""
        ms = resolve_setting("deadline_ms", spec=spec.deadline_ms, config=self.config)
        token = spec.cancellation
        if ms is None and token is None:
            return None
        return Deadline.after_ms(ms, token=token)

    def _completeness(
        self, total, finished, inflight, reason, stats, deadline
    ) -> QueryCompleteness:
        evaluated = stats.pairs_evaluated_by_lod
        headroom = None
        if deadline is not None and deadline.deadline_ms:
            remaining = deadline.remaining()
            if remaining is not None:
                headroom = min(
                    1.0, remaining / (deadline.deadline_ms / 1000.0)
                )
        return QueryCompleteness(
            complete=reason is None,
            reason=reason or "",
            targets_total=total,
            targets_finished=finished if reason is not None else total,
            targets_inflight=inflight,
            targets_unstarted=(
                max(0, total - finished - inflight) if reason is not None else 0
            ),
            max_lod_reached=max(evaluated) if evaluated else -1,
            deadline_ms=deadline.deadline_ms if deadline is not None else None,
            deadline_headroom_ratio=headroom,
        )

    def _emit_attribution(self, plan, stats, completeness, root) -> None:
        """Emit the merged funnel and SLO series, once per query.

        Runs after the chunk merge, so the counts cover every backend's
        workers exactly once (worker processes' own emissions are
        excluded from the metrics delta they ship back). The funnel
        summary is also attached to the root span.
        """
        kind = plan.spec.kind
        funnel = stats.funnel
        self._m_query_latency.observe(stats.total_seconds, kind=kind)
        if completeness.deadline_headroom_ratio is not None:
            self._m_headroom.observe(
                completeness.deadline_headroom_ratio, kind=kind
            )
        if funnel.candidates:
            self._m_funnel_candidates.inc(funnel.candidates, kind=kind)
        if funnel.mbb_pruned:
            self._m_funnel_mbb_pruned.inc(funnel.mbb_pruned, kind=kind)
        for lod, stage in sorted(funnel.stages.items()):
            for stage_name in PAIR_STAGES:
                count = getattr(stage, stage_name)
                if count:
                    self._m_funnel_pairs.inc(
                        count, kind=kind, lod=lod, stage=stage_name
                    )
            if stage.decoded_objects:
                self._m_funnel_decoded_objects.inc(
                    stage.decoded_objects, kind=kind, lod=lod
                )
            if stage.decoded_bytes:
                self._m_funnel_decoded_bytes.inc(
                    stage.decoded_bytes, kind=kind, lod=lod
                )
            if stage.cache_hits:
                self._m_funnel_cache.inc(
                    stage.cache_hits, kind=kind, lod=lod, result="hit"
                )
            if stage.cache_misses:
                self._m_funnel_cache.inc(
                    stage.cache_misses, kind=kind, lod=lod, result="miss"
                )
            if stage.decode_failures:
                self._m_funnel_decode_failures.inc(
                    stage.decode_failures, kind=kind, lod=lod
                )
        if funnel.filter_confirmed or funnel.confirmed_final:
            # Results confirmed off the per-LOD ledger: the filter's
            # definite matches and NN's final top-k selection.
            if funnel.filter_confirmed:
                self._m_funnel_pairs.inc(
                    funnel.filter_confirmed, kind=kind, lod=-1, stage="confirmed"
                )
            if funnel.confirmed_final:
                self._m_funnel_pairs.inc(
                    funnel.confirmed_final, kind=kind, lod=-2, stage="confirmed"
                )
        if root is not None and root.enabled:
            root.set(funnel=funnel.summary())

    def _note_partial(self, stats, completeness, root) -> None:
        self._m_deadline_exceeded.inc(reason=completeness.reason)
        log_event(
            _LOG, "partial_result", level=logging.WARNING,
            query=stats.query, reason=completeness.reason,
            targets_finished=completeness.targets_finished,
            targets_inflight=completeness.targets_inflight,
            targets_unstarted=completeness.targets_unstarted,
            max_lod_reached=completeness.max_lod_reached,
        )
        if root is not None and root.enabled:
            root.set(
                partial=True,
                partial_reason=completeness.reason,
                targets_finished=completeness.targets_finished,
                targets_unstarted=completeness.targets_unstarted,
            )

    def _refine_targets(self, plan, ctx, stats, tids, pairs, degraded_targets, deadline):
        """Drive a target list through filter → group refine → accumulate.

        Returns ``(finished, inflight, interrupt)`` — the completeness
        inputs the serial path and the chunk body share. The list
        refines as one group, except under a streaming ``progress``
        hook: a group confirms LOD-major across its targets, so a
        streamed query runs each target as a group of one — its frames
        stay target-major and the first arrives after one target.
        """
        groups = [tids] if plan.spec.progress is None else [[tid] for tid in tids]
        finished = 0
        for group in groups:
            done, inflight, interrupt = self._run_group(
                plan, ctx, stats, group, pairs, degraded_targets, deadline
            )
            finished += done
            if interrupt is not None:
                return finished, inflight, interrupt
        return finished, 0, None

    def _run_group(self, plan, ctx, stats, tids, pairs, degraded_targets, deadline):
        """One group of targets through one group refinement.

        Filters run per target (in target order), then the strategy's
        group refinement settles every target's candidates LOD-major
        through shared evaluator rounds (see :mod:`repro.core.refine`).
        Commits land in target order, so ``pairs`` insertion order — and
        every funnel/ledger count — does not depend on the grouping.
        """
        strategy = plan.strategy
        items = []
        try:
            for tid in tids:
                if self.heartbeat is not None:
                    self.heartbeat()
                if deadline is not None:
                    deadline.check("target_loop")
                if strategy.counts_targets:
                    stats.targets += 1
                with TimedPhase(self.tracer, stats, "filter"):
                    candidates = strategy.filter(plan, tid)
                n_candidates = strategy.candidate_count(candidates)
                stats.candidates += n_candidates
                stats.funnel.candidates += n_candidates
                items.append((tid, candidates))
        except DeadlineExceededError as exc:
            # Interrupted while filtering: nothing refined and nothing
            # committed, so every target of this group counts unstarted.
            return 0, 0, exc
        decode_before = stats.decode_seconds
        try:
            with TimedPhase(self.tracer, stats, "compute", targets=len(items)):
                states = strategy.group_refine(plan, ctx, items)
        except DeadlineExceededError as exc:
            # Anytime semantics, per target: each target's partial is the
            # pairs it confirmed before the budget ran out (attached by
            # the group refiner), each final the moment it was confirmed.
            partial = getattr(exc, "partial_by_target", {})
            touched = getattr(exc, "group_touched", set())
            outcomes = [(tid in touched, partial.get(tid, [])) for tid, _c in items]
            finished, interrupt = getattr(exc, "group_finished", 0), exc
        else:
            outcomes = [(state.touched, state.results) for state in states]
            finished, interrupt = len(items), None
        finally:
            # Cache-miss decodes ran inside the compute phase; Fig. 10
            # books them as decode, so compute keeps only the rest.
            stats.compute_seconds -= stats.decode_seconds - decode_before
        for (tid, candidates), (touched, matches) in zip(items, outcomes):
            if touched:
                degraded_targets.add(tid)
            value, count = strategy.group_value(candidates, matches)
            if value is not None:
                pairs[tid] = value
                stats.results += count
        return finished, len(items) - finished, interrupt

    def _run_process(self, plan, stats, tids, workers, deadline):
        """Fan target chunks across worker processes; ``None`` means run serially.

        Chunks the supervisor quarantined (crash/hang suspects that
        exhausted their pool attempts) come back as
        :class:`~repro.parallel.procpool.QuarantinedChunk` markers and
        are re-run serially in-process here, inside the root span, so
        the query still completes without a whole-query serial fallback.
        """
        from repro.parallel import procpool

        chunks = plan.strategy.target_chunks(plan, tids, workers)
        log_event(
            _LOG, "parallel_query", query=stats.query, backend="process",
            workers=workers, chunks=len(chunks),
            targets=sum(len(c) for c in chunks),
        )
        try:
            outcomes = procpool.execute_chunks(
                self.engine, plan, chunks, deadline=deadline
            )
        except procpool.ProcessBackendUnavailable as exc:
            log_event(
                _LOG, "process_backend_fallback", level=logging.WARNING,
                query=stats.query, error=str(exc),
                traceback=exc.traceback or "",
            )
            return None
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, procpool.QuarantinedChunk):
                log_event(
                    _LOG, "chunk_quarantine_run", level=logging.WARNING,
                    query=stats.query, chunk=outcome.index,
                    targets=len(outcome.targets), reason=outcome.reason,
                )
                outcomes[i] = self._run_chunk(plan, stats, outcome.targets, deadline)
        return outcomes

    def _run_chunk(self, plan, stats, targets, deadline):
        """Run one quarantined chunk in this process.

        The chunk refines into its own ``QueryStats`` under a ``worker``
        span beneath the query root, which is open on this thread.
        Deadline expiry is caught *inside* the chunk (by
        :meth:`_refine_targets`), so completed targets come back as a
        partial outcome, exactly like a worker's.
        """
        from repro.parallel.procpool import ChunkOutcome

        chunk_stats = QueryStats(query=stats.query, config_label=stats.config_label)
        ctx = self._context(plan, chunk_stats, deadline)
        chunk_pairs: dict = {}
        chunk_degraded: set = set()
        with self.tracer.span("worker", targets=len(targets), backend="quarantine"):
            finished, inflight, interrupted = self._refine_targets(
                plan, ctx, chunk_stats, targets, chunk_pairs,
                chunk_degraded, deadline,
            )
        completeness = QueryCompleteness(
            complete=interrupted is None,
            reason=interrupted.reason if interrupted is not None else "",
            targets_total=len(targets),
            targets_finished=finished,
            targets_inflight=inflight,
            targets_unstarted=max(0, len(targets) - finished - inflight),
        )
        return ChunkOutcome(
            pairs=chunk_pairs,
            degraded_targets=chunk_degraded,
            stats=chunk_stats,
            degraded_keys=ctx.degraded_keys,
            spans=(),
            metrics_delta={},
            completeness=completeness,
        )

    def _merge(self, outcomes, pairs, degraded_targets, stats, root) -> tuple:
        """Merge worker and quarantined chunk outcomes, in chunk order.

        Chunks are contiguous slices of the cuboid-ordered target list,
        so insertion order — and with it the result, byte for byte —
        matches the serial loop.
        """
        degraded_keys: set = set()
        finished = 0
        inflight = 0
        reason = None
        for outcome in outcomes:
            pairs.update(outcome.pairs)
            degraded_targets |= outcome.degraded_targets
            stats.merge(outcome.stats)
            degraded_keys |= outcome.degraded_keys
            comp = outcome.completeness
            finished += comp.targets_finished
            inflight += comp.targets_inflight
            if not comp.complete:
                reason = reason or (comp.reason or "deadline")
            if outcome.metrics_delta:
                self.metrics.merge_state(outcome.metrics_delta)
            if outcome.profile is not None and self.engine.profiler is not None:
                # Per-chunk worker profile: fold into the parent's report
                # so one flamegraph covers every process that refined.
                self.engine.profiler.absorb(outcome.profile)
            if root is not None and root.enabled:
                for payload in outcome.spans:
                    span = Span.from_payload(
                        payload,
                        rebase=root.start_offset - payload.get("start_offset", 0.0),
                    )
                    if span.name == "query":
                        span.name = "worker"
                        span.attrs["backend"] = "process"
                    root.children.append(span)
        # The distinct degraded-object count and the error budget are per
        # *query*: re-derive both from the cross-chunk union (merge()
        # summed each chunk's distinct count, and each worker only ever
        # checked the budget against its own chunk).
        stats.degraded_objects = len(degraded_keys)
        budget = self.config.max_decode_failures
        if budget is not None and len(degraded_keys) > budget:
            raise ErrorBudgetExceededError(
                budget, len(degraded_keys), query=stats.query
            )
        return degraded_keys, finished, inflight, reason

    # -- shared machinery (moved verbatim from the old per-kind drivers) --------

    def _context(self, plan, stats, deadline) -> RefineContext:
        _rtree, source_partitions = plan.source.index()
        return RefineContext(
            deadline=deadline,
            computer=self.engine.computer,
            stats=stats,
            target_provider=plan.target.provider,
            source_provider=plan.source.provider,
            source_partitions=source_partitions,
            lods=plan.lods,
            exact_nn_distances=self.config.exact_nn_distances,
            max_decode_failures=self.config.max_decode_failures,
            tracer=self.tracer,
            progress=plan.spec.progress,
            heartbeat=self.heartbeat,
        )

    def _finish_stats(self, stats: QueryStats, started: float, root=None) -> None:
        # When tracing, the root span's wall clock IS total_seconds — the
        # stats summary is populated from the trace, never in parallel.
        wall = getattr(root, "wall_seconds", None) if root is not None else None
        stats.total_seconds = (
            wall if wall is not None else time.perf_counter() - started
        )
        if root is not None and root.enabled:
            root.set(
                targets=stats.targets,
                candidates=stats.candidates,
                results=stats.results,
                face_pairs=stats.face_pairs_total,
                degraded_objects=stats.degraded_objects,
                decode_failures=stats.decode_failures,
            )
        self._m_queries.inc(query=stats.query)
        self._m_query_seconds.observe(stats.total_seconds)
        if stats.degraded_objects:
            self._m_degraded.inc(stats.degraded_objects)
            log_event(
                _LOG, "degraded_query", level=logging.WARNING,
                query=stats.query, config=stats.config_label,
                degraded_objects=stats.degraded_objects,
                decode_failures=stats.decode_failures,
            )
