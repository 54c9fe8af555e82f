"""Decoded-geometry cache and decode orchestration.

The cache is LRU over a byte budget, keyed by ``(dataset, object id,
LOD)``; each entry is a :class:`DecodedLOD` — the face snapshot of one
object at one LOD plus lazily-built derived structures (corner triangle
array, partition grouping). A cache miss at LOD 0 is served from the
object's base mesh (``base_mesh()``), which for a shard-backed object
parses the blob's header and base segment only. A miss at any higher
LOD builds a fresh decoder over the object's compiled
:class:`~repro.compression.lodtable.LODTable` — built once per object,
timed by the ``decode_table_build`` span /
``repro_decode_table_build_seconds`` histogram — so advancing to that
LOD is O(1) bookkeeping and the materialization is an array slice
(``decode_slice`` span / ``repro_decode_slice_seconds``). A cold join
therefore parses and compiles only the objects it refines past LOD 0.

The provider call that does the work also accounts for it: each
:meth:`DecodedObjectProvider.get` records its cache hit or miss, decode
time, failures, and decoded volume on the
:class:`~repro.core.stats.QueryStats` of the query that asked, so
concurrent queries over one engine never see each other's traffic.

Decoding is also where corruption surfaces at query time, so the
provider implements the first rungs of the degradation ladder: a decoder
failure at the requested LOD falls back to the highest LOD that still
decodes (every lower LOD is a valid spatial subset of the object, so
queries stay *correct*, just less complete), and an object that cannot
produce even its base mesh raises
:class:`~repro.core.errors.DecodeFailureError` — the signal for MBB-only
("LOD -1") evaluation upstream.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict

import numpy as np

from repro.core.errors import DecodeFailureError
from repro.core.stats import QueryStats
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event
from repro.obs.profile import pop_phase, push_phase

__all__ = ["DecodedLOD", "DecodeCache", "DecodedObjectProvider"]

_LOG = get_logger("storage.cache")


class DecodedLOD:
    """One object's geometry at one LOD, with lazy derived structures.

    ``lod`` is the LOD actually decoded; ``degraded`` marks geometry of
    reduced fidelity — a decode that fell back below the requested LOD,
    or an object only partially recovered by salvage loading.

    The derived structures are built at most once: cache entries are
    shared across concurrent queries, and the lazy builds used to run
    unlocked, so concurrent threads could each build (and race to
    publish) the same structure. A per-entry lock now guards each build;
    reads stay lock-free once the attribute is published.
    """

    __slots__ = (
        "positions", "faces", "_triangles", "_groups",
        "lod", "degraded", "_build_lock",
    )

    def __init__(
        self,
        positions: np.ndarray,
        faces: np.ndarray,
        lod: int = -1,
        degraded: bool = False,
    ):
        self.positions = positions
        self.faces = faces
        self.lod = lod
        self.degraded = degraded
        self._triangles: np.ndarray | None = None
        self._groups: np.ndarray | None = None
        self._build_lock = threading.Lock()

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def triangles(self) -> np.ndarray:
        if self._triangles is None:
            with self._build_lock:
                if self._triangles is None:
                    self._triangles = self.positions[self.faces]
        return self._triangles

    def groups(self, partition) -> np.ndarray:
        """Sub-object index per face under ``partition`` (memoized)."""
        if self._groups is None:
            triangles = self.triangles
            with self._build_lock:
                if self._groups is None:
                    self._groups = partition.group_faces(triangles)
        return self._groups

    @property
    def nbytes(self) -> int:
        """Approximate resident size (faces + corner triangles)."""
        total = self.faces.nbytes
        if self._triangles is not None:
            total += self._triangles.nbytes
        return total + 128


class DecodeCache:
    """Byte-budgeted LRU cache for :class:`DecodedLOD` entries.

    ``capacity_bytes=0`` turns the cache into a pass-through miss
    machine — every :meth:`get` misses and :meth:`put` stores nothing —
    the configuration used by the paper's Table 2 "without cache" rows.
    Any positive budget keeps at least the newest entry, even one larger
    than the budget.

    Counter semantics: ``hits``, ``misses``, ``evictions``, and
    ``evicted_bytes`` are engine-wide *lifetime* counters — neither
    :meth:`purge_dataset` nor :meth:`clear` touches them. Use
    :meth:`reset_counters` between independent measurement runs. The
    same numbers are mirrored into the metrics registry
    (``repro_cache_*`` series); per-query traffic is recorded by the
    provider on each query's own stats, not derived from these.
    """

    def __init__(
        self,
        capacity_bytes: int = 256 * 1024 * 1024,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple, DecodedLOD] = OrderedDict()
        # Guards the LRU structure and counters: parallel query workers
        # share one cache, and OrderedDict reordering is not atomic.
        self._lock = threading.RLock()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evicted_bytes = 0
        registry = metrics if metrics is not None else obs_metrics.REGISTRY
        # Unlabeled handles: get() fires one of these per cache access,
        # so skip the label-key build Counter.inc pays on every call.
        self._m_hits = registry.counter(
            "repro_cache_hits_total", "Decode cache hits"
        ).handle()
        self._m_misses = registry.counter(
            "repro_cache_misses_total", "Decode cache misses"
        ).handle()
        self._m_evictions = registry.counter(
            "repro_cache_evictions_total", "Entries evicted by the byte budget"
        )
        self._m_evicted_bytes = registry.counter(
            "repro_cache_evicted_bytes_total", "Bytes evicted by the byte budget"
        )
        self._m_resident = registry.gauge(
            "repro_cache_resident_bytes", "Bytes currently resident in the decode cache"
        )
        self._m_entries = registry.gauge(
            "repro_cache_entries", "Entries currently resident in the decode cache"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def _sync_gauges(self) -> None:
        self._m_resident.set(self.bytes_used)
        self._m_entries.set(len(self._entries))

    def get(self, key: tuple) -> DecodedLOD | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._m_misses.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            return entry

    def put(self, key: tuple, value: DecodedLOD) -> None:
        with self._lock:
            if not self.capacity_bytes:
                return
            if key in self._entries:
                self.bytes_used -= self._entries.pop(key).nbytes
            self._entries[key] = value
            self.bytes_used += value.nbytes
            while self.bytes_used > self.capacity_bytes and len(self._entries) > 1:
                _old_key, old = self._entries.popitem(last=False)
                self.bytes_used -= old.nbytes
                self.evictions += 1
                self.evicted_bytes += old.nbytes
                self._m_evictions.inc()
                self._m_evicted_bytes.inc(old.nbytes)
            self._sync_gauges()

    def evict_dataset(self, name: str) -> int:
        """Drop every entry belonging to dataset ``name``; returns count.

        Used when a dataset is unloaded (notably ad-hoc probe datasets)
        so a later dataset reusing the name can never be served another
        dataset's decoded geometry. Evicted entries are *not* counted
        against the byte-budget eviction counters, and hit/miss counters
        are untouched (lifetime semantics, see the class docstring).
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] == name]
            for key in stale:
                self.bytes_used -= self._entries.pop(key).nbytes
            if stale:
                self._sync_gauges()
            return len(stale)

    def purge_dataset(self, name: str) -> int:
        """Compatibility alias for :meth:`evict_dataset`."""
        return self.evict_dataset(name)

    def clear(self) -> None:
        """Drop every entry. Counters keep their lifetime values."""
        with self._lock:
            self._entries.clear()
            self.bytes_used = 0
            self._sync_gauges()

    def reset_counters(self) -> None:
        """Zero the lifetime hit/miss/eviction counters (cached entries stay)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evicted_bytes = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DecodedObjectProvider:
    """Serves decoded LODs for one dataset, through the cache.

    Every :meth:`get` accounts for itself on the ``QueryStats`` it is
    handed: the cache hit or miss and the decoded objects/bytes on the
    funnel stage of the requested LOD, and ``decode_seconds``,
    ``decode_failures`` (attempts that raised) and ``decoded_vertices``
    on the stats — so one query's numbers are its own however many
    queries share the engine. The registry instruments
    (``repro_decode_*``) stay engine-wide.

    ``fault_injector`` (see :mod:`repro.faults`) may force decode
    failures; ``salvaged_ids`` marks objects whose stored geometry was
    only partially recovered, so their decodes are flagged degraded.
    Failure bookkeeping: ``degraded_ids`` maps objects to the fallback
    LOD they last served and ``failed_ids`` holds objects that failed at
    every LOD (subsequent ``get`` calls fail fast).
    """

    def __init__(
        self,
        name: str,
        objects,
        cache: DecodeCache,
        fault_injector=None,
        salvaged_ids=(),
        tracer=None,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ):
        self.name = name
        self.objects = objects
        self.cache = cache
        self.fault_injector = fault_injector
        self.salvaged_ids = frozenset(salvaged_ids)
        self.tracer = tracer
        # Serializes the miss path: the fail-fast bookkeeping below is
        # read and updated across a whole fallback ladder, so two
        # queries decoding the same dataset must not interleave. Cache
        # hits stay cheap — the critical section for a hit is one
        # locked dict lookup.
        self._lock = threading.RLock()
        self.degraded_ids: dict[int, int] = {}
        self.failed_ids: dict[int, str] = {}
        # Highest requested LOD whose whole fallback ladder failed, per
        # object. Exhaustion at LOD L proves LODs 0..L all fail, so the
        # fail-fast below is sound for any request <= L — but a request
        # *above* L must still run its ladder (a higher LOD may decode).
        # Keying the fail-fast this way makes get() a pure function of
        # (object, lod) under a deterministic fault injector, so results
        # cannot depend on which target happened to decode first.
        self._failed_lod: dict[int, int] = {}
        registry = metrics if metrics is not None else obs_metrics.REGISTRY
        # Handles on the per-decode-call instruments (see DecodeCache).
        self._m_decode_seconds = registry.histogram(
            "repro_decode_seconds", "Wall time of cache-miss decode calls"
        ).handle()
        self._m_decode_failures = registry.counter(
            "repro_decode_failures_total", "Decode attempts that raised"
        )
        self._m_decode_fallbacks = registry.counter(
            "repro_decode_fallbacks_total",
            "Decodes served below the requested LOD (degradation ladder)",
        )
        self._m_decoded_vertices = registry.counter(
            "repro_decoded_vertices_total", "Vertices reinserted by progressive decoders"
        ).handle()
        self._m_table_build_seconds = registry.histogram(
            "repro_decode_table_build_seconds",
            "Wall time compiling columnar LOD tables (once per object)",
        )
        self._m_slice_seconds = registry.histogram(
            "repro_decode_slice_seconds",
            "Wall time materializing LOD face slices from compiled tables",
        ).handle()

    def _decode_at(self, obj_id: int, lod: int, stats: QueryStats) -> DecodedLOD:
        """One decode attempt at exactly ``lod``; may raise."""
        if self.fault_injector is not None:
            self.fault_injector.before_decode(self.name, obj_id, lod)
        obj = self.objects[obj_id]
        if lod == 0:
            # The base mesh is LOD 0 (the table's step-0 rows, in order):
            # no round is parsed and no table compiled for it.
            positions, faces = obj.base_mesh()
            return DecodedLOD(
                positions, faces, lod=0, degraded=obj_id in self.salvaged_ids
            )
        tracer = self.tracer if self.tracer is not None and self.tracer.enabled else None
        if "lod_table" not in obj.__dict__:
            # First decode past LOD 0 of this object anywhere: compile
            # the columnar table (cached on the object, shared by every
            # later decode).
            start = time.perf_counter()
            table = obj.lod_table
            elapsed = time.perf_counter() - start
            self._m_table_build_seconds.observe(elapsed)
            if tracer is not None:
                tracer.record(
                    "decode_table_build", elapsed,
                    dataset=self.name, object=obj_id, rows=table.num_rows,
                )
        decoder = obj.decoder()
        # Records reinserted from the base mesh to reach ``lod``: a pure
        # function of (object, served LOD).
        added = decoder.advance_to(lod)
        stats.decoded_vertices += added
        self._m_decoded_vertices.inc(added)
        start = time.perf_counter()
        faces = decoder.face_array()
        elapsed = time.perf_counter() - start
        self._m_slice_seconds.observe(elapsed)
        if tracer is not None:
            tracer.record(
                "decode_slice", elapsed, dataset=self.name, object=obj_id, lod=lod
            )
        return DecodedLOD(
            obj.positions,
            faces,
            lod=lod,
            degraded=obj_id in self.salvaged_ids,
        )

    def get(
        self, obj_id: int, lod: int, deadline=None, stats: QueryStats | None = None
    ) -> DecodedLOD:
        """Decode ``obj_id`` at ``lod``, degrading to a lower LOD on failure.

        Raises :class:`DecodeFailureError` when no LOD decodes at all.
        ``deadline`` (a :class:`~repro.core.deadline.Deadline`) is
        checked before every decode attempt — serving a cached entry
        never raises, but an expired budget refuses to start new decode
        work (:class:`~repro.core.errors.DeadlineExceededError`).
        ``stats`` (the asking query's
        :class:`~repro.core.stats.QueryStats`) receives this request's
        traffic; its funnel side is charged to the requested ``lod``.
        Thread-safe: the whole miss path is serialized per provider.
        """
        if stats is None:
            stats = QueryStats()  # unaccounted direct use
        with self._lock:
            return self._get_locked(obj_id, lod, deadline, stats)

    def _get_locked(self, obj_id: int, lod: int, deadline, stats: QueryStats) -> DecodedLOD:
        key = (self.name, obj_id, lod)
        stage = stats.funnel.stage(lod)
        cached = self.cache.get(key)
        if cached is not None:
            stage.cache_hits += 1
            return cached
        stage.cache_misses += 1
        if lod <= self._failed_lod.get(obj_id, -1):
            stage.decode_failures += 1
            raise DecodeFailureError(self.name, obj_id, self.failed_ids[obj_id])

        start = time.perf_counter()
        push_phase("decode")
        try:
            last_error: Exception | None = None
            for attempt_lod in range(lod, -1, -1):
                # Outside the per-attempt except below, so expiry
                # propagates instead of reading as a decode failure.
                if deadline is not None:
                    deadline.check("decode")
                try:
                    decoded = self._decode_at(obj_id, attempt_lod, stats)
                except Exception as exc:
                    stats.decode_failures += 1
                    self._m_decode_failures.inc()
                    last_error = exc
                    log_event(
                        _LOG, "decode_failure", level=logging.WARNING,
                        dataset=self.name, object=obj_id, lod=attempt_lod,
                        reason=repr(exc),
                    )
                    continue
                if attempt_lod < lod:
                    decoded.degraded = True
                    self.degraded_ids[obj_id] = attempt_lod
                    self._m_decode_fallbacks.inc()
                    log_event(
                        _LOG, "decode_fallback", level=logging.WARNING,
                        dataset=self.name, object=obj_id,
                        requested_lod=lod, served_lod=attempt_lod,
                    )
                self.cache.put(key, decoded)
                stage.decoded_objects += 1
                stage.decoded_bytes += decoded.nbytes
                return decoded
            reason = repr(last_error) if last_error is not None else "unknown"
            self.failed_ids[obj_id] = reason
            self._failed_lod[obj_id] = max(self._failed_lod.get(obj_id, -1), lod)
            stage.decode_failures += 1
            log_event(
                _LOG, "decode_exhausted", level=logging.ERROR,
                dataset=self.name, object=obj_id, requested_lod=lod, reason=reason,
            )
            raise DecodeFailureError(self.name, obj_id, reason)
        finally:
            pop_phase()
            elapsed = time.perf_counter() - start
            stats.decode_seconds += elapsed
            self._m_decode_seconds.observe(elapsed)
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                # Record the *same* elapsed number charged to the query's
                # decode_seconds, so trace and stats cannot disagree.
                tracer.record(
                    "decode", elapsed, dataset=self.name, object=obj_id, lod=lod
                )

    def max_lod(self, obj_id: int) -> int:
        return self.objects[obj_id].max_lod
