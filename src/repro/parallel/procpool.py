"""Process-backed query execution: real multi-core fan-out for joins.

FPR refinement is pure-Python-bound, so threads sharing one interpreter
gain nothing from extra cores. This module is the engine's only
parallel backend: the executor's contiguous, cuboid-ordered target
chunks become self-contained sub-queries (``QuerySpec.target_ids``)
fanned across a pool of **worker processes**, each owning a full
engine — its own ``DecodeCache``, decoders, R-tree, and metrics
registry.

Dataset transport
    Every dataset reaches a worker as a store path: what crosses the
    process boundary is a tiny :class:`DatasetManifest` handle (name +
    path + load mode), never object bytes. A v3 shard store the parent
    loaded cleanly is strict-loaded *lazily* (``verify="lazy"``): each
    worker memory-maps the shards and faults in only the blobs its
    chunks decode, and every worker on the machine shares those pages
    through the OS page cache — resident memory stays O(dataset), not
    O(workers × dataset). Anything else loaded from disk (a v1/v2
    container directory, a store whose parent load was not clean)
    reloads in salvage mode — deterministic, so a clean store loads
    identically to strict mode and a damaged store reproduces the
    parent's salvage outcome.

    An in-memory dataset is *spilled* once to a pickle-codec shard
    store (:func:`~repro.storage.store.spill_dataset`) and then opened
    like any other clean shard store. The pickle codec round-trips
    objects exactly — the serialized store format re-quantizes
    positions and would perturb results. Compiled
    :class:`~repro.compression.lodtable.LODTable` columnar decode
    tables are immutable and pickle with their objects, so any table
    the parent already built ships in the spill; workers compile the
    rest lazily on first decode (store-reopened datasets always
    compile worker-side).

    Spill directories are self-identifying (``owner.pid``): pool
    startup sweeps stale ``repro-procpool-*`` directories — spills and
    heartbeat files orphaned by a killed parent — whose owning process
    is gone.

Result transport
    Each worker ships back a picklable :class:`ChunkOutcome`: pairs,
    per-chunk ``QueryStats``, degraded ``(side, object)`` keys, span
    trees (plain dicts), and a monotonic metrics delta. Quarantined
    chunks run in-process produce the same type, and the parent merges
    both in one place, in submission order, so results are
    byte-identical to serial, fault injection included (decode faults are keyed by
    ``dataset:object:lod``, never by worker identity; only the
    ``FaultInjector.max_faults`` cap is order-sensitive, and in process
    mode it bounds each worker separately).

Worker-side engines are cached (small LRU keyed by config + dataset
manifests), so repeated queries against the same datasets pay the
engine bootstrap once per process, and each process keeps its own warm
decode cache — memory use scales with ``query_workers`` times
``cache_bytes`` in the worst case.

Supervision
    ``execute_chunks`` is a chunk *supervisor*, not a fire-and-forget
    fan-out. Each submitted chunk carries a heartbeat file its worker
    touches at chunk start and at every target boundary; the parent
    polls outstanding futures and treats a stale heartbeat (older than
    ``EngineConfig.worker_hang_timeout_seconds``) like a worker crash.
    On a crash or hang the pool is killed — terminated *and* joined, so
    no orphan processes outlive the query — and respawned, and the
    unfinished chunks are resubmitted; :func:`shutdown` tears the pool
    down the same way. A chunk that burns
    ``chunk_max_attempts`` attempts is *quarantined*: returned as a
    :class:`QuarantinedChunk` marker the executor re-runs in-process,
    so one poisoned chunk costs one slot, not the whole query's process
    backend. ``pool_failure_threshold`` consecutive pool failures trip a
    circuit breaker that quarantines everything still pending instead
    of thrashing respawns.
"""

from __future__ import annotations

import atexit
import logging
import os
import pickle
import shutil
import tempfile
import threading
import time
import traceback as _traceback
import uuid
import weakref
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.obs.logs import get_logger, log_event

__all__ = [
    "ChunkOutcome",
    "ChunkTask",
    "DatasetManifest",
    "ProcessBackendUnavailable",
    "QuarantinedChunk",
    "execute_chunks",
    "shutdown",
]

_LOG = get_logger("parallel.procpool")

#: Per-query series the parent's executor accounts itself; worker deltas
#: must not re-add them (each chunk is not a query of its own), and the
#: degraded-object count is deduplicated across chunks by the parent.
_PER_QUERY_SERIES = (
    "repro_queries_total",
    "repro_query_seconds",
    "repro_degraded_objects_total",
    # Partiality is accounted once per *query* by the parent from the
    # merged completeness record, not once per worker chunk.
    "repro_deadline_exceeded_total",
    # Performance attribution is emitted once per query by the parent
    # from the merged stats/funnel; a worker chunk's own emission would
    # double-count every stage.
    "repro_query_latency_seconds",
    "repro_deadline_headroom_ratio",
    "repro_funnel_candidates_total",
    "repro_funnel_mbb_pruned_total",
    "repro_funnel_pairs_total",
    "repro_funnel_decoded_objects_total",
    "repro_funnel_decoded_bytes_total",
    "repro_funnel_decode_cache_total",
    "repro_funnel_decode_failures_total",
)

#: Seconds between reads of a query's cancellation token while its
#: chunks run in the pool.
_CANCEL_POLL = 0.05

#: Worker-side engine cache size. Engines are keyed by (config, dataset
#: manifests); a handful covers a test session's distinct configurations
#: while bounding worker memory.
_MAX_WORKER_ENGINES = 4


class ProcessBackendUnavailable(RuntimeError):
    """Pool or transport infrastructure failed (not a query error).

    The executor catches this and runs the query serially; real
    query failures (``EngineError`` subclasses raised inside a worker)
    propagate unchanged. ``traceback`` carries the formatted cause so
    the fallback log line can say exactly why.
    """

    def __init__(self, message: str, traceback: str = ""):
        super().__init__(message)
        self.traceback = traceback


@dataclass(frozen=True)
class DatasetManifest:
    """How a worker obtains one dataset: the store directory to open.

    ``mode`` selects the worker's load: ``"strict"`` (lazy shard load,
    ``verify="lazy"`` so only touched blobs are CRC-checked and
    deserialized) for clean shard stores — spills included —
    ``"salvage"`` otherwise.
    """

    name: str
    path: str
    mode: str = "salvage"  # "strict" | "salvage"


@dataclass(frozen=True)
class ChunkTask:
    """One sub-query shipped to a worker process."""

    engine_key: bytes
    config: object  # sanitized EngineConfig (metrics stripped, serial)
    manifests: tuple
    spec: object  # QuerySpec restricted to this chunk's target_ids
    chunk_key: str = ""  # stable chunk identity for deterministic faults
    attempt: int = 0  # 0-based submission attempt
    heartbeat_path: str = ""  # file the worker touches per target
    # The coordinator's LOD schedule: the worker runs exactly these LODs
    # and learns nothing, so every chunk follows one schedule. It rides
    # on the task, not in ``config``, so ``engine_key`` (and the
    # worker's cached engine and decode cache) does not depend on it.
    lods: tuple = ()


@dataclass
class ChunkOutcome:
    """One chunk's results, shipped back to the parent."""

    pairs: dict
    degraded_targets: set
    stats: object  # QueryStats
    degraded_keys: set
    spans: list  # worker span trees as plain dicts ([] when untraced)
    metrics_delta: dict
    completeness: object = None  # the sub-query's QueryCompleteness
    # The chunk's sampling-profiler report (repro.obs.profile
    # .ProfileReport) when the worker engine runs with profiling on;
    # the parent absorbs it so flamegraphs cover worker time too.
    profile: object = None


@dataclass
class QuarantinedChunk:
    """A chunk retired from the pool; the executor runs it serially."""

    index: int
    targets: tuple
    reason: str  # "attempts_exhausted" | "circuit_breaker" | "cancelled"


# -- parent side ---------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
# Reentrant: _ensure_pool and shutdown tear down through _kill_pool,
# which takes the lock itself.
_POOL_LOCK = threading.RLock()
_SPILL_DIR: str | None = None
# id(dataset) -> spill directory; entries are removed by a
# weakref.finalize when the dataset is collected, so a recycled id can
# never alias a stale spill.
_SPILLS: dict[int, str] = {}


def _ensure_importable() -> None:
    """Make sure spawned children can ``import repro``.

    Spawned workers re-import this module by name before running any
    task; when the parent runs from a source checkout (``PYTHONPATH=src``
    or ``sys.path`` manipulation) the package root must reach the child
    through the environment.
    """
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    parts = [os.path.abspath(p) for p in existing.split(os.pathsep) if p]
    if pkg_root not in parts:
        os.environ["PYTHONPATH"] = (
            pkg_root + (os.pathsep + existing if existing else "")
        )


def _ensure_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < workers:
            _kill_pool()
            _ensure_importable()
            import multiprocessing

            _POOL = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
            _POOL_WORKERS = workers
            log_event(_LOG, "procpool_started", workers=workers)
        return _POOL


def shutdown() -> None:
    """Tear down the shared pool and spill directory (atexit / tests).

    The pool's workers are terminated and reaped before this returns,
    so no worker outlives the call.
    """
    global _SPILL_DIR
    with _POOL_LOCK:
        _kill_pool()
        if _SPILL_DIR is not None:
            shutil.rmtree(_SPILL_DIR, ignore_errors=True)
            _SPILL_DIR = None
            _SPILLS.clear()


atexit.register(shutdown)


def _kill_pool() -> None:
    """Hard-stop the shared pool: terminate workers and *reap* them.

    The only pool teardown: crash/hang recovery, pool growth and
    :func:`shutdown` all come through here. Joining after terminate is
    what guarantees no orphaned processes — a SIGKILLed worker left
    unjoined would linger as a zombie for the parent's lifetime.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is None:
        return
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            if proc.is_alive():
                proc.terminate()
        except (OSError, ValueError):
            pass
    for proc in processes:
        try:
            proc.join(timeout=5.0)
        except (OSError, ValueError, AssertionError):
            pass


_SPILL_PREFIX = "repro-procpool-"
#: Unowned spill dirs (no readable owner.pid) are reaped only once this
#: old, so a sweep can never race a parent that is mid-mkdtemp.
_SPILL_ORPHAN_AGE_SECONDS = 3600.0


def _sweep_stale_spills(tmp_root: str, own: str | None = None) -> int:
    """Remove ``repro-procpool-*`` dirs whose owning process is gone.

    Abnormal parent exits (SIGKILL, OOM) orphan spill files and
    heartbeat files until reboot; each new parent sweeps them at pool
    startup. A directory is reclaimed when its ``owner.pid`` names a
    dead process; dirs without a readable pidfile are reclaimed only
    after :data:`_SPILL_ORPHAN_AGE_SECONDS`. Returns the count removed.
    """
    removed = 0
    try:
        names = os.listdir(tmp_root)
    except OSError:
        return 0
    own = os.path.abspath(own) if own is not None else None
    for name in names:
        if not name.startswith(_SPILL_PREFIX):
            continue
        path = os.path.join(tmp_root, name)
        if own is not None and os.path.abspath(path) == own:
            continue
        if not os.path.isdir(path):
            continue
        try:
            with open(os.path.join(path, "owner.pid")) as fh:
                pid = int(fh.read().strip())
        except (OSError, ValueError):
            try:
                age = time.time() - os.path.getmtime(path)
            except OSError:
                continue
            if age < _SPILL_ORPHAN_AGE_SECONDS:
                continue
        else:
            try:
                os.kill(pid, 0)
                continue  # owner still running
            except ProcessLookupError:
                pass  # owner is dead: reclaim
            except OSError:
                continue  # EPERM etc.: someone else's live process
        shutil.rmtree(path, ignore_errors=True)
        removed += 1
    if removed:
        log_event(_LOG, "stale_spills_swept", tmp_root=tmp_root, removed=removed)
    return removed


def _spill_dir() -> str:
    global _SPILL_DIR
    if _SPILL_DIR is None:
        _SPILL_DIR = tempfile.mkdtemp(prefix=_SPILL_PREFIX)
        with open(os.path.join(_SPILL_DIR, "owner.pid"), "w") as fh:
            fh.write(str(os.getpid()))
        _sweep_stale_spills(os.path.dirname(_SPILL_DIR), own=_SPILL_DIR)
    return _SPILL_DIR


def _manifest_for(dataset) -> DatasetManifest:
    if dataset.source_dir is not None:
        # Shard stores the parent loaded cleanly strict-load lazily in
        # the workers; anything else (v1/v2 containers, damaged stores)
        # reloads in deterministic salvage mode.
        report = dataset.load_report
        clean = report is None or report.ok
        mode = "strict" if (dataset.shard_source is not None and clean) else "salvage"
        return DatasetManifest(dataset.name, dataset.source_dir, mode)
    key = id(dataset)
    path = _SPILLS.get(key)
    if path is None:
        from repro.storage.store import spill_dataset

        path = os.path.join(_spill_dir(), f"spill-{uuid.uuid4().hex}")
        spill_dataset(dataset, path)
        _SPILLS[key] = path
        weakref.finalize(dataset, _SPILLS.pop, key, None)
    return DatasetManifest(dataset.name, path, "strict")


def _worker_config(config):
    """The parent config sanitized for shipping to a worker.

    Workers always run their chunk serially (so a worker can never
    recursively spawn processes), with a private
    metrics registry created on the far side. The fault injector ships
    with its fired-counts cleared: decisions are pure functions of
    ``(seed, kind, key)``, so workers re-derive exactly the parent's
    faults, but the parent-side ``counts`` bookkeeping stays local.
    """
    injector = config.fault_injector
    if injector is not None:
        injector = replace(injector, counts={})
    return replace(
        config,
        metrics=None,
        fault_injector=injector,
        query_workers=1,
        # The worker's budget is the parent's *remaining* wall clock,
        # re-stamped onto each chunk's spec at submission; a config- or
        # env-level deadline must not start a fresh full budget per chunk.
        deadline_ms=None,
    )


def execute_chunks(engine, plan, chunks: list, deadline=None) -> list:
    """Fan ``chunks`` (lists of target ids) across the supervised pool.

    Returns one entry per chunk **in submission order** — a
    :class:`ChunkOutcome`, or a :class:`QuarantinedChunk` marker for a
    chunk the supervisor retired (the executor runs those serially
    in-process). The caller merges both through one merge. Raises
    :class:`ProcessBackendUnavailable` only when the pool/transport
    infrastructure is unusable (spill I/O, unpicklable payloads, pool
    bootstrap); worker crashes and hangs are handled *here* by killing +
    respawning the pool and retrying the affected chunks. Worker-side query errors (``EngineError``)
    propagate as themselves.
    """
    from repro.core.errors import EngineError

    try:
        config = _worker_config(engine.config)
        records = {plan.target.dataset.name: plan.target.dataset}
        records[plan.source.dataset.name] = plan.source.dataset
        manifests = tuple(
            _manifest_for(records[name]) for name in sorted(records)
        )
        blob = pickle.dumps((config, manifests), protocol=pickle.HIGHEST_PROTOCOL)
        import hashlib

        engine_key = hashlib.sha1(blob).digest()
        return _supervise(
            engine, plan, chunks, deadline, config, manifests, engine_key
        )
    except EngineError:
        raise
    except (BrokenProcessPool, OSError, pickle.PicklingError) as exc:
        raise ProcessBackendUnavailable(str(exc), _traceback.format_exc()) from exc


def _chunk_spec(plan, chunk, deadline):
    """The chunk's restricted spec, deadline re-budgeted at submit time.

    Tokens hold no cross-process plumbing, so ``cancellation`` is
    stripped: the parent's supervision loop polls the token instead and,
    once it fires, kills the pool and quarantines every pending chunk
    with reason ``"cancelled"`` — their parent-side bodies see the token
    at their first checkpoint. The worker gets the parent's *remaining*
    milliseconds (floored at 1ms — an already-expired budget still
    yields a well-formed empty partial from the worker's first
    checkpoint).
    ``progress`` callbacks are in-process-only for the same reason —
    consumers needing per-LOD streaming under this backend rely on the
    serve layer's catch-up flush after the merged result lands.
    """
    deadline_ms = None
    if deadline is not None:
        remaining = deadline.remaining()
        if remaining is not None:
            deadline_ms = max(1, int(remaining * 1000))
    return replace(
        plan.spec,
        target_ids=tuple(chunk),
        cancellation=None,
        progress=None,
        deadline_ms=deadline_ms,
    )


def _heartbeat_age(path: str) -> float | None:
    try:
        return time.time() - os.path.getmtime(path)
    except OSError:
        return None


def _supervise(engine, plan, chunks, deadline, config, manifests, engine_key):
    """Submit, watch, retry, quarantine: the chunk supervision loop.

    With a cancellation token on the query, ``wait`` times out at least
    every :data:`_CANCEL_POLL` seconds to read it; once it fires the loop
    submits nothing more, kills the pool and quarantines every pending
    chunk with reason ``"cancelled"``.
    """
    from repro.core.errors import EngineError

    executor = engine.executor
    tracer = engine.tracer
    max_attempts = engine.config.chunk_max_attempts
    breaker = engine.config.pool_failure_threshold
    hang_timeout = engine.config.worker_hang_timeout_seconds

    outcomes: list = [None] * len(chunks)
    attempts = [0] * len(chunks)
    pending = set(range(len(chunks)))
    heartbeats: dict[int, str] = {}
    pool_failures = 0
    watch_token = deadline is not None and deadline.token is not None

    def quarantine(index: int, reason: str) -> None:
        outcomes[index] = QuarantinedChunk(
            index=index, targets=tuple(chunks[index]), reason=reason
        )
        pending.discard(index)
        executor._m_quarantined.inc()
        log_event(
            _LOG, "chunk_quarantined", level=logging.WARNING,
            chunk=index, attempts=attempts[index], reason=reason,
        )
        with tracer.span(
            "supervision", event="chunk_quarantined", chunk=index, reason=reason
        ):
            pass

    def pool_failure(reason: str, error: str = "") -> None:
        nonlocal pool_failures
        pool_failures += 1
        executor._m_worker_restarts.inc()
        log_event(
            _LOG, "worker_pool_restart", level=logging.WARNING,
            reason=reason, error=error, consecutive_failures=pool_failures,
            pending_chunks=len(pending),
        )
        with tracer.span(
            "supervision", event="pool_restart", reason=reason,
            consecutive_failures=pool_failures,
        ):
            pass
        _kill_pool()

    def cancel_pending() -> None:
        for index in sorted(pending):
            quarantine(index, "cancelled")

    while pending:
        if watch_token and deadline.cancelled:
            cancel_pending()
            break
        # Retire chunks out of attempts, or everything once the breaker
        # trips — resubmitting to a pool that keeps dying only burns time.
        if pool_failures >= breaker:
            for index in sorted(pending):
                quarantine(index, "circuit_breaker")
            break
        for index in sorted(pending):
            if attempts[index] >= max_attempts:
                quarantine(index, "attempts_exhausted")
        if not pending:
            break

        round_indices = sorted(pending)
        futures = {}
        try:
            pool = _ensure_pool(engine.query_workers)
            for index in round_indices:
                path = heartbeats.get(index)
                if path is None:
                    path = os.path.join(_spill_dir(), f"hb-{uuid.uuid4().hex}")
                    heartbeats[index] = path
                with open(path, "a"):
                    pass
                os.utime(path)
                task = ChunkTask(
                    engine_key=engine_key,
                    config=config,
                    manifests=manifests,
                    spec=_chunk_spec(plan, chunks[index], deadline),
                    chunk_key=f"{plan.label}:{index}",
                    attempt=attempts[index],
                    heartbeat_path=path,
                    lods=plan.lods,
                )
                attempts[index] += 1
                futures[pool.submit(_run_chunk, task)] = index
        except BrokenProcessPool as exc:
            pool_failure("submit_failed", repr(exc))
            continue

        poll = None if hang_timeout is None else max(0.05, hang_timeout / 4.0)
        if watch_token:
            poll = _CANCEL_POLL if poll is None else min(poll, _CANCEL_POLL)
        outstanding = set(futures)
        broken = False
        while outstanding and not broken:
            done, outstanding = wait(
                outstanding, timeout=poll, return_when=FIRST_COMPLETED
            )
            for future in done:
                index = futures[future]
                try:
                    outcome = future.result()
                except EngineError:
                    raise
                except BrokenProcessPool as exc:
                    if not broken:
                        pool_failure("worker_crashed", repr(exc))
                        broken = True
                except (OSError, pickle.PickleError, EOFError) as exc:
                    # Transport failure for this chunk (e.g. result
                    # unpickling); burns the chunk's attempt but the
                    # pool itself is still healthy.
                    log_event(
                        _LOG, "chunk_transport_error", level=logging.WARNING,
                        chunk=index, error=repr(exc),
                        traceback=_traceback.format_exc(),
                    )
                else:
                    outcomes[index] = outcome
                    pending.discard(index)
            if broken or not outstanding:
                break
            if watch_token and deadline.cancelled:
                _kill_pool()
                cancel_pending()
                break
            if hang_timeout is not None:
                hung = [
                    futures[f]
                    for f in outstanding
                    if (_heartbeat_age(heartbeats[futures[f]]) or 0.0) > hang_timeout
                ]
                if hung:
                    pool_failure(
                        "worker_hang",
                        f"chunks {hung} heartbeat older than {hang_timeout}s",
                    )
                    broken = True
        if not broken:
            # A clean round: the breaker counts *consecutive* failures.
            pool_failures = 0
    return outcomes


# -- worker side ---------------------------------------------------------------

# Per-process caches: datasets by manifest, engines by (config, manifests).
_WORKER_DATASETS: dict[DatasetManifest, object] = {}
_WORKER_ENGINES: "OrderedDict[bytes, object]" = OrderedDict()


def _load_manifest(manifest: DatasetManifest):
    dataset = _WORKER_DATASETS.get(manifest)
    if dataset is None:
        from repro.storage.store import load_dataset

        # Strict loads are lazy: mmap the shards, CRC-check and
        # unpickle/deserialize only the blobs this worker's chunks
        # actually touch (salvage loads read everything regardless).
        dataset = load_dataset(manifest.path, mode=manifest.mode, verify="lazy")
        _WORKER_DATASETS[manifest] = dataset
    return dataset


def _engine_for(task: ChunkTask):
    engine = _WORKER_ENGINES.get(task.engine_key)
    if engine is not None:
        _WORKER_ENGINES.move_to_end(task.engine_key)
        return engine
    from repro.core.engine import ThreeDPro
    from repro.obs.metrics import MetricsRegistry

    engine = ThreeDPro(replace(task.config, metrics=MetricsRegistry()))
    for manifest in task.manifests:
        engine.load_dataset(_load_manifest(manifest))
    _WORKER_ENGINES[task.engine_key] = engine
    while len(_WORKER_ENGINES) > _MAX_WORKER_ENGINES:
        _WORKER_ENGINES.popitem(last=False)
    return engine


def _heartbeat_fn(path: str):
    def beat() -> None:
        try:
            os.utime(path)
        except OSError:
            pass  # liveness reporting must never fail the chunk

    return beat


def _run_chunk(task: ChunkTask) -> ChunkOutcome:
    """Execute one restricted sub-query in this worker process."""
    from repro.obs.metrics import diff_states

    heartbeat = _heartbeat_fn(task.heartbeat_path) if task.heartbeat_path else None
    if heartbeat is not None:
        heartbeat()
    engine = _engine_for(task)
    injector = engine.config.fault_injector
    if injector is not None:
        # Chunk-level chaos (worker kill / hang) fires before any work,
        # keyed by (chunk, attempt) so a retried chunk can deterministically
        # succeed on its next attempt.
        injector.before_chunk(task.chunk_key, task.attempt)
    tracer = engine.tracer
    if tracer.enabled:
        tracer.clear()
    metrics_before = engine.metrics.export_state()

    engine.executor.heartbeat = heartbeat
    try:
        result = engine._run_pinned(task.spec, task.lods)
    finally:
        engine.executor.heartbeat = None

    return ChunkOutcome(
        pairs=result.pairs,
        degraded_targets=result.degraded_targets,
        stats=result.stats,
        degraded_keys=set(result.degraded_keys),
        spans=[root.to_dict() for root in tracer.roots] if tracer.enabled else [],
        metrics_delta=diff_states(
            metrics_before, engine.metrics.export_state(), skip=_PER_QUERY_SERIES
        ),
        completeness=result.completeness,
        profile=engine.take_profile(),
    )
