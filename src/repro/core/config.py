"""Engine configuration.

One :class:`EngineConfig` captures a full experimental cell of the
paper's Table 1: the query paradigm (FR or FPR). The table's
acceleration columns are not switches: every refinement round runs on
the fused face-pair waves (the paper's GPU column), and every object
with at least ``partition_min_faces`` top-LOD faces is partitioned into
sub-objects (its ``P`` column; a threshold above every object's face
count gives the ``B`` column).

Runtime-tunable settings resolve through one shared precedence chain
(:func:`resolve_setting`), documented once here and used by the engine,
the executor, the CLI, and the query server:

========================  ====================================================
layer (highest first)     example
========================  ====================================================
``QuerySpec`` field       ``QuerySpec(deadline_ms=50)``
call-site override        ``--deadline-ms 50`` / ``resolve_setting(override=)``
``EngineConfig`` field    ``EngineConfig(deadline_ms=50)``
``REPRO_*`` environment   ``REPRO_DEADLINE_MS=50``
built-in default          no deadline
========================  ====================================================

The first layer whose value is not ``None`` wins. Environment values
are parsed and validated loudly — a malformed ``REPRO_*`` raises
:class:`~repro.core.errors.EngineConfigError` rather than silently
falling back to the default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.core.errors import EngineConfigError

__all__ = ["EngineConfig", "SETTINGS", "resolve_setting"]


def _parse_int(env_name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise EngineConfigError(
            f"{env_name} must be an integer, got {raw!r}"
        ) from None


def _check_min(env_name: str, minimum: int):
    def check(value):
        if value < minimum:
            raise EngineConfigError(f"{env_name} must be >= {minimum}")
        return value

    return check


@dataclass(frozen=True)
class Setting:
    """One runtime-tunable setting and how its layers resolve.

    ``parse`` turns the raw environment string into a value (raising
    :class:`EngineConfigError` on malformed input); ``check`` validates
    any resolved value regardless of which layer supplied it.
    """

    name: str
    env: str | None
    default: object
    parse: object = str
    check: object = None

    def from_env(self):
        """The environment layer's value, or ``None`` when unset."""
        if self.env is None:
            return None
        raw = os.environ.get(self.env, "").strip()
        if not raw:
            return None
        return self.parse(self.env, raw) if self.parse is not str else raw


#: Every setting that resolves through the shared precedence chain.
SETTINGS: dict[str, Setting] = {
    s.name: s
    for s in (
        Setting(
            "query_workers", "REPRO_QUERY_WORKERS", 1,
            parse=_parse_int, check=_check_min("query_workers", 1),
        ),
        Setting(
            "deadline_ms", "REPRO_DEADLINE_MS", None,
            parse=_parse_int, check=_check_min("deadline_ms", 1),
        ),
        # Query-service knobs (repro.serve): resolved by the server from
        # the same chain so `repro serve`, tests, and deployments agree.
        Setting(
            "serve_port", "REPRO_SERVE_PORT", 8030,
            parse=_parse_int, check=_check_min("serve_port", 0),
        ),
        Setting(
            "serve_max_inflight", "REPRO_SERVE_MAX_INFLIGHT", 4,
            parse=_parse_int, check=_check_min("serve_max_inflight", 1),
        ),
        Setting(
            "serve_max_queue", "REPRO_SERVE_MAX_QUEUE", 16,
            parse=_parse_int, check=_check_min("serve_max_queue", 0),
        ),
    )
}


def resolve_setting(name: str, *, spec=None, override=None, config=None):
    """Resolve one setting through the documented precedence chain.

    ``spec`` is the per-query (``QuerySpec``) value, ``override`` the
    call-site / CLI value, ``config`` either an :class:`EngineConfig`
    (its field of the same name is read) or a plain value. The first
    non-``None`` layer wins: spec > override > config > env > default.
    Whatever layer supplies the value, it is validated by the setting's
    ``check``.
    """
    setting = SETTINGS[name]
    config_value = (
        getattr(config, name, None) if isinstance(config, EngineConfig) else config
    )
    for value in (spec, override, config_value):
        if value is not None:
            return setting.check(value) if setting.check else value
    value = setting.from_env()
    if value is not None:
        return setting.check(value) if setting.check else value
    return setting.default


@dataclass(frozen=True)
class EngineConfig:
    """Complete engine configuration (one Table 1 cell)."""

    paradigm: str = "fpr"  # "fr" | "fpr"
    lod_list: tuple[int, ...] | None = None  # None: learned (fpr) / top (fr)
    # Skeleton partitioning (paper Section 5.1): a source object whose
    # top LOD has at least this many faces is indexed by sub-object
    # boxes and refined part by part; smaller objects are indexed whole
    # (math.inf partitions nothing).
    partition_min_faces: int = 400
    cache_bytes: int = 256 * 1024 * 1024
    cache_enabled: bool = True
    # Inter-target query parallelism: how many worker processes the
    # QueryExecutor fans cuboid-ordered target chunks across
    # (repro.parallel.procpool), each opening the dataset from the
    # on-disk store with its own DecodeCache; 1 runs serially in this
    # process. None means "not set explicitly" — the engine then honors
    # the REPRO_QUERY_WORKERS environment variable (the CI override
    # hook) and finally defaults to 1 (serial).
    query_workers: int | None = None
    # Not a setting: more than one worker always means processes. The
    # keyword is still accepted, as None, "process" or "thread", so
    # configurations written for the removed thread backend keep
    # constructing; it selects nothing, and "thread" with an explicit
    # query_workers > 1 is rejected.
    query_backend: str | None = None
    # Not a setting: refinement has one round loop (repro.core.refine).
    # The keyword is still accepted, as None or True, so configurations
    # written against 1.x keep constructing; False is rejected.
    batched_refine: bool | None = None
    # Not a setting either: v3 shard stores are the only layout written
    # and the only process-backend dataset transport (repro.storage.store).
    # Accepted as None or "shard"; "legacy" is rejected.
    storage_backend: str | None = None
    # FPR may settle a nearest neighbor before its exact distance is
    # known (the result carries an upper bound). Setting this forces a
    # final top-LOD distance evaluation for the reported neighbors -
    # costlier, but every returned distance is exact.
    exact_nn_distances: bool = False
    # Wall-clock budget per query, in milliseconds. At cooperative
    # checkpoints an expired deadline turns the rest of the query into a
    # *partial* result (QueryResult.completeness says what finished).
    # None means "not set explicitly": the engine then honors the
    # REPRO_DEADLINE_MS environment variable, and finally no deadline.
    # A QuerySpec-level deadline_ms overrides both.
    deadline_ms: int | None = None
    # Process-backend worker supervision (repro.parallel.procpool):
    # a chunk whose heartbeat goes stale for longer than
    # worker_hang_timeout_seconds has its pool killed and respawned
    # (None disables hang detection); each chunk is attempted at most
    # chunk_max_attempts times on the pool before it is quarantined to
    # serial in-process execution; and after pool_failure_threshold
    # consecutive pool failures the circuit breaker quarantines all
    # remaining chunks instead of resubmitting.
    worker_hang_timeout_seconds: float | None = None
    chunk_max_attempts: int = 2
    pool_failure_threshold: int = 3
    # Error budget: abort a query with ErrorBudgetExceededError once more
    # than this many distinct objects have degraded (decode fallback or
    # total decode failure). None disables the budget.
    max_decode_failures: int | None = None
    # Optional repro.faults.FaultInjector threaded into the decode
    # provider and process-backend workers for chaos testing.
    fault_injector: object = None
    # Observability (repro.obs): span tracing is off by default — when
    # disabled the engine's instrumented paths touch only the shared
    # no-op span. `metrics` overrides the process-wide registry
    # (repro.obs.metrics.REGISTRY) with a private MetricsRegistry.
    tracing: bool = False
    metrics: object = None
    # Sampling profiler (repro.obs.profile): when enabled the engine
    # runs a sampling thread for the duration of each query, bucketing
    # stacks by pipeline phase; per-chunk profiles from process workers
    # are shipped back and merged. Off by default — the only cost then
    # is a thread-local list push/pop per phase.
    profiling: bool = False
    profile_interval_ms: float = 2.0

    def __post_init__(self):
        if self.paradigm not in ("fr", "fpr"):
            raise EngineConfigError(f"paradigm must be 'fr' or 'fpr', got {self.paradigm!r}")
        if self.max_decode_failures is not None and self.max_decode_failures < 0:
            raise EngineConfigError("max_decode_failures must be None or >= 0")
        if self.query_workers is not None and self.query_workers < 1:
            raise EngineConfigError("query_workers must be None or >= 1")
        if self.query_backend not in (None, "thread", "process"):
            raise EngineConfigError(
                f"query_backend must be None, 'thread', or 'process', "
                f"got {self.query_backend!r}"
            )
        if self.query_backend == "thread" and (self.query_workers or 1) > 1:
            raise EngineConfigError(
                f"query_backend='thread' with query_workers="
                f"{self.query_workers}: the thread backend was removed; "
                f"query_workers > 1 always runs worker processes"
            )
        if self.storage_backend not in (None, "shard"):
            raise EngineConfigError(
                f"storage_backend must be None or 'shard', got "
                f"{self.storage_backend!r}: the legacy layout and pickle "
                f"transport were removed in 2.0 (`repro store migrate DIR` "
                f"converts a v1/v2 directory)"
            )
        if self.batched_refine not in (None, True):
            raise EngineConfigError(
                f"batched_refine must be None or True, got "
                f"{self.batched_refine!r}: the per-pair refinement path "
                f"was removed in 2.0"
            )
        if self.deadline_ms is not None and self.deadline_ms < 1:
            raise EngineConfigError("deadline_ms must be None or >= 1")
        if (
            self.worker_hang_timeout_seconds is not None
            and self.worker_hang_timeout_seconds <= 0
        ):
            raise EngineConfigError("worker_hang_timeout_seconds must be None or > 0")
        if self.chunk_max_attempts < 1:
            raise EngineConfigError("chunk_max_attempts must be >= 1")
        if self.pool_failure_threshold < 1:
            raise EngineConfigError("pool_failure_threshold must be >= 1")
        if self.profile_interval_ms <= 0:
            raise EngineConfigError("profile_interval_ms must be > 0")
        if self.lod_list is not None:
            if not self.lod_list:
                raise EngineConfigError("lod_list must be non-empty when given")
            if list(self.lod_list) != sorted(set(self.lod_list)):
                raise EngineConfigError("lod_list must be strictly ascending")
            if any(lod < 0 for lod in self.lod_list):
                raise EngineConfigError("lod_list entries must be >= 0")

    @property
    def label(self) -> str:
        """The paradigm as Table 1 names it: ``FR`` or ``FPR``."""
        return self.paradigm.upper()

    def with_paradigm(self, paradigm: str) -> "EngineConfig":
        return replace(self, paradigm=paradigm)

    def resolve_query_workers(self) -> int:
        """The effective query-worker count (see :func:`resolve_setting`)."""
        return resolve_setting("query_workers", config=self)

    def resolve_deadline_ms(self) -> int | None:
        """The effective per-query wall-clock budget in milliseconds."""
        return resolve_setting("deadline_ms", config=self)
