"""Engine error taxonomy.

Every failure the engine can surface derives from :class:`EngineError`,
so callers can catch one base class. The storage branch distinguishes
*format* problems (structurally unparseable bytes) from *integrity*
problems (well-formed bytes whose checksum says they were corrupted) —
the distinction salvage loading keys on: format errors quarantine a
whole container file, integrity errors quarantine a single blob.
"""

__all__ = [
    "EngineError",
    "EngineConfigError",
    "DatasetNotLoadedError",
    "StorageError",
    "CuboidFormatError",
    "ShardFormatError",
    "ShardLifetimeError",
    "BlobChecksumError",
    "DatasetFormatError",
    "DecodeFailureError",
    "DeadlineExceededError",
    "ErrorBudgetExceededError",
    "WireFormatError",
]


class EngineError(Exception):
    """Base class for engine failures."""


class EngineConfigError(EngineError, ValueError):
    """Raised for invalid or unsupported configuration combinations."""


class DatasetNotLoadedError(EngineError, KeyError):
    """Raised when a query references a dataset name that is not loaded."""


class WireFormatError(EngineError, ValueError):
    """Raised for malformed wire payloads (the serve JSON contract).

    Strictness is deliberate: unknown fields, a missing or unsupported
    ``schema_version``, and wrong-typed fields all reject rather than
    silently dropping data — the versioned schema is the compatibility
    mechanism, not leniency.
    """


class StorageError(EngineError):
    """Base class for persistent-storage failures (containers, blobs)."""


class CuboidFormatError(StorageError, ValueError):
    """Raised for malformed or corrupted cuboid container files."""


class ShardFormatError(StorageError, ValueError):
    """Raised for malformed or corrupted v3 shard files (bad magic,
    unsupported version/codec, unparseable or checksum-failing index)."""


class ShardLifetimeError(StorageError):
    """Raised when a :class:`~repro.storage.shardfile.ShardReader` is
    closed while exported ``memoryview`` blob slices are still alive —
    the mapping cannot be unmapped under live buffers."""


class BlobChecksumError(StorageError, ValueError):
    """Raised when a blob's CRC32 does not match its payload.

    Distinguishes *detected corruption* (well-formed framing, bad bytes)
    from :class:`CuboidFormatError` (unparseable framing).
    """


class DatasetFormatError(StorageError, ValueError):
    """Raised for inconsistent dataset directories (manifest/object-id problems)."""


class DecodeFailureError(EngineError):
    """An object could not be decoded at any LOD (not even the base mesh).

    Carries enough context for degraded-mode query execution to fall
    back to MBB-only evaluation ("LOD -1") for the object.
    """

    def __init__(self, dataset: str, obj_id: int, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"object {obj_id} of dataset {dataset!r} failed to decode at every LOD{detail}"
        )
        self.dataset = dataset
        self.obj_id = obj_id
        self.reason = reason

    def __reduce__(self):
        # Default exception pickling replays __init__ with self.args (the
        # formatted message), which does not match this signature; spell
        # out the constructor so the error survives a process boundary.
        return (type(self), (self.dataset, self.obj_id, self.reason))


class ErrorBudgetExceededError(EngineError):
    """A query degraded more objects than ``EngineConfig.max_decode_failures`` allows."""

    def __init__(self, budget: int, degraded: int, query: str = ""):
        label = f" during {query}" if query else ""
        super().__init__(
            f"decode-failure budget exceeded{label}: {degraded} degraded objects "
            f"> budget of {budget}"
        )
        self.budget = budget
        self.degraded = degraded
        self.query = query

    def __reduce__(self):
        return (type(self), (self.budget, self.degraded, self.query))


class DeadlineExceededError(EngineError):
    """A query's wall-clock budget expired (or its token was cancelled).

    Raised at cooperative checkpoints throughout the execution stack
    (executor target loop, refinement rounds, candidate batches, the
    decode provider, the task scheduler). The executor converts it into
    a *partial* :class:`~repro.core.plan.QueryResult` rather than
    letting it escape: everything confirmed before the checkpoint is a
    sound answer under the FPR paradigm (pairs confirmed at any LOD are
    final), so the exception carries the refine layer's confirmed-so-far
    values: per target in ``partial_by_target`` from a group refinement,
    or in ``partial`` from a single-target one.
    """

    def __init__(self, reason: str = "deadline", where: str = "",
                 deadline_ms: int | None = None):
        at = f" at {where}" if where else ""
        budget = f" (budget {deadline_ms}ms)" if deadline_ms is not None else ""
        super().__init__(f"query {reason}{at}{budget}")
        self.reason = reason
        self.where = where
        self.deadline_ms = deadline_ms
        # Confirmed-so-far matches attached by the interrupted refine
        # pass; None when the interrupt happened between targets.
        self.partial = None

    def __reduce__(self):
        return (type(self), (self.reason, self.where, self.deadline_ms))
