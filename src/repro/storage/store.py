"""In-memory datasets of compressed objects, with disk persistence.

A :class:`Dataset` is the unit the query engine loads: a named list of
compressed objects, their MBBs (read straight off the compressed
headers), and the cuboid grid that batches them.

There is one on-disk layout, the paper's uniform per-cuboid format
(Section 5.3): one v3 memory-mapped shard file per non-empty cuboid
(:mod:`repro.storage.shardfile`) whose index carries the planning
metadata (AABB, LOD ladder, per-LOD face counts), plus a manifest. One
writer produces it: :func:`save_dataset` stores serialized blobs,
:func:`spill_dataset` exact pickles (the process backend's transport
for datasets that never touched disk). Loading is *lazy*: objects come
back as :class:`ShardBackedObject` proxies that answer every pre-decode
question from the index and materialize their blob — a zero-copy
``memoryview`` over the shared mapping — only when a query actually
decodes them. All readers of one shard share physical pages through the
OS page cache, which is what lets every process worker open the same
dataset for ~zero private memory.

v1/v2 cuboid container directories written by older releases
(:mod:`repro.storage.fileformat`) remain supported *input*: loading
auto-detects them (eagerly), and :func:`migrate_dataset` rewrites one
as a v3 store in place, preserving blobs, ids, and the grid.

Loading runs in one of two modes:

* ``strict`` (default) — any corruption or inconsistency raises; the
  dataset you get is exactly the dataset that was saved. For shards the
  index CRC is verified at open and every blob CRC in one eager scan
  (``verify="lazy"`` defers the per-blob check to first access — the
  process-worker path that must fault in only the pages its chunk
  touches); deserialization itself stays deferred either way.
* ``salvage`` — unreadable files are quarantined, failing blobs are
  skipped or partially recovered (their intact lower LODs kept, see
  :func:`~repro.compression.serialize.salvage_object_blob`), surviving
  objects are renumbered contiguously, and the whole outcome is
  reported in a structured :class:`LoadReport` — the *same* report
  structure and per-blob CRC granularity for every format version.
"""

from __future__ import annotations

import json
import logging
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.compression.ppvp import CompressedObject, PPVPEncoder
from repro.compression.serialize import (
    ParsedBase,
    assemble,
    deserialize_object,
    parse_base,
    salvage_object_blob,
    serialize_object,
)
from repro.core.errors import (
    BlobChecksumError,
    CuboidFormatError,
    DatasetFormatError,
)
from repro.geometry.aabb import AABB
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event
from repro.storage.cuboid import CuboidGrid
from repro.storage.fileformat import read_cuboid_file, salvage_cuboid_file
from repro.storage.shardfile import (
    ShardReader,
    salvage_shard_file,
    write_shard_file,
)

__all__ = [
    "Dataset",
    "LoadReport",
    "ShardBackedObject",
    "ShardSet",
    "save_dataset",
    "spill_dataset",
    "load_dataset",
    "migrate_dataset",
]

_MANIFEST = "manifest.json"
_MODES = ("strict", "salvage")


def _deserialize_3dpr(data: bytes | ParsedBase) -> CompressedObject:
    """A ``3dpr`` blob, or a blob's base parse, as the full object."""
    return assemble(data) if isinstance(data, ParsedBase) else deserialize_object(data)


#: Shard codec -> blob decoder (``pickle`` blobs are only ever our own
#: spills). The ``3dpr`` decoder also finishes a base parse.
_DECODERS = {"3dpr": _deserialize_3dpr, "pickle": pickle.loads}

_LOG = get_logger("storage.store")


def _publish_load_report(report: "LoadReport") -> None:
    """Mirror a salvage outcome into metrics + the structured event log."""
    registry = obs_metrics.REGISTRY
    registry.counter(
        "repro_salvage_loads_total", "Datasets loaded in salvage mode"
    ).inc()
    if report.quarantined_files:
        registry.counter(
            "repro_salvage_quarantined_files_total", "Container files quarantined"
        ).inc(len(report.quarantined_files))
    if report.skipped_blobs:
        registry.counter(
            "repro_salvage_lost_objects_total", "Objects lost to unsalvageable blobs"
        ).inc(len(report.skipped_blobs))
    if report.degraded_objects:
        registry.counter(
            "repro_salvage_recovered_objects_total",
            "Objects partially recovered (lower LODs kept)",
        ).inc(len(report.degraded_objects))
    if not report.ok:
        log_event(
            _LOG, "salvage_load", level=logging.WARNING,
            directory=report.directory,
            objects_loaded=report.objects_loaded,
            objects_expected=report.objects_expected,
            quarantined_files=len(report.quarantined_files),
            skipped_blobs=len(report.skipped_blobs),
            degraded_objects=len(report.degraded_objects),
            container_faults=len(report.container_faults),
        )


@dataclass
class LoadReport:
    """Structured outcome of one :func:`load_dataset` call.

    ``skipped_blobs`` and ``degraded_objects`` carry
    ``(object_id, filename, reason)`` triples; skipped ids are the
    *original* (manifest) ids, degraded ids the *final* (possibly
    renumbered) ids. ``id_map`` maps original ids to final ids when
    salvage renumbering applied (``None`` in strict mode).
    """

    mode: str
    directory: str
    objects_expected: int = 0
    objects_loaded: int = 0
    files_total: int = 0
    files_loaded: int = 0
    quarantined_files: list[tuple[str, str]] = field(default_factory=list)
    skipped_blobs: list[tuple[int, str, str]] = field(default_factory=list)
    degraded_objects: list[tuple[int, str, str]] = field(default_factory=list)
    container_faults: list[str] = field(default_factory=list)
    id_map: dict[int, int] | None = None

    @property
    def ok(self) -> bool:
        """True when nothing was lost, degraded, or integrity-suspect."""
        return (
            not self.quarantined_files
            and not self.skipped_blobs
            and not self.degraded_objects
            and not self.container_faults
            and self.objects_loaded == self.objects_expected
        )

    def summary(self) -> str:
        """One-line human-readable digest."""
        parts = [
            f"loaded {self.objects_loaded}/{self.objects_expected} objects "
            f"from {self.files_loaded}/{self.files_total} files [{self.mode}]"
        ]
        if self.quarantined_files:
            parts.append(f"{len(self.quarantined_files)} files quarantined")
        if self.skipped_blobs:
            parts.append(f"{len(self.skipped_blobs)} blobs skipped")
        if self.degraded_objects:
            parts.append(f"{len(self.degraded_objects)} objects degraded")
        if self.container_faults:
            parts.append(f"{len(self.container_faults)} container checksum faults")
        return ", ".join(parts)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "directory": self.directory,
            "objects_expected": self.objects_expected,
            "objects_loaded": self.objects_loaded,
            "files_total": self.files_total,
            "files_loaded": self.files_loaded,
            "quarantined_files": list(self.quarantined_files),
            "skipped_blobs": list(self.skipped_blobs),
            "degraded_objects": list(self.degraded_objects),
            "container_faults": list(self.container_faults),
            "id_map": dict(self.id_map) if self.id_map is not None else None,
            "ok": self.ok,
        }


# -- lazy shard access ---------------------------------------------------------


class ShardSet:
    """The open shard handles behind one lazily-loaded dataset.

    Readers are opened on demand and cached; materialization (blob →
    :class:`CompressedObject`) is serialized by one lock so concurrent
    queries (the query server's request threads) deserialize each object
    at most once. The blob's ``memoryview`` is released as soon as the
    bytes are copied out, so no long-lived reference ever pins the
    mapping (readers stay closeable) and decoded geometry owns its own
    memory.

    Pickling ships only the directory path and codec — the far side
    reopens its own readers (and its own mmaps) lazily.
    """

    def __init__(self, directory, codec: str = "3dpr"):
        self.directory = str(directory)
        self.codec = codec
        self._readers: dict[str, ShardReader] = {}
        self._lock = threading.Lock()

    def reader(self, filename: str) -> ShardReader:
        with self._lock:
            reader = self._readers.get(filename)
            if reader is None or reader.closed:
                reader = ShardReader(Path(self.directory) / filename)
                self._readers[filename] = reader
            return reader

    def blob(self, filename: str, object_id: int) -> bytes:
        """One object's blob, copied out of its CRC-verified slice."""
        reader = self.reader(filename)
        with self._lock:
            view = reader.blob(object_id)
            try:
                return bytes(view)
            finally:
                view.release()

    def materialize(
        self, filename: str, object_id: int, parsed: ParsedBase | None = None
    ) -> CompressedObject:
        """Deserialize one object from its shard (CRC-verified slice), or
        finish ``parsed``, its blob's base parse, by parsing the rounds."""
        data = parsed if parsed is not None else self.blob(filename, object_id)
        return _DECODERS[self.codec](data)

    def close(self) -> None:
        """Close every open reader (raises if exported slices are alive)."""
        with self._lock:
            for reader in self._readers.values():
                if not reader.closed:
                    reader.close()
            self._readers.clear()

    def __getstate__(self) -> dict:
        return {"directory": self.directory, "codec": self.codec}

    def __setstate__(self, state) -> None:
        self.directory = state["directory"]
        self.codec = state["codec"]
        self._readers = {}
        self._lock = threading.Lock()


def _unwrap(obj):
    """Pickle helper for :class:`ShardBackedObject.__reduce__`."""
    return obj


class ShardBackedObject:
    """A compressed object that has not left its shard yet.

    Answers the planning questions (``aabb``, ``max_lod``, ``lods``,
    ``face_count_at_lod``) straight from the shard index — exactly the
    attributes engine load, R-tree build, LOD scheduling, and MBB
    filtering touch. It has two states past that:

    * *base* — :meth:`base_mesh` (LOD 0) of a ``3dpr`` blob parses the
      header and the base segment only and keeps that parse
      (:class:`~repro.compression.serialize.ParsedBase`: the header, the
      coded round segments and the parsed base segment);
    * *full* (``materialized``) — everything else (``decode``,
      ``lod_table``, ``rounds``, ``positions``, ...) is delegated to the
      real :class:`CompressedObject`, deserialized on first touch, which
      then also serves :meth:`base_mesh`. An object in the base state
      parses only the round segments it kept, so each object reads its
      blob and parses its header and base segment once, and drops the
      parse. A ``pickle``-codec spill has no base-only parse and goes
      straight to this state.

    Pickling materializes, so a proxy never outlives its mapping across
    a process boundary.
    """

    def __init__(self, shards: ShardSet, filename: str, entry):
        self.__dict__.update(
            _shards=shards,
            _filename=filename,
            _entry=entry,
            aabb=AABB(entry.aabb_low, entry.aabb_high),
            max_lod=entry.max_lod,
            lods=range(entry.max_lod + 1),
        )

    @property
    def materialized(self) -> bool:
        return "_real" in self.__dict__

    def face_count_at_lod(self, lod: int) -> int:
        entry = self._entry
        if lod < 0 or lod > entry.max_lod:
            raise ValueError(f"lod must be in [0, {entry.max_lod}], got {lod}")
        return entry.face_counts[lod]

    def base_mesh(self):
        """``(positions, base_faces)``: LOD 0, without parsing the rounds.

        ``positions`` equals the full object's at every base vertex.
        """
        d = self.__dict__
        if "_real" in d or self._shards.codec != "3dpr":
            return self._materialize().base_mesh()
        if "_parsed" not in d:
            parsed = parse_base(self._shards.blob(self._filename, self._entry.object_id))
            d["_parsed"] = parsed
            d["_base"] = parsed.base_mesh()
        return d["_base"]

    def _materialize(self) -> CompressedObject:
        d = self.__dict__
        real = d.get("_real")
        if real is None:
            real = self._shards.materialize(
                self._filename, self._entry.object_id, d.get("_parsed")
            )
            d["_real"] = real
            d.pop("_base", None)
            d.pop("_parsed", None)
        return real

    def __getattr__(self, name):
        d = object.__getattribute__(self, "__dict__")
        if "_entry" not in d:  # half-built instance: don't recurse
            raise AttributeError(name)
        value = getattr(self._materialize(), name)
        if name == "lod_table":
            # Mirror the compiled table into the proxy's __dict__ so the
            # decode provider's "already compiled?" check (and its
            # table-build metrics) behave exactly as on a real object.
            d["lod_table"] = value
        return value

    def __reduce__(self):
        return (_unwrap, (self._materialize(),))

    def __repr__(self) -> str:
        state = "materialized" if self.materialized else "lazy"
        return (
            f"ShardBackedObject(object_id={self._entry.object_id}, "
            f"shard={self._filename!r}, {state})"
        )


@dataclass
class Dataset:
    """A named collection of compressed 3D objects."""

    name: str
    objects: list[CompressedObject]
    grid_shape: tuple[int, int, int] = (4, 4, 4)
    _grid: CuboidGrid | None = field(default=None, repr=False)
    # Object ids whose geometry was only partially recovered (salvage
    # loading); the engine marks query answers touching them as degraded.
    degraded_ids: frozenset = field(default_factory=frozenset, repr=False)
    load_report: LoadReport | None = field(default=None, repr=False, compare=False)
    # Directory this dataset was loaded from (set by load_dataset, None
    # for in-memory datasets). Worker processes of the process query
    # backend reopen the dataset from here — shard stores lazily in
    # strict mode when the parent's load was clean, anything else in
    # salvage mode (deterministic either way).
    source_dir: str | None = field(default=None, repr=False, compare=False)
    # The open shard handles when this dataset was loaded from a v3
    # store (None for v1/v2 stores and in-memory datasets). Pickles as
    # a path handle; readers reopen on the far side.
    shard_source: ShardSet | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_polyhedra(
        cls,
        name: str,
        polyhedra,
        encoder: PPVPEncoder | None = None,
        grid_shape: tuple[int, int, int] = (4, 4, 4),
    ) -> "Dataset":
        """Compress raw polyhedra into a dataset (the ingest path)."""
        encoder = encoder or PPVPEncoder()
        return cls(name, [encoder.encode(p) for p in polyhedra], grid_shape)

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def boxes(self) -> list[AABB]:
        return [obj.aabb for obj in self.objects]

    @property
    def storage(self) -> str:
        """Where the objects live: ``shard``, ``legacy``, or ``memory``."""
        if self.shard_source is not None:
            return "shard"
        if self.source_dir is not None:
            return "legacy"
        return "memory"

    @property
    def grid(self) -> CuboidGrid:
        if self._grid is None:
            if not self.objects:
                raise ValueError(f"dataset {self.name!r} is empty: no grid")
            self._grid = CuboidGrid.covering(self.boxes, self.grid_shape)
        return self._grid

    def cuboid_batches(self) -> list[list[int]]:
        """Object ids grouped by cuboid, in cuboid order (query batching)."""
        if not self.objects:
            return []
        return self.grid.ordered_assignment(self.boxes)

    def total_faces(self, lod: int | None = None) -> int:
        """Summed face count at ``lod`` (highest LOD when None)."""
        return sum(
            obj.face_count_at_lod(obj.max_lod if lod is None else min(lod, obj.max_lod))
            for obj in self.objects
        )

    def materialized_count(self) -> int:
        """How many objects are fully parsed (all of them for legacy loads).

        A shard-backed object that served only LOD 0 holds its base mesh
        and does not count.
        """
        return sum(
            1
            for obj in self.objects
            if not isinstance(obj, ShardBackedObject) or obj.materialized
        )

    def precompile_lod_tables(self) -> int:
        """Compile every object's columnar decode table now; returns count built.

        Decoders compile tables lazily on first touch (including objects
        deserialized in salvage mode, whose valid round prefix compiles
        to a truncated table). Bulk loaders can call this to front-load
        that cost at load time — e.g. before the process backend spills
        an in-memory dataset, so workers receive compiled tables. On a
        lazily-loaded shard dataset this materializes every object.
        """
        built = 0
        for obj in self.objects:
            if "lod_table" not in obj.__dict__:
                obj.lod_table  # noqa: B018 - cached_property build for effect
                built += 1
        return built


# -- saving --------------------------------------------------------------------


def _object_meta(obj) -> tuple:
    """The index-resident planning metadata for one object."""
    box = obj.aabb
    return (
        tuple(float(c) for c in box.low),
        tuple(float(c) for c in box.high),
        obj.max_lod,
        tuple(obj.face_count_at_lod(lod) for lod in obj.lods),
    )


def _write_shards(directory: Path, groups, codec: str) -> tuple[dict, dict]:
    """Write one v3 shard per ``(cuboid_id, object_ids, blobs, metas)`` group.

    Returns ``(files, index_fields)``: per-file byte sizes and the
    manifest fields that describe the shard layout.
    """
    files = {}
    shards = {}
    for cuboid_id, object_ids, blobs, metas in groups:
        filename = f"shard_{cuboid_id:06d}.3dps"
        files[filename] = write_shard_file(
            directory / filename, blobs, object_ids, metas, codec=codec
        )
        shards[filename] = {"cuboid": cuboid_id, "objects": list(object_ids)}
    return files, {
        "format_version": 3,
        "codec": codec,
        "shards": shards,
        "objects": {
            str(obj_id): meta["cuboid"]
            for _, meta in sorted(shards.items())
            for obj_id in meta["objects"]
        },
    }


def _write_store(dataset: Dataset, directory, encode, codec: str, extra: dict) -> dict:
    """The store writer: one shard per non-empty cuboid plus the manifest.

    ``encode(key, obj)`` produces one object's blob (``key`` is its
    ``"{cuboid}:{object}"`` identity); ``extra`` is the manifest's
    account of how blobs were produced.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    batches = dataset.grid.assign(dataset.boxes) if len(dataset) else {}

    groups = (
        (
            cuboid_id,
            object_ids,
            [encode(f"{cuboid_id}:{i}", dataset.objects[i]) for i in object_ids],
            [_object_meta(dataset.objects[i]) for i in object_ids],
        )
        for cuboid_id, object_ids in sorted(batches.items())
    )
    files, index_fields = _write_shards(directory, groups, codec)
    manifest = {
        "name": dataset.name,
        "num_objects": len(dataset),
        "grid_shape": list(dataset.grid_shape),
        "grid_low": list(dataset.grid.bounds.low) if len(dataset) else [0.0, 0.0, 0.0],
        "grid_high": list(dataset.grid.bounds.high) if len(dataset) else [1.0, 1.0, 1.0],
        "files": sorted(files),
        **extra,
        **index_fields,
    }
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2))
    return {"total_bytes": sum(files.values()), "files": files}


def save_dataset(
    dataset: Dataset,
    directory,
    quant_bits: int = 16,
    fault_injector=None,
    layout: str | None = None,
) -> dict:
    """Persist a dataset: one shard file per non-empty cuboid + manifest.

    ``fault_injector`` (a :class:`repro.faults.FaultInjector`) may flip
    bits in serialized blobs before they hit disk — the deterministic
    corruption source for chaos tests that load the store back in
    salvage mode; corruption keys are ``"{cuboid}:{object}"``.
    ``layout`` is not a choice (v3 shards are the only layout written):
    ``None`` and ``"shard"`` are accepted so 1.x code keeps working.

    Returns a summary dict with total bytes and per-file sizes.
    """
    if layout not in (None, "shard"):
        raise ValueError(
            f"layout must be None or 'shard', got {layout!r}: the legacy "
            f"layout is load-only since 2.0 (`repro store migrate DIR` "
            f"converts a v1/v2 directory)"
        )

    def encode(key, obj):
        blob = serialize_object(obj, quant_bits=quant_bits)
        if fault_injector is not None:
            blob = fault_injector.corrupt_blob(blob, key=key)
        return blob

    return _write_store(
        dataset, directory, encode, "3dpr",
        {"quant_bits": quant_bits},
    )


def spill_dataset(dataset: Dataset, directory) -> dict:
    """Spill an in-memory dataset to a pickle-codec shard store.

    The process backend's transport for datasets that never touched
    disk: objects are pickled *exactly* (no re-serialization, which
    would re-quantize positions and perturb results), and the manifest
    carries ``degraded_ids`` so salvage-born datasets keep their
    degraded marks. Workers strict-load the directory lazily and
    unpickle only the objects their chunk actually decodes.
    """
    return _write_store(
        dataset, directory,
        lambda _key, obj: pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
        "pickle",
        {"degraded_ids": sorted(dataset.degraded_ids)},
    )


# -- loading -------------------------------------------------------------------


def load_dataset(directory, mode: str = "strict", verify: str = "eager") -> Dataset:
    """Load a dataset saved by :func:`save_dataset` back into memory.

    The on-disk format is auto-detected: v1/v2 cuboid containers load
    eagerly, v3 shard stores load lazily (objects materialize from the
    shared mapping on first decode). ``mode="strict"`` raises on any
    corruption or inconsistency; ``mode="salvage"`` loads whatever
    survives and reports the rest. ``verify`` applies to strict shard
    loads only: ``"eager"`` (default) CRC-scans every blob at load,
    ``"lazy"`` defers each blob's CRC check to its first access so a
    worker faults in only the shards its chunk touches. Either way the
    returned dataset carries a :class:`LoadReport` on its
    ``load_report`` attribute.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if verify not in ("eager", "lazy"):
        raise ValueError(f"verify must be 'eager' or 'lazy', got {verify!r}")
    directory = Path(directory)
    manifest = json.loads((directory / _MANIFEST).read_text())
    report = LoadReport(
        mode=mode,
        directory=str(directory),
        objects_expected=manifest["num_objects"],
        files_total=len(manifest["files"]),
    )
    shards = None
    if int(manifest.get("format_version", 2)) >= 3:
        shards = ShardSet(directory, codec=manifest.get("codec", "3dpr"))

    if mode == "strict":
        objects = _load_strict(directory, manifest, shards, verify, report)
        degraded_ids = frozenset(manifest.get("degraded_ids", ()))
    elif shards is None:
        objects, degraded_ids = _load_salvage(
            directory, manifest, report, salvage_cuboid_file, deserialize_object
        )
    else:
        objects, degraded_ids = _load_salvage(
            directory, manifest, report, salvage_shard_file, _DECODERS[shards.codec]
        )

    report.objects_loaded = len(objects)
    if mode == "salvage":
        _publish_load_report(report)
    dataset = Dataset(
        manifest["name"],
        objects,
        grid_shape=tuple(manifest["grid_shape"]),
        degraded_ids=degraded_ids,
        load_report=report,
        source_dir=str(directory),
        shard_source=shards,
    )
    dataset._grid = CuboidGrid(
        AABB(tuple(manifest["grid_low"]), tuple(manifest["grid_high"])),
        tuple(manifest["grid_shape"]),
    )
    return dataset


def _load_strict(directory, manifest, shards, verify, report) -> list:
    """Strict read of every file: objects (lazy proxies for shards) by id."""
    slots: dict[int, object] = {}
    for filename in manifest["files"]:
        if shards is None:
            for obj_id, blob in read_cuboid_file(directory / filename):
                slots[obj_id] = deserialize_object(blob)
        else:
            reader = shards.reader(filename)
            if verify == "eager":
                faults = reader.verify_all()
                if faults:
                    first = faults[0]
                    raise BlobChecksumError(
                        f"{directory / filename}: {first.reason} for object "
                        f"{first.object_id}"
                    )
            for obj_id, entry in reader.entries.items():
                slots[obj_id] = ShardBackedObject(shards, filename, entry)
        report.files_loaded += 1
    if len(slots) != manifest["num_objects"]:
        raise DatasetFormatError(
            f"manifest promises {manifest['num_objects']} objects, "
            f"found {len(slots)}"
        )
    missing = sorted(set(range(len(slots))) - set(slots))
    if missing:
        raise DatasetFormatError(
            f"object ids are not contiguous: ids {sorted(slots)[:8]}... "
            f"leave gaps at {missing[:8]} (of {len(missing)}); "
            f"re-save the dataset or load with mode='salvage' to renumber"
        )
    return [slots[i] for i in range(len(slots))]


def _load_salvage(directory, manifest, report, salvage_file, decode) -> tuple:
    """The shared salvage loop: one code path for v1/v2 containers and v3
    shards — ``salvage_file`` returns the same ``(pairs, faults,
    container_ok)`` triple for either, so the report structure and the
    per-blob CRC granularity are identical across format versions."""
    slots: dict[int, CompressedObject] = {}
    degraded_original: dict[int, tuple[str, str]] = {}
    for filename in manifest["files"]:
        path = directory / filename
        try:
            pairs, faults, container_ok = salvage_file(path)
        except (CuboidFormatError, OSError, EOFError, ValueError) as exc:
            report.quarantined_files.append((filename, str(exc)))
            continue
        report.files_loaded += 1
        if not container_ok:
            report.container_faults.append(filename)
        for obj_id, blob in pairs:
            try:
                slots[obj_id] = decode(blob)
            except Exception as exc:
                _salvage_blob(
                    slots, degraded_original, report, obj_id, blob, filename, exc
                )
        for fault in faults:
            if fault.object_id is None or fault.blob is None:
                report.skipped_blobs.append(
                    (fault.object_id if fault.object_id is not None else -1,
                     filename, fault.reason)
                )
                continue
            _salvage_blob(
                slots, degraded_original, report,
                fault.object_id, fault.blob, filename, fault.reason,
            )
    ordered = sorted(slots)
    report.id_map = {orig: new for new, orig in enumerate(ordered)}
    objects = [slots[orig] for orig in ordered]
    degraded_ids = frozenset(
        report.id_map[orig] for orig in degraded_original if orig in report.id_map
    )
    for orig, (filename, detail) in sorted(degraded_original.items()):
        report.degraded_objects.append((report.id_map[orig], filename, detail))
    return objects, degraded_ids


def _salvage_blob(slots, degraded_original, report, obj_id, blob, filename, cause) -> None:
    """Attempt object-level salvage of a failing blob (salvage mode only)."""
    try:
        obj, dropped = salvage_object_blob(blob)
    except Exception:
        report.skipped_blobs.append((obj_id, filename, f"unsalvageable: {cause}"))
        return
    slots[obj_id] = obj
    detail = (
        f"recovered base + {obj.num_rounds} of {obj.num_rounds + dropped} rounds "
        f"(max LOD {obj.max_lod}); cause: {cause}"
    )
    degraded_original[obj_id] = (filename, detail)


# -- migration -----------------------------------------------------------------


def migrate_dataset(directory) -> dict:
    """Rewrite a v1/v2 container directory as a v3 shard store, in place.

    Blobs are carried over *byte-for-byte* (each is deserialized once to
    compute the index metadata, but what lands in the shard files is the
    original bytes), object ids and the grid are copied from the old
    manifest, and the container files are deleted only after the shards
    and manifest are fully written. Strict by design: a corrupt store
    refuses to migrate (salvage it into a clean save first). Returns a
    summary dict; ``migrated`` is False when the directory already is a
    v3 store.
    """
    directory = Path(directory)
    manifest = json.loads((directory / _MANIFEST).read_text())
    old_files = list(manifest["files"])
    if int(manifest.get("format_version", 2)) >= 3:
        return {"migrated": False, "files": old_files}

    def groups():
        for filename in old_files:
            pairs = read_cuboid_file(directory / filename)
            blobs = [blob for _, blob in pairs]
            yield (
                int(Path(filename).stem.split("_")[-1]),
                [obj_id for obj_id, _ in pairs],
                blobs,
                [_object_meta(deserialize_object(blob)) for blob in blobs],
            )

    files, index_fields = _write_shards(directory, groups(), "3dpr")
    manifest.update(index_fields, files=sorted(files))
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2))
    for filename in old_files:
        (directory / filename).unlink(missing_ok=True)
    total = sum(files.values())
    log_event(
        _LOG, "store_migrated", directory=str(directory),
        files=len(files), total_bytes=total,
    )
    return {"migrated": True, "files": files, "total_bytes": total}
