"""Memory-centered data management (paper Section 5.3).

Objects are compressed, grouped into fixed-size space cuboids, persisted
one file per cuboid, and loaded into memory for querying. Decoded
geometry is recycled through a byte-budgeted LRU cache keyed by
``(object, LOD)``, so spatially batched queries almost never decode the
same representation twice (Table 2).

One on-disk layout is written: v3 memory-mapped shard files
(:mod:`repro.storage.shardfile`), loaded lazily and shared read-only
across worker processes through the OS page cache. v1/v2 cuboid
containers from older releases (:mod:`repro.storage.fileformat`) still load.
"""

from repro.storage.cache import DecodeCache, DecodedLOD, DecodedObjectProvider
from repro.storage.cuboid import CuboidGrid
from repro.storage.fileformat import (
    BlobFault,
    read_cuboid_file,
    salvage_cuboid_file,
)
from repro.storage.shardfile import (
    SHARD_FORMAT_VERSION,
    ShardEntry,
    ShardReader,
    salvage_shard_file,
    write_shard_file,
)
from repro.storage.store import (
    Dataset,
    LoadReport,
    ShardBackedObject,
    ShardSet,
    load_dataset,
    migrate_dataset,
    save_dataset,
    spill_dataset,
)

__all__ = [
    "DecodeCache",
    "DecodedLOD",
    "DecodedObjectProvider",
    "CuboidGrid",
    "BlobFault",
    "read_cuboid_file",
    "salvage_cuboid_file",
    "SHARD_FORMAT_VERSION",
    "ShardEntry",
    "ShardReader",
    "salvage_shard_file",
    "write_shard_file",
    "Dataset",
    "LoadReport",
    "ShardBackedObject",
    "ShardSet",
    "load_dataset",
    "migrate_dataset",
    "save_dataset",
    "spill_dataset",
]
