"""Reference writer: v1/v2 cuboid container stores.

Before 2.0 ``save_dataset(layout="legacy")`` wrote one ``.3dpc``
container file per cuboid plus a manifest without ``format_version``.
The package now writes v3 shards only, but such directories remain
supported *input* (``load_dataset`` strict and salvage,
``repro store migrate``), so the tests that exercise those paths build
their fixtures here. :func:`write_cuboid_file` is the container writer
that shipped in ``repro.storage.fileformat``; :func:`save_legacy_dataset`
is the legacy branch of the old ``save_dataset``, manifest shape and
``fault_injector`` blob-corruption hook included.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.compression.serialize import serialize_object
from repro.compression.varint import write_uvarint

__all__ = ["write_cuboid_file", "save_legacy_dataset"]

_MAGIC = b"3DPC"


def write_cuboid_file(
    path, blobs: list[bytes], object_ids: list[int], version: int = 2
) -> int:
    """Write object blobs with their dataset-global ids; returns bytes written.

    ``version=1`` reproduces the checksum-free layout that predates v2.
    """
    if len(blobs) != len(object_ids):
        raise ValueError("blobs and object_ids must align")
    if version not in (1, 2):
        raise ValueError(f"unsupported cuboid format version {version}")
    out = bytearray()
    out += _MAGIC
    out.append(version)
    write_uvarint(out, len(blobs))
    for obj_id, blob in zip(object_ids, blobs):
        write_uvarint(out, obj_id)
        write_uvarint(out, len(blob))
        if version >= 2:
            write_uvarint(out, zlib.crc32(blob))
    for blob in blobs:
        out += blob
    if version >= 2:
        out += zlib.crc32(bytes(out)).to_bytes(4, "little")
    data = bytes(out)
    Path(path).write_bytes(data)
    return len(data)


def save_legacy_dataset(
    dataset,
    directory,
    quant_bits: int = 16,
    fault_injector=None,
    version: int = 2,
) -> dict:
    """Persist ``dataset`` as a v1/v2 container directory.

    Blobs are the same ``serialize_object`` bytes ``save_dataset``
    stores, and ``fault_injector`` corrupts them under the same
    ``"{cuboid}:{object}"`` keys, so a legacy fixture and a v3 save of
    one dataset hold identical (or identically damaged) blobs.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    batches = dataset.grid.assign(dataset.boxes) if len(dataset) else {}

    files = {}
    for cuboid_id in sorted(batches):
        object_ids = batches[cuboid_id]
        blobs = [
            serialize_object(dataset.objects[i], quant_bits=quant_bits)
            for i in object_ids
        ]
        if fault_injector is not None:
            blobs = [
                fault_injector.corrupt_blob(blob, key=f"{cuboid_id}:{obj_id}")
                for obj_id, blob in zip(object_ids, blobs)
            ]
        filename = f"cuboid_{cuboid_id:06d}.3dpc"
        files[filename] = write_cuboid_file(
            directory / filename, blobs, object_ids, version=version
        )

    manifest = {
        "name": dataset.name,
        "num_objects": len(dataset),
        "grid_shape": list(dataset.grid_shape),
        "grid_low": list(dataset.grid.bounds.low) if len(dataset) else [0.0, 0.0, 0.0],
        "grid_high": list(dataset.grid.bounds.high) if len(dataset) else [1.0, 1.0, 1.0],
        "files": sorted(files),
        "quant_bits": quant_bits,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return {"total_bytes": sum(files.values()), "files": files}
