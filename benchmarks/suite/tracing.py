"""Run-time spans around the program's public entry points.

The traced run of the suite records, from the suite's own files, a span
at every layer boundary named in ``POINTS`` below: layer, start, end,
the span that caused it and the operation (pass or request) it belongs
to. Nothing under ``src/`` is edited: :func:`install` swaps each entry
point for a wrapper and returns the function that puts the originals
back. Counts are taken at the same boundaries by the small hooks beside
each entry point, so a ratio is measured where the work happens.

A layer's *self time* is its spans' duration minus the part covered by
their child spans (:func:`aggregate`); self times of all layers plus the
operations' own residual therefore add up to the traced wall time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import sys
import threading
import time

__all__ = ["Tracer", "POINTS", "install", "aggregate"]

#: Span record fields, by position.
FIELDS = ["id", "layer", "start", "end", "parent", "operation"]
ID, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """In-memory span and count store; written out once, at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enclosing_layer(self) -> str | None:
        """The layer of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][LAYER] if stack else None

    def begin(self, layer: str, operation: bool = False) -> list:
        stack = self._stack()
        if operation or not stack:
            # A span with no cause on this thread starts an operation of
            # its own (a request handled by a server thread).
            parent, op = -1, next(self._ops)
        else:
            parent, op = stack[-1][ID], stack[-1][OP]
        span = [next(self._ids), layer, time.perf_counter(), None, parent, op]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def finished(self) -> list[list]:
        return [span for span in self.spans if span[END] is not None]

    def dump(self, path) -> None:
        """Write the finished spans and the counts as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {"fields": FIELDS, "spans": self.finished(), "counts": dict(self.counts)}, fh
            )


# -- count hooks ---------------------------------------------------------------
# Each hook sees ``(tracer, args, kwargs, result)`` of one finished call. Plain
# call counts need no hook: ``aggregate`` counts the spans of every layer.


def _count_encode(tracer, args, kwargs, obj):
    counts = tracer.counts
    counts["compression.ppvp.faces_encoded"] += args[1].num_faces
    counts["compression.ppvp.rounds"] += len(obj.rounds)
    counts["compression.ppvp.vertices_removed"] += sum(len(r) for r in obj.rounds)


def _count_decode(tracer, args, kwargs, result):
    tracer.counts["compression.ppvp.decodes"] += 1


def _count_serialize(tracer, args, kwargs, blob):
    obj = args[0]
    tracer.counts["compression.serialize.blob_bytes"] += len(blob)
    tracer.counts["compression.serialize.faces"] += obj.face_count_at_lod(obj.max_lod)


def _count_table(tracer, args, kwargs, table):
    tracer.counts["compression.lodtable.rows"] += table.num_rows


def _count_blob(tracer, args, kwargs, blob):
    tracer.counts["storage.shardfile.blob_bytes"] += len(blob)


def _count_note_batch(tracer, args, kwargs, result):
    # One call per kernel launch; inside core.batch it is one fused flush.
    tracer.counts["parallel.executor.kernel_calls"] += 1
    if tracer.enclosing_layer() == "core.batch":
        tracer.counts["core.batch.flushes"] += 1
        tracer.counts["core.batch.lanes"] += args[1]


def _count_kernel(layer):
    def hook(tracer, args, kwargs, result):
        tracer.counts[f"{layer}.face_pairs"] += len(args[0])
        if tracer.enclosing_layer() == "core.batch":
            tracer.counts["core.batch.kernel_lanes"] += len(args[0])

    return hook


def _count_probes(tracer, args, kwargs, result):
    tracer.counts["geometry.raycast.probes"] += len(result)


def _count_point_probe(tracer, args, kwargs, result):
    tracer.counts["geometry.raycast.probes"] += 1


def _count_chunks(tracer, args, kwargs, outcomes):
    tracer.counts["parallel.procpool.chunks"] += len(outcomes)
    tracer.counts["parallel.procpool.quarantined"] += sum(
        type(o).__name__ == "QuarantinedChunk" for o in outcomes
    )


def _count_response(tracer, args, kwargs, wire):
    tracer.counts["serve.wire.response_bytes"] += len(json.dumps(wire))


def _request_section(args) -> str:
    """``request_<kind>_s`` from a wire payload or a parsed spec."""
    request = args[1]
    kind, k = (
        (request.get("kind"), request.get("k")) if isinstance(request, dict)
        else (request.kind, request.k)
    )
    if kind == "knn" and k in (None, 1):
        kind = "nn"
    return f"request_{kind}_s"


#: ``(module, attribute path, layer, count hook, span?)`` and, optionally,
#: a function naming the ``op.`` section a call starts (see ``aggregate``).
#: A dotted attribute path names a method on a class of the module.
POINTS = [
    ("repro.compression.ppvp", "PPVPEncoder.encode", "compression.ppvp.encode", _count_encode, True),
    ("repro.compression.ppvp", "ProgressiveDecoder.advance_to", "compression.ppvp.decode", _count_decode, True),
    ("repro.compression.ppvp", "ProgressiveDecoder.face_array", "compression.ppvp.decode", None, True),
    ("repro.compression.serialize", "serialize_object", "compression.serialize.serialize", _count_serialize, True),
    ("repro.compression.serialize", "deserialize_object", "compression.serialize.deserialize", None, True),
    ("repro.compression.lodtable", "compile_lod_table", "compression.lodtable.compile", _count_table, True),
    ("repro.storage.store", "save_dataset", "storage.store.save", None, True),
    ("repro.storage.store", "load_dataset", "storage.store.open", None, True),
    ("repro.storage.store", "ShardSet.materialize", "storage.store.materialize", None, True),
    ("repro.storage.shardfile", "ShardReader.blob", "storage.shardfile.blob", _count_blob, True),
    ("repro.storage.cache", "DecodedObjectProvider.get", "storage.cache.get", None, True),
    ("repro.index.rtree", "RTree.__init__", "index.rtree.build", None, True),
    ("repro.index.rtree", "RTree.query_intersecting", "index.rtree.query", None, True),
    ("repro.index.rtree", "RTree.query_within", "index.rtree.query", None, True),
    ("repro.index.rtree", "RTree.query_nn_candidates", "index.rtree.query", None, True),
    ("repro.core.executor", "QueryExecutor.run", "core.executor", None, True),
    ("repro.core.refine", "refine_intersection", "core.refine", None, True),
    ("repro.core.refine", "refine_intersection_group", "core.refine", None, True),
    ("repro.core.refine", "refine_within", "core.refine", None, True),
    ("repro.core.refine", "refine_within_group", "core.refine", None, True),
    ("repro.core.refine", "refine_nn", "core.refine", None, True),
    ("repro.core.refine", "refine_containment", "core.refine", None, True),
    ("repro.core.batch", "batched_any_intersect", "core.batch", None, True),
    ("repro.core.batch", "batched_min_distances", "core.batch", None, True),
    ("repro.parallel.executor", "GeometryComputer.intersects", "parallel.executor", None, True),
    ("repro.parallel.executor", "GeometryComputer.min_distance", "parallel.executor", None, True),
    ("repro.parallel.executor", "GeometryComputer.pairwise_min_distances", "parallel.executor", None, True),
    ("repro.parallel.executor", "GeometryComputer._note_batch", None, _count_note_batch, False),
    ("repro.geometry.distance", "tri_tri_distance_batch", "geometry.distance", _count_kernel("geometry.distance"), True),
    ("repro.geometry.tritri", "tri_tri_intersect_batch", "geometry.tritri", _count_kernel("geometry.tritri"), True),
    ("repro.geometry.raycast", "points_in_polyhedra", "geometry.raycast", _count_probes, True),
    ("repro.geometry.raycast", "point_in_polyhedron", "geometry.raycast", _count_point_probe, True),
    ("repro.parallel.procpool", "execute_chunks", "parallel.procpool", _count_chunks, True),
    ("repro.core.plan", "QuerySpec.from_wire", "serve.wire.from_wire", None, True),
    ("repro.core.plan", "QueryResult.to_wire", "serve.wire.to_wire", _count_response, True),
    ("repro.serve.app", "QueryService.query", "serve.app", None, True, _request_section),
    ("repro.serve.app", "QueryService.run_stream", "serve.app", None, True, _request_section),
]


def _wrap(tracer: Tracer, fn, layer, hook, spanned, section=None):
    if section is not None:
        # The server's operations: a request handled on its own thread.
        inner = _wrap(tracer, fn, layer, hook, spanned)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(f"op.{section(args)}", operation=True)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.end(span)

    elif spanned:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every entry point in ``POINTS``; returns the undo function.

    A module-level function is replaced in every loaded ``repro`` module
    that holds a reference to it, because callers import such functions
    by name. Install before engines and services are built: objects keep
    the bound methods they captured at construction.
    """
    undo: list[tuple] = []
    for module_name, path, *how in POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(tracer, raw.__func__, *how))
            else:
                wrapped = _wrap(tracer, raw, *how)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(tracer, original, *how)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    undo.append((loaded, key, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def aggregate(spans) -> tuple[dict, dict]:
    """Self time per layer, and per timed section of an operation.

    Returns ``(layers, sections)``. ``layers[layer]`` holds ``self_s``,
    ``total_s`` (outermost spans only, so a layer that re-enters itself
    is not counted twice), ``calls`` and ``miss_s`` — the total of
    ``storage.cache.get`` spans that had a child, i.e. cache misses: the
    decode wall time as the wrappers see it. Spans whose layer starts
    with ``op.`` are the harness's own: operations and the named timings
    inside them. ``sections[op layer][layer]`` is the self time spent
    under the innermost such span, so a join's layers can be read apart
    from its neighbours in the same pass.
    """
    by_id = {span[ID]: span for span in spans}
    child_time: dict[int, float] = collections.defaultdict(float)
    for span in spans:
        if span[PARENT] in by_id:
            child_time[span[PARENT]] += span[END] - span[START]
    layers: dict[str, dict] = {}
    sections: dict[str, dict] = {}
    section_of: dict[int, str] = {}
    for span in spans:  # parents precede their children
        layer = span[LAYER]
        duration = span[END] - span[START]
        self_time = duration - child_time.get(span[ID], 0.0)
        entry = layers.setdefault(
            layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "miss_s": 0.0}
        )
        entry["self_s"] += self_time
        entry["calls"] += 1
        parent = by_id.get(span[PARENT])
        if parent is None or parent[LAYER] != layer:
            entry["total_s"] += duration
        if span[ID] in child_time:
            entry["miss_s"] += duration
        section = layer if layer.startswith("op.") else section_of.get(span[PARENT], "")
        section_of[span[ID]] = section
        bucket = sections.setdefault(section, collections.defaultdict(float))
        bucket[layer] += self_time
    return layers, sections
