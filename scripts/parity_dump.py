#!/usr/bin/env python
"""Dump everything refinement decides, for a byte-for-byte before/after diff.

A refactor of the refine or executor layers that claims "results
unchanged" proves it by running this script on the parent commit and on
the change and diffing the two outputs::

    PYTHONPATH=<parent>/src python <parent>/scripts/parity_dump.py before.txt
    PYTHONPATH=src python scripts/parity_dump.py after.txt
    diff before.txt after.txt

The matrix is every query kind (intersection, within, NN, kNN k=3, NN
with ``exact_nn_distances``, point containment) × backend (serial,
process×2) × faults (clean, ``FaultInjector(seed=11,
decode_error_rate=0.3)``) × paradigm (fpr, fr) × ``partition_min_faces``
(the default, which partitions none of the scene's nuclei, and 40,
which partitions all of them) over one small seeded tissue scene. Each
run dumps its pairs, degraded targets and keys, both pair ledgers, the
funnel, ``face_pairs_by_lod``, the progress frames each group
refinement emits, the ``refine`` span sequence (query, lod, survivors,
settled) of each group, and hashes of every batched refine call
(:class:`ValueRecorder`): the value vectors of
``repro.core.batch.batched_min_distances`` with ``stop_below == 0``
(the exact minima NN ranges and kNN bounds are tightened from, which
the pairs alone show only at the top k) and with ``stop_below > 0``
(within), the verdict vectors of ``batched_any_intersect``, per call
the ``_note_batch`` size sequence and checkpoint count, and the kernel
inputs of every launch: the ``ia``, ``ib``, ``starts`` and ``owners``
each call of ``repro.core.batch._screened_distance`` /
``_screened_intersect`` receives (``kernel_inputs``), so a change to how
launch buffers are built shows even where the values come out equal.

A second, ``repeat`` matrix covers the learned LOD schedule: within and
intersection × backend × ``partition_min_faces``, clean, fpr, each
running its spec three times on one engine and dumping the pairs and
degraded keys of runs 2 and 3. An engine that learns runs those on the
top LOD alone (run 2) and on the cheaper schedule (run 3); one that does
not runs every LOD each time. The dumps must not differ.

A third, ``stored`` matrix runs the six kinds serially with the
default ``partition_min_faces``, clean and faulted, fpr and fr, over the
same two datasets saved to a temporary shard store and loaded back
lazily before each run, so every run decodes through the shard-backed
objects' first touch. Stored positions are quantized, so these rows
answer for the stored datasets, not the in-memory ones.

Parallel runs are made order-free where scheduling decides the order
and nothing else: the funnel drops its cache and decode-volume fields
(per-worker caches), and per-group frame and span lists are sorted.
Process workers run in other interpreters, so their frames and value
vectors are not recorded (their spans are: workers ship span trees
back).

The only argument is the output path. Takes a few minutes on one core.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

import numpy as np

from repro.compression import PPVPEncoder
from repro.core import EngineConfig, QuerySpec, ThreeDPro
from repro.core import batch, plan
from repro.datagen import make_tissue_scene
from repro.datagen.vessels import VesselSpec
from repro.faults import FaultInjector
from repro.parallel import procpool
from repro.storage import Dataset, load_dataset, save_dataset

BACKENDS = {
    "serial": {"query_workers": 1},
    "process2": {"query_workers": 2, "query_backend": "process"},
}
MIN_FACES = {
    "default": {},
    "40": {"partition_min_faces": 40},
}
try:
    # Before partitioning was decided by object size alone it was
    # switched on by ``Accel(partition=True)``: set it on such a tree so
    # that both sides of a comparison partition the same objects.
    from repro.core import Accel
except ImportError:
    pass
else:
    MIN_FACES["40"]["accel"] = Accel(partition=True)
CACHE_FIELDS = ("cache_hits", "cache_misses", "decoded_objects", "decoded_bytes")


def build_datasets():
    scene = make_tissue_scene(
        n_nuclei=24, n_vessels=1, seed=7, region=70.0, nucleus_subdivisions=1,
        vessel_spec=VesselSpec(bifurcations=2, points_per_branch=4, segments=6),
    )
    encoder = PPVPEncoder(max_lods=6, rounds_per_lod=2)
    datasets = {
        name: Dataset.from_polyhedra(name, meshes, encoder)
        for name, meshes in (
            ("nuclei_a", scene.nuclei_a),
            ("nuclei_b", scene.nuclei_b),
        )
    }
    point = tuple(float(v) for v in scene.nuclei_a[1].vertices.mean(axis=0))
    return datasets, point


def cases(point):
    """``label -> (spec, config overrides)`` for every query kind."""

    def join(kind, **params):
        return QuerySpec(kind=kind, source="nuclei_b", target="nuclei_a", **params)

    return {
        "intersection": (join("intersection"), {}),
        "within": (join("within", distance=1.0), {}),
        "nn": (join("nn"), {}),
        "knn3": (join("knn", k=3), {}),
        "nn_exact": (join("nn"), {"exact_nn_distances": True}),
        "containment": (QuerySpec(kind="containment", source="nuclei_a", point=point), {}),
    }


class FrameRecorder:
    """Wraps every strategy's ``group_refine`` to record its frames.

    The executor hands a progress hook to refinement only for streamed
    queries, which it runs as groups of one; recording here captures
    the frame order *within* a multi-target group as well.
    """

    def __init__(self):
        self.groups: list[list] = []

    def __enter__(self):
        self._originals = []
        for strategy in set(type(s) for s in plan.STRATEGIES.values()):
            original = strategy.__dict__["group_refine"]
            self._originals.append((strategy, original))
            strategy.group_refine = self._wrap(original)
        return self

    def _wrap(self, original):
        recorder = self

        def group_refine(strategy, query_plan, ctx, items):
            frames: list = []
            recorder.groups.append(frames)
            ctx.progress = lambda tid, lod, matches: frames.append(
                [tid, lod, _plain(matches)]
            )
            try:
                return original(strategy, query_plan, ctx, items)
            finally:
                ctx.progress = None

        return group_refine

    def __exit__(self, *exc):
        for strategy, original in self._originals:
            strategy.group_refine = original


class ValueRecorder:
    """Hashes, in call order, what every batched refine call returns and
    how it accounts for it (``float.hex``, so values are bit-exact).

    Five digests, each with its call count: the value vectors
    ``batched_min_distances`` returns with ``stop_below == 0`` (NN
    ranges and kNN bounds are tightened from these exact minima) and
    with ``stop_below > 0`` (within: a realized distance at or under
    ``D``, or some value above it), the verdict vectors of
    ``batched_any_intersect``, and per call of either, the sequence of
    ``_note_batch`` sizes and the number of checkpoints — the flush and
    deadline granularity — and, per kernel launch, the face-row buffers
    ``ia`` / ``ib``, the segment ``starts`` and the segment ``owners``
    the screened kernel receives, as int64 bytes (``kernel_inputs``).

    The refine layer looks the batched functions, and they look the two
    screened kernels, up on :mod:`repro.core.batch` at call time, so
    patching the module attributes sees every call made in this
    interpreter.
    """

    FIELDS = (
        "min_distance_values", "within_values", "intersect_verdicts", "flushes",
        "kernel_inputs",
    )
    KERNELS = ("_screened_distance", "_screened_intersect")

    def __init__(self):
        self.calls = dict.fromkeys(self.FIELDS, 0)
        self.digests = {field: hashlib.sha256() for field in self.FIELDS}

    def _add(self, field, text):
        self.calls[field] += 1
        self.digests[field].update(text.encode() + b"\n")

    def _wrap(self, original, field_of, render):
        def recorded(computer, jobs, *args, **kwargs):
            sizes, ticks = [], [0]
            note_batch = computer._note_batch
            computer._note_batch = lambda size: (sizes.append(size), note_batch(size))[1]
            checkpoint = kwargs.get("checkpoint")
            if checkpoint is not None:
                def counted():
                    ticks[0] += 1
                    checkpoint()

                kwargs["checkpoint"] = counted
            try:
                result = original(computer, jobs, *args, **kwargs)
            finally:
                del computer._note_batch
            self._add(field_of(*args, **kwargs), " ".join(render(v) for v in result))
            self._add("flushes", f"{' '.join(map(str, sizes))} / {ticks[0]}")
            return result

        return recorded

    def _wrap_kernel(self, name, original):
        def recorded(faces, ia, ib, starts, owners=None, cap=None, **kwargs):
            self._add("kernel_inputs", f"{name} {len(ia)} {len(starts)}")
            digest = self.digests["kernel_inputs"]
            for array in (ia, ib, starts, owners):
                digest.update(np.asarray(array, dtype=np.int64).tobytes())
            return original(faces, ia, ib, starts, owners, cap, **kwargs)

        return recorded

    def __enter__(self):
        self._originals = {
            name: getattr(batch, name)
            for name in ("batched_min_distances", "batched_any_intersect", *self.KERNELS)
        }
        for name in self.KERNELS:
            setattr(batch, name, self._wrap_kernel(name, self._originals[name]))
        batch.batched_min_distances = self._wrap(
            self._originals["batched_min_distances"],
            lambda stop_below=0.0, **_: (
                "min_distance_values" if stop_below == 0.0 else "within_values"
            ),
            lambda value: float(value).hex(),
        )
        batch.batched_any_intersect = self._wrap(
            self._originals["batched_any_intersect"],
            lambda *_args, **_kwargs: "intersect_verdicts",
            lambda verdict: str(int(verdict)),
        )
        return self

    def __exit__(self, *exc):
        for name, original in self._originals.items():
            setattr(batch, name, original)

    def as_dict(self) -> dict:
        return {
            field: {"calls": self.calls[field], "sha256": self.digests[field].hexdigest()}
            for field in self.FIELDS
        }


def _plain(value):
    """JSON-stable form: tuples become lists, floats keep their repr."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))}
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, set):
        return sorted(_plain(v) for v in value)
    return value


def refine_spans(tracer) -> list[list]:
    """Per group (one ``compute`` span each), its ``refine`` span sequence."""
    groups = []
    for root in tracer.roots:
        for span in root.walk():
            if span.name != "compute":
                continue
            groups.append([
                [
                    child.attrs.get("query"), child.attrs.get("lod"),
                    child.attrs.get("survivors"), child.attrs.get("settled", "-"),
                ]
                for child in span.walk()
                if child.name == "refine"
            ])
    return groups


def run_one(datasets, spec, config, parallel: bool) -> dict:
    engine = ThreeDPro(EngineConfig(tracing=True, **config))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    recorder = FrameRecorder()
    with ValueRecorder() as values:
        if parallel:
            result = engine.execute(spec)
        else:
            with recorder:
                result = engine.execute(spec)
    funnel = result.stats.funnel.as_dict()
    if parallel:
        for stage in funnel.get("stages", {}).values():
            for key in CACHE_FIELDS:
                stage.pop(key, None)
    frames = [_plain(group) for group in recorder.groups]
    spans = refine_spans(engine.tracer)
    if parallel:
        frames = sorted(frames, key=json.dumps)
        spans = sorted(spans, key=json.dumps)
    stats = result.stats
    return {
        "pairs": _plain(list(result.pairs.items())),
        "degraded_targets": sorted(result.degraded_targets),
        "degraded_keys": sorted(map(list, result.degraded_keys)),
        "degraded_objects": stats.degraded_objects,
        "evaluated_by_lod": _plain(dict(stats.pairs_evaluated_by_lod)),
        "pruned_by_lod": _plain(dict(stats.pairs_pruned_by_lod)),
        "face_pairs_by_lod": _plain(dict(stats.face_pairs_by_lod)),
        "funnel": _plain(funnel),
        "frames": frames,
        "refine_spans": spans,
        **values.as_dict(),
    }


def run_repeated(datasets, spec, config) -> dict:
    engine = ThreeDPro(EngineConfig(**config))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    results = [engine.execute(spec) for _run in range(3)]
    return {
        f"run{index}": {
            "pairs": _plain(list(result.pairs.items())),
            "degraded_keys": sorted(map(list, result.degraded_keys)),
        }
        for index, result in enumerate(results, start=1)
        if index > 1
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: parity_dump.py OUTPUT", file=sys.stderr)
        return 2
    datasets, point = build_datasets()
    matrix = product(
        cases(point).items(), BACKENDS.items(), ("clean", "faulted"), ("fpr", "fr"),
        MIN_FACES.items(),
    )
    lines = []
    try:
        for (label, (spec, overrides)), (backend, backend_config), faults, paradigm, (
            min_faces, partitioning
        ) in matrix:
            config = {
                **backend_config, **overrides, **partitioning, "paradigm": paradigm,
            }
            if faults == "faulted":
                config["fault_injector"] = FaultInjector(seed=11, decode_error_rate=0.3)
            dump = run_one(datasets, spec, config, parallel=backend != "serial")
            key = f"{label} {backend} {faults} {paradigm} min_faces={min_faces}"
            lines.append(f"{key}\t{json.dumps(dump, sort_keys=True)}")
            print(key, file=sys.stderr, flush=True)
        repeated = product(
            ("intersection", "within"), BACKENDS.items(), MIN_FACES.items()
        )
        for label, (backend, backend_config), (min_faces, partitioning) in repeated:
            spec, overrides = cases(point)[label]
            config = {**backend_config, **overrides, **partitioning, "paradigm": "fpr"}
            dump = run_repeated(datasets, spec, config)
            key = f"{label} {backend} clean fpr min_faces={min_faces} repeat"
            lines.append(f"{key}\t{json.dumps(dump, sort_keys=True)}")
            print(key, file=sys.stderr, flush=True)
        with tempfile.TemporaryDirectory(prefix="parity-store-") as root:
            for name, dataset in datasets.items():
                save_dataset(dataset, Path(root) / name)
            stored = product(cases(point).items(), ("clean", "faulted"), ("fpr", "fr"))
            for (label, (spec, overrides)), faults, paradigm in stored:
                config = {**BACKENDS["serial"], **overrides, "paradigm": paradigm}
                if faults == "faulted":
                    config["fault_injector"] = FaultInjector(seed=11, decode_error_rate=0.3)
                loaded = {name: load_dataset(Path(root) / name) for name in datasets}
                dump = run_one(loaded, spec, config, parallel=False)
                key = f"{label} serial {faults} {paradigm} min_faces=default stored"
                lines.append(f"{key}\t{json.dumps(dump, sort_keys=True)}")
                print(key, file=sys.stderr, flush=True)
    finally:
        procpool.shutdown()
    with open(argv[0], "w") as out:
        out.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
