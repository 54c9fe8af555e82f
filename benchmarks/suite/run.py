#!/usr/bin/env python3
"""The layered benchmark: four workloads, named metrics, a traced run.

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]

One invocation builds the scene store, runs the chosen workloads (all
four by default), checks every answer, and prints each metric as
``workload  name  value  unit``. After each workload it prints one JSON
object — the record the driver of ``BENCHMARK.json`` reads from the last
line. ``--trace 1`` reports the per-layer metrics from a run with spans
recorded by ``tracing.py``; end-to-end metrics always come from an
untraced run. A failed answer check exits 2; timing never fails a run.

The tissue block is the benchmark's fixed data set (scene seed 11); the
``--seed`` places and orients it (translation plus an axis rotation, so
every coordinate, box, grid cell and stored byte differs while the work
stays congruent) and draws the request sequence, the containment points
and the full-resolution reference sample. See README.md for why.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
CONTRACT = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(SUITE))

DATASETS = ("nuclei_a", "nuclei_b", "vessels")
SCENE_SEED = 11
N_NUCLEI = 12
REGION = 50.0
#: Complete store builds per invocation; ``setup_s`` reports their median.
BUILDS = 3
#: join_cold's decode cache: below the INT-NN working set, so it evicts.
COLD_CACHE_BYTES = 8 * 1024
#: Targets of the full-resolution reference (nn costs ~0.5 s a target).
FR_TARGETS = 6
FR_NN_TARGETS = 1
INT_RUNS_PER_PASS = 10
CLIENTS = 2
REQUESTS_PER_CLIENT = 300
#: One block of serve_mixed requests: the mix, exactly. A client is only
#: ever measured over whole blocks — a window that ended two requests
#: into a block would hold 0, 1 or 2 of its kNN requests by the draw,
#: and one kNN request weighs as much as ninety median ones.
MIX = ("within",) * 7 + ("intersection",) * 5 + ("containment",) * 4 + ("nn",) * 2 + ("knn",) * 2
#: The heavy request class asks about three nuclei of like cost (~0.55 s):
#: kNN k=3 takes 7 ms for some targets and 0.9 s for others, and the tail
#: must not ride on the draw.
KNN_TARGETS = (6, 7, 8)
#: Share of a traced run spent untraced, to measure the tracing overhead.
UNTRACED_SHARE = 0.3


# -- small helpers ---------------------------------------------------------------


def pct(values, q: float) -> float:
    """The q-quantile (0..1) of ``values`` by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered))))]


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set of one process, from /proc (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def answer(result, kind: str) -> dict:
    """A result's pairs in canonical, comparable form (empties dropped).

    NN kinds keep the ranked source ids only: an FPR distance may be an
    upper bound where the full-resolution reference has the exact value.
    """
    ranked = kind in ("nn", "knn")
    out = {}
    for tid, matches in result.pairs.items():
        if matches:
            out[int(tid)] = [int(m[0]) if ranked else int(m) for m in matches]
    return dict(sorted(out.items()))


def digest(value) -> str:
    return hashlib.sha1(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class Checks:
    """Attempted and failed operations; any failure fails the run."""

    def __init__(self, carried: "Checks | None" = None):
        self.attempted = carried.attempted if carried else 0
        self.failed = carried.failed if carried else 0
        self.failures: list[str] = list(carried.failures) if carried else []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok


# -- set-up: scene, stores, reference answers ------------------------------------


def placement(seed: int):
    """The seed's rigid motion: an axis rotation and an offset."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rotation = np.zeros((3, 3))
    rotation[np.arange(3), rng.permutation(3)] = rng.choice([-1.0, 1.0], size=3)
    if np.linalg.det(rotation) < 0:
        # A reflection would turn every mesh inside out.
        rotation[0] *= -1.0
    return rotation, rng.uniform(-25.0, 25.0, size=3)


def build_store(seed: int, directory: Path) -> dict:
    """One complete set-up: scene, PPVP encode, three v3 shard stores."""
    from repro.compression.ppvp import PPVPEncoder
    from repro.datagen.scenes import make_tissue_scene
    from repro.datagen.vessels import VesselSpec
    from repro.mesh.polyhedron import Polyhedron
    from repro.storage.store import Dataset, save_dataset

    started = time.perf_counter()
    scene = make_tissue_scene(
        n_nuclei=N_NUCLEI, n_vessels=1, seed=SCENE_SEED, region=REGION,
        nucleus_subdivisions=2,
        vessel_spec=VesselSpec(bifurcations=3, points_per_branch=4, segments=6),
    )
    rotation, offset = placement(seed)
    raw = {
        name: [
            Polyhedron(mesh.vertices @ rotation.T + offset, mesh.faces)
            for mesh in getattr(scene, name)
        ]
        for name in DATASETS
    }
    scene_s = time.perf_counter() - started
    encoder = PPVPEncoder(max_lods=6, rounds_per_lod=2)
    stored = {}
    for name, meshes in raw.items():
        dataset = Dataset.from_polyhedra(name, meshes, encoder)
        stored[name] = save_dataset(dataset, directory / name, layout="shard")["total_bytes"]
    return {
        "raw": raw,
        "scene_s": scene_s,
        "build_s": time.perf_counter() - started,
        "stored_bytes": stored,
        "faces": {name: sum(m.num_faces for m in meshes) for name, meshes in raw.items()},
    }


def engine_config(**overrides):
    """Every switch the environment could set is pinned here."""
    from repro import EngineConfig
    from repro.obs import MetricsRegistry

    settings = dict(
        paradigm="fpr", query_workers=1, query_backend="thread",
        batched_refine=True, storage_backend="shard", metrics=MetricsRegistry(),
    )
    settings.update(overrides)
    return EngineConfig(**settings)


def open_engine(store: Path, **overrides):
    """A fresh engine over the three stores: ``(engine, datasets)``."""
    from repro import ThreeDPro
    from repro.storage.store import load_dataset

    engine = ThreeDPro(engine_config(**overrides))
    datasets = [load_dataset(store / name) for name in DATASETS]
    for dataset in datasets:
        engine.load_dataset(dataset)
    return engine, datasets


def stop_children() -> None:
    """Stop and reap every process this one started through multiprocessing.

    The process backend's spawn context also starts a resource tracker,
    which ``active_children`` does not list and which would otherwise
    end only after this process has: it is stopped and waited for here.
    """
    from multiprocessing import resource_tracker

    from repro.parallel import procpool

    children = multiprocessing.active_children()
    procpool.shutdown()
    for child in children:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    # Dropping the pool's semaphores talks to the tracker: do it first.
    gc.collect()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # closes its pipe, then waitpid()s it


def close_datasets(datasets) -> None:
    for dataset in datasets:
        if dataset.shard_source is not None:
            dataset.shard_source.close()


def calibrate(targets, sources, quantile: float = 0.7) -> float:
    """A within-distance that splits targets into matches and misses:
    the 70th percentile of nearest-source MBB distance + 0.2 x extent."""
    nearest = sorted(
        min(box.mindist(other) for other in sources.boxes) for box in targets.boxes
    )
    extent = max(max(box.extents) for box in sources.boxes[:8])
    index = min(len(nearest) - 1, int(quantile * len(nearest)))
    return max(nearest[index], 1e-6) + 0.2 * extent


class Bench:
    """What set-up leaves for the workloads: store, specs, answers."""

    def __init__(self, seed: int, work: Path, perturb: bool = False):
        from repro import QuerySpec

        import numpy as np

        self.seed = seed
        self.work = work
        self.checks = Checks()
        self.child_rss_mb = 0.0
        builds = []
        for index in range(BUILDS):
            builds.append(build_store(seed, work / f"store{index}"))
            if index:
                shutil.rmtree(work / f"store{index}")
        build = builds[0]
        self.store = work / "store0"
        self.raw = build["raw"]
        self.faces = build["faces"]
        self.stored_bytes = build["stored_bytes"]
        self.scene_s = statistics.median(b["scene_s"] for b in builds)
        self.build_s = statistics.median(b["build_s"] for b in builds)
        self.checks.record(
            all(b["stored_bytes"] == self.stored_bytes for b in builds),
            "store builds differ in stored bytes",
        )

        started = time.perf_counter()
        engine, datasets = open_engine(self.store)
        by_name = dict(zip(DATASETS, datasets))
        self.within = {
            "nn": calibrate(by_name["nuclei_a"], by_name["nuclei_b"]),
            "nv": calibrate(by_name["nuclei_a"], by_name["vessels"]),
        }
        self.boxes_b = list(by_name["nuclei_b"].boxes)
        join = dict(source="nuclei_b", target="nuclei_a")
        self.specs = {
            "int": QuerySpec(kind="intersection", **join),
            "nn": QuerySpec(kind="nn", **join),
            "within": QuerySpec(kind="within", distance=self.within["nn"], **join),
            "nv_within": QuerySpec(
                kind="within", source="vessels", target="nuclei_a",
                distance=self.within["nv"],
            ),
        }
        # The warm in-process FPR answers: every later run of a join —
        # cold, warm, process backend, through the wire — must repeat them.
        self.expected = {
            name: answer(engine.execute(spec), spec.kind)
            for name, spec in self.specs.items()
        }
        close_datasets(datasets)

        rng = np.random.default_rng(seed)
        sample = sorted(int(t) for t in rng.choice(N_NUCLEI, FR_TARGETS, replace=False))
        fr_engine, datasets = open_engine(self.store, paradigm="fr")
        for name, spec in self.specs.items():
            targets = sample[:FR_NN_TARGETS] if name == "nn" else sample
            full = answer(
                fr_engine.execute(replace(spec, target_ids=tuple(targets))), spec.kind
            )
            mine = {t: m for t, m in self.expected[name].items() if t in targets}
            self.checks.record(full == mine, f"{name}: FPR answer differs from FR reference")
        close_datasets(datasets)
        self.reference_s = time.perf_counter() - started
        self.digests = {name: digest(pairs) for name, pairs in self.expected.items()}
        # Each workload starts from the set-up's checks, not its neighbours'.
        self.setup_checks = self.checks
        if perturb:
            self.expected["int"] = {**self.expected["int"], -1: [-1]}

    def check_join(self, name: str, result, how: str) -> None:
        ok = result.complete and answer(result, self.specs[name].kind) == self.expected[name]
        self.checks.record(ok, f"{name} ({how}): pairs differ from the in-process answer")

    def note_children(self, pids) -> None:
        """Fold the children's peak resident sets in before they exit."""
        self.child_rss_mb = max(self.child_rss_mb, sum(vm_hwm_mb(pid) for pid in pids))


# -- workloads --------------------------------------------------------------------


class Workload:
    """Pass-based workload: ``measure`` repeats ``one_pass`` for a while.

    ``samples`` maps a timing's name to its values; ``"op"`` holds the
    wall time of each operation (a pass here, a request in serve_mixed).
    ``stats`` collects the program's own QueryStats of every query run.
    """

    name = ""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.samples: dict[str, list[float]] = {}
        self.stats: list = []
        self.tracer = None

    def warm_up(self) -> None:
        pass

    def one_pass(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def facts(self) -> dict:
        """Counts read from the program's own objects after a measurement."""
        return {}

    def reset(self) -> None:
        self.samples = {}
        self.stats = []

    def timed(self, name: str, fn):
        """Time ``fn`` into ``samples[name]``; a span ``op.<name>`` when
        tracing (the operation itself is the root span ``op.op``)."""
        span = self.tracer.begin(f"op.{name}", operation=name == "op") if self.tracer else None
        started = time.perf_counter()
        try:
            value = fn()
        finally:
            if span is not None:
                self.tracer.end(span)
        self.samples.setdefault(name, []).append(time.perf_counter() - started)
        return value

    def measure(self, seconds: float) -> float:
        self.reset()
        started = time.perf_counter()
        while True:
            self.timed("op", self.one_pass)
            if time.perf_counter() - started >= seconds:
                return time.perf_counter() - started

    def query(self, engine, name: str, how: str, sample: str):
        spec = self.bench.specs[name]
        result = self.timed(sample, lambda: engine.execute(spec))
        self.bench.check_join(name, result, how)
        self.stats.append(result.stats)
        return result


class Ingest(Workload):
    """encode -> serialize -> save (shard) -> load (eager) -> decode every LOD."""

    name = "ingest"
    parts = ("nuclei_a", "vessels")

    def __init__(self, bench):
        super().__init__(bench)
        self.faces = sum(bench.faces[name] for name in self.parts)
        self.decoded_digest = None

    def one_pass(self) -> None:
        from repro.compression.ppvp import PPVPEncoder
        from repro.storage.store import Dataset, load_dataset, save_dataset

        bench = self.bench
        out = bench.work / "ingest"
        encoder = PPVPEncoder(max_lods=6, rounds_per_lod=2)
        seen = hashlib.sha1()
        ok = True
        for name in self.parts:
            dataset = Dataset.from_polyhedra(name, bench.raw[name], encoder)
            saved = save_dataset(dataset, out / name, layout="shard")
            ok &= saved["total_bytes"] == bench.stored_bytes[name]
            loaded = load_dataset(out / name, verify="eager")
            for obj, mesh in zip(loaded.objects, bench.raw[name]):
                decoder = obj.decoder()
                for lod in obj.lods:
                    decoder.advance_to(lod)
                    faces = decoder.face_array()
                    seen.update(faces.tobytes())
                ok &= len(faces) == mesh.num_faces
            close_datasets([loaded])
        if self.decoded_digest is None:
            self.decoded_digest = seen.hexdigest()
        ok &= seen.hexdigest() == self.decoded_digest
        bench.checks.record(bool(ok), "ingest: stored bytes or decoded faces changed")
        shutil.rmtree(out)


class JoinCold(Workload):
    """INT-NN and NN-NN, each from store path to pairs on a fresh engine."""

    name = "join_cold"

    def __init__(self, bench):
        super().__init__(bench)
        self.caches = []

    def reset(self) -> None:
        super().reset()
        self.caches = []

    def cold(self, name: str) -> None:
        engine, datasets = open_engine(self.bench.store, cache_bytes=COLD_CACHE_BYTES)
        result = engine.execute(self.bench.specs[name])
        self.bench.check_join(name, result, "cold")
        self.stats.append(result.stats)
        self.caches.append(cache_counts(engine.cache))
        close_datasets(datasets)

    def one_pass(self) -> None:
        self.timed("int_join_s", lambda: self.cold("int"))
        self.timed("nn_join_s", lambda: self.cold("nn"))

    def warm_up(self) -> None:
        self.one_pass()

    def facts(self) -> dict:
        return cache_facts(self.caches) | {
            # Acceptance: decode is really measured on every cold repeat.
            "min_decode_s": min(s.decode_seconds for s in self.stats),
            "min_evictions": min(c["evictions"] for c in self.caches),
        }


def cache_counts(cache) -> dict:
    """A DecodeCache's lifetime counters, without keeping it alive."""
    return {
        "hits": cache.hits, "misses": cache.misses, "evictions": cache.evictions,
        "evicted_bytes": cache.evicted_bytes, "resident_bytes": cache.bytes_used,
    }


def cache_facts(counts: list[dict]) -> dict:
    facts = {
        key: sum(c[key] for c in counts)
        for key in ("hits", "misses", "evictions", "evicted_bytes")
    }
    lookups = facts["hits"] + facts["misses"]
    facts["hit_ratio"] = facts["hits"] / lookups if lookups else 0.0
    facts["resident_bytes"] = max(c["resident_bytes"] for c in counts)
    return facts


class JoinWarm(Workload):
    """Every join on one warm engine, and WN-NN again on two processes."""

    name = "join_warm"

    def __init__(self, bench):
        super().__init__(bench)
        self.engine, self.datasets = open_engine(bench.store)
        self.pool_engine, self.pool_datasets = open_engine(
            bench.store, query_backend="process", query_workers=2
        )

    def warm_up(self) -> None:
        # Fills the decode cache and spawns the worker pool, untimed.
        self.reset()
        self.one_pass()

    def reset(self) -> None:
        super().reset()
        self.engine.cache.reset_counters()
        self.process_runs = []

    def one_pass(self) -> None:
        for _ in range(INT_RUNS_PER_PASS):
            self.query(self.engine, "int", "warm", "int_join_s")
        self.query(self.engine, "within", "warm", "within_join_s")
        self.query(self.engine, "nn", "warm", "nn_join_s")
        self.query(self.engine, "nv_within", "warm", "nv_within_join_s")
        result = self.query(self.pool_engine, "within", "process", "within_join_process_s")
        self.process_runs.append((self.samples["within_join_process_s"][-1], result.stats))

    def facts(self) -> dict:
        restarts = self.pool_engine.metrics.get("repro_worker_restarts_total")
        return cache_facts([cache_counts(self.engine.cache)]) | {
            "retries": restarts.value() if restarts is not None else 0,
            # Join wall minus the workers' own phase seconds per worker:
            # chunk transport, pool scheduling and the merge.
            "process_overhead_s": statistics.mean(
                wall - (s.filter_seconds + s.decode_seconds + s.compute_seconds) / 2
                for wall, s in self.process_runs
            ),
        }

    def close(self) -> None:
        self.bench.note_children(c.pid for c in multiprocessing.active_children())
        stop_children()
        close_datasets(self.datasets + self.pool_datasets)


@dataclass
class Reply:
    """One request as its client saw it."""

    kind: str
    seconds: float
    server_s: float  # the server's own QueryStats.total_seconds
    stats: object  # None when the request failed
    frames: int = 0
    first_frame_s: float | None = None
    leader: bool = True  # False: coalesced onto another client's execution


class ServeMixed(Workload):
    """A closed loop of two clients replaying a seeded single-target mix
    against a ``repro serve`` subprocess over the same stores."""

    name = "serve_mixed"

    def __init__(self, bench):
        super().__init__(bench)
        self.server = None
        self.url = None
        self.trace_path = bench.work / "server-trace.json"
        self.requests = self._sequence()
        self.window = (0.0, 0.0)

    def _sequence(self) -> list[list[dict]]:
        """Per client: 35% within, 25% intersection, 20% containment
        points, 10% nn, 10% knn k=3; every 20th within is streamed.

        The draw is stratified: every block of 20 requests holds the mix
        exactly, and each kind walks through its targets in seeded
        permutations, so any stretch of the sequence carries the same
        work whatever the seed — only the order differs.
        """
        import numpy as np

        from repro import QuerySpec

        bench = self.bench
        rng = np.random.default_rng(bench.seed + 1)
        join = dict(source="nuclei_b", target="nuclei_a")

        def walk(targets):
            while True:
                yield from (int(t) for t in rng.permutation(targets))

        clients = []
        for _ in range(CLIENTS):
            targets = {kind: walk(range(N_NUCLEI)) for kind in set(MIX)}
            targets["knn"] = walk(KNN_TARGETS)
            sequence, withins = [], 0
            for _ in range(REQUESTS_PER_CLIENT // len(MIX)):
                for kind in rng.permutation(MIX):
                    kind = str(kind)
                    target = next(targets[kind])
                    request = {"kind": kind, "stream": False}
                    if kind == "containment":
                        box = bench.boxes_b[target]
                        point = tuple(
                            float(c + rng.uniform(-0.6, 0.6) * e)
                            for c, e in zip(box.center, box.extents)
                        )
                        request["spec"] = QuerySpec(kind=kind, source="nuclei_b", point=point)
                    elif kind == "knn":
                        request["spec"] = QuerySpec(kind=kind, k=3, target_ids=(target,), **join)
                    else:
                        name = {"within": "within", "intersection": "int", "nn": "nn"}[kind]
                        request["spec"] = replace(bench.specs[name], target_ids=(target,))
                        matches = bench.expected[name].get(target)
                        request["expected"] = {target: matches} if matches else {}
                        if kind == "within":
                            withins += 1
                            request["stream"] = withins % 20 == 0
                    sequence.append(request)
            clients.append(sequence)
        return clients

    def _start(self, traced: bool) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        stores = [str(self.bench.store / name) for name in DATASETS[:2]]
        if traced:
            command = [sys.executable, str(SUITE / "serve_traced.py"), str(self.trace_path)]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        self.log = open(self.bench.work / "server.log", "ab")
        self.server = subprocess.Popen(
            command + stores + ["--port", "0"], env=env, cwd=self.bench.work,
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.server.stdout.readline()
            if not line:
                break
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                self.url = match.group(1)
                return
        self._stop()
        raise RuntimeError("the query server never announced its address")

    def _stop(self) -> None:
        if self.server is None:
            return
        self.bench.note_children([self.server.pid])
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.log.close()
        self.server = None

    def warm_up(self) -> None:
        # In-process answers for the specs the joins do not cover.
        engine, datasets = open_engine(self.bench.store)
        answers = {}
        for sequence in self.requests:
            for request in sequence:
                if "expected" not in request:
                    spec = request["spec"]
                    key = (spec.kind, spec.target_ids, spec.point)
                    if key not in answers:
                        answers[key] = answer(engine.execute(spec), spec.kind)
                    request["expected"] = answers[key]
        close_datasets(datasets)
        self._start(traced=False)
        self._warm_server()

    def _warm_server(self) -> None:
        from repro.serve.client import RemoteEngine

        remote = RemoteEngine(self.url)
        for name in ("int", "within", "nn"):
            self.bench.check_join(name, remote.execute(self.bench.specs[name]), "wire")
        heavy = {
            request["spec"].target_ids: request["spec"]
            for sequence in self.requests for request in sequence if request["kind"] == "knn"
        }
        for spec in heavy.values():
            remote.execute(spec)

    def use_traced_server(self) -> None:
        """Swap the plain server for one started through serve_traced.py,
        so the wrappers of tracing.py apply inside it."""
        self._stop()
        self._start(traced=True)
        self._warm_server()

    def _client(self, client, sequence, began, deadline, out) -> None:
        from repro.serve.client import RemoteEngine
        from repro.serve.stream import assemble_frames

        remote = RemoteEngine(self.url)
        checks = self.bench.checks
        index = 0
        while index % len(MIX) or time.perf_counter() < deadline:
            request = sequence[index % len(sequence)]
            index += 1
            spec = request["spec"]
            started = time.perf_counter()
            reply = Reply(request["kind"], 0.0, 0.0, None)
            try:
                if request["stream"]:
                    collected = []
                    for frame in remote.stream(spec):
                        if reply.first_frame_s is None:
                            reply.first_frame_s = time.perf_counter() - started
                        collected.append(frame)
                    reply.frames = len(collected)
                    result = assemble_frames(collected)
                else:
                    result = remote.execute(spec)
                ok = result.complete and answer(result, spec.kind) == request["expected"]
                what = f"{reply.kind} request: answer differs from in-process"
                reply.stats, reply.server_s = result.stats, result.stats.total_seconds
            except Exception as exc:  # a refused or broken request is a failed op
                ok, what = False, f"{reply.kind} request raised {exc!r}"
            reply.seconds = time.perf_counter() - started
            checks.record(ok, what)
            out.append(reply)
        self.client_walls[client] = time.perf_counter() - began

    def measure(self, seconds: float) -> float:
        self.reset()
        before = self._metrics_text()
        started = time.perf_counter()
        deadline = started + seconds
        self.client_walls = [0.0] * len(self.requests)
        outs = [[] for _ in self.requests]
        threads = [
            threading.Thread(target=self._client, args=(client, seq, started, deadline, out))
            for client, (seq, out) in enumerate(zip(self.requests, outs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        self.window = (started, started + wall)
        self.counters = (before, self._metrics_text())
        self.replies = [reply for out in outs for reply in out]
        # A coalesced follower is handed its leader's result, stats and
        # all: the same server-side total_seconds to the last digit. The
        # leader is the one of them that waited longest.
        leaders: dict[tuple, Reply] = {}
        for reply in self.replies:
            key = (reply.kind, reply.server_s)
            if reply.stats is not None and reply.seconds >= leaders.get(key, reply).seconds:
                leaders[key] = reply
        for reply in self.replies:
            reply.leader = leaders.get((reply.kind, reply.server_s)) is reply
        self.samples["op"] = [r.seconds for r in self.replies]
        for kind in ("within", "intersection", "containment", "nn", "knn"):
            self.samples[f"request_{kind}_s"] = [r.seconds for r in self.replies if r.kind == kind]
        self.stats = [r.stats for r in self.replies if r.leader]
        # The clients end at different block boundaries: the loop's rate
        # is the sum of their own rates, returned as the wall time that
        # yields it for the number of requests made.
        rate = sum(len(out) / took for out, took in zip(outs, self.client_walls))
        return len(self.replies) / rate

    def _metrics_text(self) -> str:
        from repro.serve.client import RemoteEngine

        return RemoteEngine(self.url).metrics_text()

    def _server_counter(self, name: str, gauge: bool = False) -> float:
        """A server metric summed over its labels: the change over the
        measured window, or the closing value of a gauge."""
        pattern = rf"^{name}(?:{{[^}}]*}})? ([0-9.e+-]+)$"
        before, after = (
            sum(float(v) for v in re.findall(pattern, text, re.MULTILINE))
            for text in self.counters
        )
        return after if gauge else after - before

    def facts(self) -> dict:
        cache = {
            key: self._server_counter(f"repro_cache_{key}_total")
            for key in ("hits", "misses", "evictions", "evicted_bytes")
        }
        cache["resident_bytes"] = self._server_counter("repro_cache_resident_bytes", gauge=True)
        streamed = [r.first_frame_s for r in self.replies if r.first_frame_s is not None]
        led = [r for r in self.replies if r.leader]
        return cache_facts([cache]) | {
            "coalesced": self._server_counter("repro_server_coalesced_total"),
            "rejected": self._server_counter("repro_server_rejected_total"),
            "frames": sum(r.frames for r in self.replies),
            "first_frame_s": statistics.mean(streamed) if streamed else 0.0,
            # Client-observed latency minus the server's own execute time.
            "app_overhead_s": statistics.mean(r.seconds - r.server_s for r in led) if led else 0.0,
        }

    def server_trace(self) -> dict:
        """Stop the traced server and read the spans of the last window."""
        self._stop()
        with open(self.trace_path) as fh:
            trace = json.load(fh)
        low, high = self.window
        trace["spans"] = [s for s in trace["spans"] if low <= s[2] and s[3] <= high]
        return trace

    def close(self) -> None:
        self._stop()


WORKLOADS = {w.name: w for w in (Ingest, JoinCold, JoinWarm, ServeMixed)}


# -- metrics ----------------------------------------------------------------------


def end_to_end(workload: Workload, bench: Bench, wall: float, setup_s: float) -> tuple[dict, dict]:
    """``(contract metrics, named metrics)`` of one untraced measurement."""
    samples = workload.samples
    ops = samples["op"]
    contract = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(ops), "s"),
        "ops_per_s": (len(ops) / wall, "1/s"),
        "peak_rss_mb": (vm_hwm_mb() + bench.child_rss_mb, "MB"),
        "stored_bytes_per_face": (
            sum(bench.stored_bytes.values()) / sum(bench.faces.values()), "B",
        ),
    }
    named = {
        "failed_ops_ratio": (bench.checks.failed / max(1, bench.checks.attempted), "ratio", 0),
    }
    for name, values in samples.items():
        if name != "op" and values:
            named[name] = (statistics.median(values), "s", len(values))
    if workload.name == "ingest":
        named["ingest_faces_per_s"] = (workload.faces / statistics.median(ops), "1/s", len(ops))
    if workload.name == "serve_mixed":
        named["request_s_p50"] = (statistics.median(ops), "s", len(ops))
        named["request_s_p95"] = (pct(ops, 0.95), "s", len(ops))
        named["requests_per_s"] = (len(ops) / wall, "1/s", len(ops))
    return contract, named


def funnel_totals(stats) -> dict:
    evaluated = settled = early = rounds = decoded_bytes = 0
    for s in stats:
        top = max(s.funnel.stages, default=0)
        for lod, stage in s.funnel.stages.items():
            evaluated += stage.evaluated
            settled += stage.settled
            decoded_bytes += stage.decoded_bytes
            rounds += stage.evaluated > 0
            if lod < top:
                early += stage.settled
    return {
        "evaluated": evaluated, "settled": settled, "rounds": rounds,
        "decoded_bytes": decoded_bytes,
        "early_ratio": early / evaluated if evaluated else 0.0,
    }


def per_layer(workload, bench, layers, counts, ops, traced_wall, overhead) -> dict:
    """Every per-layer metric, per traced operation unless it is a ratio."""
    n = max(1, ops)
    stats = workload.stats
    facts = workload.facts()
    funnel = funnel_totals(stats)

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0) / n

    def count(name):
        return counts.get(name, 0) / n

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    def agreement(wrapped, clocked):
        # Not a finding when the program clocked next to nothing.
        return wrapped / clocked if clocked > 0.001 * traced_wall else 0.0

    encode_total_s = layers.get("compression.ppvp.encode", {}).get("total_s", 0.0) / n
    dist, tri = self_s("geometry.distance"), self_s("geometry.tritri")
    stat = {
        key: sum(getattr(s, f"{key}_seconds") for s in stats) / n
        for key in ("filter", "decode", "compute", "total")
    }
    targets = sum(s.targets for s in stats)
    # Operations are root spans in-process, so their self time is what no
    # layer claims; the server's spans have no such root, so there it is
    # the clients' wall time minus every server layer's self time.
    if workload.name == "serve_mixed":
        unattributed = traced_wall - sum(entry["self_s"] for entry in layers.values())
    else:
        unattributed = sum(e["self_s"] for name, e in layers.items() if name.startswith("op."))
    # The program's own decode / compute clocks against what the wrappers
    # saw: cache-miss spans, and refine spans minus those misses.
    # Process-backend joins run in unwrapped workers and are left out.
    remote = {id(s) for _, s in getattr(workload, "process_runs", ())}
    local = [s for s in stats if id(s) not in remote]
    wrapper_decode = layers.get("storage.cache.get", {}).get("miss_s", 0.0)
    wrapper_compute = layers.get("core.refine", {}).get("total_s", 0.0) - wrapper_decode
    m = {
        "datagen.scene_s": bench.scene_s,
        "compression.ppvp.encode_s": self_s("compression.ppvp.encode"),
        "compression.ppvp.encode_total_s": encode_total_s,
        "compression.ppvp.encode_faces_per_s": ratio(
            count("compression.ppvp.faces_encoded"), encode_total_s
        ),
        "compression.ppvp.rounds": count("compression.ppvp.rounds"),
        "compression.ppvp.vertices_removed": count("compression.ppvp.vertices_removed"),
        "compression.ppvp.decode_s": self_s("compression.ppvp.decode"),
        "compression.ppvp.decodes": count("compression.ppvp.decodes"),
        "compression.serialize.serialize_s": self_s("compression.serialize.serialize"),
        "compression.serialize.deserialize_s": self_s("compression.serialize.deserialize"),
        "compression.serialize.blob_bytes": count("compression.serialize.blob_bytes"),
        "compression.serialize.bytes_per_face": ratio(
            counts.get("compression.serialize.blob_bytes", 0),
            counts.get("compression.serialize.faces", 0),
        ),
        "compression.lodtable.compile_s": self_s("compression.lodtable.compile"),
        "compression.lodtable.tables_built": calls("compression.lodtable.compile"),
        "compression.lodtable.rows": count("compression.lodtable.rows"),
        "storage.store.save_s": self_s("storage.store.save"),
        "storage.store.open_s": self_s("storage.store.open"),
        "storage.store.materialize_s": self_s("storage.store.materialize"),
        "storage.store.materialized_objects": calls("storage.store.materialize"),
        "storage.shardfile.blob_s": self_s("storage.shardfile.blob"),
        "storage.shardfile.blob_reads": calls("storage.shardfile.blob"),
        "storage.shardfile.blob_bytes": count("storage.shardfile.blob_bytes"),
        "storage.cache.get_self_s": self_s("storage.cache.get"),
        "storage.cache.hits": facts.get("hits", 0) / n,
        "storage.cache.misses": facts.get("misses", 0) / n,
        "storage.cache.hit_ratio": facts.get("hit_ratio", 0.0),
        "storage.cache.evictions": facts.get("evictions", 0) / n,
        "storage.cache.evicted_bytes": facts.get("evicted_bytes", 0) / n,
        "storage.cache.decoded_bytes": funnel["decoded_bytes"] / n,
        "storage.cache.resident_bytes": facts.get("resident_bytes", 0),
        "index.rtree.build_s": self_s("index.rtree.build"),
        "index.rtree.query_s": self_s("index.rtree.query"),
        "index.rtree.queries": calls("index.rtree.query"),
        "index.rtree.candidates_per_target": ratio(sum(s.candidates for s in stats), targets),
        "core.executor.self_s": self_s("core.executor"),
        "core.executor.targets": targets / n,
        "core.refine.self_s": self_s("core.refine"),
        "core.refine.rounds": funnel["rounds"] / n,
        "core.refine.pairs_evaluated": funnel["evaluated"] / n,
        "core.refine.pairs_settled": funnel["settled"] / n,
        "core.refine.settled_below_top_lod_ratio": funnel["early_ratio"],
        "core.batch.gather_self_s": self_s("core.batch"),
        "core.batch.flushes": count("core.batch.flushes"),
        "core.batch.lanes": count("core.batch.lanes"),
        "core.batch.lanes_screened_ratio": 1.0 - ratio(
            counts.get("core.batch.kernel_lanes", 0), counts.get("core.batch.lanes", 0)
        ) if counts.get("core.batch.lanes") else 0.0,
        "parallel.executor.self_s": self_s("parallel.executor"),
        "parallel.executor.kernel_calls": count("parallel.executor.kernel_calls"),
        "geometry.distance.batch_s": dist,
        "geometry.distance.face_pairs": count("geometry.distance.face_pairs"),
        "geometry.distance.ns_per_face_pair": 1e9 * ratio(dist, count("geometry.distance.face_pairs")),
        "geometry.tritri.batch_s": tri,
        "geometry.tritri.face_pairs": count("geometry.tritri.face_pairs"),
        "geometry.tritri.ns_per_face_pair": 1e9 * ratio(tri, count("geometry.tritri.face_pairs")),
        "geometry.raycast.batch_s": self_s("geometry.raycast"),
        "geometry.raycast.probes": count("geometry.raycast.probes"),
        "parallel.procpool.execute_chunks_s": self_s("parallel.procpool"),
        "parallel.procpool.chunks": count("parallel.procpool.chunks"),
        "parallel.procpool.overhead_s": facts.get("process_overhead_s", 0.0),
        "parallel.procpool.retries": facts.get("retries", 0) / n,
        "parallel.procpool.quarantined": count("parallel.procpool.quarantined"),
        "serve.wire.from_wire_s": self_s("serve.wire.from_wire"),
        "serve.wire.to_wire_s": self_s("serve.wire.to_wire"),
        "serve.wire.response_bytes": count("serve.wire.response_bytes"),
        "serve.app.self_s": self_s("serve.app"),
        "serve.app.overhead_s": facts.get("app_overhead_s", 0.0),
        "serve.coalesce.coalesced": facts.get("coalesced", 0) / n,
        "serve.admission.rejected": facts.get("rejected", 0) / n,
        "serve.stream.frames": facts.get("frames", 0) / n,
        "serve.stream.first_frame_s": facts.get("first_frame_s", 0.0),
        "core.stats.filter_s": stat["filter"],
        "core.stats.decode_s": stat["decode"],
        "core.stats.compute_s": stat["compute"],
        "core.stats.other_s": max(0.0, stat["total"] - stat["filter"] - stat["decode"] - stat["compute"]),
        "obs.traced_op_s": traced_wall / n,
        "obs.unattributed_s": unattributed / n,
        "obs.unattributed_ratio": ratio(unattributed, traced_wall),
        "obs.wrapper_decode_ratio": agreement(
            wrapper_decode, sum(s.decode_seconds for s in local)
        ),
        "obs.wrapper_compute_ratio": agreement(
            wrapper_compute, sum(s.compute_seconds for s in local)
        ),
        "obs.trace_overhead_ratio": overhead,
        "obs.spans": sum(entry["calls"] for entry in layers.values()) / n,
    }
    return m


#: Groups of layers, by prefix, for the ``share.`` rows. ``op.transport``
#: is what a serve_mixed client waited beyond the server's own spans.
GROUPS = {
    "encode": ("compression.ppvp.encode",),
    "storage_compression": ("storage.", "compression."),
    "refine_kernels": ("core.refine", "core.batch", "parallel.executor", "geometry."),
    "service": ("serve.", "index.rtree", "core.executor"),
    "transport": ("op.transport",),
}


def shares(sections: dict) -> dict:
    """Per timed section: the share of its wall time spent in each group
    of layers — the 'each layer dominates where claimed' figures."""
    out = {}
    for section, by_layer in sorted(sections.items()):
        label = section.removeprefix("op.")
        if not label or all(layer.startswith("op.") for layer in by_layer):
            continue  # a pass is only the sum of its timed sections
        total = sum(by_layer.values())
        for group, prefixes in GROUPS.items():
            part = sum(v for layer, v in by_layer.items() if layer.startswith(prefixes))
            if part:
                out[f"share.{label}.{group}"] = part / total
    return out


# -- one workload, start to finish -------------------------------------------------


def show(name: str, rows) -> None:
    for key, value, unit, *rest in rows:
        extra = f"  n={rest[0]}" if rest and rest[0] else ""
        print(f"{name}  {key}  {value:.6g}  {unit}{extra}")


def run_plain(workload: Workload, bench: Bench, seconds: float, setup_s: float, record: dict) -> dict:
    """The untraced run: every end-to-end metric."""
    wall = workload.measure(seconds)
    record["facts"] = workload.facts()
    workload.close()  # children report their peak memory as they stop
    contract, named = end_to_end(workload, bench, wall, setup_s)
    record["named"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()}
    record["samples"] = {k: [round(v, 6) for v in vs] for k, vs in workload.samples.items()}
    show(workload.name, [(k, v, u) for k, (v, u) in contract.items()])
    show(workload.name, [(k, v, u, n) for k, (v, u, n) in named.items()])
    return {k: {"value": v, "unit": u} for k, (v, u) in contract.items()}


def run_traced(workload: Workload, bench: Bench, seconds: float, out: Path | None,
               record: dict) -> dict:
    """The traced run: every per-layer metric, from spans and counts."""
    import tracing

    name = workload.name
    workload.measure(seconds * UNTRACED_SHARE)
    plain = statistics.median(workload.samples["op"])
    if name == "serve_mixed":
        workload.use_traced_server()
        workload.measure(seconds * (1.0 - UNTRACED_SHARE))
        document = workload.server_trace()
        spans, counts = document["spans"], document["counts"]
    else:
        tracer = workload.tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            workload.measure(seconds * (1.0 - UNTRACED_SHARE))
        finally:
            uninstall()
        spans, counts = tracer.finished(), dict(tracer.counts)
    ops = workload.samples["op"]
    layers, sections = tracing.aggregate(spans)
    if name == "serve_mixed":
        # A request's section ends at the server's door; what its clients
        # waited beyond that (HTTP, JSON, thread start) is transport.
        for section, by_layer in sections.items():
            waited = sum(workload.samples.get(section.removeprefix("op."), ()))
            by_layer["op.transport"] = max(0.0, waited - sum(by_layer.values()))
    values = per_layer(
        workload, bench, layers, counts, len(ops), sum(ops),
        overhead=statistics.median(ops) / plain,
    )
    workload.close()
    units = {entry["name"]: entry["unit"] for entry in load_contract()["per_layer"]}
    if set(values) != set(units):
        raise SystemExit(
            "per-layer metrics and BENCHMARK.json disagree: "
            f"{sorted(set(values) ^ set(units))}"
        )
    record["shares"] = shares(sections)
    show(name, [(key, values[key], unit) for key, unit in units.items()])
    show(name, [(key, value, "ratio") for key, value in record["shares"].items()])
    covered = 1.0 - values["obs.unattributed_ratio"]
    print(
        f"{name}  reconcile  layer self times cover {covered:.1%} of the traced wall "
        f"({'ok' if covered >= 0.9 else 'more than 10% unattributed'}); wrappers see "
        f"{values['obs.wrapper_decode_ratio']:.2f}x core.stats decode, "
        f"{values['obs.wrapper_compute_ratio']:.2f}x core.stats compute"
    )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"trace-{name}.json", "w") as fh:
            json.dump(
                {"workload": name, "seed": bench.seed, "fields": tracing.FIELDS,
                 "spans": spans, "counts": counts},
                fh,
            )
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def run_workload(name: str, bench: Bench, seconds: float, trace: bool, out: Path | None) -> dict:
    bench.checks = Checks(bench.setup_checks)
    bench.child_rss_mb = 0.0
    workload = WORKLOADS[name](bench)
    record = {"workload": name, "seed": bench.seed, "seconds": seconds, "trace": int(trace)}
    try:
        started = time.perf_counter()
        workload.warm_up()
        setup_s = bench.build_s + bench.reference_s + time.perf_counter() - started
        if trace:
            metrics = run_traced(workload, bench, seconds, out, record)
        else:
            metrics = run_plain(workload, bench, seconds, setup_s, record)
    finally:
        workload.close()
    checks = bench.checks
    record.update(
        correct=checks.failed == 0, attempted=checks.attempted, failed=checks.failed,
        metrics=metrics, failures=checks.failures, digests=bench.digests,
    )
    return record


def load_contract() -> dict:
    with open(CONTRACT) as fh:
        return json.load(fh)


def environment(bench: Bench, seconds: float) -> dict:
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
        "scene": {"seed": SCENE_SEED, "nuclei": N_NUCLEI, "faces": bench.faces},
        "repeats": {
            "builds": BUILDS, "run_seconds": seconds, "int_runs_per_pass": INT_RUNS_PER_PASS,
            "clients": CLIENTS, "requests_per_client": REQUESTS_PER_CLIENT,
            "fr_targets": FR_TARGETS, "fr_nn_targets": FR_NN_TARGETS,
        },
        "within": bench.within, "cold_cache_bytes": COLD_CACHE_BYTES,
        "caveats": "2 cores; OS page cache warm on every run; closed loop, 2 clients",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for results.json (appended) and trace-<workload>.json")
    parser.add_argument("--perturb-digest", action="store_true",
                        help="self-test: corrupt one reference answer; the run must exit 2")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not CONTRACT.is_file():
        print("error: run.py needs the repository checkout (src/repro, BENCHMARK.json)",
              file=sys.stderr)
        return 3
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    seconds = args.seconds if args.seconds is not None else load_contract()["run_seconds"]
    names = args.workload or list(WORKLOADS)

    scratch = SUITE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    # Spill and heartbeat files of the process backend follow TMPDIR.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    failed = False
    try:
        started = time.perf_counter()
        bench = Bench(args.seed, work, perturb=args.perturb_digest)
        print(f"# set-up: {BUILDS} store builds, median {bench.build_s:.2f} s; reference "
              f"{bench.reference_s:.2f} s; total {time.perf_counter() - started:.2f} s; "
              f"within nn={bench.within['nn']:.4f} nv={bench.within['nv']:.4f}; "
              f"OS page cache warm")
        env = environment(bench, seconds) if args.out is not None else None
        for name in names:
            record = run_workload(name, bench, seconds, bool(args.trace), args.out)
            failed |= not record["correct"]
            for failure in record["failures"]:
                print(f"{name}  FAILED  {failure}", file=sys.stderr)
            if args.out is not None:
                append_result(args.out / "results.json", env, record)
            print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    finally:
        stop_children()
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return 2 if failed else 0


def append_result(path: Path, env: dict, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"environment": env, "runs": []}
    if path.exists():
        with open(path) as fh:
            document = json.load(fh)
    document["runs"].append(record)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
