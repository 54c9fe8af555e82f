"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``generate`` — synthesize a tissue scene and persist its datasets;
* ``compress`` — ingest OFF/STL mesh files into a compressed dataset;
* ``store``    — dataset directory maintenance; ``store migrate``
  rewrites a v1/v2 container directory as a v3 memory-mapped shard
  store in place (blobs, ids, and grid preserved byte-for-byte);
* ``inspect``  — summarize a dataset directory (objects, LODs, bytes);
* ``decode``   — export one object at one LOD to OFF or STL;
* ``query``    — run a join between two dataset directories, or — with
  ``--remote URL`` — against a running query service (``--stream`` for
  progressive NDJSON results);
* ``serve``    — run the long-lived HTTP query service over one or more
  dataset directories (see :mod:`repro.serve`);
* ``profile``  — print the Section 6.5 LOD-schedule profile for a join;
* ``obs``      — run a traced join and export telemetry (span-tree JSON,
  Chrome ``trace_event`` JSON, Prometheus/OpenMetrics text, metrics
  JSON, refinement-funnel summary, span self-time table, and — with
  ``--profile`` — a sampling profile with collapsed-stack flamegraph
  export).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.compression.ppvp import PPVPEncoder
from repro.compression.serialize import serialized_segment_sizes, serialize_object
from repro.core.config import EngineConfig
from repro.core.engine import ThreeDPro
from repro.core.errors import StorageError
from repro.core.lod_select import choose_lod_list, profile_pruning
from repro.core.plan import QuerySpec
from repro.storage.store import Dataset, load_dataset, migrate_dataset, save_dataset

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="3DPro: progressive 3D spatial queries (EDBT 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a tissue scene into datasets")
    gen.add_argument("output", type=Path, help="output directory")
    gen.add_argument("--nuclei", type=int, default=100)
    gen.add_argument("--vessels", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--region", type=float, default=120.0)
    gen.add_argument("--subdivisions", type=int, default=1)

    comp = sub.add_parser("compress", help="ingest OFF/STL meshes into a dataset")
    comp.add_argument("meshes", type=Path, nargs="+", help="input .off/.stl files")
    comp.add_argument("--output", "-o", type=Path, required=True)
    comp.add_argument("--name", default="dataset")
    comp.add_argument("--max-lods", type=int, default=6)
    comp.add_argument("--quant-bits", type=int, default=16)

    store = sub.add_parser("store", help="dataset directory maintenance")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    mig = store_sub.add_parser(
        "migrate",
        help="rewrite a v1/v2 container directory as a v3 shard store in place",
    )
    mig.add_argument("dataset", type=Path, nargs="+",
                     help="dataset directories to migrate")

    salvage_help = (
        "load damaged dataset directories best-effort instead of failing "
        "(quarantines unreadable files, keeps salvageable objects)"
    )

    ins = sub.add_parser("inspect", help="summarize a dataset directory")
    ins.add_argument("dataset", type=Path)
    ins.add_argument("--salvage", action="store_true", help=salvage_help)

    dec = sub.add_parser("decode", help="export one object at one LOD")
    dec.add_argument("dataset", type=Path)
    dec.add_argument("--object", type=int, default=0)
    dec.add_argument("--lod", type=int, default=None, help="default: highest")
    dec.add_argument("--output", "-o", type=Path, required=True, help=".off or .stl")
    dec.add_argument("--salvage", action="store_true", help=salvage_help)

    qry = sub.add_parser("query", help="run a spatial join between two datasets")
    qry.add_argument("target", type=Path)
    qry.add_argument("source", type=Path)
    qry.add_argument("--query", choices=["intersection", "within", "nn", "knn"], default="nn")
    qry.add_argument("--distance", type=float, default=None, help="within threshold")
    qry.add_argument("-k", type=int, default=2, help="neighbors for knn")
    qry.add_argument("--paradigm", choices=["fr", "fpr"], default="fpr")
    qry.add_argument("--query-workers", type=int, default=None,
                     help="worker processes fanning query targets (default: "
                          "REPRO_QUERY_WORKERS env or serial)")
    qry.add_argument("--deadline-ms", type=int, default=None,
                     help="wall-clock budget; on expiry the query returns the "
                          "pairs confirmed so far as a sound partial result "
                          "(default: REPRO_DEADLINE_MS env or unbounded)")
    qry.add_argument("--limit", type=int, default=10, help="result rows to print")
    qry.add_argument("--salvage", action="store_true", help=salvage_help)
    qry.add_argument("--remote", metavar="URL", default=None,
                     help="query a running `repro serve` instance instead of "
                          "loading datasets locally; TARGET and SOURCE are "
                          "then dataset *names* loaded on the server")
    qry.add_argument("--stream", action="store_true",
                     help="with --remote: stream confirmed pairs per LOD "
                          "round (NDJSON) instead of one buffered response")

    srv = sub.add_parser("serve", help="run the HTTP query service")
    srv.add_argument("datasets", type=Path, nargs="+",
                     help="dataset directories to load and serve")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=None,
                     help="listen port (default: REPRO_SERVE_PORT env or 8030; "
                          "0 picks a free port)")
    srv.add_argument("--max-inflight", type=int, default=None,
                     help="concurrent executing queries (default: "
                          "REPRO_SERVE_MAX_INFLIGHT env or 4)")
    srv.add_argument("--max-queue", type=int, default=None,
                     help="requests allowed to wait for a slot before 429 "
                          "(default: REPRO_SERVE_MAX_QUEUE env or 16)")
    srv.add_argument("--paradigm", choices=["fr", "fpr"], default="fpr")
    srv.add_argument("--query-workers", type=int, default=None,
                     help="worker processes fanning query targets (default: "
                          "REPRO_QUERY_WORKERS env or serial)")
    srv.add_argument("--deadline-ms", type=int, default=None,
                     help="server-wide default wall-clock budget per query "
                          "(a spec-level deadline_ms overrides it)")
    srv.add_argument("--salvage", action="store_true", help=salvage_help)

    prof = sub.add_parser("profile", help="profile the LOD schedule for a join")
    prof.add_argument("target", type=Path)
    prof.add_argument("source", type=Path)
    prof.add_argument("--query", choices=["intersection", "within", "nn"], default="nn")
    prof.add_argument("--distance", type=float, default=None)
    prof.add_argument("--sample", type=int, default=16)
    prof.add_argument("--salvage", action="store_true", help=salvage_help)

    obs = sub.add_parser(
        "obs", help="run a traced join and export its telemetry"
    )
    obs.add_argument("target", type=Path)
    obs.add_argument("source", type=Path)
    obs.add_argument("--query", choices=["intersection", "within", "nn", "knn"], default="nn")
    obs.add_argument("--distance", type=float, default=None, help="within threshold")
    obs.add_argument("-k", type=int, default=2, help="neighbors for knn")
    obs.add_argument("--paradigm", choices=["fr", "fpr"], default="fpr")
    obs.add_argument("--query-workers", type=int, default=None,
                     help="worker processes fanning query targets (default: "
                          "REPRO_QUERY_WORKERS env or serial)")
    obs.add_argument("--deadline-ms", type=int, default=None,
                     help="wall-clock budget; on expiry the query returns the "
                          "pairs confirmed so far as a sound partial result "
                          "(default: REPRO_DEADLINE_MS env or unbounded)")
    obs.add_argument("--salvage", action="store_true", help=salvage_help)
    obs.add_argument("--trace-json", type=Path, default=None,
                     help="write the span tree as JSON")
    obs.add_argument("--chrome-trace", type=Path, default=None,
                     help="write Chrome trace_event JSON (chrome://tracing)")
    obs.add_argument("--metrics-prom", type=Path, default=None,
                     help="write the metrics registry as Prometheus text")
    obs.add_argument("--metrics-json", type=Path, default=None,
                     help="write the metrics registry as JSON")
    obs.add_argument("--log-json", action="store_true",
                     help="stream structured JSON events to stderr during the run")
    obs.add_argument("--format", choices=["prometheus", "openmetrics"],
                     default="prometheus", dest="metrics_format",
                     help="text exposition format for --metrics-prom")
    obs.add_argument("--top", type=int, default=0, metavar="N",
                     help="print the top-N spans by self time")
    obs.add_argument("--profile", action="store_true",
                     help="run the sampling profiler during the query and "
                          "print its top self-time frames")
    obs.add_argument("--profile-interval-ms", type=float, default=2.0,
                     help="sampling interval for --profile (default 2ms)")
    obs.add_argument("--profile-collapsed", type=Path, default=None,
                     help="write collapsed-stack text for flamegraph.pl / "
                          "speedscope (implies --profile)")
    return parser


def _load_dataset_cli(path: Path, salvage: bool):
    """Load a dataset in the requested mode, reporting any data loss."""
    try:
        dataset = load_dataset(path, mode="salvage" if salvage else "strict")
    except (StorageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, StorageError) and not salvage:
            print(
                f"hint: retry with --salvage to load what survives of {path}",
                file=sys.stderr,
            )
        raise SystemExit(2) from exc
    report = dataset.load_report
    if report is not None and not report.ok:
        print(f"warning: {path}: {report.summary()}", file=sys.stderr)
    return dataset


def _load_mesh(path: Path):
    from repro.io.off import read_off
    from repro.io.stl import read_stl

    suffix = path.suffix.lower()
    if suffix == ".off":
        return read_off(path)
    if suffix == ".stl":
        return read_stl(path)
    raise SystemExit(f"unsupported mesh format: {path} (use .off or .stl)")


def _cmd_generate(args) -> int:
    from repro.datagen.scenes import make_tissue_scene

    scene = make_tissue_scene(
        n_nuclei=args.nuclei,
        n_vessels=args.vessels,
        seed=args.seed,
        region=args.region,
        nucleus_subdivisions=args.subdivisions,
    )
    encoder = PPVPEncoder()
    for name, meshes in (
        ("nuclei_a", scene.nuclei_a),
        ("nuclei_b", scene.nuclei_b),
        ("vessels", scene.vessels),
    ):
        if not meshes:
            continue
        dataset = Dataset.from_polyhedra(name, meshes, encoder)
        summary = save_dataset(dataset, args.output / name)
        print(f"{name}: {len(dataset)} objects, {summary['total_bytes']} bytes "
              f"-> {args.output / name}")
    return 0


def _cmd_compress(args) -> int:
    encoder = PPVPEncoder(max_lods=args.max_lods)
    meshes = [_load_mesh(path) for path in args.meshes]
    dataset = Dataset.from_polyhedra(args.name, meshes, encoder)
    summary = save_dataset(dataset, args.output, quant_bits=args.quant_bits)
    flat = sum(m.num_vertices * 24 + m.num_faces * 12 for m in meshes)
    print(f"compressed {len(meshes)} meshes: {flat} flat bytes -> "
          f"{summary['total_bytes']} ({flat / max(summary['total_bytes'], 1):.2f}x)")
    return 0


def _cmd_store(args) -> int:
    status = 0
    for path in args.dataset:
        try:
            summary = migrate_dataset(path)
        except (StorageError, OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            status = 2
            continue
        if not summary["migrated"]:
            print(f"{path}: already a shard store, nothing to do")
        else:
            print(f"{path}: migrated to shard "
                  f"({len(summary['files'])} files, "
                  f"{summary['total_bytes']} bytes)")
    return status


def _cmd_inspect(args) -> int:
    dataset = _load_dataset_cli(args.dataset, args.salvage)
    print(f"dataset {dataset.name!r}: {len(dataset)} objects "
          f"[{dataset.storage} storage]")
    report = dataset.load_report
    if report is not None and not report.ok:
        print(f"  load report: {report.summary()}")
    total_faces = dataset.total_faces()
    print(f"  faces at top LOD: {total_faces}")
    for obj_id, obj in enumerate(dataset.objects[:8]):
        blob = serialize_object(obj)
        sizes = serialized_segment_sizes(blob)
        faces = [obj.face_count_at_lod(lod) for lod in obj.lods]
        print(f"  object {obj_id}: lods={list(obj.lods)} faces={faces} "
              f"bytes={sizes['total']}")
    if len(dataset) > 8:
        print(f"  ... and {len(dataset) - 8} more")
    return 0


def _cmd_decode(args) -> int:
    from repro.io.off import write_off
    from repro.io.stl import write_stl

    dataset = _load_dataset_cli(args.dataset, args.salvage)
    if not 0 <= args.object < len(dataset):
        raise SystemExit(f"object must be in [0, {len(dataset) - 1}]")
    obj = dataset.objects[args.object]
    lod = obj.max_lod if args.lod is None else args.lod
    mesh = obj.decode(lod).compacted()
    suffix = args.output.suffix.lower()
    if suffix == ".off":
        write_off(args.output, mesh)
    elif suffix == ".stl":
        write_stl(args.output, mesh)
    else:
        raise SystemExit(f"unsupported output format: {args.output}")
    print(f"object {args.object} @ LOD {lod}: {mesh.num_faces} faces -> {args.output}")
    return 0


def _make_engine(args) -> tuple[ThreeDPro, str, str]:
    engine = ThreeDPro(EngineConfig(paradigm=getattr(args, "paradigm", "fpr"),
                                    query_workers=getattr(args, "query_workers", None),
                                    deadline_ms=getattr(args, "deadline_ms", None)))
    salvage = getattr(args, "salvage", False)
    target = _load_dataset_cli(args.target, salvage)
    source = _load_dataset_cli(args.source, salvage)
    engine.load_dataset(target)
    engine.load_dataset(source)
    return engine, target.name, source.name


def _build_spec(args, target: str, source: str) -> QuerySpec:
    """Translate CLI arguments into one declarative QuerySpec."""
    if args.query == "within" and args.distance is None:
        raise SystemExit("--distance is required for within queries")
    if args.query == "intersection":
        return QuerySpec(kind="intersection", source=source, target=target)
    if args.query == "within":
        return QuerySpec(
            kind="within", source=source, target=target, distance=args.distance
        )
    if args.query == "nn":
        return QuerySpec(kind="nn", source=source, target=target)
    return QuerySpec(kind="knn", source=source, target=target, k=args.k)


def _print_result(result, limit: int) -> None:
    """The shared result rendering for local and remote queries."""
    print(result.stats.summary())
    comp = result.completeness
    if not comp.complete:
        print(
            f"  partial ({comp.reason}): {comp.targets_finished}/"
            f"{comp.targets_total} targets finished, "
            f"{comp.targets_inflight} in flight, "
            f"{comp.targets_unstarted} unstarted; every pair below is "
            f"confirmed (max LOD reached: {comp.max_lod_reached})"
        )
    if result.degraded_targets:
        print(
            f"  degraded: {len(result.degraded_targets)} target answers are "
            f"correct subsets (see stats.degraded_objects)"
        )
    shown = 0
    for tid in sorted(result.pairs):
        if shown >= limit:
            print(f"... and {len(result.pairs) - shown} more targets")
            break
        print(f"  target {tid}: {result.pairs[tid]}")
        shown += 1


def _cmd_query_remote(args) -> int:
    from dataclasses import replace

    from repro.serve.client import RemoteEngine, RemoteError
    from repro.serve.stream import assemble_frames

    # With --remote the positional arguments are dataset *names* already
    # loaded on the server, not local directories.
    spec = _build_spec(args, str(args.target), str(args.source))
    if args.deadline_ms is not None:
        spec = replace(spec, deadline_ms=args.deadline_ms)
    remote = RemoteEngine(args.remote)
    try:
        if args.stream:
            frames = []
            for frame in remote.stream(spec):
                frames.append(frame)
                if frame.get("frame") == "pairs":
                    print(
                        f"  target {frame['target']} @ LOD {frame['lod']}: "
                        f"+{len(frame['matches'])} confirmed"
                    )
            result = assemble_frames(frames)
        else:
            result = remote.execute(spec)
    except (RemoteError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_result(result, args.limit)
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.app import make_server, serve_forever

    engine = ThreeDPro(EngineConfig(
        paradigm=args.paradigm,
        query_workers=args.query_workers,
        deadline_ms=args.deadline_ms,
    ))
    for path in args.datasets:
        dataset = _load_dataset_cli(path, args.salvage)
        engine.load_dataset(dataset)
        print(f"loaded {dataset.name!r}: {len(dataset)} objects")
    server = make_server(
        engine, host=args.host, port=args.port,
        max_inflight=args.max_inflight, max_queue=args.max_queue,
    )
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} "
          f"(datasets: {', '.join(engine.dataset_names)})", flush=True)
    serve_forever(server)
    return 0


def _cmd_query(args) -> int:
    if args.remote is not None:
        return _cmd_query_remote(args)
    if args.stream:
        raise SystemExit("--stream requires --remote (local queries buffer)")
    engine, target, source = _make_engine(args)
    result = engine.execute(_build_spec(args, target, source))
    _print_result(result, args.limit)
    return 0


def _cmd_profile(args) -> int:
    engine = ThreeDPro(EngineConfig(paradigm="fpr"))
    target = _load_dataset_cli(args.target, args.salvage)
    source = _load_dataset_cli(args.source, args.salvage)
    engine.load_dataset(target)
    engine.load_dataset(source)
    profile = profile_pruning(
        engine, target.name, source.name, args.query,
        sample_size=args.sample, distance=args.distance,
    )
    print(f"query={args.query} r={profile.face_growth:.2f}")
    for lod in profile.lods:
        print(f"  LOD {lod}: evaluated={profile.evaluated.get(lod, 0)} "
              f"pruned={profile.pruned.get(lod, 0)} "
              f"fraction={profile.pruned_fraction(lod):.2f} "
              f"break-even={profile.break_even_at(lod):.2f}")
    print(f"chosen lod_list: {choose_lod_list(profile)}")
    return 0


def _cmd_obs(args) -> int:
    """Run one traced join and dump its telemetry artifacts."""
    import json
    import logging

    from repro.obs.logs import configure_json_logging
    from repro.obs.metrics import REGISTRY as metrics
    from repro.obs.trace import phase_totals, self_time_table

    handler = None
    if args.log_json:
        handler = configure_json_logging(sys.stderr, level=logging.INFO)
    profiling = args.profile or args.profile_collapsed is not None
    try:
        # One query per CLI process: the process-wide registry is the
        # export, so module-level publishers (salvage loading, fault
        # injection) land in the same dump as the engine's series.
        engine = ThreeDPro(
            EngineConfig(
                paradigm=args.paradigm,
                tracing=True,
                metrics=metrics,
                query_workers=args.query_workers,
                deadline_ms=args.deadline_ms,
                profiling=profiling,
                profile_interval_ms=args.profile_interval_ms,
            )
        )
        target = _load_dataset_cli(args.target, args.salvage)
        source = _load_dataset_cli(args.source, args.salvage)
        engine.load_dataset(target)
        engine.load_dataset(source)
        result = engine.execute(_build_spec(args, target.name, source.name))

        print(result.stats.summary())
        if not result.completeness.complete:
            comp = result.completeness
            print(
                f"partial ({comp.reason}): {comp.targets_finished}/"
                f"{comp.targets_total} targets finished"
            )
        print(f"funnel: {result.funnel.summary()}")
        headroom = result.completeness.deadline_headroom_ratio
        if headroom is not None:
            print(f"deadline headroom: {headroom:.1%} of budget left")
        totals = phase_totals(engine.tracer)
        print(
            "trace totals: "
            + " ".join(f"{name}={seconds:.3f}s" for name, seconds in totals.items())
        )
        spans = sum(1 for _ in engine.tracer.walk())
        print(f"trace: {spans} spans under {len(engine.tracer.roots)} root(s)")
        if args.top > 0:
            print(f"top {args.top} spans by self time:")
            for row in self_time_table(engine.tracer.roots, args.top):
                print(
                    f"  {row['self_seconds']:>8.4f}s self  "
                    f"{row['total_seconds']:>8.4f}s total  "
                    f"{row['count']:>5}x  {row['name']}"
                )
        if profiling:
            profile = engine.take_profile()
            print(f"profile: {profile.total_samples} samples "
                  f"@ {engine.config.profile_interval_ms}ms")
            print(profile.format_table(args.top or 10))
            if args.profile_collapsed is not None:
                args.profile_collapsed.write_text(profile.to_collapsed())
                print(f"collapsed stacks -> {args.profile_collapsed} "
                      f"(feed to flamegraph.pl or speedscope.app)")
        if args.trace_json is not None:
            args.trace_json.write_text(engine.tracer.to_json())
            print(f"span tree -> {args.trace_json}")
        if args.chrome_trace is not None:
            args.chrome_trace.write_text(
                json.dumps(engine.tracer.to_chrome_trace(), indent=2)
            )
            print(f"chrome trace -> {args.chrome_trace} (load in chrome://tracing)")
        if args.metrics_prom is not None:
            if args.metrics_format == "openmetrics":
                args.metrics_prom.write_text(metrics.to_openmetrics())
            else:
                args.metrics_prom.write_text(metrics.to_prometheus())
            print(f"{args.metrics_format} metrics -> {args.metrics_prom}")
        if args.metrics_json is not None:
            args.metrics_json.write_text(json.dumps(metrics.to_dict(), indent=2))
            print(f"metrics json -> {args.metrics_json}")
        return 0
    finally:
        if handler is not None:
            logging.getLogger("repro").removeHandler(handler)


_COMMANDS = {
    "generate": _cmd_generate,
    "compress": _cmd_compress,
    "store": _cmd_store,
    "inspect": _cmd_inspect,
    "decode": _cmd_decode,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "profile": _cmd_profile,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
