#!/usr/bin/env python
"""End-to-end observability check (CI gate).

Runs a small traced join and validates the exported telemetry against
the checked-in golden set:

1. the trace's filter/decode/compute totals match ``QueryStats`` within
   rounding;
2. every metric series in ``tests/golden/metrics_series.txt`` appears in
   the Prometheus dump;
3. the Chrome trace export matches ``tests/golden/chrome_trace_schema.json``
   (event keys, types, ``"X"`` phase, required span names) and survives a
   JSON round-trip;
4. with tracing disabled the engine hands out only the shared no-op span
   and a join is not substantially slower than the traced run (overhead
   smoke check — generous bound, this is not a benchmark);
5. a fault-injected join keeps the pairs ledger (``pairs_*_by_lod``,
   read-only views of the funnel) consistent: per LOD, pairs pruned
   never exceed pairs evaluated, and every confirmed result was
   evaluated somewhere — including MBB-fallback confirmations;
6. a deadline-bounded join reports a ``completeness`` record whose
   arithmetic adds up, whose pairs are a sound subset of the undeadlined
   answer, and whose partiality agrees with the root span attributes and
   the ``repro_deadline_exceeded_total`` counter;
7. the refinement funnel reconciles with the query stats on every query
   kind — stages are monotonic (settled never exceeds evaluated, the
   confirmed/rejected/degraded split sums to settled), candidates match,
   and the funnel's total confirmations equal ``stats.results`` —
   including on a fault-injected run and under the active query backend.
   The kinds run over a second nuclei set of the same scene, so every
   kind refines pairs (``evaluated > 0``) and within, NN and kNN
   evaluate at two or more LODs: a funnel that settles everything at
   the filter reconciles trivially. Two queries run at once on two threads of one serial engine
   (cache off) each report exactly their own cache traffic: each
   result's ``cache_hits`` / ``cache_misses`` equal its funnel's.

The numbers are the order ``main()`` runs the checks in.

The join respects ``REPRO_QUERY_WORKERS``, so CI also runs this gate
with four worker processes.

Usage: ``PYTHONPATH=src python scripts/check_observability.py``
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
#: The faulted within joins keep the 420-face vessel whole. Partitioned
#: (the default at 400 faces), its sub-object boxes confirm all 24
#: targets at the filter, so nothing would decode, fail or degrade.
UNPARTITIONED = math.inf

from repro.compression import PPVPEncoder  # noqa: E402
from repro.core import EngineConfig, ThreeDPro  # noqa: E402
from repro.datagen import make_tissue_scene  # noqa: E402
from repro.datagen.vessels import VesselSpec  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.trace import NOOP_SPAN, phase_totals  # noqa: E402
from repro.storage import Dataset  # noqa: E402

_FAILURES: list[str] = []

_TYPE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "dict": lambda v: isinstance(v, dict),
}


def check(ok: bool, what: str) -> None:
    print(f"  {'ok' if ok else 'FAIL'}: {what}")
    if not ok:
        _FAILURES.append(what)


ENCODER = PPVPEncoder(max_lods=6, rounds_per_lod=2)


def build_scene():
    return make_tissue_scene(
        n_nuclei=24,
        n_vessels=1,
        seed=11,
        region=80.0,
        nucleus_subdivisions=1,
        vessel_spec=VesselSpec(bifurcations=2, points_per_branch=4, segments=6),
    )


def build_datasets(scene) -> dict[str, Dataset]:
    return {
        "nuclei_a": Dataset.from_polyhedra("nuclei_a", scene.nuclei_a, ENCODER),
        "vessels": Dataset.from_polyhedra("vessels", scene.vessels, ENCODER),
    }


def run_join(datasets, tracing: bool):
    engine = ThreeDPro(EngineConfig(tracing=tracing, metrics=MetricsRegistry()))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    start = time.perf_counter()
    result = engine.nn_join("nuclei_a", "vessels")
    elapsed = time.perf_counter() - start
    return engine, result, elapsed


def check_prometheus(engine) -> None:
    text = engine.metrics.to_prometheus()
    present = {
        line.split("{")[0].split(" ")[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    wanted = [
        line.strip()
        for line in (GOLDEN / "metrics_series.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    for name in wanted:
        # histograms expose name_bucket/_sum/_count series
        hit = name in present or f"{name}_count" in present
        check(hit, f"series {name} present")


def check_chrome_trace(engine) -> None:
    schema = json.loads((GOLDEN / "chrome_trace_schema.json").read_text())
    doc = json.loads(json.dumps(engine.tracer.to_chrome_trace()))
    for key in schema["required_top_level"]:
        check(key in doc, f"top-level key {key}")
    check(doc.get("displayTimeUnit") == schema["display_time_unit"], "displayTimeUnit")
    events = doc.get("traceEvents", [])
    check(bool(events), "traceEvents non-empty")
    event_schema = schema["event"]
    bad = 0
    for event in events:
        for key in event_schema["required_keys"]:
            if key not in event or not _TYPE_CHECKS[event_schema["types"][key]](event[key]):
                bad += 1
        if event.get("ph") != event_schema["ph"] or event.get("cat") != event_schema["cat"]:
            bad += 1
        if event.get("ts", -1) < 0 or event.get("dur", -1) < 0:
            bad += 1
    check(bad == 0, f"all {len(events)} events match the event schema")
    names = {event["name"] for event in events}
    for name in schema["required_span_names"]:
        check(name in names, f"span name {name!r} present")


def check_phase_agreement(engine, stats) -> None:
    totals = phase_totals(engine.tracer)
    for phase, value in (
        ("filter", stats.filter_seconds),
        ("decode", stats.decode_seconds),
        ("compute", stats.compute_seconds),
    ):
        check(
            abs(totals[phase] - value) < 1e-6,
            f"{phase}: trace {totals[phase]:.6f}s == stats {value:.6f}s",
        )
    root = engine.tracer.roots[0]
    check(
        abs(root.wall_seconds - stats.total_seconds) < 1e-6,
        "root span wall == stats.total_seconds",
    )


def check_disabled_overhead(datasets, traced_seconds: float) -> None:
    engine, result, elapsed = run_join(datasets, tracing=False)
    check(engine.tracer.span("anything") is NOOP_SPAN, "disabled tracer hands out NOOP_SPAN")
    check(engine.tracer.roots == [], "disabled tracer collected no spans")
    check(result.stats.total_seconds > 0.0, "stats still populated when disabled")
    # Generous bound: the untraced run must not be grossly slower than the
    # traced one (catches accidental always-on instrumentation).
    bound = max(2.0 * traced_seconds, traced_seconds + 0.5)
    check(
        elapsed <= bound,
        f"untraced join {elapsed:.3f}s within bound {bound:.3f}s "
        f"(traced {traced_seconds:.3f}s)",
    )


def check_pairs_ledger(datasets) -> None:
    from repro.faults import FaultInjector

    engine = ThreeDPro(
        EngineConfig(
            metrics=MetricsRegistry(),
            fault_injector=FaultInjector(seed=11, decode_error_rate=0.9),
            partition_min_faces=UNPARTITIONED,
        )
    )
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    # Distance 40 (seed 11, rate 0.9): the filter passes 21 candidates,
    # every target decode fails, and the MBB fallback still confirms a
    # few pairs — the exact mix the ledger used to drop.
    stats = engine.within_join("nuclei_a", "vessels", 40.0).stats
    check(stats.degraded_objects > 0, "faulted join actually degraded")
    evaluated = stats.pairs_evaluated_by_lod
    for lod, pruned in sorted(stats.pairs_pruned_by_lod.items()):
        check(
            pruned <= evaluated.get(lod, 0),
            f"LOD {lod}: pruned {pruned} <= evaluated {evaluated.get(lod, 0)}",
        )
    # Every confirmed pair settled somewhere on the ledger — the MBB
    # fallback confirmations included (they used to bypass it entirely).
    check(
        stats.results <= sum(stats.pairs_pruned_by_lod.values()),
        f"results {stats.results} <= settled pairs "
        f"{sum(stats.pairs_pruned_by_lod.values())}",
    )


def check_partial_completeness(datasets, reference) -> None:
    registry = MetricsRegistry()
    engine = ThreeDPro(
        EngineConfig(tracing=True, metrics=registry, deadline_ms=1)
    )
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    result = engine.nn_join("nuclei_a", "vessels")
    comp = result.completeness
    check(comp is not None, "partial run carries a completeness record")
    check(
        comp.targets_total
        == comp.targets_finished + comp.targets_inflight + comp.targets_unstarted,
        f"completeness arithmetic: {comp.targets_total} == "
        f"{comp.targets_finished} + {comp.targets_inflight} + {comp.targets_unstarted}",
    )
    check(result.complete == comp.complete, "result.complete mirrors completeness")
    subset = set(result.pairs) <= set(reference.pairs) and all(
        result.pairs[tid] == reference.pairs[tid] for tid in result.pairs
    )
    check(
        subset,
        f"{len(result.pairs)} confirmed pairs are a sound subset of the "
        f"undeadlined {len(reference.pairs)}",
    )
    # The partiality counter, the root span's attributes, and the result
    # must tell the same story — one increment per partial query, zero
    # when a 1ms budget somehow suffices.
    exceeded = sum(
        float(line.rsplit(" ", 1)[1])
        for line in registry.to_prometheus().splitlines()
        if line.startswith("repro_deadline_exceeded_total")
    )
    expected = 0.0 if result.complete else 1.0
    check(
        exceeded == expected,
        f"repro_deadline_exceeded_total == {expected:g} (got {exceeded:g})",
    )
    root = engine.tracer.roots[0]
    check(
        bool(root.attrs.get("partial")) == (not result.complete),
        "root span partial attribute agrees with the result",
    )
    if not result.complete:
        check(
            root.attrs.get("targets_finished") == comp.targets_finished
            and root.attrs.get("targets_unstarted") == comp.targets_unstarted,
            "root span target counts match the completeness record",
        )


def check_funnel(datasets, scene) -> None:
    from repro.core.plan import QuerySpec
    from repro.faults import FaultInjector

    engine = ThreeDPro(EngineConfig(metrics=MetricsRegistry()))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    engine.load_dataset(Dataset.from_polyhedra("nuclei_b", scene.nuclei_b, ENCODER))
    centroid = tuple(float(c) for c in scene.nuclei_a[1].vertices.mean(axis=0))
    # (spec, least number of LODs that must evaluate pairs)
    specs = [
        (QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a"), 1),
        (QuerySpec(kind="within", source="nuclei_b", target="nuclei_a", distance=5.0), 2),
        (QuerySpec(kind="nn", source="nuclei_b", target="nuclei_a"), 2),
        (QuerySpec(kind="knn", source="nuclei_b", target="nuclei_a", k=2), 2),
        (QuerySpec(kind="containment", source="nuclei_a", point=centroid), 1),
    ]
    for spec, min_lods in specs:
        result = engine.execute(spec)
        funnel = result.funnel
        violations = funnel.violations(result.stats, strict=True)
        check(
            not violations,
            f"{spec.kind}: funnel reconciles "
            f"({funnel.summary()})"
            + ("" if not violations else f" -- {violations}"),
        )
        evaluated = {
            lod: stage.evaluated
            for lod, stage in sorted(funnel.stages.items())
            if stage.evaluated
        }
        check(
            len(evaluated) >= min_lods,
            f"{spec.kind}: pairs evaluated at >= {min_lods} LOD(s) {evaluated}",
        )
    # The reconciliation must hold when decodes fail and refinement
    # degrades to MBB fallbacks — the historical ledger-drop scenario.
    faulted = ThreeDPro(
        EngineConfig(
            metrics=MetricsRegistry(),
            fault_injector=FaultInjector(seed=11, decode_error_rate=0.9),
            partition_min_faces=UNPARTITIONED,
        )
    )
    for dataset in datasets.values():
        faulted.load_dataset(dataset)
    result = faulted.within_join("nuclei_a", "vessels", 40.0)
    check(result.stats.degraded_objects > 0, "faulted join actually degraded")
    violations = result.funnel.violations(result.stats, strict=True)
    check(
        not violations,
        "faulted within: funnel reconciles"
        + ("" if not violations else f" -- {violations}"),
    )
    degraded = sum(s.degraded for s in result.funnel.stages.values())
    check(degraded > 0, f"faulted join books degraded settlements ({degraded})")
    check_concurrent_accounts(datasets)


def check_concurrent_accounts(datasets) -> None:
    """Two queries sharing one serial engine keep separate accounts."""
    import threading

    from repro.core.plan import QuerySpec

    engine = ThreeDPro(
        EngineConfig(metrics=MetricsRegistry(), query_workers=1, cache_bytes=0)
    )
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    # Both decode, so each would see the other's misses if its account
    # were read off engine-wide counters.
    specs = [
        QuerySpec(kind="nn", source="nuclei_a", target="vessels"),
        QuerySpec(kind="within", source="vessels", target="nuclei_a", distance=40.0),
    ]
    results = {}
    start = threading.Barrier(len(specs), timeout=60)

    def run(spec) -> None:
        start.wait()
        results[spec.kind] = engine.execute(spec)

    threads = [threading.Thread(target=run, args=(spec,)) for spec in specs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    check(
        not any(thread.is_alive() for thread in threads),
        "concurrent queries finished",
    )
    for spec in specs:
        result = results.get(spec.kind)
        if result is None:
            check(False, f"concurrent {spec.kind}: query raised")
            continue
        stats, stages = result.stats, result.funnel.stages.values()
        own = (
            sum(stage.cache_hits for stage in stages),
            sum(stage.cache_misses for stage in stages),
        )
        check(
            (stats.cache_hits, stats.cache_misses) == own,
            f"concurrent {spec.kind}: cache hits/misses "
            f"{(stats.cache_hits, stats.cache_misses)} == its funnel's {own}",
        )
        violations = result.funnel.violations(stats, strict=True)
        check(
            not violations,
            f"concurrent {spec.kind}: funnel reconciles"
            + ("" if not violations else f" -- {violations}"),
        )


def main() -> int:
    print("building datasets...")
    scene = build_scene()
    datasets = build_datasets(scene)
    engine, result, traced_seconds = run_join(datasets, tracing=True)
    checks = [
        ("trace phase totals vs QueryStats",
         lambda: check_phase_agreement(engine, result.stats)),
        ("Prometheus export vs golden series list", lambda: check_prometheus(engine)),
        ("Chrome trace vs golden schema", lambda: check_chrome_trace(engine)),
        ("disabled-tracing fast path",
         lambda: check_disabled_overhead(datasets, traced_seconds)),
        ("degraded-run pairs ledger", lambda: check_pairs_ledger(datasets)),
        ("deadline-bounded partial result consistency",
         lambda: check_partial_completeness(datasets, result)),
        ("refinement funnel vs query stats, concurrent accounts",
         lambda: check_funnel(datasets, scene)),
    ]
    for number, (title, run) in enumerate(checks, start=1):
        print(f"[{number}/{len(checks)}] {title}")
        run()
    if _FAILURES:
        print(f"\n{len(_FAILURES)} check(s) FAILED:")
        for failure in _FAILURES:
            print(f"  - {failure}")
        return 1
    print("\nall observability checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
