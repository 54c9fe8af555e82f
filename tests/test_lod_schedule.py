"""The learned LOD schedule: its query order, what it leaves alone, what
it records, and that no join's pairs depend on it.

Costs are driven through ``LearnedSchedule.cost`` (the cost hook), so
which schedule a query runs never depends on this machine's timings.
"""

import itertools
import logging
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.compression import PPVPEncoder
from repro.core import Deadline, EngineConfig, QuerySpec, ThreeDPro
from repro.core.schedule import REPROBE_EVERY, WINDOW, LearnedSchedule, full_ladder
from repro.datagen import make_tissue_scene
from repro.datagen.vessels import VesselSpec
from repro.faults import FaultInjector
from repro.mesh.primitives import icosphere
from repro.storage import Dataset

WITHIN = QuerySpec(kind="within", source="nuclei_b", target="nuclei_a", distance=1.0)
INTERSECTION = QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a")
KEY = ("within", "nuclei_b", "nuclei_a")


def _engine(datasets, **config):
    # Serial unless a test asks otherwise, whatever REPRO_QUERY_WORKERS says.
    config.setdefault("query_workers", 1)
    config.setdefault("tracing", True)
    engine = ThreeDPro(EngineConfig(**config))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


def _fixed_costs(ladder, top):
    """A cost hook charging each schedule a constant."""
    return lambda result, lods: top if len(lods) == 1 else ladder


def _knn_costs(ladder, alternative):
    """A cost hook charging kNN's ladder and its ``(0, top)`` a constant."""
    return lambda result, lods: alternative if lods == (0, lods[-1]) else ladder


def _profile(schedule):
    """``key -> {"queries", "ladder", "top"}`` (cost lists) of a schedule;
    ``"top"`` is the window of the kind's alternative schedule."""
    return {
        key: {"queries": e.queries, "ladder": list(e.ladder), "top": list(e.alternative)}
        for key, e in schedule._keys.items()
    }


def _root(engine):
    return engine.tracer.roots[-1]


def _run(engine, spec, times):
    """``[(schedule, lods), ...]`` of ``times`` queries, from their root spans."""
    seen = []
    for _ in range(times):
        engine.execute(spec)
        attrs = _root(engine).attrs
        seen.append((attrs["schedule"], tuple(attrs["lods"])))
    return seen


def _result(complete=True, degraded=0):
    return SimpleNamespace(
        complete=complete, stats=SimpleNamespace(degraded_objects=degraded)
    )


class TestOrder:
    @pytest.mark.parametrize("top_cheaper", [True, False])
    def test_ladder_probe_learned_reprobe(self, top_cheaper):
        schedule = LearnedSchedule(
            cost=_fixed_costs(ladder=2.0, top=1.0) if top_cheaper
            else _fixed_costs(ladder=1.0, top=2.0)
        )
        ladder, top = (0, 1, 2, 3), (3,)
        best, other = (top, ladder) if top_cheaper else (ladder, top)
        labels = []
        for _ in range(2 * REPROBE_EVERY):
            lods, label = schedule.choose(KEY, (0, 1, 2, 3))
            schedule.record(KEY, lods, _result())
            labels.append((label, lods))
        assert labels[0] == ("ladder", ladder)
        assert labels[1] == ("probe", top)
        for n, entry in enumerate(labels[2:], start=3):
            if n % REPROBE_EVERY == 0:
                assert entry == ("probe", other), n
            else:
                assert entry == ("learned", best), n

    def test_engine_reports_the_order(self, datasets):
        engine = _engine(datasets)
        engine.lod_schedule.cost = _fixed_costs(ladder=2.0, top=1.0)
        ladder = full_ladder(datasets["nuclei_a"], datasets["nuclei_b"])
        top = (ladder[-1],)
        seen = _run(engine, WITHIN, REPROBE_EVERY)
        assert seen[0] == ("ladder", ladder)
        assert seen[1] == ("probe", top)
        assert seen[2:-1] == [("learned", top)] * (REPROBE_EVERY - 3)
        assert seen[-1] == ("probe", ladder)

    def test_keys_learn_apart(self, datasets):
        engine = _engine(datasets)
        engine.lod_schedule.cost = _fixed_costs(ladder=2.0, top=1.0)
        _run(engine, WITHIN, 3)
        assert _run(engine, INTERSECTION, 1)[0][0] == "ladder"
        other_source = replace(WITHIN, source="vessels")
        assert _run(engine, other_source, 1)[0][0] == "ladder"

    def test_stale_choice_corrects_itself(self):
        costs = {"ladder": 1.0, "top": 2.0}
        schedule = LearnedSchedule(
            cost=lambda result, lods: costs["top" if len(lods) == 1 else "ladder"]
        )
        for _ in range(3):
            lods, _label = schedule.choose(KEY, (0, 1, 2, 3))
            schedule.record(KEY, lods, _result())
        assert lods == (0, 1, 2, 3)
        costs["ladder"] = 10.0  # the ladder became expensive
        chosen = []
        for _ in range(2 * REPROBE_EVERY * WINDOW):
            lods, _label = schedule.choose(KEY, (0, 1, 2, 3))
            schedule.record(KEY, lods, _result())
            chosen.append(lods)
        assert chosen[-1] == (3,)

    def test_single_lod_objects_never_learn(self):
        schedule = LearnedSchedule(cost=_fixed_costs(1.0, 2.0))
        for _ in range(3):
            assert schedule.choose(KEY, (0,)) == ((0,), "ladder")
        assert _profile(schedule) == {}

    def test_replacing_a_dataset_forgets_its_keys(self, datasets):
        engine = _engine(datasets)
        engine.lod_schedule.cost = _fixed_costs(ladder=2.0, top=1.0)
        _run(engine, WITHIN, 2)
        engine.load_dataset(datasets["nuclei_b"])
        assert KEY not in _profile(engine.lod_schedule)
        assert _run(engine, WITHIN, 1)[0][0] == "ladder"


class TestPinnedAndUnlearned:
    def test_explicit_lod_list_wins(self, datasets):
        engine = _engine(datasets, lod_list=(0, 2))
        top = full_ladder(datasets["nuclei_a"], datasets["nuclei_b"])[-1]
        assert _run(engine, WITHIN, 3) == [("pinned", (0, 2, top))] * 3
        assert _profile(engine.lod_schedule) == {}

    def test_fr_is_untouched(self, datasets):
        engine = _engine(datasets, paradigm="fr")
        top = full_ladder(datasets["nuclei_a"], datasets["nuclei_b"])[-1]
        assert _run(engine, INTERSECTION, 3) == [("pinned", (top,))] * 3
        assert _profile(engine.lod_schedule) == {}

    @pytest.mark.parametrize(
        "spec",
        [
            QuerySpec(kind="nn", source="vessels", target="nuclei_a"),
            QuerySpec(kind="knn", source="vessels", target="nuclei_a", k=2),
        ],
        ids=["nn", "knn"],
    )
    def test_nn_and_knn_keep_the_ladder(self, datasets, spec):
        # NN keeps the ladder; kNN with k >= 2 learns between the ladder
        # and LOD 0 then the top LOD, under a key that carries k.
        engine = _engine(datasets)
        engine.lod_schedule.cost = _knn_costs(ladder=2.0, alternative=1.0)
        ladder = full_ladder(datasets["nuclei_a"], datasets["vessels"])
        seen = _run(engine, spec, 3)
        if spec.kind == "nn":
            assert seen == [("ladder", ladder)] * 3
            assert _profile(engine.lod_schedule) == {}
            return
        other = (0, ladder[-1])
        assert seen == [("ladder", ladder), ("probe", other), ("learned", other)]
        key = ("knn", "vessels", "nuclei_a", 2)
        assert list(_profile(engine.lod_schedule)) == [key]

    def test_nn_keeps_the_ladder_after_knn_learned(self, datasets):
        # NN normalizes to kNN with k = 1: it must not share kNN k = 3's
        # key, or it would run kNN's learned schedule.
        engine = _engine(datasets)
        engine.lod_schedule.cost = _knn_costs(ladder=2.0, alternative=1.0)
        ladder = full_ladder(datasets["nuclei_a"], datasets["nuclei_b"])
        knn = QuerySpec(kind="knn", source="nuclei_b", target="nuclei_a", k=3,
                        target_ids=(0, 1, 2))
        nn = replace(knn, kind="nn", k=None)
        seen = _run(engine, knn, 5)
        assert [label for label, _lods in seen] == ["ladder", "probe"] + ["learned"] * 3
        assert {lods for _label, lods in seen[1:]} == {(0, ladder[-1])}
        assert _run(engine, nn, 2) == [("ladder", ladder)] * 2
        assert list(_profile(engine.lod_schedule)) == [("knn", "nuclei_b", "nuclei_a", 3)]

    def test_containment_keeps_its_ladder(self, datasets, small_scene):
        engine = _engine(datasets)
        engine.lod_schedule.cost = _fixed_costs(ladder=2.0, top=1.0)
        point = tuple(float(v) for v in small_scene.nuclei_a[1].vertices.mean(axis=0))
        spec = QuerySpec(kind="containment", source="nuclei_a", point=point)
        for _ in range(3):
            result = engine.execute(spec)
            assert _root(engine).attrs["schedule"] == "ladder"
            assert 0 in result.stats.pairs_evaluated_by_lod
        assert _profile(engine.lod_schedule) == {}

    def test_event_log_line_names_the_schedule(self, datasets, caplog):
        engine = _engine(datasets)
        with caplog.at_level(logging.INFO, logger="repro.executor"):
            engine.execute(WITHIN)
            engine.execute(WITHIN)
        events = [
            r.event_fields for r in caplog.records if r.getMessage() == "query"
        ]
        top = full_ladder(datasets["nuclei_a"], datasets["nuclei_b"])[-1]
        assert [(e["schedule"], e["lods"]) for e in events] == [
            ("ladder", tuple(range(top + 1))), ("probe", (top,)),
        ]


class TestWhatIsRecorded:
    def test_partial_and_degraded_results_are_ignored(self):
        schedule = LearnedSchedule(cost=_fixed_costs(1.0, 2.0))
        lods, _label = schedule.choose(KEY, (0, 1, 2, 3))
        for result in (_result(complete=False), _result(degraded=2)):
            schedule.record(KEY, lods, result)
        assert _profile(schedule)[KEY]["ladder"] == []
        schedule.record(KEY, lods, _result())
        assert _profile(schedule)[KEY]["ladder"] == [1.0]

    def test_cancelled_query_is_not_recorded(self, datasets):
        from repro.core import CancellationToken

        engine = _engine(datasets)
        token = CancellationToken()
        token.cancel()
        result = engine.execute(replace(WITHIN, cancellation=token))
        assert result.completeness.reason == "cancelled"
        assert _profile(engine.lod_schedule)[KEY]["ladder"] == []
        # The probe is measured; the unmeasured ladder costs infinity
        # and is tried again on the re-probe.
        ladder = full_ladder(datasets["nuclei_a"], datasets["nuclei_b"])
        seen = _run(engine, WITHIN, REPROBE_EVERY - 1)
        assert seen[0] == ("probe", (ladder[-1],))
        assert seen[1:-1] == [("learned", (ladder[-1],))] * (REPROBE_EVERY - 3)
        assert seen[-1] == ("probe", ladder)

    def test_deadline_partial_is_not_recorded(self, datasets, monkeypatch):
        engine = _engine(datasets)
        ticks = itertools.count()
        # Every clock read advances one second: the query expires at its
        # fourth checkpoint, deterministically.
        monkeypatch.setattr(
            engine.executor, "_deadline_for",
            lambda spec: Deadline(3.0, clock=lambda: float(next(ticks))),
        )
        result = engine.execute(WITHIN)
        assert result.completeness.reason == "deadline"
        assert _profile(engine.lod_schedule)[KEY]["ladder"] == []

    def test_degraded_query_is_not_recorded(self, datasets):
        engine = _engine(
            datasets, fault_injector=FaultInjector(seed=3, decode_error_rate=0.9)
        )
        result = engine.execute(INTERSECTION)
        assert result.complete and result.stats.degraded_objects > 0
        key = ("intersection", "nuclei_b", "nuclei_a")
        assert _profile(engine.lod_schedule)[key]["ladder"] == []

    def test_an_unrecorded_probe_returns_to_the_ladder(self):
        # The top LOD alone never completes (it always misses its
        # deadline): it costs infinity, so only the re-probe runs it.
        schedule = LearnedSchedule(cost=_fixed_costs(ladder=2.0, top=1.0))
        chosen = []
        for _ in range(2 * REPROBE_EVERY):
            lods, label = schedule.choose(KEY, (0, 1, 2, 3))
            schedule.record(KEY, lods, _result(complete=len(lods) > 1))
            chosen.append((label, lods))
        assert chosen[:2] == [("ladder", (0, 1, 2, 3)), ("probe", (3,))]
        for n, entry in enumerate(chosen[2:], start=3):
            if n % REPROBE_EVERY == 0:
                assert entry == ("probe", (3,)), n
            else:
                assert entry == ("learned", (0, 1, 2, 3)), n

    def test_every_query_past_its_deadline_runs_the_ladder(self, datasets, monkeypatch):
        engine = _engine(datasets)
        engine.lod_schedule.cost = _fixed_costs(ladder=2.0, top=1.0)
        ticks = itertools.count()
        monkeypatch.setattr(
            engine.executor, "_deadline_for",
            lambda spec: Deadline(3.0, clock=lambda: float(next(ticks))),
        )
        ladder = full_ladder(datasets["nuclei_a"], datasets["nuclei_b"])
        seen = []
        for _ in range(5):
            result = engine.execute(WITHIN)
            assert result.completeness.reason == "deadline"
            seen.append(tuple(_root(engine).attrs["lods"]))
        assert seen == [ladder, (ladder[-1],), ladder, ladder, ladder]

    def test_every_query_degraded_runs_the_ladder(self, datasets):
        engine = _engine(
            datasets, fault_injector=FaultInjector(seed=3, decode_error_rate=0.3)
        )
        engine.lod_schedule.cost = _fixed_costs(ladder=2.0, top=1.0)
        ladder = full_ladder(datasets["nuclei_a"], datasets["nuclei_b"])
        seen = []
        for _ in range(5):
            result = engine.execute(WITHIN)
            assert result.complete and result.stats.degraded_objects > 0
            seen.append(tuple(_root(engine).attrs["lods"]))
        assert seen == [ladder, (ladder[-1],), ladder, ladder, ladder]
        assert _profile(engine.lod_schedule)[KEY]["top"] == []

    def test_probe_and_sample_queries_leave_no_key(self, datasets, small_scene):
        from repro.core import profile_pruning

        engine = _engine(datasets)
        engine.execute(
            QuerySpec(kind="within", source="nuclei_b", probe=small_scene.nuclei_a[0],
                      distance=1.0)
        )
        profile_pruning(engine, "nuclei_a", "nuclei_b", "within", sample_size=4,
                        distance=1.0)
        assert _profile(engine.lod_schedule) == {}

    def test_concurrent_queries_keep_the_profile_consistent(self, datasets):
        engine = _engine(datasets, tracing=False)
        calls = {}
        lock = threading.Lock()

        def cost(result, lods):
            schedule = "top" if len(lods) == 1 else "ladder"
            with lock:
                key = (result.spec.kind, schedule)
                calls[key] = calls.get(key, 0) + 1
            return 1.0 if schedule == "top" else 2.0

        engine.lod_schedule.cost = cost
        specs = [replace(s, target_ids=tuple(range(8))) for s in (WITHIN, INTERSECTION)]
        reference = {spec.kind: engine.execute(spec).pairs for spec in specs}
        threads, per_thread, errors = 6, 5, []

        def worker():
            try:
                for _ in range(per_thread):
                    for spec in specs:
                        result = engine.execute(spec)
                        assert result.pairs == reference[spec.kind]
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        profile = _profile(engine.lod_schedule)
        for spec in specs:
            entry = profile[(spec.kind, spec.source, spec.target)]
            # No lost update: every query was counted once, and every
            # observation landed in the window of the schedule it ran.
            assert entry["queries"] == 1 + threads * per_thread
            ladder = calls.get((spec.kind, "ladder"), 0)
            top = calls.get((spec.kind, "top"), 0)
            assert ladder + top == entry["queries"]
            assert len(entry["ladder"]) == min(WINDOW, ladder)
            assert len(entry["top"]) == min(WINDOW, top)


class TestProcessHandOff:
    def test_workers_follow_the_coordinator(self, datasets):
        engine = _engine(datasets, query_workers=2)
        engine.lod_schedule.cost = _fixed_costs(ladder=2.0, top=1.0)
        ladder = full_ladder(datasets["nuclei_a"], datasets["nuclei_b"])
        for expected in (ladder, (ladder[-1],), (ladder[-1],)):
            engine.tracer.clear()
            engine.execute(WITHIN)
            root = _root(engine)
            assert tuple(root.attrs["lods"]) == expected
            workers = [c for c in root.children if c.name == "worker"]
            assert workers and all(w.attrs.get("backend") == "process" for w in workers)
            lods = {
                span.attrs["lod"]
                for worker in workers
                for span in worker.walk()
                if span.name == "refine"
            }
            assert lods and lods <= set(expected)
            assert min(lods) == expected[0]
            # Workers run what they are sent and learn nothing.
            assert all(tuple(w.attrs["lods"]) == expected for w in workers)
            assert all(w.attrs["schedule"] == "pinned" for w in workers)

    def test_workers_follow_the_coordinators_knn_lods(self, datasets):
        engine = _engine(datasets, query_workers=2)
        engine.lod_schedule.cost = _knn_costs(ladder=2.0, alternative=1.0)
        spec = QuerySpec(kind="knn", source="nuclei_b", target="nuclei_a", k=3,
                         target_ids=tuple(range(0, 40, 4)))
        ladder = full_ladder(datasets["nuclei_a"], datasets["nuclei_b"])
        other = (0, ladder[-1])
        for expected in (ladder, other, other):
            engine.tracer.clear()
            engine.execute(spec)
            root = _root(engine)
            assert tuple(root.attrs["lods"]) == expected
            workers = [c for c in root.children if c.name == "worker"]
            assert workers and all(w.attrs.get("backend") == "process" for w in workers)
            lods = [
                span.attrs["lod"]
                for worker in workers
                for span in worker.walk()
                if span.name == "refine"
            ]
            assert set(lods) <= set(expected)
            # Some target refines at LOD 0 and some stays to the top.
            assert {0, ladder[-1]} <= set(lods)
            assert all(tuple(w.attrs["lods"]) == expected for w in workers)
            assert all(w.attrs["schedule"] == "pinned" for w in workers)


def _scene_datasets(seed):
    scene = make_tissue_scene(
        n_nuclei=8, n_vessels=1, seed=seed, region=40.0, nucleus_subdivisions=1,
        vessel_spec=VesselSpec(bifurcations=1, points_per_branch=4, segments=6),
    )
    encoder = PPVPEncoder(max_lods=4, rounds_per_lod=2)
    # Degenerate geometry: the source also holds an exact copy of a
    # target nucleus, so coincident faces, touching surfaces and a
    # zero distance are all in play.
    sources = [*scene.nuclei_b, scene.nuclei_a[0], *scene.vessels]
    return {
        "t": Dataset.from_polyhedra("t", scene.nuclei_a, encoder),
        "s": Dataset.from_polyhedra("s", sources, encoder),
    }


class TestPairsAcrossSchedules:
    """Runs 1 (ladder), 2 (top LOD alone) and 3 (learned) of a key, on
    both backends, equal to FR: every schedule answers by the solids'
    distance, so within at distance 0 is intersection."""

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16), st.floats(0.0, 3.0))
    # Pairs 6-6 and 7-7 of this scene cross at the top LOD, where the
    # face-pair distance without the crossing test reads 0.0043 and
    # 0.0057; a lower LOD of each reads below the threshold.
    @example(seed=0, distance=0.00390625)
    @example(seed=0, distance=0.0)
    def test_schedules_agree_with_fr(self, seed, distance):
        datasets = _scene_datasets(seed)
        specs = (
            QuerySpec(kind="within", source="s", target="t", distance=distance),
            QuerySpec(kind="intersection", source="s", target="t"),
        )
        fr = _engine(datasets, paradigm="fr", tracing=False)
        expected = {spec.kind: fr.execute(spec) for spec in specs}
        if distance == 0.0:
            assert _sorted(expected["within"].pairs) == _sorted(
                expected["intersection"].pairs
            )
        for workers in (1, 2):
            engine = _engine(datasets, query_workers=workers, tracing=False)
            # Make the third, learned query run the top LOD for within
            # and the ladder for intersection, so both are exercised.
            engine.lod_schedule.cost = lambda result, lods: (
                (1.0 if len(lods) == 1 else 2.0)
                if result.spec.kind == "within"
                else (2.0 if len(lods) == 1 else 1.0)
            )
            for spec in specs:
                reference = expected[spec.kind]
                for run in range(3):
                    result = engine.execute(spec)
                    where = (workers, spec.kind, run)
                    assert result.degraded_keys == reference.degraded_keys, where
                    assert _sorted(result.pairs) == _sorted(reference.pairs), where

    def test_nested_solids_are_within_on_every_schedule(self):
        # Each target holds, or is held by, its source: the surfaces are
        # 1.5 apart and never cross, but the solids meet.
        encoder = PPVPEncoder(max_lods=4, rounds_per_lod=2)
        far = (10.0, 0.0, 0.0)
        datasets = {
            "t": Dataset.from_polyhedra(
                "t", [icosphere(2, radius=2.0), icosphere(1, radius=0.5, center=far)], encoder
            ),
            "s": Dataset.from_polyhedra(
                "s", [icosphere(1, radius=0.5), icosphere(2, radius=2.0, center=far)], encoder
            ),
        }
        within = QuerySpec(kind="within", source="s", target="t", distance=0.5)
        intersection = QuerySpec(kind="intersection", source="s", target="t")
        expected = {0: [0], 1: [1]}
        fr = _engine(datasets, paradigm="fr", tracing=False)
        assert _sorted(fr.execute(intersection).pairs) == expected
        assert _sorted(fr.execute(within).pairs) == expected
        engine = _engine(datasets, tracing=False)
        engine.lod_schedule.cost = _fixed_costs(ladder=2.0, top=1.0)
        for run in range(3):
            assert _sorted(engine.execute(within).pairs) == expected, run


class TestKnnAcrossSchedules:
    """kNN's answer contract on runs 1 (ladder), 2 (LOD 0 then the top
    LOD) and 3 (learned) of a key, on both backends, against FR."""

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16))
    @example(seed=0)  # pairs 3-3 and 6-6 cross: their bounds sit under FR's distance
    def test_answers_keep_the_contract(self, seed):
        datasets = _scene_datasets(seed)
        fr = _engine(datasets, paradigm="fr", tracing=False)
        fr_exact = _engine(datasets, paradigm="fr", tracing=False, exact_nn_distances=True)
        crossing = {
            (tid, sid)
            for tid, sids in fr.execute(
                QuerySpec(kind="intersection", source="s", target="t")
            ).pairs.items()
            for sid in sids
        }
        for k in (2, 3):
            spec = QuerySpec(kind="knn", source="s", target="t", k=k)
            ids = _ids(fr.execute(spec).pairs)
            exact = {
                (tid, sid): distance
                for tid, matches in fr_exact.execute(spec).pairs.items()
                for sid, distance, _exact in matches
            }
            for workers in (1, 2):
                engine = _engine(datasets, query_workers=workers, tracing=False)
                # Run 3 learns the ladder for k = 2 and (0, top) for k = 3.
                engine.lod_schedule.cost = (
                    _knn_costs(ladder=1.0, alternative=2.0) if k == 2
                    else _knn_costs(ladder=2.0, alternative=1.0)
                )
                for run in range(3):
                    result = engine.execute(spec)
                    where = (k, workers, run)
                    assert _ids(result.pairs) == ids, where
                    for tid, matches in result.pairs.items():
                        for sid, distance, is_exact in matches:
                            if is_exact:
                                assert distance == exact[tid, sid], (where, tid, sid)
                            else:
                                # An upper bound of the solids' distance:
                                # 0 where they cross or nest, which the
                                # surface distance FR reports is not.
                                floor = 0.0 if (tid, sid) in crossing else exact[tid, sid]
                                assert distance >= floor, (where, tid, sid)


def _ids(pairs):
    return {tid: sorted(match[0] for match in matches) for tid, matches in pairs.items()}


def _sorted(pairs):
    return {tid: sorted(sids) for tid, sids in pairs.items() if sids}
