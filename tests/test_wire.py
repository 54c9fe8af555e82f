"""The versioned wire schema: round trips, strictness, and json safety.

The JSON wire contract (``QuerySpec.to_wire``/``from_wire``,
``QueryResult.to_wire``/``from_wire``) is the canonical public query
API — these tests pin the properties the serve layer depends on:

* ``from_wire(to_wire(spec))`` is the identity on normalized specs, for
  every query kind;
* strict rejection: unknown fields, missing/unsupported
  ``schema_version``, invalid parameter combinations;
* result round trips preserve pairs, stats ledgers, the funnel (with
  its conservation invariants), completeness, and degraded targets;
* every wire payload is ``json.dumps``-able even when numpy scalars
  leak into stats at the producer side.
"""

import json

import numpy as np
import pytest

from repro.core import EngineConfig, ThreeDPro
from repro.core.errors import WireFormatError
from repro.core.jsonsafe import json_safe
from repro.core.plan import (
    WIRE_SCHEMA_VERSION,
    QueryCompleteness,
    QueryResult,
    QuerySpec,
)
from repro.core.stats import QueryStats

ALL_KIND_SPECS = [
    QuerySpec(kind="intersection", source="b", target="a"),
    QuerySpec(kind="within", source="b", target="a", distance=2.5),
    QuerySpec(kind="knn", source="b", target="a", k=3),
    QuerySpec(kind="nn", source="b", target="a"),  # normalizes to knn k=1
    QuerySpec(kind="containment", source="b", point=(0.5, 1.0, -2.0)),
    QuerySpec(kind="intersection", source="b", target="a", target_ids=(3, 1)),
    QuerySpec(kind="within", source="b", target="a", distance=1.0,
              deadline_ms=250),
]


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", ALL_KIND_SPECS, ids=lambda s: s.kind)
    def test_identity_on_normalized(self, spec):
        wire = spec.to_wire()
        assert wire["schema_version"] == WIRE_SCHEMA_VERSION
        assert QuerySpec.from_wire(wire) == spec.normalized()

    @pytest.mark.parametrize("spec", ALL_KIND_SPECS, ids=lambda s: s.kind)
    def test_wire_is_json_serializable(self, spec):
        parsed = json.loads(json.dumps(spec.to_wire()))
        assert QuerySpec.from_wire(parsed) == spec.normalized()

    def test_nn_normalizes_to_knn_on_wire(self):
        wire = QuerySpec(kind="nn", source="b", target="a").to_wire()
        assert wire["kind"] == "knn"
        assert wire["k"] == 1

    def test_none_fields_omitted(self):
        wire = QuerySpec(kind="intersection", source="b", target="a").to_wire()
        assert "distance" not in wire
        assert "point" not in wire
        assert "deadline_ms" not in wire


class TestSpecStrictness:
    def test_unknown_field_rejected(self):
        wire = QuerySpec(kind="intersection", source="b", target="a").to_wire()
        wire["bogus"] = 1
        with pytest.raises(WireFormatError, match="unknown spec field"):
            QuerySpec.from_wire(wire)

    def test_missing_schema_version_rejected(self):
        with pytest.raises(WireFormatError, match="schema_version"):
            QuerySpec.from_wire({"kind": "intersection", "source": "b", "target": "a"})

    def test_unsupported_schema_version_rejected(self):
        wire = QuerySpec(kind="intersection", source="b", target="a").to_wire()
        wire["schema_version"] = 999
        with pytest.raises(WireFormatError, match="unsupported"):
            QuerySpec.from_wire(wire)

    def test_non_dict_rejected(self):
        with pytest.raises(WireFormatError, match="JSON object"):
            QuerySpec.from_wire([1, 2, 3])

    @pytest.mark.parametrize("fields", [
        pytest.param({"kind": "within", "target": "a"}, id="within-without-distance"),
        pytest.param({"kind": "knn", "target": "a", "k": 2.5}, id="fractional-k"),
        pytest.param({"kind": "knn", "target": "a", "k": True}, id="bool-k"),
        pytest.param({"kind": "within", "target": "a", "distance": float("nan")},
                     id="nan-distance"),
        pytest.param({"kind": "within", "target": "a", "distance": float("inf")},
                     id="infinite-distance"),
        pytest.param({"kind": "containment", "point": [1, 2]}, id="two-coordinate-point"),
        pytest.param({"kind": "containment", "point": ["1", 2, 3]}, id="string-coordinate"),
        pytest.param({"kind": "containment", "point": [1, float("nan"), 3]},
                     id="nan-coordinate"),
        pytest.param({"kind": "intersection", "target": "a", "target_ids": [1.7]},
                     id="fractional-target-id"),
    ])
    def test_invalid_combination_rejected(self, fields):
        with pytest.raises(WireFormatError, match="invalid spec"):
            QuerySpec.from_wire(
                {"schema_version": WIRE_SCHEMA_VERSION, "source": "b", **fields}
            )

    def test_probe_spec_not_serializable(self, small_scene):
        spec = QuerySpec(
            kind="intersection", source="b", probe=small_scene.nuclei_a[0]
        )
        with pytest.raises(WireFormatError, match="probe"):
            spec.to_wire()

    def test_progress_hook_not_serializable(self):
        spec = QuerySpec(
            kind="intersection", source="b", target="a",
            progress=lambda tid, lod, matches: None,
        )
        with pytest.raises(WireFormatError, match="in-process"):
            spec.to_wire()


@pytest.fixture(scope="module")
def wire_engine(datasets):
    engine = ThreeDPro(EngineConfig(paradigm="fpr"))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


RESULT_SPECS = [
    QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a"),
    QuerySpec(kind="within", source="nuclei_b", target="nuclei_a", distance=2.0),
    QuerySpec(kind="knn", source="vessels", target="nuclei_a", k=2),
]


class TestResultRoundTrip:
    @pytest.mark.parametrize("spec", RESULT_SPECS, ids=lambda s: s.kind)
    def test_pairs_stats_completeness_survive(self, wire_engine, spec):
        result = wire_engine.execute(spec)
        back = QueryResult.from_wire(json.loads(json.dumps(result.to_wire())))
        assert back.pairs == result.pairs
        assert back.total_matches == result.total_matches
        assert back.spec == result.spec
        assert back.completeness == result.completeness
        assert back.degraded_targets == result.degraded_targets
        assert back.stats.results == result.stats.results
        assert back.stats.candidates == result.stats.candidates
        assert dict(back.stats.pairs_evaluated_by_lod) == dict(
            result.stats.pairs_evaluated_by_lod
        )
        assert dict(back.stats.pairs_pruned_by_lod) == dict(
            result.stats.pairs_pruned_by_lod
        )

    @pytest.mark.parametrize("spec", RESULT_SPECS, ids=lambda s: s.kind)
    def test_funnel_conservation_after_round_trip(self, wire_engine, spec):
        """The funnel/ledger invariants must give the same verdict remotely."""
        result = wire_engine.execute(spec)
        assert result.funnel.violations(result.stats, strict=True) == []
        back = QueryResult.from_wire(json.loads(json.dumps(result.to_wire())))
        assert back.funnel.violations(back.stats, strict=True) == []
        assert back.funnel.as_dict() == result.funnel.as_dict()

    def test_result_version_checked(self, wire_engine):
        result = wire_engine.execute(RESULT_SPECS[0])
        wire = result.to_wire()
        wire["schema_version"] = 2
        with pytest.raises(WireFormatError, match="unsupported"):
            QueryResult.from_wire(wire)


class TestJsonSafeBoundary:
    """Satellite: numpy scalars normalize to builtins at as_dict boundaries."""

    def test_stats_with_numpy_values_dump_clean(self):
        stats = QueryStats(query="q")
        stats.results = np.int64(7)
        stats.decoded_vertices = np.int32(123)
        stats.total_seconds = np.float64(0.25)
        stats.funnel.stage(np.int64(2)).evaluated = np.int64(5)
        stats.funnel.stage(np.int64(2)).settled = np.int64(3)
        stats.funnel.candidates = np.int64(9)
        stats.funnel.stage(np.int64(1)).confirmed = np.int64(2)
        payload = stats.as_dict()
        encoded = json.dumps(payload)  # must not raise
        decoded = json.loads(encoded)
        assert decoded["results"] == 7
        assert decoded["total_seconds"] == 0.25
        assert decoded["pairs_evaluated_by_lod"]["2"] == 5
        assert type(payload["results"]) is int
        assert type(payload["total_seconds"]) is float

    def test_completeness_with_numpy_values_dump_clean(self):
        comp = QueryCompleteness(
            targets_total=np.int64(4),
            targets_finished=np.int64(4),
            max_lod_reached=np.int64(3),
            deadline_headroom_ratio=np.float64(0.5),
        )
        payload = comp.as_dict()
        json.dumps(payload)  # must not raise
        assert type(payload["targets_total"]) is int
        assert type(payload["deadline_headroom_ratio"]) is float

    def test_json_safe_handles_containers(self):
        out = json_safe({
            np.int64(1): [np.float64(2.5), (np.int64(3), "x")],
            "arr": np.arange(3),
            "set": {np.int64(2), np.int64(1)},
        })
        assert out == {1: [2.5, [3, "x"]], "arr": [0, 1, 2], "set": [1, 2]}
        json.dumps(out)
