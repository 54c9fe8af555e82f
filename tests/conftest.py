"""Shared fixtures: small deterministic scenes and compressed datasets.

Scene generation and PPVP encoding are the expensive parts of the
integration tests, so everything here is session-scoped and kept small
(80-face nuclei, one-or-two small vessels).
"""

import pytest

from repro.compression import PPVPEncoder
from repro.datagen import make_tissue_scene
from repro.datagen.vessels import VesselSpec
from repro.storage import Dataset

SMALL_VESSEL = VesselSpec(bifurcations=2, points_per_branch=4, segments=6)


@pytest.fixture(scope="session")
def small_scene():
    """40 nuclei pairs + 2 small vessels (seed 7)."""
    return make_tissue_scene(
        n_nuclei=40,
        n_vessels=2,
        seed=7,
        region=90.0,
        nucleus_subdivisions=1,
        vessel_spec=SMALL_VESSEL,
    )


@pytest.fixture(scope="session")
def encoder():
    return PPVPEncoder(max_lods=6, rounds_per_lod=2)


@pytest.fixture(scope="session")
def datasets(small_scene, encoder):
    """Compressed datasets keyed by the paper's names."""
    return {
        "nuclei_a": Dataset.from_polyhedra("nuclei_a", small_scene.nuclei_a, encoder),
        "nuclei_b": Dataset.from_polyhedra("nuclei_b", small_scene.nuclei_b, encoder),
        "vessels": Dataset.from_polyhedra("vessels", small_scene.vessels, encoder),
    }


@pytest.fixture(scope="session")
def naive_knn2_vessels(small_scene):
    """Ground truth: each ``nuclei_a`` object's 2 nearest vessels.

    The exhaustive scan dominates every NN truth comparison, so it runs
    once per session; :func:`naive_nn_vessels` is its first column.
    """
    from repro.baselines import NaiveEngine

    return NaiveEngine(
        small_scene.nuclei_a, small_scene.vessels, prefilter=True
    ).knn_join(2).pairs


@pytest.fixture(scope="session")
def naive_nn_vessels(naive_knn2_vessels):
    """Ground truth: each ``nuclei_a`` object's nearest vessel.

    ``NaiveEngine.nn_join`` is ``knn_join(1)``'s first column under the
    same ``(dist, sid)`` order, and a k=2 scan visits a superset of the
    k=1 scan's sources, so the 2-NN table's first column is identical
    (``test_engine.py::TestProbeQueries::test_nn_query`` asserts it).
    """
    return {tid: matches[0] for tid, matches in naive_knn2_vessels.items() if matches}
