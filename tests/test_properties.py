"""Cross-layer property tests: the paper's guarantees, end to end.

These hypothesis suites generate randomized objects/scenes and verify
the properties everything else rests on:

* PPVP LODs are subsets (volume-monotone, distance upper-bounding);
* serialization round-trips structure exactly at every LOD;
* the engine returns identical answers across paradigms, and the same
  answers as the AABB-tree oracle.
"""

import math
from contextlib import nullcontext


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression import PPVPEncoder, deserialize_object, serialize_object
from repro.core import EngineConfig, ThreeDPro
from repro.datagen import make_nucleus
from repro.geometry import tri_tri_distance_batch
from repro.mesh import mesh_volume, validate_polyhedron
from repro.storage import Dataset
from tests.oracles import per_pair_refine

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_nucleus(seed, center=(0, 0, 0), bumpiness=None):
    rng = np.random.default_rng(seed)
    kwargs = {}
    if bumpiness is not None:
        kwargs["bumpiness"] = bumpiness
    return make_nucleus(rng, center=center, subdivisions=1, **kwargs)


class TestCodecProperties:
    @SLOW
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.35))
    def test_lod_chain_volume_monotone(self, seed, bumpiness):
        mesh = random_nucleus(seed, bumpiness=bumpiness)
        obj = PPVPEncoder(max_lods=5).encode(mesh)
        volumes = [mesh_volume(obj.decode(lod)) for lod in obj.lods]
        for low, high in zip(volumes, volumes[1:]):
            assert low <= high + 1e-12

    @SLOW
    @given(st.integers(0, 2**32 - 1))
    def test_lod_chain_structurally_valid(self, seed):
        mesh = random_nucleus(seed, bumpiness=0.3)
        obj = PPVPEncoder(max_lods=5).encode(mesh)
        for lod in obj.lods:
            validate_polyhedron(obj.decode(lod).compacted())

    @SLOW
    @given(st.integers(0, 2**32 - 1))
    def test_serialize_roundtrip_all_lods(self, seed):
        mesh = random_nucleus(seed, bumpiness=0.25)
        obj = PPVPEncoder(max_lods=4).encode(mesh)
        restored = deserialize_object(serialize_object(obj))
        assert restored.num_rounds == obj.num_rounds
        for lod in obj.lods:
            assert (
                restored.decode(lod).canonical_face_set()
                == obj.decode(lod).canonical_face_set()
            )

    @SLOW
    @given(st.integers(0, 2**32 - 1), st.floats(2.5, 8.0))
    def test_pairwise_distance_upper_bounds(self, seed, gap):
        """d(LOD_i) >= d(LOD_top) for every LOD pair of two objects."""
        a = random_nucleus(seed, center=(0, 0, 0))
        b = random_nucleus(seed + 1, center=(gap, 0.3, -0.2))
        enc = PPVPEncoder(max_lods=4)
        ca, cb = enc.encode(a), enc.encode(b)

        def dist(ta, tb):
            ii, jj = np.meshgrid(np.arange(len(ta)), np.arange(len(tb)), indexing="ij")
            return float(
                tri_tri_distance_batch(
                    ta[ii.ravel()], tb[jj.ravel()], check_intersection=False
                ).min()
            )

        top = dist(
            ca.decode(ca.max_lod).triangles, cb.decode(cb.max_lod).triangles
        )
        for lod in range(min(ca.max_lod, cb.max_lod)):
            low = dist(ca.decode(lod).triangles, cb.decode(lod).triangles)
            assert low >= top - 1e-9


class TestEngineEquivalence:
    def _scene(self, seed, n=8):
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(0, 2.5, size=(n, 3))
        targets = [
            random_nucleus(seed * 31 + i, center=(i * 3.0, 0, 0)) for i in range(n)
        ]
        sources = [
            random_nucleus(
                seed * 57 + i, center=tuple(np.array([i * 3.0, 0, 0]) + offsets[i])
            )
            for i in range(n)
        ]
        return targets, sources

    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**32 - 1))
    def test_all_configs_agree(self, seed):
        targets, sources = self._scene(seed, n=6)
        encoder = PPVPEncoder(max_lods=4)
        t_set = Dataset("t", [encoder.encode(m) for m in targets])
        s_set = Dataset("s", [encoder.encode(m) for m in sources])

        answers = []
        # The 80-face nuclei sit below the default partition threshold;
        # one leg partitions them all. The last leg refines through the
        # AABB-tree oracle, in-process, over whole (unpartitioned) objects.
        for config, refining in (
            (EngineConfig(paradigm="fr"), nullcontext()),
            (EngineConfig(paradigm="fpr"), nullcontext()),
            (EngineConfig(paradigm="fpr", partition_min_faces=40), nullcontext()),
            (EngineConfig(paradigm="fpr", query_workers=1, partition_min_faces=math.inf),
             per_pair_refine.installed(tree=True)),
        ):
            engine = ThreeDPro(config)
            engine.load_dataset(t_set)
            engine.load_dataset(s_set)
            with refining:
                answers.append(
                    (
                        engine.intersection_join("t", "s").pairs,
                        engine.within_join("t", "s", 1.0).pairs,
                        {
                            tid: matches[0][0]
                            for tid, matches in engine.nn_join("t", "s").pairs.items()
                        },
                    )
                )
        for other in answers[1:]:
            assert other == answers[0]
