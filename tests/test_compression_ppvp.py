"""Tests for the PPVP codec: invertibility and the progressive property.

These are the paper's load-bearing guarantees (Section 3.2):

1. lower-LOD meshes are spatial subsets of higher-LOD meshes, hence
2. intersection at a lower LOD implies intersection at higher LODs, and
3. inter-object distance is non-increasing as LOD increases.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import PPVPEncoder, deserialize_object, serialize_object
from repro.compression.ppmc import PPMCEncoder
from repro.datagen import make_nucleus
from repro.geometry import point_in_polyhedron, tri_tri_distance_batch
from repro.mesh import Polyhedron, icosphere, mesh_volume, validate_polyhedron
from tests.oracles.replay_decoder import ReplayDecoder
from tests.oracles.scalar_ppvp import ScalarPPVPEncoder
from tests.test_compression_classify import dented_icosphere


@pytest.fixture(scope="module")
def sphere_codec():
    mesh = icosphere(2)
    return mesh, PPVPEncoder(max_lods=4, rounds_per_lod=2).encode(mesh)


class TestEncoding:
    def test_round_structure(self, sphere_codec):
        _mesh, obj = sphere_codec
        assert 1 <= obj.num_rounds <= 6
        assert all(len(r) > 0 for r in obj.rounds)
        assert obj.max_lod >= 1

    def test_base_is_smaller(self, sphere_codec):
        mesh, obj = sphere_codec
        assert len(obj.base_faces) < mesh.num_faces

    def test_each_round_removes_independent_set(self, sphere_codec):
        _mesh, obj = sphere_codec
        for round_records in obj.rounds:
            removed = {r.vertex for r in round_records}
            for record in round_records:
                # No removed vertex may appear in another's ring.
                assert not (set(record.ring) & removed)

    def test_aabb_preserved(self, sphere_codec):
        mesh, obj = sphere_codec
        assert obj.aabb == mesh.aabb

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PPVPEncoder(max_lods=0)
        with pytest.raises(ValueError):
            PPVPEncoder(rounds_per_lod=0)
        with pytest.raises(ValueError):
            PPVPEncoder(min_faces=3)


class TestDecoding:
    def test_full_decode_restores_original_exactly(self, sphere_codec):
        mesh, obj = sphere_codec
        restored = obj.decode(obj.max_lod)
        assert restored.canonical_face_set() == mesh.canonical_face_set()
        assert np.array_equal(restored.vertices, mesh.vertices)

    def test_every_lod_is_structurally_valid(self, sphere_codec):
        _mesh, obj = sphere_codec
        for lod in obj.lods:
            validate_polyhedron(obj.decode(lod).compacted())

    def test_face_count_at_lod_matches_decode(self, sphere_codec):
        _mesh, obj = sphere_codec
        for lod in obj.lods:
            assert obj.face_count_at_lod(lod) == obj.decode(lod).num_faces

    def test_face_counts_strictly_increase(self, sphere_codec):
        _mesh, obj = sphere_codec
        counts = [obj.face_count_at_lod(lod) for lod in obj.lods]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_decoder_is_monotone(self, sphere_codec):
        _mesh, obj = sphere_codec
        decoder = obj.decoder()
        decoder.advance_to(obj.max_lod)
        with pytest.raises(ValueError):
            decoder.advance_to(0)

    def test_decoder_counts_reinserted_vertices(self, sphere_codec):
        _mesh, obj = sphere_codec
        decoder = obj.decoder()
        decoder.advance_to(obj.max_lod)
        assert decoder.vertices_reinserted == sum(len(r) for r in obj.rounds)

    def test_decode_out_of_range_lod(self, sphere_codec):
        _mesh, obj = sphere_codec
        with pytest.raises(ValueError):
            obj.decode(obj.max_lod + 1)
        with pytest.raises(ValueError):
            obj.decode(-1)

    def test_progressive_equals_one_shot(self, sphere_codec):
        _mesh, obj = sphere_codec
        decoder = obj.decoder()
        for lod in obj.lods:
            decoder.advance_to(lod)
            assert (
                decoder.polyhedron().canonical_face_set()
                == obj.decode(lod).canonical_face_set()
            )


def _assert_matches_scalar_round(mesh, max_lods):
    """PPVP and PPMC encodes equal the scalar per-rotation round's, byte for byte."""
    for encoder in (PPVPEncoder(max_lods=max_lods), PPMCEncoder(max_lods=max_lods)):
        oracle = ScalarPPVPEncoder(max_lods=max_lods, protruding_only=encoder.protruding_only)
        got, want = encoder.encode(mesh), oracle.encode(mesh)
        assert got.positions.tobytes() == want.positions.tobytes()
        assert got.base_faces.dtype == want.base_faces.dtype
        assert got.base_faces.tobytes() == want.base_faces.tobytes()
        assert got.rounds == want.rounds


class TestMatchesScalarRound:
    """The vectorized decimation round is the scalar one it replaced.

    ``tests/oracles/scalar_ppvp.py`` tries every candidate rotation by
    rotation with the per-patch predicates and the einsum kernel; the
    shipped round judges position-only predicates for all rotations up
    front. Same removals, same apexes, same order.
    """

    @pytest.mark.parametrize("max_lods", [4, 6])
    def test_sphere_and_dented(self, sphere_codec, max_lods):
        mesh, _obj = sphere_codec
        _assert_matches_scalar_round(mesh, max_lods)
        _assert_matches_scalar_round(dented_icosphere()[0], max_lods)

    @pytest.mark.parametrize("max_lods", [4, 6])
    def test_scene_nuclei_and_vessels(self, small_scene, max_lods):
        # Every fifth nucleus of each segmentation keeps the scalar
        # oracle's cost down; the vessels carry the saddle rings.
        for mesh in [*small_scene.nuclei_a[::5], *small_scene.nuclei_b[::5], *small_scene.vessels]:
            _assert_matches_scalar_round(mesh, max_lods)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.4),
        st.sampled_from([None, 0.05, 0.2, 0.3]),
        st.sampled_from([1, 2]),
        st.sampled_from([4, 6]),
    )
    def test_random_meshes(self, seed, bumpiness, grid, subdivisions, max_lods):
        # Snapping to a coarse grid makes coplanar and degenerate fans.
        rng = np.random.default_rng(seed)
        mesh = make_nucleus(rng, subdivisions=subdivisions, bumpiness=bumpiness)
        if grid is not None:
            mesh = Polyhedron(np.round(mesh.vertices / grid) * grid, mesh.faces)
        _assert_matches_scalar_round(mesh, max_lods)


class TestSliceDecoderEquivalence:
    """The columnar decoder is the replay decoder, byte for byte.

    ``ProgressiveDecoder`` materializes LODs by slicing the compiled
    :class:`LODTable`; ``ReplayDecoder`` replays removal records through
    an ``EditableMesh``. They must agree on the exact face array — rows,
    orientation, and order — at every LOD, or query results would shift
    (refinement probes ``triangles[0, 0]`` and kernels early-exit in
    array order).
    """

    @staticmethod
    def _assert_equivalent(obj):
        ref, cur = ReplayDecoder(obj), obj.decoder()
        for lod in obj.lods:
            ref.advance_to(lod)
            cur.advance_to(lod)
            assert np.array_equal(ref.face_array(), cur.face_array()), f"LOD {lod}"
            assert ref.vertices_reinserted == cur.vertices_reinserted

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_quantized_round_trip_blobs(self, seed):
        # Quantization perturbs positions but not connectivity; the two
        # decoders must stay identical on deserialized objects.
        mesh, _ = dented_icosphere(subdivisions=1, seed=seed % 11)
        obj = PPVPEncoder(max_lods=4).encode(mesh)
        restored = deserialize_object(serialize_object(obj, quant_bits=12))
        self._assert_equivalent(restored)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_salvaged_round_prefixes(self, data):
        # Salvage keeps a checksum-valid round suffix — a prefix of the
        # decode timeline. Any such truncation must decode identically.
        seed = data.draw(st.integers(0, 10))
        mesh, _ = dented_icosphere(subdivisions=1, seed=seed)
        obj = PPVPEncoder(max_lods=4).encode(mesh)
        dropped = data.draw(st.integers(0, obj.num_rounds))
        truncated = dataclasses.replace(obj, rounds=obj.rounds[dropped:])
        self._assert_equivalent(truncated)

    def test_fixture_object(self, sphere_codec):
        _mesh, obj = sphere_codec
        self._assert_equivalent(obj)


class TestProgressiveProperty:
    """The subset guarantee, on convex and non-convex inputs."""

    def test_volume_non_decreasing_with_lod_convex(self, sphere_codec):
        _mesh, obj = sphere_codec
        volumes = [mesh_volume(obj.decode(lod)) for lod in obj.lods]
        for low, high in zip(volumes, volumes[1:]):
            assert low <= high + 1e-12

    def test_volume_non_decreasing_with_lod_nonconvex(self):
        mesh, _ = dented_icosphere(subdivisions=2)
        obj = PPVPEncoder(max_lods=4).encode(mesh)
        volumes = [mesh_volume(obj.decode(lod)) for lod in obj.lods]
        for low, high in zip(volumes, volumes[1:]):
            assert low <= high + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_low_lod_interior_points_stay_inside_original(self, seed):
        rng = np.random.default_rng(seed)
        mesh, _ = dented_icosphere(subdivisions=2, seed=seed % 7)
        obj = PPVPEncoder(max_lods=4).encode(mesh)
        base = obj.decode(0)
        original_tris = mesh.triangles
        base_tris = base.triangles
        # Sample random points; any point inside the base (lowest LOD)
        # must be inside the original: the base is a subset.
        points = rng.uniform(-1.1, 1.1, size=(40, 3))
        for point in points:
            if point_in_polyhedron(point, base_tris):
                assert point_in_polyhedron(point, original_tris)

    def test_distance_non_increasing_with_lod(self):
        # Two objects; the distance measured at increasing LODs must not grow.
        a = icosphere(2, radius=1.0, center=(0, 0, 0))
        b = icosphere(2, radius=1.0, center=(3.0, 0.4, -0.2))
        enc = PPVPEncoder(max_lods=4)
        ca, cb = enc.encode(a), enc.encode(b)
        lods = range(min(ca.max_lod, cb.max_lod) + 1)
        dists = []
        for lod in lods:
            ta = ca.decode(lod).triangles
            tb = cb.decode(lod).triangles
            ii, jj = np.meshgrid(np.arange(len(ta)), np.arange(len(tb)), indexing="ij")
            d = tri_tri_distance_batch(
                ta[ii.ravel()], tb[jj.ravel()], check_intersection=False
            ).min()
            dists.append(d)
        for low, high in zip(dists, dists[1:]):
            assert low >= high - 1e-9

    def test_intersection_at_low_lod_implies_at_high_lod(self):
        # Overlapping spheres: every LOD pair that reports intersection
        # must keep reporting it at all higher LODs.
        from repro.geometry import tri_tri_intersect_batch

        a = icosphere(2, radius=1.0, center=(0, 0, 0))
        b = icosphere(2, radius=1.0, center=(1.2, 0, 0))
        enc = PPVPEncoder(max_lods=4)
        ca, cb = enc.encode(a), enc.encode(b)
        lods = range(min(ca.max_lod, cb.max_lod) + 1)
        flags = []
        for lod in lods:
            ta = ca.decode(lod).triangles
            tb = cb.decode(lod).triangles
            ii, jj = np.meshgrid(np.arange(len(ta)), np.arange(len(tb)), indexing="ij")
            flags.append(
                bool(tri_tri_intersect_batch(ta[ii.ravel()], tb[jj.ravel()]).any())
            )
        for low, high in zip(flags, flags[1:]):
            assert (not low) or high  # low => high
