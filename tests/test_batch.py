"""Batched refinement: the gather/segment layer and its engine parity.

Two layers of properties:

* ``repro.core.batch`` in isolation — the wave-batched kernels must
  agree with a plain per-job loop over the fused geometry kernels
  (exactly for intersection; up to early exit for distances), lane
  screening must be invisible, the flush checkpoint must fire, a
  launch's one lane pass must buffer exactly the lanes the per-sub-block
  oracle (``tests/oracles/face_screen``) enumerates, and the look-ahead
  wave loop must replay the waves of the interleaved one
  (``tests/oracles/interleaved_waves``) exactly.
* the engine end to end — the shipped round loop must be byte-identical
  to the per-pair reference oracle (``tests/oracles/per_pair_refine``,
  run on a serial engine) on every query kind, across backends, under
  injected decode faults, under deadlines (sound subsets), and through
  the streaming progress hook; and the per-pair oracle's AABB-tree mode
  (``tests/oracles/aabbtree``, a different algorithm from the waves)
  must settle every pair exactly where the shipped rounds do.

Satellites ride along: the ``_kth_smallest`` heap rewrite, the memoized
containment-stage AABBs, and uniform degraded accounting.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core import EngineConfig, QuerySpec, ThreeDPro
from repro.core import batch as batch_module
from repro.core.batch import (
    _FaceTables,
    _lane_gap_sq,
    _screened_distance,
    _screened_intersect,
    batched_any_intersect,
    batched_min_distances,
)
from repro.core.errors import EngineConfigError
from repro.core.refine import RefineContext, _kth_smallest
from repro.core.stats import QueryStats
from repro.faults import FaultInjector
from repro.geometry.distance import tri_tri_distance_batch
from repro.geometry.tritri import tri_tri_intersect_batch
from repro.parallel import GeometryComputer
from tests.oracles import face_screen, interleaved_waves, per_pair_refine


def _soup(rng, n, center, spread=1.0):
    """n random triangles scattered around ``center``."""
    base = rng.uniform(-spread, spread, size=(n, 1, 3)) + np.asarray(center)
    return base + rng.uniform(-0.4, 0.4, size=(n, 3, 3))


def _jobs(rng):
    """A mixed bag: interpenetrating, near-miss, far-apart, and empty sides."""
    empty = np.zeros((0, 3, 3))
    return [
        (_soup(rng, 7, (0, 0, 0)), _soup(rng, 9, (0.2, 0, 0))),     # overlapping
        (_soup(rng, 13, (0, 0, 0)), _soup(rng, 5, (10, 0, 0))),     # far apart
        (_soup(rng, 60, (0, 0, 0)), _soup(rng, 60, (2.5, 0, 0))),   # near miss, multi-wave
        (empty, _soup(rng, 4, (0, 0, 0))),                          # empty side
        (_soup(rng, 1, (5, 5, 5)), _soup(rng, 1, (5.1, 5, 5))),     # single pair
    ]


@pytest.fixture(scope="module")
def computer():
    # Small blocks so even the small soups above take several waves.
    return GeometryComputer(cpu_block=8, gpu_block=64)


class TestBatchedKernels:
    """batched_* vs a per-job loop over the same fused kernels."""

    def test_any_intersect_matches_per_job_loop(self, computer):
        rng = np.random.default_rng(3)
        jobs = _jobs(rng)
        expected = [computer.intersects(a, b) for a, b in jobs]
        assert batched_any_intersect(computer, jobs) == expected

    def test_min_distances_exhaustive_are_exact(self, computer):
        rng = np.random.default_rng(4)
        jobs = _jobs(rng)
        got = batched_min_distances(computer, jobs)
        for (a, b), value in zip(jobs, got):
            if len(a) == 0 or len(b) == 0:
                assert value == math.inf
                continue
            lanes_a = np.repeat(a, len(b), axis=0)
            lanes_b = np.tile(b, (len(a), 1, 1))
            exact = float(tri_tri_distance_batch(lanes_a, lanes_b).min())
            assert value == pytest.approx(exact, abs=0.0)

    def test_min_distances_early_exit_is_sound(self, computer):
        rng = np.random.default_rng(5)
        jobs = _jobs(rng)
        threshold = 3.0
        exhaustive = batched_min_distances(computer, jobs)
        exited = batched_min_distances(computer, jobs, stop_below=threshold)
        for exact, value in zip(exhaustive, exited):
            if exact <= threshold:
                # Settled: any witness at or under the threshold is valid
                # and must itself be a realizable pair distance.
                assert value <= threshold
                assert value >= exact
            else:
                # Non-settling jobs only report that they do not settle:
                # lanes capped at the threshold may leave them at inf.
                assert value > threshold

    def test_stats_count_every_buffered_pair(self, computer):
        rng = np.random.default_rng(6)
        jobs = [(_soup(rng, 11, (0, 0, 0)), _soup(rng, 7, (9, 0, 0)))]
        stats = {}
        batched_min_distances(computer, jobs, stats=stats)
        assert stats["pairs"] == 11 * 7

    def test_checkpoint_fires_per_flush(self, computer):
        rng = np.random.default_rng(7)
        jobs = [(_soup(rng, 40, (0, 0, 0)), _soup(rng, 40, (8, 0, 0)))]
        ticks = []
        batched_min_distances(computer, jobs, checkpoint=lambda: ticks.append(1))
        # 1600 lanes through a 64-lane buffer: many flushes, each ticked.
        assert len(ticks) >= 1600 // 64

    def test_empty_job_list(self, computer):
        assert batched_any_intersect(computer, []) == []
        assert batched_min_distances(computer, []) == []


def _lanes(jobs):
    """Face tables for ``jobs`` and their flattened one-to-one lanes:
    face ``i`` of a job's first set against face ``i`` of its second."""
    faces = _FaceTables(jobs)
    ia, ib, starts, filled = [], [], [], 0
    for (tris_a, _tris_b), (row_a, row_b) in zip(jobs, faces.offsets):
        starts.append(filled)
        ia.append(np.arange(len(tris_a)) + row_a)
        ib.append(np.arange(len(tris_a)) + row_b)
        filled += len(tris_a)
    return faces, np.concatenate(ia), np.concatenate(ib), np.asarray(starts, dtype=np.intp)


class TestLaneScreening:
    """Screening must be invisible: same verdicts, same segment minima."""

    def _buffer(self, rng):
        jobs = [
            (_soup(rng, n, (0, 0, 0)), _soup(rng, n, (off, 0, 0)))
            for n, off in [(6, 0.1), (9, 4.0), (3, 0.0), (12, 30.0)]
        ]
        faces, ia, ib, starts = _lanes(jobs)
        return faces, ia, ib, starts, faces.tris[ia], faces.tris[ib]

    def test_gap_lower_bounds_every_lane(self):
        rng = np.random.default_rng(8)
        faces, ia, ib, _, tris_a, tris_b = self._buffer(rng)
        exact = tri_tri_distance_batch(tris_a, tris_b)
        lb = np.sqrt(_lane_gap_sq(faces, ia, ib))
        assert (lb <= exact + 1e-12).all()

    def test_screened_intersect_matches_unscreened(self):
        rng = np.random.default_rng(9)
        faces, ia, ib, starts, tris_a, tris_b = self._buffer(rng)
        screened = _screened_intersect(faces, ia, ib, starts)
        assert np.array_equal(screened, tri_tri_intersect_batch(tris_a, tris_b))

    def test_screened_distance_preserves_segment_minima(self):
        rng = np.random.default_rng(10)
        faces, ia, ib, starts, tris_a, tris_b = self._buffer(rng)
        screened = np.minimum.reduceat(
            _screened_distance(faces, ia, ib, starts), starts
        )
        exact = np.minimum.reduceat(
            tri_tri_distance_batch(tris_a, tris_b, check_intersection=False), starts
        )
        assert np.array_equal(screened, exact)

    def test_shared_face_set_is_tabled_once(self):
        rng = np.random.default_rng(12)
        target = _soup(rng, 5, (0, 0, 0))
        sources = [_soup(rng, 4, (3, 0, 0)), _soup(rng, 6, (0, 3, 0))]
        faces = _FaceTables([(target, tris) for tris in sources])
        assert len(faces.tris) == 5 + 4 + 6
        assert [row_a for row_a, _ in faces.offsets] == [0, 0]
        assert np.array_equal(faces.lo[:5], target.min(axis=1))
        assert np.array_equal(faces.hi[:5], target.max(axis=1))
        assert np.array_equal(faces.v0[:5], target[:, 0])


def _axis_separated(rng, n, offset):
    """n lanes of random triangles near ``offset`` whose boxes are
    separated by random gaps (some tiny), in three kinds of lane:

    * separated along one random axis, in general position;
    * one shadow lying flat in two planes across the separating axis,
      so the lane's distance is exactly its one-axis box gap;
    * separated along two or three axes, with the closest points at
      facing box corners, so the distance is exactly the box gap's norm
      and rounds differently from its square — where a threshold
      compared in squared space flips.
    """
    tris_a = offset + rng.uniform(0.0, 1.0, size=(n, 3, 3))
    tris_b = offset + rng.uniform(0.0, 1.0, size=(n, 3, 3))
    axis = rng.integers(0, 3, size=n)
    lanes = np.arange(n)
    flat = lanes[1::3]
    tris_b[flat] = tris_a[flat]
    tris_a[flat, :, axis[flat]] = tris_a[flat, :, axis[flat]].max(axis=1)[:, None]
    tris_b[flat, :, axis[flat]] = tris_b[flat, :, axis[flat]].min(axis=1)[:, None]
    gap = 10.0 ** rng.uniform(-9, 0, size=n)
    shift = tris_a[lanes, :, axis].max(axis=1) - tris_b[lanes, :, axis].min(axis=1) + gap
    tris_b[lanes, :, axis] += shift[:, None]

    corner = lanes[2::3]
    tip = offset + rng.uniform(0.0, 1.0, size=(len(corner), 3))
    gaps = 10.0 ** rng.uniform(-9, 0, size=(len(corner), 3))
    gaps[::2, rng.integers(0, 3)] = 0.0
    facing = tip + gaps
    tris_a[corner] = tip[:, None] - rng.uniform(0.0, 1.0, size=(len(corner), 3, 3))
    tris_b[corner] = facing[:, None] + rng.uniform(0.0, 1.0, size=(len(corner), 3, 3))
    tris_a[corner, 0] = tip
    tris_b[corner, 0] = facing
    return tris_a, tris_b


def _grid_touching():
    """Integer-grid lanes: shared vertex, shared edge, unit-gap parallel
    faces, a diagonal box gap of sqrt(2), and a unit corner-to-corner
    gap."""
    base = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0]], dtype=float)
    lanes = [
        (base, np.array([[2, 0, 0], [4, 0, 1], [3, 2, 2]], dtype=float)),  # vertex
        (base, np.array([[2, 0, 0], [0, 2, 0], [2, 2, 3]], dtype=float)),  # edge
        (base, base + [0, 0, 1]),                                          # unit gap
        (base, np.array([[3, 3, 0], [5, 3, 0], [3, 5, 0]], dtype=float)),  # diagonal
        (base, np.array([[2, 0, 1], [3, 0, 1], [2, 1, 1]], dtype=float)),  # corner
    ]
    return np.stack([a for a, _ in lanes]), np.stack([b for _, b in lanes])


def _coplanar(rng, n):
    """n lanes of triangles in one plane z = 7, overlapping or apart."""
    tris_a = rng.uniform(0.0, 1.0, size=(n, 3, 3))
    tris_b = rng.uniform(0.0, 1.0, size=(n, 3, 3))
    tris_b[:, :, 0] += rng.uniform(-0.5, 2.0, size=(n, 1))
    tris_a[:, :, 2] = 7.0
    tris_b[:, :, 2] = 7.0
    return tris_a, tris_b


class TestWithinCap:
    """With ``stop_below > 0`` lanes whose box gap exceeds the query
    distance are never evaluated; no within verdict may change, even
    when the distance equals a lane's own kernel output."""

    @staticmethod
    def _unscreened(jobs):
        """Per job, the minimum over its whole cross product."""
        out = []
        for a, b in jobs:
            lanes_a = np.repeat(a, len(b), axis=0)
            lanes_b = np.tile(b, (len(a), 1, 1))
            out.append(
                tri_tri_distance_batch(lanes_a, lanes_b, check_intersection=False).min()
            )
        return out

    @staticmethod
    def _verdicts_match(computer, jobs, reference, distance):
        got = batched_min_distances(computer, jobs, stop_below=distance)
        assert [v <= distance for v in got] == [r <= distance for r in reference]

    def _straddle(self, computer, tris_a, tris_b, picks):
        """One-lane jobs, and multi-lane jobs of four lanes each, with
        the query distance set to picked lanes' own kernel outputs."""
        exact = tri_tri_distance_batch(tris_a, tris_b, check_intersection=False)
        single = [(a[None], b[None]) for a, b in zip(tris_a, tris_b)]
        grouped = [(tris_a[i:i + 4], tris_b[i:i + 4]) for i in range(0, len(tris_a), 4)]
        cases = [(jobs, self._unscreened(jobs)) for jobs in (single, grouped)]
        for lane in picks:
            distance = float(exact[lane])
            if distance <= 0.0:
                continue
            for jobs, reference in cases:
                self._verdicts_match(computer, jobs, reference, distance)

    @pytest.mark.parametrize("offset", [0.0, 50.0, 1000.0])
    def test_axis_separated_lanes_at_their_own_distance(self, computer, offset):
        rng = np.random.default_rng(13)
        tris_a, tris_b = _axis_separated(rng, 400, offset)
        self._straddle(computer, tris_a, tris_b, picks=range(0, 400, 5))

    @pytest.mark.parametrize("offset", [0.0, 50.0, 1000.0])
    def test_cap_keeps_every_lane_at_its_own_distance(self, offset):
        # The screen itself: capped at its own kernel output, every lane
        # survives. This is the per-lane property the verdicts rest on.
        rng = np.random.default_rng(14)
        tris_a, tris_b = _axis_separated(rng, 20000, offset)
        faces, ia, ib, starts = _lanes([(tris_a, tris_b)])
        exact = tri_tri_distance_batch(tris_a, tris_b, check_intersection=False)
        pad = faces.caps(0.0)[0]
        assert (np.sqrt(_lane_gap_sq(faces, ia, ib)) <= exact + pad).all()
        assert (_lane_gap_sq(faces, ia, ib) > 0.0).all()

    def test_integer_grid_touching_lanes(self, computer):
        tris_a, tris_b = _grid_touching()
        exact = tri_tri_distance_batch(tris_a, tris_b, check_intersection=False)
        assert exact[:2].tolist() == [0.0, 0.0]
        self._straddle(computer, tris_a, tris_b, picks=range(len(tris_a)))
        jobs = [(a[None], b[None]) for a, b in zip(tris_a, tris_b)]
        reference = self._unscreened(jobs)
        for distance in (1e-300, 0.5, 1.0, math.sqrt(2.0)):
            self._verdicts_match(computer, jobs, reference, distance)

    def test_coplanar_lanes(self, computer):
        rng = np.random.default_rng(15)
        tris_a, tris_b = _coplanar(rng, 200)
        self._straddle(computer, tris_a, tris_b, picks=range(0, 200, 10))

    def test_non_settling_jobs_report_above_the_distance(self, computer):
        rng = np.random.default_rng(16)
        jobs = _jobs(rng)
        exhaustive = batched_min_distances(computer, jobs)
        distance = 1.0
        capped = batched_min_distances(computer, jobs, stop_below=distance)
        for exact, value in zip(exhaustive, capped):
            assert (value <= distance) == (exact <= distance)
        # The far-apart job's every lane is capped: nothing is evaluated.
        assert exhaustive[1] > distance and capped[1] == math.inf


def _tied_corners(rng, jobs, n, offset):
    """Jobs of ``n`` corner-facing lanes that share one gap vector.

    Within a job, face ``k`` of each side faces its partner across the
    same nominal gap (first vertices at the facing corners, so the
    distance is exactly the box gap's norm); the partners sit 3 units
    apart along y. The lanes' distances differ only by rounding, so
    the realized first-vertex distance ``U`` found for one of them is
    within an ulp or two of every other lane's distance — where a cap
    at ``U`` without the pad drops the lane the kernel places lowest.
    """
    out = []
    for _ in range(jobs):
        gap = 10.0 ** rng.uniform(-9, 0, size=3)
        gap[rng.integers(0, 3)] = 0.0
        tips = offset + rng.uniform(0.0, 1.0, size=(n, 3)) + np.arange(n)[:, None] * [0.0, 3.0, 0.0]
        facing = tips + gap
        tris_a = tips[:, None] - rng.uniform(0.0, 1.0, size=(n, 3, 3))
        tris_b = facing[:, None] + rng.uniform(0.0, 1.0, size=(n, 3, 3))
        tris_a[:, 0] = tips
        tris_b[:, 0] = facing
        out.append((tris_a, tris_b))
    return out


class TestFacePrescreen:
    """Faces are screened against the other set's box before their lanes
    reach the buffers. With ``stop_below == 0`` every value stays the
    job's exact minimum, within and intersection verdicts are unchanged,
    and the lanes counted before screening (``stats["pairs"]``, each
    flush's ``_note_batch`` and checkpoint) are those of an unscreened
    run."""

    @staticmethod
    def _unscreened_min(jobs):
        out = []
        for a, b in jobs:
            if len(a) == 0 or len(b) == 0:
                out.append(math.inf)
                continue
            lanes_a = np.repeat(a, len(b), axis=0)
            lanes_b = np.tile(b, (len(a), 1, 1))
            out.append(float(
                tri_tri_distance_batch(lanes_a, lanes_b, check_intersection=False).min()
            ))
        return out

    @staticmethod
    def _scenes(offset):
        """Seeded soups plus the corner-facing, flat-shadow, coplanar and
        integer-grid lanes ``TestWithinCap`` builds, grouped into
        multi-face jobs, all shifted by ``offset``. Most jobs span more
        than one 64-lane sub-block, so their faces are screened; the
        rest run the lane screen alone."""
        rng = np.random.default_rng(17)
        jobs = [(a + offset, b + offset) for a, b in _jobs(rng)]
        jobs += [
            (_soup(rng, n, (offset, offset, 0)), _soup(rng, m, (offset + dx, offset, dz)))
            for n, m, dx, dz in [(30, 40, 3.0, 0.0), (25, 25, 0.5, 2.5), (50, 8, 6.0, 1.0)]
        ]
        separated_a, separated_b = _axis_separated(rng, 240, offset)
        coplanar_a, coplanar_b = _coplanar(rng, 60)
        grid_a, grid_b = _grid_touching()
        for tris_a, tris_b, width in [
            (separated_a, separated_b, 6),
            (separated_a, separated_b, 12),
            (coplanar_a + offset, coplanar_b + offset, 10),
            (grid_a + offset, grid_b + offset, 1),
        ]:
            jobs += [
                (tris_a[i:i + width], tris_b[i:i + width])
                for i in range(0, len(tris_a), width)
            ]
        jobs += _tied_corners(rng, 60, 6, offset) + _tied_corners(rng, 60, 9, offset)
        return jobs

    @staticmethod
    def _unmasked(monkeypatch):
        """Switch the face screen (and NN's lane cap) off: the old path."""
        monkeypatch.setattr(
            _FaceTables, "face_masks",
            lambda self, caps: tuple(np.ones(len(rows), dtype=bool) for rows, _ in self.rows),
        )
        monkeypatch.setattr(
            _FaceTables, "nearest_caps", lambda self: np.full(len(self.side_a), np.inf)
        )

    @staticmethod
    def _accounted(computer, run):
        """``run(stats, checkpoint)``'s result, pairs, flush sizes, ticks."""
        sizes, ticks, stats = [], [], {}
        original = computer._note_batch
        computer._note_batch = lambda size: (sizes.append(size), original(size))
        try:
            result = run(stats, lambda: ticks.append(1))
        finally:
            del computer._note_batch
        return result, stats["pairs"], sizes, len(ticks)

    @pytest.mark.parametrize("offset", [0.0, 50.0, 1000.0])
    def test_nearest_values_are_exact(self, computer, offset):
        jobs = self._scenes(offset)
        got = batched_min_distances(computer, jobs)
        assert got == self._unscreened_min(jobs)

    @pytest.mark.parametrize("offset", [0.0, 50.0, 1000.0])
    def test_within_and_intersection_verdicts_unchanged(self, computer, offset):
        jobs = self._scenes(offset)
        reference = self._unscreened_min(jobs)
        for distance in (1e-9, 0.05, 0.5, 2.0):
            got = batched_min_distances(computer, jobs, stop_below=distance)
            assert [v <= distance for v in got] == [r <= distance for r in reference]
        expected = [
            bool(tri_tri_intersect_batch(
                np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1, 1))
            ).any()) if len(a) and len(b) else False
            for a, b in jobs
        ]
        assert batched_any_intersect(computer, jobs) == expected

    def test_accounting_matches_the_unscreened_run(self, computer, monkeypatch):
        jobs = self._scenes(0.0)
        runs = {
            "nn": lambda stats, tick: batched_min_distances(
                computer, jobs, stats=stats, checkpoint=tick),
            "within": lambda stats, tick: [
                v <= 0.5 for v in batched_min_distances(
                    computer, jobs, stop_below=0.5, stats=stats, checkpoint=tick)
            ],
            "intersection": lambda stats, tick: batched_any_intersect(
                computer, jobs, stats=stats, checkpoint=tick),
        }
        screened = {name: self._accounted(computer, run) for name, run in runs.items()}
        self._unmasked(monkeypatch)
        for name, run in runs.items():
            assert screened[name] == self._accounted(computer, run), name

    def test_faces_are_dropped_before_the_kernel(self, computer, monkeypatch):
        rng = np.random.default_rng(18)
        jobs = [(_soup(rng, 40, (0, 0, 0)), _soup(rng, 40, (6, 0, 0))) for _ in range(4)]
        lanes = []
        original = batch_module.tri_tri_distance_batch

        def counting(tris_a, tris_b, **kwargs):
            lanes.append(len(tris_a))
            return original(tris_a, tris_b, **kwargs)

        monkeypatch.setattr(batch_module, "tri_tri_distance_batch", counting)
        screened = batched_min_distances(computer, jobs)
        kernel_lanes = sum(lanes)
        lanes.clear()
        self._unmasked(monkeypatch)
        assert batched_min_distances(computer, jobs) == screened
        assert kernel_lanes < sum(lanes)

    def test_shared_target_is_tabled_once(self):
        rng = np.random.default_rng(19)
        target = _soup(rng, 9, (0, 0, 0))
        sources = [_soup(rng, 4 + i, (3 * i, 0, 0)) for i in range(12)]
        faces = _FaceTables([(target, tris) for tris in sources], block=1)
        assert len(faces.tris) == 9 + sum(len(tris) for tris in sources)
        assert [row_a for row_a, _ in faces.offsets] == [0] * 12
        set_lo, set_hi = faces.set_boxes
        assert np.array_equal(set_lo[0], target.min(axis=(0, 1)))
        assert np.array_equal(set_hi[0], target.max(axis=(0, 1)))
        # Each job still gets its own mask over the shared rows.
        keep_a, keep_b = faces.face_masks(faces.nearest_caps())
        assert len(keep_a) == 12 * 9
        assert len(keep_b) == sum(len(tris) for tris in sources)


class TestLanePass:
    """A launch's one lane pass (:meth:`_FaceTables.launch_lanes`) buffers
    exactly what the per-sub-block oracle (``_FaceScreen.lanes``,
    ``tests/oracles/face_screen.py``) buffers, concatenated: the same
    lanes in the same order, cut into the same segments, with each
    segment's job and sub-block; a sub-block the oracle answers None
    for gets no segment."""

    MASKS = ("all", "rows_false", "cols_false", "sparse")

    @classmethod
    def _draw(cls, rng):
        """A seeded case: jobs, block, face masks (or None; the tables'
        ``face_masks`` answers them) and a launch."""
        block = int(rng.choice([1, 3, 4, 7, 16, 40]))
        jobs = [
            (_soup(rng, int(n), (0, 0, 0)), _soup(rng, int(m), (0, 0, 0)))
            for n, m in rng.integers(1, 14, size=(int(rng.integers(1, 7)), 2))
        ]
        faces = _FaceTables(jobs, block)
        masks = None
        if rng.random() < 0.8:
            (_, bounds_a), (_, bounds_b) = faces.rows
            keep_a = rng.random(bounds_a[-1]) < 0.4
            keep_b = rng.random(bounds_b[-1]) < 0.4
            for k in range(len(faces.spanning)):
                rows = slice(bounds_a[k], bounds_a[k + 1])
                cols = slice(bounds_b[k], bounds_b[k + 1])
                kind = cls.MASKS[int(rng.integers(len(cls.MASKS)))]
                if kind == "all":
                    keep_a[rows] = keep_b[cols] = True
                elif kind == "rows_false":
                    keep_a[rows] = False
                elif kind == "cols_false":
                    keep_b[cols] = False
            masks = keep_a, keep_b
            faces.face_masks = lambda caps: masks
        first = int(rng.integers(0, -(-max(faces.totals) // block)))
        count = int(rng.choice([1, 2, 4, 8]))
        job_ids = [
            job_id for job_id, lanes in enumerate(faces.totals)
            if lanes > first * block and rng.random() < 0.8
        ] or [int(np.argmax(faces.totals))]
        return faces, masks, job_ids, first, count

    @staticmethod
    def _oracle(faces, masks, job_ids, first, count):
        """The oracle's ``lanes`` answers per sub-block, concatenated."""
        caps = None if masks is None else np.zeros(len(faces.totals))
        screen = face_screen._FaceScreen(faces, caps)
        block = faces._block
        ia, ib, starts, owners, subs = [], [], [], [], []
        for job_id in job_ids:
            row_a, row_b = faces.offsets[job_id]
            end = min((first + count) * block, faces.totals[job_id])
            for start in range(first * block, end, block):
                lanes = screen.lanes(job_id, start, min(start + block, end))
                if lanes is None:
                    continue
                starts.append(sum(map(len, ia)))
                owners.append(job_id)
                subs.append(start // block)
                ia.append(lanes[0] + row_a)
                ib.append(lanes[1] + row_b)
        if not ia:
            return None
        return np.concatenate(ia), np.concatenate(ib), starts, owners, subs

    def test_one_pass_equals_the_per_sub_block_oracle(self):
        rng = np.random.default_rng(23)
        seen = set()
        for _case in range(400):
            faces, masks, job_ids, first, count = self._draw(rng)
            caps = None if masks is None else np.zeros(len(faces.totals))
            kept = None if caps is None else faces.kept_faces(caps)
            got = faces.launch_lanes(kept, job_ids, first, count)
            expected = self._oracle(faces, masks, job_ids, first, count)
            block = faces._block
            if got is None or expected is None:
                assert got is expected
                seen.add("no lane survives")
                continue
            for name, a, b in zip(("ia", "ib", "starts", "owners", "subs"), got, expected):
                assert np.array_equal(a, b), name
            assert got[0].dtype == np.intp
            for job_id in job_ids:
                width = faces.widths[job_id]
                seen.add("block < width" if block < width else "block > width"
                         if block > width else "block == width")
                if block % width:
                    seen.add("width does not divide block")
                if faces.totals[job_id] < (first + count) * block:
                    seen.add("total ends mid-launch")
            seen.add("no masks" if masks is None else "masks")
            if len(got[2]) < sum(
                len(range(first * block, min((first + count) * block, faces.totals[j]), block))
                for j in job_ids
            ):
                seen.add("a sub-block with no segment")
        assert seen >= {
            "block < width", "block > width", "width does not divide block",
            "total ends mid-launch", "no masks", "masks", "a sub-block with no segment",
            "no lane survives",
        }


def _settle_mix(rng):
    """Jobs that settle at every point a wave can: in their first
    sub-block, part-way, never, and at contact (a shared vertex, 0.0),
    plus jobs with an empty side and jobs of one sub-block (64 lanes on
    the distance paths, 8 on intersection, with the ``computer``
    fixture's blocks)."""
    empty = np.zeros((0, 3, 3))
    far_then_near = np.concatenate([_soup(rng, 20, (8, 0, 0)), _soup(rng, 6, (0.5, 0, 0))])
    touching_a = _soup(rng, 30, (20, 0, 0))
    touching_b = _soup(rng, 10, (22.5, 0, 0))
    touching_b[4, 0] = touching_a[17, 1]  # lane 17 * 10 + 4: sub-block 2
    same = _soup(rng, 10, (4, 4, 4))
    return [
        (same, same.copy()),  # contact in lane 0: every path settles at once
        (_soup(rng, 12, (0, 0, 0)), _soup(rng, 12, (0.3, 0, 0))),  # first sub-block
        (far_then_near, _soup(rng, 10, (0, 0, 0))),                # part-way
        (_soup(rng, 15, (0, 0, 0)), _soup(rng, 15, (9, 0, 0))),    # never
        (touching_a, touching_b),                                  # contact
        (empty, _soup(rng, 5, (0, 0, 0))),
        (_soup(rng, 5, (0, 0, 0)), empty),
        (_soup(rng, 3, (0, 0, 0)), _soup(rng, 4, (0.2, 0, 0))),    # one sub-block
        (_soup(rng, 2, (0, 0, 0)), _soup(rng, 3, (6, 0, 0))),      # one, far
        (_soup(rng, 40, (0, 0, 0)), _soup(rng, 12, (2.2, 0, 0))),  # near miss, long
    ]


class _Stop(Exception):
    pass


class TestLookAheadMatchesInterleaved:
    """The look-ahead wave loop replays the interleaved waves exactly.

    ``tests/oracles/interleaved_waves.py`` is the wave loop that evaluated
    every wave's sub-blocks as the wave enumerated them. The shipped one
    evaluates sub-blocks ahead, in launches whose horizon doubles, and
    replays the waves on their values: results, ``stats["pairs"]``, the
    ``_note_batch`` size sequence and the checkpoints must be the
    oracle's, in fewer kernel launches than waves, and no job may be
    evaluated past twice the sub-blocks it settles in.
    """

    RUNS = {
        "nearest": lambda computer, jobs, **kw: batched_min_distances(computer, jobs, **kw),
        "nearest_checked": lambda computer, jobs, **kw: batched_min_distances(
            computer, jobs, check_intersection=True, **kw),
        "within": lambda computer, jobs, **kw: batched_min_distances(
            computer, jobs, stop_below=0.3, **kw),
        "within_checked": lambda computer, jobs, **kw: batched_min_distances(
            computer, jobs, stop_below=0.3, check_intersection=True, **kw),
        "intersect": lambda computer, jobs, **kw: batched_any_intersect(computer, jobs, **kw),
    }

    @staticmethod
    def _observe(computer, run, jobs, checkpoint=None, waves=None):
        """``run``'s result plus everything the waves account and launch,
        on the shipped wave loop or on ``waves``. ``evaluated`` counts,
        per job, the sub-blocks it had evaluated: each look-ahead
        launch's covered sub-blocks on the shipped loop, each
        ``_FaceScreen.lanes`` call on the oracle's."""
        sizes, ticks, stats, launches = [], [], {}, []
        evaluated = [0] * len(jobs)
        lanes = face_screen._FaceScreen.lanes
        launch_lanes = _FaceTables.launch_lanes

        def counting_lanes(screen, job_id, start, stop):
            evaluated[job_id] += 1
            return lanes(screen, job_id, start, stop)

        def counting_launch(faces, kept, job_ids, first, count):
            block = faces._block
            for job_id in job_ids:
                end = min((first + count) * block, faces.totals[job_id])
                evaluated[job_id] += len(range(first * block, end, block))
            return launch_lanes(faces, kept, job_ids, first, count)

        def counting(kernel):
            def launch(*args, **kwargs):
                launches.append(len(args[1]))
                return kernel(*args, **kwargs)
            return launch

        def tick():
            ticks.append(1)
            if checkpoint is not None:
                checkpoint(len(ticks))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(face_screen._FaceScreen, "lanes", counting_lanes)
            patch.setattr(_FaceTables, "launch_lanes", counting_launch)
            for name in ("_screened_distance", "_screened_intersect"):
                patch.setattr(batch_module, name, counting(getattr(batch_module, name)))
            if waves is not None:
                patch.setattr(batch_module, "_run_waves", waves)
            patch.setattr(computer, "_note_batch", sizes.append)
            result = run(computer, jobs, stats=stats, checkpoint=tick)
        return {
            "result": result, "pairs": stats["pairs"], "sizes": sizes,
            "ticks": len(ticks), "launches": len(launches), "evaluated": evaluated,
        }

    def _both(self, computer, run, jobs):
        return (
            self._observe(computer, run, jobs),
            self._observe(computer, run, jobs, waves=interleaved_waves._run_waves),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", sorted(RUNS))
    def test_replays_the_interleaved_waves(self, computer, mode, seed):
        jobs = _settle_mix(np.random.default_rng(seed))
        shipped, oracle = self._both(computer, self.RUNS[mode], jobs)
        for key in ("result", "pairs", "sizes", "ticks"):
            assert shipped[key] == oracle[key], key
        # The oracle enumerates each sub-block as its wave reaches it, so
        # its per-job count is the job's settle point, and the most any
        # job takes is the number of waves.
        settle = oracle["evaluated"]
        waves = max(settle)
        assert waves >= 4
        assert shipped["launches"] < waves
        for done, needed in zip(shipped["evaluated"], settle):
            assert needed <= done <= max(2 * needed - 1, 0)

    def test_the_mix_settles_everywhere(self, computer):
        jobs = _settle_mix(np.random.default_rng(0))
        nearest = batched_min_distances(computer, jobs)
        assert nearest[0] == nearest[4] == 0.0  # contact
        assert nearest[5] == nearest[6] == math.inf  # empty sides
        within = [v <= 0.3 for v in batched_min_distances(computer, jobs, stop_below=0.3)]
        assert within[:4] == [True, True, True, False]
        assert batched_any_intersect(computer, jobs)[0]

    @pytest.mark.parametrize("mode", sorted(RUNS))
    def test_checkpoint_raises_at_the_same_call(self, computer, mode):
        jobs = _settle_mix(np.random.default_rng(2))
        calls = self._observe(computer, self.RUNS[mode], jobs)["ticks"]
        for stop_at in sorted({1, 2, calls // 2, calls}):
            def checkpoint(call, stop_at=stop_at):
                if call == stop_at:
                    raise _Stop(call)

            for waves in (None, interleaved_waves._run_waves):
                with pytest.raises(_Stop) as info:
                    self._observe(computer, self.RUNS[mode], jobs, checkpoint, waves)
                assert info.value.args == (stop_at,)


class TestKthSmallestProperties:
    def test_matches_sorted_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            values = list(rng.choice([0.5, 1.0, 1.5, 2.0, 7.0], size=n))
            k = int(rng.integers(1, 15))
            assert _kth_smallest(values, k) == sorted(values)[min(k, n) - 1]

    def test_k_one_is_min(self):
        assert _kth_smallest([4.0, 2.0, 9.0], 1) == 2.0

    def test_k_beyond_length_is_max(self):
        assert _kth_smallest([4.0, 2.0], 99) == 4.0

    def test_ties(self):
        assert _kth_smallest([3.0, 3.0, 3.0, 1.0], 3) == 3.0

    def test_empty_is_inf(self):
        assert _kth_smallest([], 2) == math.inf

    def test_does_not_mutate_input(self):
        values = [5.0, 1.0, 3.0]
        _kth_smallest(values, 2)
        assert values == [5.0, 1.0, 3.0]


class _Dec:
    def __init__(self, triangles, lod=0):
        self.triangles = np.asarray(triangles, dtype=float).reshape(-1, 3, 3)
        self.lod = lod


class TestFacesAABBMemo:
    """Satellite: the containment stage's face AABBs are computed once
    per (side, object, served LOD) and dictionary-hits thereafter."""

    def _ctx(self):
        return RefineContext(
            computer=GeometryComputer(),
            stats=QueryStats(),
            target_provider=None,
            source_provider=None,
            lods=(0,),
        )

    def test_second_lookup_is_a_hit(self):
        ctx = self._ctx()
        dec = _Dec(np.arange(18, dtype=float).reshape(2, 3, 3), lod=3)
        first = ctx.faces_aabb("target", 7, dec)
        assert (ctx.aabb_cache_misses, ctx.aabb_cache_hits) == (1, 0)
        second = ctx.faces_aabb("target", 7, dec)
        assert (ctx.aabb_cache_misses, ctx.aabb_cache_hits) == (1, 1)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        assert np.array_equal(first[0], dec.triangles.min(axis=(0, 1)))
        assert np.array_equal(first[1], dec.triangles.max(axis=(0, 1)))

    def test_keyed_by_side_object_and_served_lod(self):
        ctx = self._ctx()
        tris = np.arange(9, dtype=float).reshape(1, 3, 3)
        ctx.faces_aabb("target", 1, _Dec(tris, lod=2))
        ctx.faces_aabb("source", 1, _Dec(tris, lod=2))   # other side: miss
        ctx.faces_aabb("target", 2, _Dec(tris, lod=2))   # other object: miss
        ctx.faces_aabb("target", 1, _Dec(tris, lod=1))   # degraded serve: miss
        ctx.faces_aabb("target", 1, _Dec(tris, lod=2))   # repeat: hit
        assert (ctx.aabb_cache_misses, ctx.aabb_cache_hits) == (4, 1)

    def test_intersection_join_populates_the_memo(self, encoder):
        # End to end: sources nested inside a target survive every SAT
        # round (surfaces disjoint) and land in the containment stage,
        # where the repeated target-AABB lookups must hit the memo.
        from repro.compression import PPVPEncoder
        from repro.core.refine import RefineContext as Ctx
        from repro.mesh import icosphere
        from repro.storage import Dataset

        # Two targets sharing the same nested sources: the second
        # target's containment stage must hit the memoized source boxes
        # (the context, and with it the memo, is per-chunk).
        outer = [
            icosphere(1, radius=10.0),
            icosphere(1, radius=10.0, center=(0.5, 0, 0)),
        ]
        inner = [
            icosphere(1, radius=1.0, center=(2.0, 0, 0)),
            icosphere(1, radius=1.0, center=(-2.0, 0, 0)),
            icosphere(1, radius=1.0, center=(0, 2.0, 0)),
        ]
        nested = {
            "outer": Dataset.from_polyhedra("outer", outer, encoder),
            "inner": Dataset.from_polyhedra("inner", inner, encoder),
        }
        seen = []
        original = Ctx.faces_aabb

        def spy(self, side, obj_id, dec):
            box = original(self, side, obj_id, dec)
            seen.append((self.aabb_cache_hits, self.aabb_cache_misses))
            return box

        Ctx.faces_aabb = spy
        try:
            engine = _build(nested, query_workers=1)
            result = engine.intersection_join("outer", "inner")
        finally:
            Ctx.faces_aabb = original
        assert list(result.pairs.values()) == [[0, 1, 2], [0, 1, 2]]
        assert seen, "containment stage never consulted the AABB memo"
        hits, misses = seen[-1]
        assert hits > 0, "no repeated lookup ever hit the memo"


def _build(datasets, **config_kwargs):
    engine = ThreeDPro(EngineConfig(paradigm="fpr", **config_kwargs))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


@pytest.fixture
def oracle_run(datasets):
    """Run a spec on a serial engine that refines through the per-pair
    reference oracle (the swap cannot reach spawned workers, so parallel
    runs of the shipped code are compared with this serial run);
    ``tree=True`` selects the oracle's AABB-tree pair kernels."""

    def run(spec, tree=False, **config_kwargs):
        with per_pair_refine.installed(tree=tree):
            return _build(datasets, query_workers=1, **config_kwargs).execute(spec)

    return run


def _comparable(result, with_cache):
    """Everything the shipped rounds and the oracle must agree on.

    Cache counters are deterministic only single-worker: chunk-to-worker
    assignment (and with it cross-chunk cache reuse) is scheduling-
    dependent under process fan-out, the same exclusion
    ``test_parallel_query._comparable_counters`` makes.
    """
    funnel = result.stats.funnel.as_dict()
    if not with_cache:
        for stage in funnel.get("stages", {}).values():
            for key in ("cache_hits", "cache_misses", "decoded_objects",
                        "decoded_bytes"):
                stage.pop(key, None)
    return {
        "pairs": list(result.pairs.items()),
        "matches": result.matches,
        "degraded_targets": result.degraded_targets,
        "funnel": funnel,
        "targets": result.stats.targets,
        "candidates": result.stats.candidates,
        "results": result.stats.results,
        "degraded_objects": result.stats.degraded_objects,
        # face_pairs_by_lod is deliberately absent: the oracle walks
        # the same candidate pairs but with different early-exit block
        # granularity, so raw face-pair lane counts differ. Backend
        # invariance of that counter is covered by
        # test_parallel_query._comparable_counters.
        "pairs_evaluated_by_lod": sorted(result.stats.pairs_evaluated_by_lod.items()),
        "pairs_pruned_by_lod": sorted(result.stats.pairs_pruned_by_lod.items()),
    }


PARITY_SPECS = [
    QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a"),
    QuerySpec(kind="within", source="nuclei_b", target="nuclei_a", distance=1.0),
    QuerySpec(kind="nn", source="vessels", target="nuclei_a"),
    QuerySpec(kind="knn", source="vessels", target="nuclei_a", k=2),
]

PARITY_IDS = [spec.normalized().label for spec in PARITY_SPECS]


def _containment_spec(scene):
    # Nucleus 1's centroid: confirmed at LOD 1, and seed-11 faults fire.
    point = tuple(scene.nuclei_a[1].vertices.mean(axis=0))
    return QuerySpec(kind="containment", source="nuclei_a", point=point)


#: The oracle parity set, ``id -> (spec or spec-from-scene, config)``:
#: every query kind, kNN with k above the two vessels (over every third
#: target, which keeps the per-pair oracle affordable), and NN with the
#: exact_nn_distances pass (over nuclei, where every target settles
#: early without it).
ORACLE_CASES = {
    **{label: (spec, {}) for label, spec in zip(PARITY_IDS, PARITY_SPECS)},
    "knn_join(k=3)": (
        QuerySpec(kind="knn", source="nuclei_b", target="nuclei_a", k=3,
                  target_ids=tuple(range(0, 40, 3))),
        {},
    ),
    "nn_join-exact": (
        QuerySpec(kind="nn", source="nuclei_b", target="nuclei_a"),
        {"exact_nn_distances": True},
    ),
    "containment_query": (_containment_spec, {}),
}

#: Cases under seed-11 decode faults: kNN k=2 over two vessels settles
#: without a single decode, so no fault could fire.
FAULTED_CASES = [case for case in ORACLE_CASES if case != "knn_join(k=2)"]

#: Cases whose deadline partials are compared target by target: every
#: committed target finished (a containment partial may commit the
#: point's confirmed-so-far subset instead).
DEADLINE_CASES = [case for case in ORACLE_CASES if case != "containment_query"]


@pytest.fixture
def case(request, small_scene):
    """``(spec, config overrides)`` of one ORACLE_CASES entry."""
    spec, config = ORACLE_CASES[request.param]
    return (spec(small_scene) if callable(spec) else spec), config


BACKENDS = [
    pytest.param({"query_workers": 1}, id="serial"),
    pytest.param({"query_workers": 2, "query_backend": "process"}, id="process"),
]


def _faulted(run, *args, **kwargs):
    """``run`` under a fresh seed-11 decode-fault injector that must fire.

    Process workers fire their own copies of the injector, so the
    parent's counts stay 0 there; the decode failures the workers' stats
    ship back are the evidence instead.
    """
    injector = FaultInjector(seed=11, decode_error_rate=0.3)
    result = run(*args, fault_injector=injector, **kwargs)
    fired = injector.counts.get("decode", 0) or result.stats.decode_failures
    assert fired > 0, "no faults fired"
    return result


@pytest.fixture(scope="module")
def oracle(datasets):
    """The per-pair oracle's ``(result, stream frames)`` for a spec, once.

    The oracle refines target by target whatever the executor's
    grouping, so one serial run with a progress hook serves both the
    result comparisons and the frame comparisons; runs are memoized per
    (spec, faulted, tree, config) because the oracle is the slow side.
    ``tree=True`` selects the oracle's AABB-tree pair kernels.
    """
    memo = {}

    def run(spec, faulted=False, tree=False, **config_kwargs):
        key = (spec, faulted, tree, tuple(sorted(config_kwargs.items())))
        if key not in memo:
            frames = []
            streamed = replace(spec, progress=lambda tid, lod, m: frames.append(
                (tid, lod, list(m))
            ))

            def execute(**kwargs):
                with per_pair_refine.installed(tree=tree):
                    return _build(
                        datasets, query_workers=1, **config_kwargs, **kwargs
                    ).execute(streamed)

            memo[key] = (_faulted(execute) if faulted else execute(), frames)
        return memo[key]

    return run


def _frames(engine, spec):
    collected = []
    engine.execute(replace(spec, progress=lambda tid, lod, m: collected.append(
        (tid, lod, list(m))
    )))
    return collected


class TestBatchedMatchesPerPair:
    """The tentpole property: the group rounds answer as the per-target,
    per-pair oracle does, whatever the grouping."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", list(ORACLE_CASES), indirect=True)
    def test_clean_runs_identical(self, datasets, oracle, case, backend):
        spec, config = case
        per_pair, _frames = oracle(spec, **config)
        batched = _build(datasets, **backend, **config).execute(spec)
        with_cache = backend.get("query_workers") == 1
        assert _comparable(batched, with_cache) == _comparable(per_pair, with_cache)
        for result in (per_pair, batched):
            assert result.funnel.violations(result.stats, strict=True) == []

    @pytest.mark.parametrize("case", list(ORACLE_CASES), indirect=True)
    def test_process_backend_identical(self, datasets, oracle, case):
        spec, config = case
        backend = {"query_workers": 2, "query_backend": "process"}
        per_pair, _frames = oracle(spec, **config)
        batched = _build(datasets, **backend, **config).execute(spec)
        assert _comparable(batched, False) == _comparable(per_pair, False)
        for result in (per_pair, batched):
            assert result.funnel.violations(result.stats, strict=True) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", FAULTED_CASES, indirect=True)
    def test_faulted_runs_identical(self, datasets, oracle, case, backend):
        spec, config = case

        def shipped(**fault):
            return _build(datasets, **backend, **config, **fault).execute(spec)

        per_pair, _frames = oracle(spec, faulted=True, **config)
        batched = _faulted(shipped)
        with_cache = backend.get("query_workers") == 1
        assert _comparable(batched, with_cache) == _comparable(per_pair, with_cache)
        for result in (per_pair, batched):
            assert result.funnel.violations(result.stats, strict=True) == []

    def test_containment_identical(self, datasets, oracle_run, small_scene):
        point = tuple(small_scene.nuclei_a[0].vertices.mean(axis=0))
        spec = QuerySpec(kind="containment", source="nuclei_a", point=point)
        per_pair = oracle_run(spec)
        batched = _build(datasets, query_workers=1).execute(spec)
        assert _comparable(batched, True) == _comparable(per_pair, True)

    @pytest.mark.parametrize("case", DEADLINE_CASES, indirect=True)
    def test_deadline_partials_are_sound_subsets(self, datasets, oracle, case):
        spec, config = case
        reference, _frames = oracle(spec, **config)
        partial = _build(datasets, **config).execute(replace(spec, deadline_ms=1))
        comp = partial.completeness
        assert comp is not None
        assert comp.targets_total == (
            comp.targets_finished + comp.targets_inflight + comp.targets_unstarted
        )
        assert set(partial.pairs) <= set(reference.pairs)
        for tid, matches in partial.pairs.items():
            assert matches == reference.pairs[tid]
        assert partial.funnel.violations(partial.stats, strict=False) == []

    @pytest.mark.parametrize("case", list(ORACLE_CASES), indirect=True)
    def test_streamed_frames_identical(self, datasets, oracle, case):
        spec, config = case
        _result, reference = oracle(spec, **config)
        assert reference, "nothing streamed"
        serial = _build(datasets, query_workers=1, **config)
        # Serial frames arrive target-major, round by round, exactly as
        # the oracle emits them. Process workers send no frames; the
        # serve layer's catch-up flush covers them (tests/test_serve.py).
        assert _frames(serial, spec) == reference


class TestDegradedAccountingUniform:
    """Satellite: source-decode failures settle identically whether they
    surface as a DecodeFailureError or as a zero-face degraded serve —
    and identically in the round loop and the per-pair oracle."""

    @pytest.mark.parametrize("rate", [0.3, 0.9])
    def test_source_faults_reconcile(self, datasets, oracle_run, rate):
        spec = QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a")
        per_pair = oracle_run(
            spec, fault_injector=FaultInjector(seed=11, decode_error_rate=rate)
        )
        batched = _build(
            datasets, fault_injector=FaultInjector(seed=11, decode_error_rate=rate)
        ).execute(spec)
        assert batched.stats.degraded_objects == per_pair.stats.degraded_objects
        assert batched.degraded_targets == per_pair.degraded_targets
        assert list(batched.pairs.items()) == list(per_pair.pairs.items())
        for result in (per_pair, batched):
            assert result.funnel.violations(result.stats, strict=True) == []
            degraded = sum(s.degraded for s in result.funnel.stages.values())
            if rate == 0.9:
                assert result.stats.degraded_objects > 0
                assert degraded > 0


class TestTreeEvaluatorMatchesBase:
    """The AABB-tree oracle (``per_pair_refine.installed(tree=True)``:
    one dual-tree traversal per pair, the paper's Section 5.1 index) is
    a different algorithm from the fused waves. The shipped rounds must
    settle every pair at the LOD, and in the way, the traversals do
    (``_comparable``: pairs, pairs ledger, funnel — not face-lane
    counts)."""

    @pytest.mark.parametrize("backend", [
        pytest.param({"query_workers": 1}, id="serial"),
        pytest.param({"query_workers": 4}, id="workers4"),
    ])
    @pytest.mark.parametrize("spec", PARITY_SPECS[:2], ids=PARITY_IDS[:2])
    def test_settlement_identical(self, datasets, oracle, spec, backend):
        tree, _stream = oracle(spec, tree=True)
        base = _build(datasets, **backend).execute(spec)
        with_cache = backend["query_workers"] == 1
        assert _comparable(base, with_cache) == _comparable(tree, with_cache)
        assert tree.funnel.violations(tree.stats, strict=True) == []

    @pytest.mark.parametrize("spec", PARITY_SPECS[2:], ids=PARITY_IDS[2:])
    def test_nearest_neighbors_identical(self, datasets, oracle, spec):
        # Distances may differ in the last ulp (the traversal visits face
        # pairs in another order than the waves), so compare who matched.
        def neighbors(result):
            return {tid: [sid for sid, _d, _x in m] for tid, m in result.pairs.items()}

        tree, _stream = oracle(spec, tree=True)
        for backend in ({"query_workers": 1}, {"query_workers": 4}):
            base = _build(datasets, **backend).execute(spec)
            assert neighbors(base) == neighbors(tree)

    def test_faulted_settlement_identical(self, datasets, oracle):
        def run(spec, **config_kwargs):
            return _build(datasets, query_workers=1, **config_kwargs).execute(spec)

        spec = PARITY_SPECS[0]
        base = _faulted(run, spec)
        tree, _stream = oracle(spec, faulted=True, tree=True)
        assert _comparable(base, True) == _comparable(tree, True)

    def test_tree_matches_the_tree_oracle(self, oracle, datasets):
        # Streamed frames: serial groups of one confirm each pair in the
        # same round, in the same order, as the traversals do.
        for spec in PARITY_SPECS[:2]:
            _tree, reference = oracle(spec, tree=True)
            assert reference, "nothing streamed"
            assert _frames(_build(datasets, query_workers=1), spec) == reference


class TestBatchedRefineKeywordIsPinned:
    """``batched_refine`` is no longer a setting: the keyword survives so
    1.x configurations construct, but only with the one remaining value."""

    @pytest.mark.parametrize("value", [None, True])
    def test_accepted(self, value):
        EngineConfig(batched_refine=value)

    def test_false_is_rejected(self):
        with pytest.raises(EngineConfigError, match="removed in 2.0"):
            EngineConfig(batched_refine=False)
