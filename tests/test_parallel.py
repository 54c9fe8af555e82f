"""Tests for the geometry computer and its pair blocks.

"CPU" below is the computer's per-pair blocked kernels (``cpu_block``);
"GPU" is the fused waves of :mod:`repro.core.batch`, which pack many
pairs' blocks into ``gpu_block``-lane flushes — the only batched path
refinement runs on.
"""

import numpy as np
import pytest

from repro.core.batch import batched_any_intersect, batched_min_distances
from repro.geometry import tri_tri_distance_batch
from repro.mesh import icosphere
from repro.parallel import GeometryComputer, iter_pair_blocks
from tests.oracles.aabbtree import TriangleAABBTree


def brute_distance(tris_a, tris_b):
    ii, jj = np.meshgrid(np.arange(len(tris_a)), np.arange(len(tris_b)), indexing="ij")
    return float(
        tri_tri_distance_batch(
            tris_a[ii.ravel()], tris_b[jj.ravel()], check_intersection=False
        ).min()
    )


class TestPairBlocks:
    def test_covers_all_pairs_exactly_once(self):
        seen = set()
        for ii, jj in iter_pair_blocks(7, 5, 8):
            seen.update(zip(ii.tolist(), jj.tolist()))
        assert seen == {(i, j) for i in range(7) for j in range(5)}

    def test_block_sizes(self):
        blocks = list(iter_pair_blocks(4, 4, 6))
        assert [len(ii) for ii, _ in blocks] == [6, 6, 4]

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            list(iter_pair_blocks(2, 2, 0))


class TestGeometryComputer:
    @pytest.fixture(scope="class")
    def spheres(self):
        a = icosphere(2, center=(0, 0, 0)).triangles
        b = icosphere(2, center=(3, 0.5, -0.2)).triangles
        return a, b

    def test_cpu_and_gpu_agree_on_intersection(self, spheres):
        a, b = spheres
        touching = icosphere(2, center=(1.5, 0, 0)).triangles
        computer = GeometryComputer()
        for other, expected in ((b, False), (touching, True)):
            cpu = computer.intersects(a, other)
            (gpu,) = batched_any_intersect(computer, [(a, other)])
            assert cpu == gpu == expected

    def test_cpu_and_gpu_agree_on_distance(self, spheres):
        a, b = spheres
        expected = brute_distance(a, b)
        computer = GeometryComputer()
        assert computer.min_distance(a, b) == pytest.approx(expected)
        assert batched_min_distances(computer, [(a, b)])[0] == pytest.approx(expected)

    def test_tree_path_agrees(self, spheres):
        # The AABB-tree oracle's traversals answer as the blocked loops do.
        a, b = spheres
        computer = GeometryComputer()
        tree_a, tree_b = TriangleAABBTree(a), TriangleAABBTree(b)
        assert tree_a.min_distance(tree_b) == pytest.approx(brute_distance(a, b))
        assert tree_a.min_distance(tree_b) == pytest.approx(computer.min_distance(a, b))
        assert tree_a.intersects(tree_b) is computer.intersects(a, b) is False

    def test_stop_below_early_exit_counts_fewer_pairs(self, spheres):
        a, b = spheres
        computer = GeometryComputer(cpu_block=64)
        full_stats, early_stats = {}, {}
        computer.min_distance(a, b, stats=full_stats)
        computer.min_distance(a, b, stop_below=100.0, stats=early_stats)
        assert early_stats["pairs"] < full_stats["pairs"]

    def test_gpu_uses_fewer_kernel_launches_than_cpu(self, spheres):
        # The fused waves flush at the kernel-saturating size; far fewer
        # launches than the CPU's small fixed tasks over the same pairs.
        a, b = spheres
        launches = {}
        for name, run in (
            ("cpu", lambda c: c.min_distance(a, b)),
            ("gpu", lambda c: batched_min_distances(c, [(a, b)])),
        ):
            computer = GeometryComputer()
            sizes = []
            computer._note_batch = sizes.append
            run(computer)
            launches[name] = len(sizes)
        assert launches["gpu"] * 8 <= launches["cpu"]

    def test_pairwise_min_distances_matches_loop(self, spheres):
        a, b = spheres
        c = icosphere(1, center=(-4, 0, 0)).triangles
        jobs = [(a, b), (a, c), (b, c)]
        expected = [brute_distance(x, y) for x, y in jobs]
        got = GeometryComputer().pairwise_min_distances(jobs)
        assert got == pytest.approx(expected)

    def test_pairwise_empty_jobs(self):
        assert GeometryComputer().pairwise_min_distances([]) == []

    def test_fused_batch_splits_large_jobs(self):
        # Jobs larger than the gpu block must still be exact.
        a = icosphere(2).triangles
        b = icosphere(2, center=(2.7, 0, 0)).triangles
        small_block = GeometryComputer(gpu_block=1000)
        expected = brute_distance(a, b)
        assert batched_min_distances(small_block, [(a, b)])[0] == pytest.approx(expected)
        assert small_block.pairwise_min_distances([(a, b)])[0] == pytest.approx(expected)
        assert small_block.min_distance(a, b) == pytest.approx(expected)


class TestSharedStatsAccounting:
    """The kernel "pairs" counter is exact across jobs and early exits."""

    @pytest.fixture(scope="class")
    def disjoint_jobs(self):
        # Well-separated sphere pairs: every distance is > 0, so the
        # stop_below=0.0 early exit never fires and the exact pair count
        # is the full cross product per job.
        jobs = []
        expected = 0
        for i in range(64):
            a = icosphere(0, center=(i * 10.0, 0.0, 0.0)).triangles
            b = icosphere(0, center=(i * 10.0 + 5.0, 0.0, 0.0)).triangles
            jobs.append((a, b))
            expected += len(a) * len(b)
        return jobs, expected

    def test_pairwise_stats_exact_serial(self, disjoint_jobs):
        jobs, expected = disjoint_jobs
        stats: dict = {}
        GeometryComputer().pairwise_min_distances(jobs, stats=stats)
        assert stats["pairs"] == expected

    def test_intersects_merges_once_on_hit(self):
        a = icosphere(1).triangles
        stats: dict = {}
        computer = GeometryComputer(cpu_block=8)
        assert computer.intersects(a, a, stats=stats)
        # early exit still reports the pairs actually evaluated
        assert 0 < stats["pairs"] <= len(a) * len(a)
