"""Fault tolerance: injector determinism, budgets, salvage.

Covers the chaos-harness substrate (`repro.faults`), the engine's
decode error budget, v1 container back-compat, sparse-id recovery, and
the end-to-end salvage acceptance scenario: corrupt one blob on disk,
load in salvage mode, and get a degraded-but-correct-subset join out of
it.
"""

import json

import pytest

from repro.compression import PPVPEncoder
from repro.compression.serialize import serialized_segment_sizes
from repro.core import EngineConfig, ThreeDPro
from repro.core.errors import (
    CuboidFormatError,
    DatasetFormatError,
    ErrorBudgetExceededError,
)
from repro.faults import FaultInjector, InjectedFault
from repro.mesh import icosphere
from repro.storage import Dataset, load_dataset
from repro.storage.fileformat import read_cuboid_file
from tests.oracles.legacy_store import save_legacy_dataset, write_cuboid_file


class TestFaultInjector:
    @staticmethod
    def _decode_pattern(inj, n=64):
        out = []
        for i in range(n):
            try:
                inj.before_decode("ds", i, 0)
                out.append(False)
            except InjectedFault:
                out.append(True)
        return out

    def test_decisions_are_pure_functions_of_seed_and_key(self):
        a = FaultInjector(seed=3, decode_error_rate=0.5)
        b = FaultInjector(seed=3, decode_error_rate=0.5)
        pattern = self._decode_pattern(a)
        assert pattern == self._decode_pattern(b)
        assert any(pattern) and not all(pattern)
        assert self._decode_pattern(FaultInjector(seed=4, decode_error_rate=0.5)) != pattern

    def test_counts_track_fired_faults(self):
        inj = FaultInjector(seed=3, decode_error_rate=0.5)
        fired = sum(self._decode_pattern(inj))
        assert inj.counts["decode"] == fired == inj.total_injected

    def test_corrupt_blob_flips_exactly_one_bit(self):
        inj = FaultInjector(seed=1, blob_flip_rate=1.0)
        blob = bytes(range(256))
        out = inj.corrupt_blob(blob, key="k")
        assert len(out) == len(blob) and out != blob
        diffs = [x ^ y for x, y in zip(blob, out) if x != y]
        assert len(diffs) == 1 and bin(diffs[0]).count("1") == 1
        # same seed + key -> same flip
        assert FaultInjector(seed=1, blob_flip_rate=1.0).corrupt_blob(blob, key="k") == out

    def test_max_faults_caps_total(self):
        inj = FaultInjector(seed=0, decode_error_rate=1.0, max_faults=2)
        fired = 0
        for i in range(10):
            try:
                inj.before_decode("ds", i, 0)
            except InjectedFault:
                fired += 1
        assert fired == 2 and inj.total_injected == 2

    def test_concurrent_fires_count_exactly(self):
        # Regression: counts was a bare read-modify-write, so two
        # threads firing at once could lose an increment.
        import threading

        inj = FaultInjector(seed=0, decode_error_rate=1.0)
        threads, per_thread = 8, 200

        def worker(base):
            for i in range(per_thread):
                with pytest.raises(InjectedFault):
                    inj.before_decode("ds", base * per_thread + i, 0)

        pool = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert inj.counts["decode"] == threads * per_thread

    def test_concurrent_max_faults_never_overshoots(self):
        import threading

        cap = 50
        inj = FaultInjector(seed=0, decode_error_rate=1.0, max_faults=cap)
        fired = [0] * 8

        def worker(slot):
            for i in range(200):
                try:
                    inj.before_decode("ds", slot * 200 + i, 0)
                except InjectedFault:
                    fired[slot] += 1

        pool = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert sum(fired) == cap == inj.total_injected

    def test_pickle_roundtrip_preserves_decisions(self):
        import pickle

        inj = FaultInjector(seed=3, decode_error_rate=0.5, worker_kill_rate=0.4)
        clone = pickle.loads(pickle.dumps(inj))
        assert self._decode_pattern(clone) == self._decode_pattern(
            FaultInjector(seed=3, decode_error_rate=0.5)
        )
        # the lock is recreated, not shared, and still guards counts
        assert clone._lock is not inj._lock
        clone._fire("task", 1.0, "k")
        assert clone.counts["task"] == 1

    def test_decode_delay_is_deterministic_and_counted(self):
        inj = FaultInjector(
            seed=2, decode_delay_rate=0.5, decode_delay_seconds=0.001
        )
        for i in range(32):
            inj.before_decode("ds", i, 0)
        fired = inj.counts.get("decode_delay", 0)
        assert 0 < fired < 32
        twin = FaultInjector(
            seed=2, decode_delay_rate=0.5, decode_delay_seconds=0.001
        )
        for i in range(32):
            twin.before_decode("ds", i, 0)
        assert twin.counts.get("decode_delay", 0) == fired

    def test_hang_only_fires_at_chunk_scope(self):
        # Hangs are injected in before_chunk (worker processes), never by
        # an in-process hook — a hang there would stall the parent,
        # which has no supervisor above it.
        inj = FaultInjector(seed=2, task_hang_rate=1.0, task_hang_seconds=0.001)
        for i in range(8):
            inj.before_decode("ds", i, 0)
        assert inj.counts.get("chunk_hang", 0) == 0
        inj.before_chunk("label:0", 0)
        assert inj.counts.get("chunk_hang", 0) == 1

    def test_before_chunk_hang_keyed_by_attempt(self):
        # worker_kill_rate stays 0 here — a real kill would SIGKILL the
        # test process. The hang side shares task_hang_* knobs.
        inj = FaultInjector(seed=2, task_hang_rate=0.6, task_hang_seconds=0.001)
        first = [
            inj._roll("chunk_hang", f"c:{i}:0") < 0.6 for i in range(16)
        ]
        retry = [
            inj._roll("chunk_hang", f"c:{i}:1") < 0.6 for i in range(16)
        ]
        assert any(first)
        assert first != retry, "retries must re-roll, not repeat the fault"
        for i in range(16):
            inj.before_chunk(f"c:{i}", 0)
        assert inj.counts.get("chunk_hang", 0) == sum(first)


class TestErrorBudget:
    def test_budget_exceeded_raises_cleanly(self, datasets):
        inj = FaultInjector(seed=5, decode_error_rate=1.0)
        engine = ThreeDPro(EngineConfig(fault_injector=inj, max_decode_failures=0))
        engine.load_dataset(datasets["nuclei_a"])
        engine.load_dataset(datasets["nuclei_b"])
        with pytest.raises(ErrorBudgetExceededError):
            engine.intersection_join("nuclei_a", "nuclei_b")

    def test_no_budget_means_no_limit(self, datasets):
        inj = FaultInjector(seed=5, decode_error_rate=1.0)
        engine = ThreeDPro(EngineConfig(fault_injector=inj))
        engine.load_dataset(datasets["nuclei_a"])
        engine.load_dataset(datasets["nuclei_b"])
        res = engine.intersection_join("nuclei_a", "nuclei_b")
        # every decode fails at every LOD -> nothing can be confirmed
        assert res.pairs == {}
        assert res.stats.degraded_objects > 0


@pytest.fixture()
def tiny_dataset_dir(tmp_path):
    """Three spheres in a single-cuboid dataset, saved to disk."""
    spheres = [icosphere(1, center=(4.0 * i, 0.0, 0.0)) for i in range(3)]
    ds = Dataset.from_polyhedra(
        "tiny", spheres, PPVPEncoder(max_lods=3), grid_shape=(1, 1, 1)
    )
    directory = tmp_path / "tiny"
    # This fixture's tests rewrite v2 container bytes directly.
    save_legacy_dataset(ds, directory)
    return directory


def _single_file(directory):
    manifest = json.loads((directory / "manifest.json").read_text())
    assert len(manifest["files"]) == 1
    return directory / manifest["files"][0]


class TestSparseAndMissingIds:
    def test_v1_container_roundtrip(self, tmp_path):
        path = tmp_path / "legacy.3dpc"
        write_cuboid_file(path, [b"alpha", b"beta-beta"], [0, 1], version=1)
        assert read_cuboid_file(path) == [(0, b"alpha"), (1, b"beta-beta")]

    def test_sparse_ids_strict_raises_salvage_renumbers(self, tiny_dataset_dir):
        path = _single_file(tiny_dataset_dir)
        pairs = read_cuboid_file(path)
        gapped = pairs[0][0] + 100
        ids = [gapped] + [oid for oid, _ in pairs[1:]]
        write_cuboid_file(path, [blob for _, blob in pairs], ids)

        with pytest.raises(DatasetFormatError, match="contiguous"):
            load_dataset(tiny_dataset_dir)

        ds = load_dataset(tiny_dataset_dir, mode="salvage")
        assert len(ds.objects) == 3
        assert sorted(ds.load_report.id_map.values()) == [0, 1, 2]
        assert ds.load_report.id_map[gapped] == 2  # gapped id packed to the end

    def test_missing_object_strict_raises_salvage_drops(self, tiny_dataset_dir):
        path = _single_file(tiny_dataset_dir)
        pairs = read_cuboid_file(path)
        write_cuboid_file(
            path, [blob for _, blob in pairs[1:]], [oid for oid, _ in pairs[1:]]
        )

        with pytest.raises(DatasetFormatError, match="promises 3"):
            load_dataset(tiny_dataset_dir)

        ds = load_dataset(tiny_dataset_dir, mode="salvage")
        report = ds.load_report
        assert len(ds.objects) == 2
        assert not report.ok
        kept = sorted(oid for oid, _ in pairs[1:])
        assert report.id_map == {oid: i for i, oid in enumerate(kept)}


class TestSalvageEndToEnd:
    """The acceptance scenario: flip one payload byte of one blob on
    disk, then strict load must refuse, salvage load must recover the
    object's intact lower LODs, and a join over the salvaged dataset
    must complete with degraded-but-correct-subset answers."""

    @pytest.fixture()
    def salvage_setup(self, datasets, tmp_path):
        clean = ThreeDPro(EngineConfig())
        clean.load_dataset(datasets["nuclei_a"])
        clean.load_dataset(datasets["nuclei_b"])
        ref = clean.intersection_join("nuclei_a", "nuclei_b")
        victim = min(tid for tid, sids in ref.pairs.items() if sids)

        directory = tmp_path / "nuclei_a"
        # Byte-level container surgery below is v2-specific.
        save_legacy_dataset(datasets["nuclei_a"], directory)

        manifest = json.loads((directory / "manifest.json").read_text())
        for filename in manifest["files"]:
            pairs = dict(read_cuboid_file(directory / filename))
            if victim in pairs:
                blob = pairs[victim]
                break
        else:
            raise AssertionError(f"object {victim} not found in any cuboid file")

        # Flip one byte inside the victim's *first round* segment: the
        # base mesh and the later rounds stay intact, so salvage keeps a
        # shorter-but-exact LOD ladder instead of dropping the object.
        sizes = serialized_segment_sizes(blob)
        assert sizes["rounds"], "victim must have at least one refinement round"
        inner = sizes["header"] + sizes["base"] + 1
        path = directory / filename
        data = bytearray(path.read_bytes())
        fpos = data.find(blob)
        assert fpos != -1, "blob bytes not found verbatim in container"
        data[fpos + inner] ^= 0x01
        path.write_bytes(bytes(data))
        return directory, filename, victim, ref

    def test_strict_load_refuses_corruption(self, salvage_setup):
        directory, _, _, _ = salvage_setup
        with pytest.raises(CuboidFormatError):
            load_dataset(directory)

    def test_salvage_load_reports_accurately(self, salvage_setup):
        directory, filename, victim, _ = salvage_setup
        ds = load_dataset(directory, mode="salvage")
        report = ds.load_report

        assert not report.ok
        assert report.container_faults == [filename]
        assert report.objects_loaded == report.objects_expected
        assert not report.quarantined_files and not report.skipped_blobs
        # nothing was dropped, so renumbering is the identity
        assert all(orig == new for orig, new in report.id_map.items())
        assert [entry[0] for entry in report.degraded_objects] == [victim]
        assert ds.degraded_ids == {victim}
        # the salvaged object lost rounds but kept a decodable ladder
        assert ds.objects[victim].max_lod >= 0

    def test_join_over_salvaged_dataset_is_correct_subset(self, salvage_setup, datasets):
        directory, _, victim, ref = salvage_setup
        ds = load_dataset(directory, mode="salvage")

        engine = ThreeDPro(EngineConfig())
        engine.load_dataset(ds)
        engine.load_dataset(datasets["nuclei_b"])
        res = engine.intersection_join("nuclei_a", "nuclei_b")

        assert res.stats.degraded_objects > 0
        assert victim in res.degraded_targets
        id_map = ds.load_report.id_map  # identity here, but translate anyway
        inverse = {new: orig for orig, new in id_map.items()}
        for tid, sids in res.pairs.items():
            assert set(sids) <= set(ref.pairs.get(inverse[tid], ()))
