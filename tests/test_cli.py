"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.io import write_off, write_stl
from repro.mesh import icosphere


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("scene")
    code = main(
        [
            "generate",
            str(root),
            "--nuclei", "10",
            "--vessels", "0",
            "--seed", "3",
            "--region", "40",
        ]
    )
    assert code == 0
    return root


class TestGenerate:
    def test_creates_datasets(self, generated):
        assert (generated / "nuclei_a" / "manifest.json").exists()
        assert (generated / "nuclei_b" / "manifest.json").exists()

    def test_skips_empty_vessels(self, generated):
        assert not (generated / "vessels").exists()

    def test_default_save_is_a_lazy_shard_store(self, generated):
        import json

        from repro.storage import load_dataset

        manifest = json.loads((generated / "nuclei_a" / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        dataset = load_dataset(generated / "nuclei_a")
        assert dataset.storage == "shard"
        assert dataset.materialized_count() == 0  # nothing decoded before a query


class TestStoreMigrate:
    def test_migrates_old_directories_once(self, tmp_path, capsys):
        from repro.compression import PPVPEncoder
        from repro.storage import Dataset, load_dataset
        from tests.oracles.legacy_store import save_legacy_dataset

        dataset = Dataset.from_polyhedra(
            "old", [icosphere(1), icosphere(1, center=(5, 0, 0))], PPVPEncoder(max_lods=3)
        )
        save_legacy_dataset(dataset, tmp_path / "old")
        assert load_dataset(tmp_path / "old").storage == "legacy"
        assert main(["store", "migrate", str(tmp_path / "old")]) == 0
        assert "migrated to shard" in capsys.readouterr().out
        assert load_dataset(tmp_path / "old").storage == "shard"
        assert main(["store", "migrate", str(tmp_path / "old")]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_there_is_no_way_back(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "migrate", str(tmp_path), "--to", "legacy"])


class TestCompressInspectDecode:
    def test_compress_off_and_stl(self, tmp_path, capsys):
        off_path = tmp_path / "a.off"
        stl_path = tmp_path / "b.stl"
        write_off(off_path, icosphere(1, center=(0, 0, 0)))
        write_stl(stl_path, icosphere(1, center=(5, 0, 0)))
        out = tmp_path / "ds"
        assert main(["compress", str(off_path), str(stl_path), "-o", str(out)]) == 0
        assert "compressed 2 meshes" in capsys.readouterr().out

    def test_inspect(self, tmp_path, capsys):
        off_path = tmp_path / "a.off"
        write_off(off_path, icosphere(1))
        out = tmp_path / "ds"
        main(["compress", str(off_path), "-o", str(out)])
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "1 objects" in text
        assert "faces=" in text

    def test_decode_roundtrip(self, tmp_path):
        from repro.io import read_off

        off_path = tmp_path / "a.off"
        mesh = icosphere(1)
        write_off(off_path, mesh)
        out = tmp_path / "ds"
        main(["compress", str(off_path), "-o", str(out)])

        exported = tmp_path / "full.off"
        assert main(["decode", str(out), "--object", "0", "-o", str(exported)]) == 0
        assert read_off(exported).num_faces == mesh.num_faces

        coarse = tmp_path / "coarse.stl"
        assert main(["decode", str(out), "--lod", "0", "-o", str(coarse)]) == 0

    def test_decode_bad_object(self, tmp_path):
        off_path = tmp_path / "a.off"
        write_off(off_path, icosphere(1))
        out = tmp_path / "ds"
        main(["compress", str(off_path), "-o", str(out)])
        with pytest.raises(SystemExit):
            main(["decode", str(out), "--object", "9", "-o", str(tmp_path / "x.off")])

    def test_unsupported_format(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compress", str(tmp_path / "mesh.obj"), "-o", str(tmp_path / "d")])


class TestQueryAndProfile:
    def test_nn_query(self, generated, capsys):
        code = main(
            ["query", str(generated / "nuclei_a"), str(generated / "nuclei_b"), "--query", "nn"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "nn_join" in text
        assert "target 0" in text

    def test_intersection_query_with_accel(self, generated, capsys):
        # Partitioning needs no flag: the engine decides it by object size.
        code = main(
            [
                "query",
                str(generated / "nuclei_a"),
                str(generated / "nuclei_b"),
                "--query", "intersection",
                "--paradigm", "fr",
            ]
        )
        assert code == 0
        assert "intersection_join" in capsys.readouterr().out

    def test_accel_aabb_is_gone(self, generated, capsys):
        # So is the flag itself, for every value it used to take.
        for accel in ("aabb", "partition"):
            with pytest.raises(SystemExit) as exc:
                main(
                    [
                        "query",
                        str(generated / "nuclei_a"),
                        str(generated / "nuclei_b"),
                        "--accel", accel,
                    ]
                )
            assert exc.value.code == 2
            assert "unrecognized arguments: --accel" in capsys.readouterr().err

    def test_within_requires_distance(self, generated):
        with pytest.raises(SystemExit):
            main(
                ["query", str(generated / "nuclei_a"), str(generated / "nuclei_b"), "--query", "within"]
            )

    def test_query_backend_flag_is_gone(self, generated, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "query",
                    str(generated / "nuclei_a"),
                    str(generated / "nuclei_b"),
                    "--query-backend", "process",
                ]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --query-backend" in capsys.readouterr().err

    def test_within_query(self, generated, capsys):
        code = main(
            [
                "query",
                str(generated / "nuclei_a"),
                str(generated / "nuclei_b"),
                "--query", "within",
                "--distance", "2.0",
            ]
        )
        assert code == 0
        assert "within_join" in capsys.readouterr().out

    def test_profile(self, generated, capsys):
        code = main(
            [
                "profile",
                str(generated / "nuclei_a"),
                str(generated / "nuclei_b"),
                "--query", "intersection",
                "--sample", "5",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "chosen lod_list" in text

    def test_obs_exports_telemetry(self, generated, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        chrome = tmp_path / "chrome.json"
        prom = tmp_path / "metrics.prom"
        mjson = tmp_path / "metrics.json"
        code = main(
            [
                "obs",
                str(generated / "nuclei_a"),
                str(generated / "nuclei_b"),
                "--query", "nn",
                "--trace-json", str(trace),
                "--chrome-trace", str(chrome),
                "--metrics-prom", str(prom),
                "--metrics-json", str(mjson),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "nn_join" in text
        assert "trace totals" in text
        spans = json.loads(trace.read_text())["spans"]
        assert spans and spans[0]["name"] == "query"
        events = json.loads(chrome.read_text())["traceEvents"]
        assert any(event["name"] == "query" for event in events)
        assert "repro_cache_hits_total" in prom.read_text()
        assert "repro_queries_total" in json.loads(mjson.read_text())

    def test_obs_funnel_and_top(self, generated, capsys):
        code = main(
            [
                "obs",
                str(generated / "nuclei_a"),
                str(generated / "nuclei_b"),
                "--query", "nn",
                "--top", "3",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "funnel: candidates=" in text
        assert "top 3 spans by self time:" in text

    def test_obs_openmetrics_format(self, generated, tmp_path):
        prom = tmp_path / "metrics.om"
        code = main(
            [
                "obs",
                str(generated / "nuclei_a"),
                str(generated / "nuclei_b"),
                "--query", "nn",
                "--format", "openmetrics",
                "--metrics-prom", str(prom),
            ]
        )
        assert code == 0
        text = prom.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_queries_total" in text

    def test_obs_profile_collapsed(self, generated, tmp_path, capsys):
        collapsed = tmp_path / "profile.collapsed"
        code = main(
            [
                "obs",
                str(generated / "nuclei_a"),
                str(generated / "nuclei_b"),
                "--query", "within",
                "--distance", "2.0",
                "--profile-collapsed", str(collapsed),  # implies --profile
                "--profile-interval-ms", "0.5",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "profile:" in text
        assert collapsed.exists()
        # every line is "phase;frame;... count"
        for line in collapsed.read_text().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert ";" in stack
            int(count)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
