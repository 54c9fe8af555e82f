"""Self-test of the benchmark suite (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q

Runs the harness in-process on its 12-nucleus scene with one store build
and short measurement windows, and checks the output against
``BENCHMARK.json`` and ``metrics.json``.
"""

import json
import multiprocessing
import re
import sys
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(SUITE))

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


@pytest.fixture(autouse=True)
def one_build(monkeypatch):
    monkeypatch.setattr(run, "BUILDS", 1)


def records(capsys) -> tuple[dict, list[list[str]]]:
    """``({workload: final JSON}, table rows)`` from the captured output."""
    lines = capsys.readouterr().out.splitlines()
    finals = [json.loads(line) for line in lines if line.startswith("{")]
    rows = [line.split() for line in lines if line and line[0] not in "{#"]
    assert lines[-1].startswith("{")
    return finals, rows


def test_contract_is_well_formed(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/suite"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)
    names = [w["name"] for w in contract["workloads"]]
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    assert any(
        e == {"name": "setup_s", "unit": "s", "better": "lower", "bound": e["bound"]}
        for e in contract["end_to_end"]
    )
    for entry in contract["end_to_end"] + contract["per_layer"]:
        names.append(entry["name"])
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 15) <= 3420


def test_untraced_run_reports_every_end_to_end_metric(contract, capsys, tmp_path):
    assert run.main(["--seconds", "1.5", "--out", str(tmp_path)]) == 0
    # Nothing the run started outlives it: pool workers, server, nor the
    # spawn context's resource tracker (which active_children omits).
    assert not multiprocessing.active_children()
    assert resource_tracker._resource_tracker._pid is None
    finals, rows = records(capsys)
    assert len(finals) == len(run.WORKLOADS)
    with open(SUITE / "metrics.json") as fh:
        named = json.load(fh)["end_to_end"]
    printed = {(r[0], r[1]): r for r in rows}
    for name, final in zip(run.WORKLOADS, finals):
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
        assert set(final["metrics"]) == {e["name"] for e in contract["end_to_end"]}
        for entry in contract["end_to_end"]:
            metric = final["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"] and metric["value"] > 0
        for entry in named:
            if name in entry["workloads"]:
                row = printed[(name, entry["name"])]
                assert NAME.match(row[1]) and row[3] == entry["unit"]
    document = json.loads((tmp_path / "results.json").read_text())
    assert [r["workload"] for r in document["runs"]] == list(run.WORKLOADS)
    assert {"commit", "nproc", "python", "numpy", "repeats"} <= set(document["environment"])
    # The same set compared with itself: nothing can regress.
    assert compare.main([str(tmp_path / "results.json")] * 2) == 0
    assert "0 regressed, 0 missing" in capsys.readouterr().out


def test_traced_run_reports_every_per_layer_metric(contract, capsys, tmp_path):
    assert run.main(["--seconds", "2", "--trace", "1", "--out", str(tmp_path)]) == 0
    finals, rows = records(capsys)
    units = {e["name"]: e["unit"] for e in contract["per_layer"]}
    for name, final in zip(run.WORKLOADS, finals):
        assert {k: v["unit"] for k, v in final["metrics"].items()} == units
        trace = json.loads((tmp_path / f"trace-{name}.json").read_text())
        assert trace["spans"] and len(trace["spans"][0]) == len(trace["fields"])
    by_workload = dict(zip(run.WORKLOADS, finals))
    value = lambda w, m: by_workload[w]["metrics"][m]["value"]  # noqa: E731
    # Each layer is busy where the README says, and idle elsewhere.
    assert value("ingest", "compression.ppvp.encode_total_s") > 0.8 * value("ingest", "obs.traced_op_s")
    assert value("ingest", "core.refine.self_s") == 0
    assert value("join_cold", "core.stats.decode_s") > 0
    assert value("join_cold", "storage.cache.evictions") > 0
    assert value("join_warm", "storage.cache.hit_ratio") == 1.0
    assert value("join_warm", "storage.cache.evictions") == 0
    assert value("join_warm", "parallel.procpool.chunks") > 0
    assert value("serve_mixed", "serve.wire.response_bytes") > 0
    for name in run.WORKLOADS:
        assert value(name, "obs.unattributed_ratio") < 0.10
    assert any(r[1] == "reconcile" for r in rows)


def test_perturbed_digest_fails_the_run(capsys):
    assert run.main(["--workload", "join_cold", "--seconds", "0.5", "--perturb-digest"]) == 2
    finals, _ = records(capsys)
    assert finals[-1]["correct"] is False and finals[-1]["failed"] > 0


def test_compare_flags_regressions_and_noise(tmp_path):
    def result_set(values):
        runs = [
            {"workload": "ingest", "trace": 0, "named": {},
             "metrics": {"op_s_p50": {"value": v, "unit": "s"}}}
            for v in values
        ]
        path = tmp_path / f"{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps({"environment": {}, "runs": runs}))
        return str(path)

    entry = {"name": "op_s_p50", "better": "lower", "bound": 0.1}
    assert compare.row(entry, [1.0, 1.01, 0.99], [1.0, 1.02, 1.0])[0] == "ok"
    assert compare.row(entry, [1.0, 1.01, 0.99], [1.2, 1.21, 1.19])[0] == "REGRESSED"
    assert compare.row(entry, [1.0, 1.4, 0.7], [1.0, 1.0, 1.0])[0] == "unresolved"
    steady, slower = result_set([1.0, 1.01, 0.99]), result_set([1.3, 1.31, 1.29])
    assert compare.main([steady, steady]) == 0
    assert compare.main([steady, slower]) == 1
