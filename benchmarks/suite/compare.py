#!/usr/bin/env python3
"""Compare two result sets of the suite, row by row, against the bounds.

    python3 benchmarks/suite/compare.py A/results.json B/results.json [--layers]

A result set is what ``run.py --out DIR`` appends to ``DIR/results.json``
(``baselines/BENCH_11.json`` is one). For every (end-to-end metric,
workload) row the medians and quartiles of A (the parent) and B (the
change) are printed side by side with B's change in the metric's worse
direction. A row is ``REGRESSED`` when that change exceeds the metric's
bound, and ``unresolved`` when the run-to-run spread of either side
(quartile distance over median) exceeds the bound — the runs cannot
tell such a change from noise, so it is not reported as unchanged.
``--layers`` adds the per-layer rows of the traced runs; they have no
bound. Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def bounds(contract: dict) -> list[dict]:
    """Every bounded (metric, workloads) entry of the two metric files."""
    with open(SUITE / "metrics.json") as fh:
        named = json.load(fh)
    workloads = [w["name"] for w in contract["workloads"]]
    return [dict(e, workloads=workloads, key="metrics") for e in contract["end_to_end"]] + [
        dict(e, key="named") for e in named["end_to_end"]
    ]


def summary(values) -> tuple[float, float, float]:
    """``(first quartile, median, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def collect(document: dict, workload: str, key: str, name: str, trace: int) -> list[float]:
    return [
        run[key][name]["value"]
        for run in document["runs"]
        if run["workload"] == workload and run["trace"] == trace and name in run.get(key, {})
    ]


def row(entry: dict, a: list[float], b: list[float]) -> tuple[str, str]:
    (a1, am, a3), (b1, bm, b3) = summary(a), summary(b)
    bound = entry.get("bound")
    if entry.get("absolute"):
        worse = bm - am if entry["better"] == "lower" else am - bm
        spread = 0.0
    else:
        worse = ((bm - am) if entry["better"] == "lower" else (am - bm)) / am if am else 0.0
        spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
    if bound is None:
        status = "-"
    elif spread > bound:
        status = "unresolved"
    elif worse > bound:
        status = "REGRESSED"
    else:
        status = "ok"
    text = (
        f"{am:12.6g} [{a1:.6g}, {a3:.6g}] n={len(a):<3d} "
        f"{bm:12.6g} [{b1:.6g}, {b3:.6g}] n={len(b):<3d} "
        f"worse {worse:+8.2%}  spread {spread:6.2%}  "
        f"bound {'-' if bound is None else format(bound, '.0%')}"
    )
    return status, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="result set of the parent")
    parser.add_argument("b", type=Path, help="result set of the change")
    parser.add_argument("--layers", action="store_true", help="also list per-layer rows")
    args = parser.parse_args(argv)
    with open(args.a) as fh:
        doc_a = json.load(fh)
    with open(args.b) as fh:
        doc_b = json.load(fh)

    contract = load_contract()
    entries = [(entry, 0) for entry in bounds(contract)]
    if args.layers:
        names = [w["name"] for w in contract["workloads"]]
        entries += [(dict(e, workloads=names, key="metrics"), 1) for e in contract["per_layer"]]
    tally = {"ok": 0, "unresolved": 0, "REGRESSED": 0, "-": 0, "missing": 0}
    print(f"{'workload':12s} {'metric':40s} {'status':10s} "
          f"{'A median [q1, q3]':>44s} {'B median [q1, q3]':>44s}")
    for entry, trace in entries:
        for workload in entry["workloads"]:
            a = collect(doc_a, workload, entry["key"], entry["name"], trace)
            b = collect(doc_b, workload, entry["key"], entry["name"], trace)
            if not a or not b:
                tally["missing"] += 1
                print(f"{workload:12s} {entry['name']:40s} {'missing':10s} "
                      f"A has {len(a)} runs, B has {len(b)}")
                continue
            status, text = row(entry, a, b)
            tally[status] += 1
            print(f"{workload:12s} {entry['name']:40s} {status:10s} {text}")
    print(
        f"# {tally['ok']} ok, {tally['unresolved']} unresolved, "
        f"{tally['REGRESSED']} regressed, {tally['missing']} missing"
    )
    return 1 if tally["REGRESSED"] else 0


if __name__ == "__main__":
    sys.exit(main())
