"""Table 1: join latency across paradigm x acceleration cells.

Reproduces the paper's headline table: the five tests (INT-NN, WN-NN,
WN-NV, NN-NN, NN-NV) under the FR and FPR paradigms with brute-force
and partition acceleration. GPU-style fused batching is not a column:
every cell runs on it (the paper's G / P+G columns correspond to B / P
here). The paper's AABB-tree column (A) is not run either: its
evaluator lost to the fused waves in every cell and is now a test
oracle (EXPERIMENTS.md, "AABB-tree evaluator"). Absolute numbers are incomparable to the paper's C++/CUDA
testbed; the *shape* — FPR beating FR in every cell, partition rescuing
the vessel tests — is the result.

Each cell runs once (fresh engine, cold decode cache), matching the
paper's one-shot join measurement.
"""

import pytest

from repro.bench.reporting import PAPER_TABLE1
from repro.bench.runner import TESTS, run_test

# (test, accel) combinations as in Table 1.
CELLS = [(test_id, accel) for test_id in TESTS for accel in ("B", "P")]

PARADIGMS = ("fr", "fpr")


@pytest.mark.parametrize("paradigm", PARADIGMS)
@pytest.mark.parametrize("test_id,accel", CELLS, ids=[f"{t}-{a}" for t, a in CELLS])
def test_table1_cell(benchmark, workload, test_id, accel, paradigm):
    result = {}

    def run():
        result["value"] = run_test(test_id, workload, paradigm, accel)

    benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result["value"].stats
    benchmark.extra_info.update(
        {
            "test": test_id,
            "paradigm": paradigm,
            "accel": accel,
            "seconds": stats.total_seconds,
            "matches": result["value"].total_matches,
            "face_pairs": stats.face_pairs_total,
            "paper_seconds": PAPER_TABLE1.get((test_id, paradigm, accel)),
        }
    )
    print(
        f"\n[table1] {test_id:7s} {paradigm.upper():3s}/{accel:3s} "
        f"time={stats.total_seconds:8.3f}s face_pairs={stats.face_pairs_total:>10d} "
        f"matches={result['value'].total_matches:>5d} "
        f"paper={PAPER_TABLE1.get((test_id, paradigm, accel), 'n/a')}"
    )
