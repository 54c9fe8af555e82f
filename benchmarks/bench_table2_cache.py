"""Table 2: decoding time with and without the LRU decode cache.

The paper's Table 2 shows the cache slashing decode time, most
dramatically when vessels are involved (one vessel is the candidate of
hundreds of nuclei and would otherwise be decoded hundreds of times).
"""

import pytest

from repro.bench.runner import make_engine, run_test

CASES = ["INT-NN", "WN-NN", "WN-NV", "NN-NV"]


@pytest.mark.parametrize("cache_enabled", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("test_id", CASES)
def test_table2_decode_cache(benchmark, workload, test_id, cache_enabled):
    result = {}

    def run():
        # A zero budget is the pass-through cache: every get misses.
        overrides = {} if cache_enabled else {"cache_bytes": 0}
        engine = make_engine("fpr", "B", workload=workload, **overrides)
        result["value"] = run_test(test_id, workload, "fpr", engine=engine)

    benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result["value"].stats
    benchmark.extra_info.update(
        {
            "test": test_id,
            "cache": cache_enabled,
            "decode_seconds": stats.decode_seconds,
            "decoded_vertices": stats.decoded_vertices,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }
    )
    print(
        f"\n[table2] {test_id:7s} cache={'on ' if cache_enabled else 'off'} "
        f"decode={stats.decode_seconds:7.3f}s decoded_vertices={stats.decoded_vertices:>9d} "
        f"hits={stats.cache_hits:>7d} misses={stats.cache_misses:>6d}"
    )
