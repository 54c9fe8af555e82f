"""Shared benchmark fixtures.

The workload (scene generation + PPVP encoding) is built once per
session at the scale selected by ``REPRO_BENCH_SCALE`` (default
``tiny``). Every benchmark prints the rows/series of the paper artifact
it reproduces, so running ``pytest benchmarks/ --benchmark-only -s``
regenerates the evaluation section.
"""

import pytest

from repro.bench.workloads import get_workload


@pytest.fixture(scope="session")
def workload():
    wl = get_workload()
    print(f"\n[workload] {wl.summary}")
    return wl


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):
    """Embed the metrics snapshot into --benchmark-json output, if any.

    Runs after pytest-benchmark has written its file (trylast), so every
    benchmark JSON carries the cache/decode/retry counters that explain
    its timings. Best-effort: a missing or unwritable file is ignored.
    """
    target = getattr(session.config.option, "benchmark_json", None)
    if not target:
        return
    # argparse FileType hands us the open file object; pytest-benchmark
    # has already written and closed it by the time trylast hooks run.
    path = getattr(target, "name", target)
    try:
        from repro.bench.export import embed_metrics

        embed_metrics(path)
    except (OSError, TypeError, ValueError, KeyError):
        pass
