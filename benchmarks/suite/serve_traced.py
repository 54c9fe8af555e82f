#!/usr/bin/env python3
"""``repro serve`` with the suite's span wrappers installed first.

    python3 serve_traced.py TRACE_OUT DATASET_DIR... [serve options]

Started by the traced ``serve_mixed`` run so that the server process
records the same spans as the in-process workloads. The spans and
counts are written to TRACE_OUT when the server stops (SIGINT).
"""

import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE.parent.parent / "src"))
sys.path.insert(0, str(SUITE))


def main(argv) -> int:
    import tracing
    from repro.cli import main as repro_main

    trace_out, serve_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return repro_main(["serve", *serve_args]) or 0
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
