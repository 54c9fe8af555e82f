"""The benchmark suite's pins must resolve against the code.

``benchmarks/suite/tracing.py`` wraps a list of ``(module, attribute)``
entry points (``POINTS``) to time each layer; a refactor that renames or
deletes one breaks the benchmark. Its own self-test runs outside tier-1,
so this reads ``POINTS`` (importing the file, not editing it) and
resolves every entry the way ``tracing.install`` does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "suite" / "tracing.py"


def _points():
    spec = importlib.util.spec_from_file_location("suite_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.POINTS


def test_every_point_resolves():
    points = _points()
    assert points
    missing = []
    for module_name, path, *_how in points:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            # install() swaps the class's own attribute, not an inherited one.
            owner = getattr(module, owner_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}:{path}")
    assert missing == []
