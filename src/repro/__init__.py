"""3DPro: querying complex 3D data with progressive compression and refinement.

A from-scratch Python reproduction of the EDBT 2022 paper. The package
is organized bottom-up:

* :mod:`repro.geometry` — AABB/triangle kernels (batched numpy);
* :mod:`repro.mesh` — closed triangle meshes, editing, primitives;
* :mod:`repro.compression` — PPVP progressive codec and serialization;
* :mod:`repro.index` — the global R-tree over object MBBs;
* :mod:`repro.partition` — skeleton-based object decomposition;
* :mod:`repro.parallel` — per-pair face kernels and the worker-process pool;
* :mod:`repro.storage` — cuboid store and the LRU decode cache;
* :mod:`repro.core` — the 3DPro engine (FR and FPR spatial joins);
* :mod:`repro.obs` — span tracing, metrics registry, structured logs;
* :mod:`repro.datagen` — synthetic nuclei/vessel datasets;
* :mod:`repro.baselines` — naive ground truth and a PostGIS-like engine;
* :mod:`repro.bench` — the experiment harness behind ``benchmarks/``.

Quickstart::

    from repro import ThreeDPro, EngineConfig, Dataset
    from repro.datagen import make_tissue_scene

    scene = make_tissue_scene(n_nuclei=100, n_vessels=2, seed=0)
    engine = ThreeDPro(EngineConfig(paradigm="fpr"))
    engine.load_polyhedra("nuclei", scene.nuclei_a)
    engine.load_polyhedra("vessels", scene.vessels)
    result = engine.nn_join("nuclei", "vessels")
"""

from repro.compression import PPVPEncoder
from repro.core import (
    EngineConfig,
    JoinResult,
    QueryResult,
    QuerySpec,
    QueryStats,
    ThreeDPro,
)
from repro.faults import FaultInjector, InjectedFault
from repro.mesh import Polyhedron
from repro.obs import MetricsRegistry, Tracer
from repro.storage import Dataset, LoadReport

__version__ = "2.0.0"

__all__ = [
    "PPVPEncoder",
    "EngineConfig",
    "JoinResult",
    "QueryResult",
    "QuerySpec",
    "QueryStats",
    "ThreeDPro",
    "Polyhedron",
    "Dataset",
    "LoadReport",
    "FaultInjector",
    "InjectedFault",
    "Tracer",
    "MetricsRegistry",
    "__version__",
]
