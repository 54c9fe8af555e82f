"""The geometry computer: batched face-pair evaluation (Section 5.1-5.2).

Geometric computation between two decoded polyhedra reduces to many
independent face-pair evaluations. The paper packs those pairs into
fixed-size tasks executed by CPU cores or GPU kernels; here the "GPU" is
simulated by the fused numpy mega-batches of :mod:`repro.core.batch`
(one vectorized kernel invocation over thousands of pairs, sized by
``gpu_block``) while the per-pair "CPU" kernels evaluate small blocks
(:func:`iter_pair_blocks`) — reproducing the batched-vs-blocked
performance contrast inside one process. The fused waves are the task
batching; the resource manager's fan-out is the query executor's target
chunks, run by :mod:`repro.parallel.procpool` worker processes.
"""

from repro.parallel.executor import GeometryComputer, iter_pair_blocks

__all__ = ["GeometryComputer", "iter_pair_blocks"]
