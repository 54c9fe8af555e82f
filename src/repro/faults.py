"""Deterministic, seed-driven fault injection.

The chaos-testing substrate: one :class:`FaultInjector` can be handed to
the storage layer (bit-flips in blobs as they are written), the decode
provider (raised or delayed decoder errors), and process-backend workers
(killed or hung chunks). Every decision is a pure function of ``(seed, kind,
key)`` — not of call order — so a test that replays the same workload
with the same seed injects exactly the same faults, and a fault observed
in a failure log can be reproduced in isolation.

Typical chaos-test wiring::

    from repro.faults import FaultInjector

    inj = FaultInjector(seed=7, decode_error_rate=0.3)
    engine = ThreeDPro(EngineConfig(fault_injector=inj))
    # ... degraded-but-correct-subset joins, inj.counts tells you what fired
"""

from __future__ import annotations

import hashlib
import logging
import os
import signal
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event

__all__ = ["InjectedFault", "FaultInjector"]

_LOG = get_logger("faults")


class InjectedFault(RuntimeError):
    """The synthetic failure raised by an injector hook."""


@dataclass
class FaultInjector:
    """Seeded fault source; all rates are probabilities in ``[0, 1]``.

    ``max_faults`` caps the total number of injected faults (useful for
    "exactly one failure, then clean" retry scenarios). ``counts`` tracks
    fired faults per kind for test assertions.
    """

    seed: int = 0
    blob_flip_rate: float = 0.0
    decode_error_rate: float = 0.0
    decode_delay_rate: float = 0.0
    decode_delay_seconds: float = 0.0
    task_hang_rate: float = 0.0
    task_hang_seconds: float = 30.0
    worker_kill_rate: float = 0.0
    max_faults: int | None = None
    counts: dict = field(default_factory=dict)
    # Guards the counts read-modify-write: hooks fire concurrently from
    # the query server's request threads over one engine, and lost updates
    # would break exact-count test assertions (and the max_faults cap).
    # Recreated on unpickle.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_lock", None)  # locks don't pickle; workers get a fresh one
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__["_lock"] = threading.Lock()

    def _roll(self, kind: str, key: str) -> float:
        """Deterministic uniform draw in [0, 1) from (seed, kind, key).

        blake2s, not crc32: CRC is linear, so keys differing only in a
        trailing counter (``chunk:0`` vs ``chunk:1``) produce tightly
        clustered draws — a rate of 0.4 then fires for *all* chunks
        under one seed and *none* under another. A cryptographic hash
        gives independent-looking draws per key at identical cost here.
        """
        digest = hashlib.blake2s(
            f"{self.seed}|{kind}|{key}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2**64

    def _fire(self, kind: str, rate: float, key: str) -> bool:
        if rate <= 0.0:
            return False
        if self._roll(kind, key) >= rate:
            return False
        with self._lock:
            # The cap is re-checked under the lock so concurrent hooks
            # can never overshoot max_faults between check and increment.
            if self.max_faults is not None and self.total_injected >= self.max_faults:
                return False
            self.counts[kind] = self.counts.get(kind, 0) + 1
        obs_metrics.REGISTRY.counter(
            "repro_faults_injected_total", "Faults fired by the chaos injector"
        ).inc(kind=kind)
        log_event(
            _LOG, "fault_injected", level=logging.WARNING,
            kind=kind, key=key, seed=self.seed,
        )
        return True

    # -- hooks ---------------------------------------------------------------

    def corrupt_blob(self, blob: bytes, key: str) -> bytes:
        """Maybe flip one bit of ``blob`` (storage write hook)."""
        if not blob or not self._fire("blob_flip", self.blob_flip_rate, key):
            return blob
        pos = zlib.crc32(f"{self.seed}|pos|{key}".encode()) % len(blob)
        bit = 1 << (zlib.crc32(f"{self.seed}|bit|{key}".encode()) % 8)
        out = bytearray(blob)
        out[pos] ^= bit
        return bytes(out)

    def before_decode(self, dataset: str, obj_id: int, lod: int) -> None:
        """Maybe raise in place of a decode (provider hook).

        Keyed by ``(dataset, object, lod)``: an object can deterministically
        fail at its top LOD yet still decode at lower ones — exactly the
        shape the degraded-refinement fallback ladder is built for.
        """
        if self.decode_delay_seconds > 0 and self._fire(
            "decode_delay", self.decode_delay_rate, f"{dataset}:{obj_id}:{lod}"
        ):
            time.sleep(self.decode_delay_seconds)
        if self._fire("decode", self.decode_error_rate, f"{dataset}:{obj_id}:{lod}"):
            raise InjectedFault(
                f"injected decode failure: {dataset}[{obj_id}] at LOD {lod}"
            )

    def before_chunk(self, key: str, attempt: int = 0) -> None:
        """Maybe SIGKILL or hang this worker process (procpool hook).

        Keyed by ``(chunk key, attempt)`` so a chunk whose worker was
        killed on attempt 0 can deterministically survive its retry.
        The kill is a real ``SIGKILL`` to our own pid — no Python
        cleanup runs, exactly like an OOM kill — so only use it in
        sacrificial worker processes, never in the test process itself.
        ``task_hang_rate``/``task_hang_seconds`` hang the chunk here,
        in the worker, *before* its first heartbeat — deliberately never
        in the parent process, which has no supervisor above it.
        """
        full_key = f"{key}:{attempt}"
        if self._fire("worker_kill", self.worker_kill_rate, full_key):
            try:
                os.kill(os.getpid(), signal.SIGKILL)
            except (OSError, AttributeError):  # pragma: no cover - exotic platforms
                os._exit(1)
            time.sleep(60.0)  # pragma: no cover - await the signal's arrival
        if self.task_hang_seconds > 0 and self._fire(
            "chunk_hang", self.task_hang_rate, full_key
        ):
            time.sleep(self.task_hang_seconds)
