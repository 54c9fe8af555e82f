"""Progressive NDJSON streaming: confirmed pairs as refinement settles them.

Under FPR a pair confirmed at any LOD is final (the paper's property 2),
so the server can push confirmations to the client while the query is
still running — the stream is a sound anytime answer at every prefix.
Frames, one JSON object per line:

* ``{"frame": "hello", "schema_version": 1, "spec": {...}}`` — opens
  the stream, echoing the normalized spec;
* ``{"frame": "pairs", "target": tid, "lod": lod, "matches": [...]}``
  — matches confirmed for ``target`` at ``lod`` (pseudo-LODs: -1 =
  filter-definite, -2 = final selection, ``null`` = catch-up flush);
* ``{"frame": "summary", ...result wire sans pairs...}`` — terminates
  the stream with stats, completeness, and degraded targets;
* ``{"frame": "error", "status": ..., "error": "..."}`` — terminates a
  stream whose query failed after headers were sent.

The per-LOD frames ride the executor's in-process ``QuerySpec.progress``
hook. The process backend cannot call back across its boundary, so
:meth:`FrameEmitter.flush_missing` diffs the final result against what
was already emitted and flushes the remainder — under *any* backend the
pairs frames concatenate to exactly the buffered result.
"""

from __future__ import annotations

import json
import threading

from repro.core.jsonsafe import json_safe
from repro.core.plan import WIRE_SCHEMA_VERSION, QueryResult

__all__ = ["FrameEmitter", "assemble_frames"]


def _match_token(match) -> str:
    """A hashable identity for one match (int id or kNN triple)."""
    return json.dumps(json_safe(match), sort_keys=True, separators=(",", ":"))


class FrameEmitter:
    """Serialize frames to a byte sink, tracking what was already sent.

    ``write`` receives one encoded NDJSON line per frame. The emitter is
    the thread-safety boundary: the lock serializes whole lines so
    frames never interleave mid-line, whichever thread confirms them.
    """

    def __init__(self, write):
        self._write = write
        self._lock = threading.Lock()
        # target id -> tokens of matches already emitted (catch-up diff).
        self._emitted: dict[int, set] = {}

    def _emit(self, frame: dict) -> None:
        line = json.dumps(json_safe(frame), separators=(",", ":")) + "\n"
        with self._lock:
            self._write(line.encode("utf-8"))

    def emit_hello(self, spec) -> None:
        self._emit({
            "frame": "hello",
            "schema_version": WIRE_SCHEMA_VERSION,
            "spec": spec.to_wire(),
        })

    def pairs_hook(self, target_id, lod, matches) -> None:
        """The ``QuerySpec.progress`` callback: one confirmed-pairs frame."""
        self.emit_pairs(target_id, lod, matches)

    def emit_pairs(self, target_id, lod, matches) -> None:
        if not matches:
            return
        tokens = self._emitted.setdefault(int(target_id), set())
        fresh = []
        for match in matches:
            token = _match_token(match)
            if token not in tokens:
                tokens.add(token)
                fresh.append(match)
        if not fresh:
            return
        self._emit({
            "frame": "pairs",
            "target": target_id,
            "lod": lod,
            "matches": fresh,
        })

    def flush_missing(self, result: QueryResult) -> None:
        """Emit whatever the final result holds that no frame carried yet.

        Guarantees frame-concat == buffered-result under backends that
        strip the in-process progress hook (process workers) and for
        confirmation paths without a per-round settle.
        """
        for tid, matches in result.pairs.items():
            seen = self._emitted.get(int(tid), set())
            missing = [m for m in matches if _match_token(m) not in seen]
            self.emit_pairs(tid, None, missing)

    def emit_summary(self, result: QueryResult) -> None:
        wire = result.to_wire()
        wire.pop("pairs", None)
        self._emit({"frame": "summary", **wire})

    def emit_error(self, status: int, message: str) -> None:
        self._emit({"frame": "error", "status": status, "error": message})


def assemble_frames(frames) -> QueryResult:
    """Fold a finished stream back into the equivalent buffered result.

    Pairs frames accumulate per target; non-kNN match lists are sorted
    (the buffered contract is a sorted source-id list — stream order is
    confirmation order), kNN frames already arrive in final ranked
    order. The summary frame supplies spec, stats, completeness, and
    degraded targets; an error frame raises ``RuntimeError``.
    """
    pairs: dict[int, list] = {}
    summary = None
    for frame in frames:
        kind = frame.get("frame")
        if kind == "pairs":
            pairs.setdefault(int(frame["target"]), []).extend(frame["matches"])
        elif kind == "summary":
            summary = {k: v for k, v in frame.items() if k != "frame"}
        elif kind == "error":
            raise RuntimeError(
                f"stream failed with status {frame.get('status')}: "
                f"{frame.get('error')}"
            )
    if summary is None:
        raise RuntimeError("stream ended without a summary frame")
    spec = summary.get("spec") or {}
    knn = spec.get("kind") == "knn"
    summary["pairs"] = {
        str(tid): (matches if knn else sorted(matches))
        for tid, matches in pairs.items()
    }
    return QueryResult.from_wire(summary)
