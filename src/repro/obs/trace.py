"""Low-overhead span tracing for the query pipeline.

A :class:`Tracer` produces a tree of :class:`Span` records — one per
``with tracer.span("refine", lod=2):`` block — carrying wall time, CPU
time, attributes, and children. The tree is the machine-readable form of
the paper's Fig. 10 time breakdown: the engine opens one root span per
query with ``filter`` / ``compute`` phase children, and the decode
provider attaches a ``decode`` span for every cache-miss decode.

Tracing is **off by default**. A disabled tracer hands out the shared
:data:`NOOP_SPAN` singleton — entering and exiting it does nothing, so
instrumented hot paths cost one attribute check and one method call when
tracing is off.

Exports:

* :meth:`Tracer.to_dict` / :meth:`Tracer.to_json` — the span tree;
* :meth:`Tracer.to_chrome_trace` — Chrome ``trace_event`` JSON that
  loads directly in ``chrome://tracing`` / Perfetto;
* :func:`phase_totals` — per-phase wall totals with the same accounting
  as :class:`~repro.core.stats.QueryStats` (decode time nested under
  ``compute`` is attributed to ``decode``), so trace and stats agree.

:class:`TimedPhase` is the bridge between the tracer and ``QueryStats``:
it times a block once and writes the *same* duration to both, which is
how the stats stay the stable user-facing summary while the trace holds
the detail.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.obs.profile import pop_phase, push_phase

__all__ = [
    "Span",
    "Tracer",
    "TimedPhase",
    "NOOP_SPAN",
    "DISABLED_TRACER",
    "phase_totals",
    "self_time_table",
]


class _NoopSpan:
    """The do-nothing span a disabled tracer hands out (shared singleton)."""

    __slots__ = ()
    enabled = False
    wall_seconds = None
    cpu_seconds = None
    name = None
    children = ()
    attrs: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed region of the pipeline, with attributes and children."""

    __slots__ = (
        "name", "attrs", "children", "wall_seconds", "cpu_seconds",
        "start_offset", "thread_id", "_tracer", "_start_wall", "_start_cpu",
    )

    enabled = True

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.wall_seconds: float | None = None
        self.cpu_seconds: float | None = None
        self.start_offset: float = 0.0
        self.thread_id: int = 0
        self._tracer = tracer

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.thread_id = threading.get_ident()
        self._tracer._push(self)
        self._start_cpu = time.process_time()
        self._start_wall = time.perf_counter()
        self.start_offset = self._start_wall - self._tracer.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_seconds = time.perf_counter() - self._start_wall
        self.cpu_seconds = time.process_time() - self._start_cpu
        if exc_type is not None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer._pop(self)
        return False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_offset": self.start_offset,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "thread_id": self.thread_id,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_payload(cls, data: dict, rebase: float = 0.0) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        The inverse direction exists for the process query backend:
        workers ship their span trees as plain dicts (a ``Span`` holds a
        tracer backref and is not picklable) and the parent re-attaches
        the rebuilt trees under its own query root. ``rebase`` shifts
        every ``start_offset`` by a constant — worker offsets are
        relative to the *worker's* tracer epoch, so the parent rebases
        them onto its own timeline. Durations are preserved verbatim,
        which is what keeps trace/stats phase agreement exact across the
        process boundary.
        """
        span = cls.__new__(cls)
        span.name = data["name"]
        span.attrs = dict(data.get("attrs", {}))
        span.wall_seconds = data.get("wall_seconds")
        span.cpu_seconds = data.get("cpu_seconds")
        span.start_offset = data.get("start_offset", 0.0) + rebase
        span.thread_id = data.get("thread_id", 0)
        span._tracer = None
        span.children = [
            cls.from_payload(child, rebase) for child in data.get("children", ())
        ]
        return span

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        wall = f"{self.wall_seconds:.6f}s" if self.wall_seconds is not None else "open"
        return f"<Span {self.name} {wall} children={len(self.children)}>"


class Tracer:
    """Produces spans and owns the resulting trace tree.

    Span nesting follows the per-thread call stack: a span entered while
    another is open on the same thread becomes its child; otherwise it
    becomes a root. ``clear()`` drops collected roots (e.g. between
    queries when only the latest trace matters).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.roots: list[Span] = []
        self.epoch = time.perf_counter()
        self.epoch_unix = time.time()
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- span lifecycle -------------------------------------------------------

    def span(self, name: str, **attrs):
        """A context-managed span; the shared no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def record(self, name: str, wall_seconds: float, cpu_seconds: float = 0.0, **attrs) -> None:
        """Attach an already-measured span (e.g. a decode timed at its source).

        The explicit duration is stored verbatim, so a caller that also
        accumulates the same measurement elsewhere (``QueryStats``,
        provider counters) can never disagree with the trace.
        """
        if not self.enabled:
            return
        span = Span(self, name, attrs)
        span.thread_id = threading.get_ident()
        now = time.perf_counter()
        span.start_offset = max(0.0, now - wall_seconds - self.epoch)
        span.wall_seconds = wall_seconds
        span.cpu_seconds = cpu_seconds
        self._attach(span)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._tls, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # exception-torn stack: unwind to span
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        self._attach(span)

    def _attach(self, span: Span) -> None:
        parent = self.current()
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    def clear(self) -> None:
        with self._lock:
            self.roots = []

    # -- export ---------------------------------------------------------------

    def walk(self):
        for root in list(self.roots):
            yield from root.walk()

    def to_dict(self) -> dict:
        return {
            "epoch_unix": self.epoch_unix,
            "enabled": self.enabled,
            "spans": [root.to_dict() for root in self.roots],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON (complete ``"X"`` events).

        Load the dumped file in ``chrome://tracing`` or
        https://ui.perfetto.dev to see the query timeline.
        """
        pid = os.getpid()
        events = []
        for span in self.walk():
            if span.wall_seconds is None:
                continue
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(span.start_offset * 1e6, 3),
                    "dur": round(span.wall_seconds * 1e6, 3),
                    "pid": pid,
                    "tid": span.thread_id,
                    "args": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"epoch_unix": self.epoch_unix},
        }


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: Shared disabled tracer for call sites that always want *a* tracer
#: (e.g. :class:`~repro.core.refine.RefineContext` outside the engine).
DISABLED_TRACER = Tracer(enabled=False)


class TimedPhase:
    """Times a block once into both a ``QueryStats`` phase and a span.

    ``with TimedPhase(tracer, stats, "filter"):`` accumulates into
    ``stats.filter_seconds`` exactly the duration the span records (when
    tracing is enabled), so the trace tree and the stats summary can
    never drift apart. With tracing disabled the phase times itself and
    the only tracer artifact touched is the no-op span singleton.
    """

    __slots__ = ("_span", "_stats", "_attr", "_name", "_start")

    def __init__(self, tracer: Tracer, stats, name: str, **attrs):
        attr = f"{name}_seconds"
        if not hasattr(stats, attr):
            raise AttributeError(f"unknown phase {name!r}")
        self._attr = attr
        self._name = name
        self._stats = stats
        self._span = tracer.span(name, **attrs)

    def __enter__(self):
        self._span.__enter__()
        push_phase(self._name)
        self._start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        pop_phase()
        self._span.__exit__(exc_type, exc, tb)
        wall = self._span.wall_seconds
        if wall is None:  # disabled tracing: use our own measurement
            wall = elapsed
        setattr(self._stats, self._attr, getattr(self._stats, self._attr) + wall)
        return False


def phase_totals(spans) -> dict[str, float]:
    """Fig. 10 phase totals from a span tree, QueryStats-compatible.

    Sums wall time per phase name across ``spans`` (an iterable of root
    :class:`Span` objects, or a :class:`Tracer`). ``decode`` spans nested
    under a ``compute`` span are *subtracted* from the compute total —
    the same attribution ``QueryExecutor._run_group`` applies where it
    times the compute phase — so the returned ``filter`` / ``decode`` /
    ``compute`` values match the corresponding ``QueryStats`` fields.
    """
    if isinstance(spans, Tracer):
        spans = spans.roots
    totals = {"filter": 0.0, "decode": 0.0, "compute": 0.0}

    def visit(span: Span, in_compute: bool) -> None:
        wall = span.wall_seconds or 0.0
        if span.name in totals:
            totals[span.name] += wall
        if span.name == "decode" and in_compute:
            totals["compute"] -= wall
        nested = in_compute or span.name == "compute"
        for child in span.children:
            visit(child, nested)

    for root in spans:
        visit(root, False)
    return totals


def self_time_table(spans, n: int | None = None) -> list[dict]:
    """Per-span-name self time over a span tree, largest first.

    A span's *self* time is its wall time minus the wall time of its
    direct children (floored at zero — children recorded on other
    threads can overlap their parent). Accepts an iterable of root
    :class:`Span` objects or a :class:`Tracer`; returns up to ``n`` rows
    of ``{"name", "count", "self_seconds", "total_seconds"}``.
    """
    if isinstance(spans, Tracer):
        spans = spans.roots
    rows: dict[str, dict] = {}
    for root in spans:
        for span in root.walk():
            wall = span.wall_seconds or 0.0
            child_wall = sum(c.wall_seconds or 0.0 for c in span.children)
            row = rows.setdefault(
                span.name,
                {"name": span.name, "count": 0, "self_seconds": 0.0, "total_seconds": 0.0},
            )
            row["count"] += 1
            row["self_seconds"] += max(0.0, wall - child_wall)
            row["total_seconds"] += wall
    ranked = sorted(rows.values(), key=lambda r: (-r["self_seconds"], r["name"]))
    return ranked[:n] if n is not None else ranked
