"""Opt-in sampling profiler with phase attribution and flamegraph export.

``EngineConfig(profiling=True)`` (or ``--profile`` on the CLI) attaches
a :class:`SamplingProfiler` to the engine: a daemon thread wakes every
``interval_seconds``, snapshots every thread's Python stack via
``sys._current_frames()``, and buckets each sample under the *phase*
the sampled thread is currently executing. Phases are maintained by a
per-thread stack that the pipeline pushes explicitly:

* :class:`~repro.obs.trace.TimedPhase` pushes ``filter`` / ``compute``
  around the executor's per-target phases;
* the decode provider pushes ``decode`` around the cache-miss ladder
  (decode work is *recorded* into the span tree after the fact, so the
  open-span stack alone can never see it — the phase stack can);
* the executor pushes ``other`` around the whole query, catching
  planning/merge bookkeeping.

Threads with an empty phase stack (anything outside a query) are
skipped, so the profiler only ever samples query work.

The result is a :class:`ProfileReport`: ``(phase, stack) -> samples``.
``to_collapsed()`` emits Brendan Gregg's collapsed-stack text (feed it
to ``flamegraph.pl`` or https://speedscope.app), ``top_self()`` is the
top-N self-time table, and ``phase_counts()`` gives per-phase sample
shares directly comparable to span ``phase_totals``.

Reports are picklable and mergeable: process-backend workers profile
their own chunks and ship the per-chunk report back inside
``ChunkOutcome.profile``; the parent folds them into its own report, so
one flamegraph covers every process that touched the query.

Overhead: with profiling off, the phase-stack push/pop is a
thread-local list append per phase (a handful per target, one per
cache-miss decode) — no sampling thread exists. With profiling on, the
sampler costs one stack walk per live thread per interval (default
2ms), typically <5% on the gate scene.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager

__all__ = [
    "SamplingProfiler",
    "ProfileReport",
    "phase_scope",
    "push_phase",
    "pop_phase",
    "current_phase",
]

#: Default sampling interval: 2ms keeps per-phase shares accurate on
#: sub-second queries while staying far from profiler-dominated cost.
DEFAULT_INTERVAL_SECONDS = 0.002

#: Deepest stack preserved per sample; frames below are rolled up.
MAX_STACK_DEPTH = 48

# thread id -> that thread's phase stack (the list object is shared with
# the thread-local below, so readers never need the creating thread).
_STACKS: dict[int, list] = {}
_STACKS_LOCK = threading.Lock()


class _PhaseLocal(threading.local):
    """Per-thread phase stack, registered for cross-thread sampling."""

    def __init__(self):
        self.stack: list[str] = []
        with _STACKS_LOCK:
            # Overwrite any stale entry left by a finished thread whose
            # id the OS recycled — the old (empty) list must not absorb
            # this thread's pushes.
            _STACKS[threading.get_ident()] = self.stack


_LOCAL = _PhaseLocal()


def push_phase(name: str) -> None:
    """Mark this thread as executing ``name`` (until :func:`pop_phase`)."""
    _LOCAL.stack.append(name)


def pop_phase() -> None:
    stack = _LOCAL.stack
    if stack:
        stack.pop()


def current_phase() -> str | None:
    """This thread's innermost phase, if any."""
    stack = _LOCAL.stack
    return stack[-1] if stack else None


@contextmanager
def phase_scope(name: str):
    """Context manager form of :func:`push_phase` / :func:`pop_phase`."""
    _LOCAL.stack.append(name)
    try:
        yield
    finally:
        pop_phase()


# -- stack formatting -----------------------------------------------------------

# code object -> "module.qualname" (code objects are interned per
# function for the process lifetime, so the cache never goes stale).
_FRAME_NAMES: dict = {}


def _frame_label(code) -> str:
    label = _FRAME_NAMES.get(code)
    if label is None:
        module = os.path.basename(code.co_filename)
        if module.endswith(".py"):
            module = module[:-3]
        qualname = getattr(code, "co_qualname", code.co_name)
        label = _FRAME_NAMES[code] = f"{module}.{qualname}"
    return label


def _format_stack(frame) -> tuple:
    """Root-first tuple of frame labels, capped at MAX_STACK_DEPTH."""
    labels = []
    while frame is not None and len(labels) < MAX_STACK_DEPTH:
        labels.append(_frame_label(frame.f_code))
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


# -- the report -----------------------------------------------------------------


class ProfileReport:
    """Aggregated samples: ``(phase, root-first stack tuple) -> count``.

    Picklable (plain dict of tuples) and mergeable, so per-chunk worker
    reports combine into one query-wide profile.
    """

    __slots__ = ("samples", "interval_seconds")

    def __init__(self, interval_seconds: float = DEFAULT_INTERVAL_SECONDS):
        self.samples: dict[tuple, int] = {}
        self.interval_seconds = interval_seconds

    def __getstate__(self):
        return {"samples": self.samples, "interval_seconds": self.interval_seconds}

    def __setstate__(self, state):
        self.samples = state["samples"]
        self.interval_seconds = state["interval_seconds"]

    @property
    def total_samples(self) -> int:
        return sum(self.samples.values())

    def add(self, phase: str, stack: tuple, count: int = 1) -> None:
        key = (phase, stack)
        self.samples[key] = self.samples.get(key, 0) + count

    def merge(self, other: "ProfileReport") -> None:
        for (phase, stack), count in other.samples.items():
            self.add(phase, stack, count)

    def phase_counts(self) -> dict[str, int]:
        """Samples per phase — comparable to span ``phase_totals`` shares."""
        out: dict[str, int] = {}
        for (phase, _stack), count in self.samples.items():
            out[phase] = out.get(phase, 0) + count
        return out

    def phase_shares(self) -> dict[str, float]:
        """Per-phase fraction of all samples (empty report -> empty dict)."""
        total = self.total_samples
        if not total:
            return {}
        return {
            phase: count / total for phase, count in self.phase_counts().items()
        }

    def to_collapsed(self) -> str:
        """Collapsed-stack text: ``phase;frame;frame count`` per line.

        The phase is the synthetic root frame, so a flamegraph renders
        one tower per pipeline phase. Lines are sorted for determinism.
        """
        lines = []
        for (phase, stack), count in self.samples.items():
            frames = ";".join((phase,) + stack)
            lines.append(f"{frames} {count}")
        lines.sort()
        return "\n".join(lines) + ("\n" if lines else "")

    def top_self(self, n: int = 10) -> list[tuple[str, str, int]]:
        """Top-``n`` ``(frame, phase, samples)`` by leaf (self) samples."""
        by_leaf: dict[tuple[str, str], int] = {}
        for (phase, stack), count in self.samples.items():
            leaf = stack[-1] if stack else phase
            key = (leaf, phase)
            by_leaf[key] = by_leaf.get(key, 0) + count
        ranked = sorted(by_leaf.items(), key=lambda item: (-item[1], item[0]))
        return [(leaf, phase, count) for (leaf, phase), count in ranked[:n]]

    def format_table(self, n: int = 10) -> str:
        """The top-N self-time table, rendered for terminals."""
        total = self.total_samples
        if not total:
            return "no samples collected"
        rows = [
            f"{'samples':>8}  {'share':>6}  {'phase':<8} frame",
            f"{'-' * 8}  {'-' * 6}  {'-' * 8} {'-' * 5}",
        ]
        for leaf, phase, count in self.top_self(n):
            rows.append(
                f"{count:>8}  {count / total:>6.1%}  {phase:<8} {leaf}"
            )
        return "\n".join(rows)


# -- the sampler ----------------------------------------------------------------


class SamplingProfiler:
    """A sampling-thread profiler bucketing by the active pipeline phase.

    Re-entrant: ``start``/``stop`` hold a nesting count so a probe query
    executing inside another query keeps one sampler running. ``take()``
    swaps the report out atomically — the process backend uses it to
    ship per-chunk deltas while the sampler keeps running.
    """

    def __init__(self, interval_seconds: float = DEFAULT_INTERVAL_SECONDS):
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be > 0")
        self.interval_seconds = interval_seconds
        self._lock = threading.Lock()
        self._report = ProfileReport(interval_seconds)
        self._depth = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._saved_switch_interval: float | None = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        with self._lock:
            self._depth += 1
            if self._thread is not None:
                return
            # The GIL switch interval (default 5ms) caps how often the
            # sampler thread can actually wake while query threads are
            # CPU-bound; drop it to the sampling interval so the
            # configured rate is real, and restore it on stop.
            self._saved_switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(
                min(self._saved_switch_interval, self.interval_seconds)
            )
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        with self._lock:
            if self._depth > 0:
                self._depth -= 1
            if self._depth > 0:
                return
            thread = self._thread
            self._thread = None
            self._stop.set()
            saved = getattr(self, "_saved_switch_interval", None)
            if saved is not None:
                sys.setswitchinterval(saved)
                self._saved_switch_interval = None
        if thread is not None:
            thread.join(timeout=2.0)

    def take(self) -> ProfileReport:
        """Swap the accumulated report for a fresh one and return it."""
        with self._lock:
            report = self._report
            self._report = ProfileReport(self.interval_seconds)
        return report

    @property
    def report(self) -> ProfileReport:
        return self._report

    def absorb(self, report: ProfileReport | None) -> None:
        """Fold a shipped report (e.g. a worker chunk's) into this one."""
        if report is None:
            return
        with self._lock:
            self._report.merge(report)

    # -- sampler internals ----------------------------------------------------

    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval_seconds):
            self._sample(me)

    def _sample(self, me: int) -> None:
        frames = sys._current_frames()
        batch: list[tuple[str, tuple]] = []
        for tid, frame in frames.items():
            if tid == me:
                continue
            stack = _STACKS.get(tid)
            if not stack:
                continue
            try:
                phase = stack[-1]
            except IndexError:  # popped between the check and the read
                continue
            try:
                labels = _format_stack(frame)
            except AttributeError:
                # Another thread's frame chain can be torn down while it
                # is walked (f_back no longer a frame); drop this sample
                # and keep the sampler alive.
                continue
            batch.append((phase, labels))
        del frames
        if batch:
            with self._lock:
                for phase, stack in batch:
                    self._report.add(phase, stack)
