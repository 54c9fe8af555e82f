"""Pair blocks for the blocked kernels, and the query-chunk scheduler.

:func:`iter_pair_blocks` cuts the flattened ``n_a x n_b`` pair index
space into contiguous blocks of ``cpu_block`` pairs, the granularity of
:class:`~repro.parallel.executor.GeometryComputer`'s per-pair kernels
(paper Section 5.2: "geometric computations ... are grouped into small
tasks with a fixed number of face pair evaluations"). The fused waves
of :mod:`repro.core.batch` are the batched form of those tasks.

:class:`TaskScheduler` runs the query executor's target chunks on the
thread backend, fault-tolerantly: a chunk that raises is retried up to
``max_retries`` times with optional exponential backoff, and chunks that
fail inside the thread pool are re-run serially (a worker-thread crash
must not take down the whole query). Only when a chunk exhausts its
retries does the scheduler raise
:class:`~repro.core.errors.TaskExecutionError`.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.errors import DeadlineExceededError, TaskExecutionError
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event

__all__ = ["iter_pair_blocks", "TaskScheduler"]

_LOG = get_logger("parallel.tasks")


def iter_pair_blocks(
    n_a: int, n_b: int, block: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (ii, jj) index arrays covering the n_a x n_b pair space.

    Pairs are enumerated row-major (all of face 0's pairs first), so an
    early exit after the first blocks has touched whole faces of the
    first operand — the locality the decode cache likes.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    total = n_a * n_b
    for start in range(0, total, block):
        flat = np.arange(start, min(start + block, total))
        yield flat // n_b, flat % n_b


class TaskScheduler:
    """Thread-pool fan-out for independent tasks (query chunks).

    Tasks are submitted as thunks and executed by whichever worker is
    free. With ``workers <= 1`` everything runs inline.

    ``max_retries`` bounds re-execution of a failing task (0 disables
    retry); ``backoff_seconds`` is the base of an exponential backoff
    slept between attempts. ``retries`` and ``serial_fallbacks`` count
    what actually happened.

    ``fatal_types`` lists exception types that must propagate unwrapped
    and unretried (e.g. a query's
    :class:`~repro.core.errors.ErrorBudgetExceededError` — retrying
    cannot help, and callers match on the type).
    :class:`~repro.core.errors.DeadlineExceededError` is always treated
    as fatal — a spent budget cannot be retried into existence.
    """

    def __init__(
        self,
        workers: int = 1,
        max_retries: int = 2,
        backoff_seconds: float = 0.0,
        metrics: obs_metrics.MetricsRegistry | None = None,
        fatal_types: tuple = (),
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        self.workers = workers
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.fatal_types = tuple(fatal_types)
        self.retries = 0
        self.serial_fallbacks = 0
        registry = metrics if metrics is not None else obs_metrics.REGISTRY
        self._m_tasks = registry.counter(
            "repro_tasks_total", "Tasks submitted to the scheduler"
        )
        self._m_retries = registry.counter(
            "repro_task_retries_total", "Task attempts re-run after a failure"
        )
        self._m_serial_fallbacks = registry.counter(
            "repro_task_serial_fallbacks_total",
            "Tasks that failed in the thread pool and were re-run serially",
        )

    def _run(self, fn: Callable, item, index: int, first_attempt: int = 0):
        """Run one task with retry; raises TaskExecutionError when spent."""
        last: Exception | None = None
        for attempt in range(first_attempt, self.max_retries + 1):
            if attempt > first_attempt:
                self.retries += 1
                self._m_retries.inc()
                backoff = 0.0
                if self.backoff_seconds > 0:
                    backoff = self.backoff_seconds * 2 ** (attempt - 1)
                log_event(
                    _LOG, "task_retry", level=logging.WARNING,
                    task=index, attempt=attempt, backoff_seconds=backoff,
                    error=repr(last),
                )
                if backoff > 0:
                    time.sleep(backoff)
            try:
                return fn(item)
            except Exception as exc:
                if isinstance(exc, self.fatal_types) or isinstance(
                    exc, DeadlineExceededError
                ):
                    raise
                last = exc
        raise TaskExecutionError(
            f"task {index} failed after {self.max_retries + 1 - first_attempt} "
            f"attempt(s): {last!r}"
        ) from last

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        self._m_tasks.inc(len(items))
        if self.workers == 1 or len(items) <= 1:
            return [self._run(fn, item, i) for i, item in enumerate(items)]

        def pooled(item):
            """First attempt only; failures are retried serially by the caller."""
            try:
                return True, fn(item)
            except Exception as exc:
                return False, exc

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            outcomes = list(pool.map(pooled, items))
        results = []
        for index, (ok, value) in enumerate(outcomes):
            if ok:
                results.append(value)
                continue
            if isinstance(value, self.fatal_types) or isinstance(
                value, DeadlineExceededError
            ):
                raise value
            self.serial_fallbacks += 1
            self._m_serial_fallbacks.inc()
            log_event(
                _LOG, "task_serial_fallback", level=logging.WARNING,
                task=index, error=repr(value),
            )
            if self.max_retries == 0:
                raise TaskExecutionError(
                    f"task {index} failed after 1 attempt(s): {value!r}"
                ) from value
            results.append(self._run(fn, items[index], index, first_attempt=1))
        return results
