"""Wall-clock deadlines and cooperative cancellation.

The ROADMAP's query-service north star budgets every request: a caller
sets ``deadline_ms`` (on the :class:`~repro.core.plan.QuerySpec`, the
:class:`~repro.core.config.EngineConfig`, ``REPRO_DEADLINE_MS``, or
``--deadline-ms``) and the engine returns whatever the FPR paradigm has
*confirmed* by then — a sound partial answer, never a wrong one.

Both primitives here are cooperative: nothing is interrupted
asynchronously. The execution stack calls :meth:`Deadline.check` at its
checkpoints (executor target loop, refinement rounds, candidate
batches, decode-ladder entry, task scheduler), and the check raises
:class:`~repro.core.errors.DeadlineExceededError` once the budget is
spent or the token is cancelled. Checkpoints sit *between* units of
work, so a confirmed pair can never be half-recorded.

:class:`CancellationToken` is the caller-driven half: share one token
between the request thread and the query (``QuerySpec.cancellation``)
and call :meth:`CancellationToken.cancel` from anywhere — the query
unwinds at its next checkpoint with ``reason="cancelled"``. Tokens are
in-process objects (they hold no cross-process plumbing); the process
backend re-budgets each worker's remaining wall-clock budget at chunk
submission time, and its supervisor polls the token itself — once it
fires, the pool is killed and every pending chunk reruns in the parent,
where the token stops it at its first checkpoint.
"""

from __future__ import annotations

import threading
import time

from repro.core.errors import DeadlineExceededError

__all__ = ["CancellationToken", "Deadline"]


class CancellationToken:
    """A thread-safe, latching cancel signal.

    ``cancel()`` may be called from any thread, any number of times (the
    first call wins); the query observes it at its next checkpoint.
    """

    __slots__ = ("_event", "_reason", "_lock")

    def __init__(self):
        self._event = threading.Event()
        self._reason = "cancelled"
        self._lock = threading.Lock()

    def cancel(self, reason: str = "cancelled") -> None:
        with self._lock:
            if not self._event.is_set():
                self._reason = reason
                self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        return self._reason


class Deadline:
    """A monotonic wall-clock budget, optionally paired with a token.

    ``seconds=None`` means no time budget (token-only cancellation);
    ``token=None`` means no caller-driven cancellation. ``clock`` is
    injectable for deterministic tests.
    """

    __slots__ = ("deadline_ms", "token", "_clock", "_expires_at")

    def __init__(self, seconds: float | None = None, token=None, clock=time.monotonic):
        if seconds is not None and seconds <= 0:
            raise ValueError("deadline seconds must be > 0")
        self.deadline_ms = None if seconds is None else int(round(seconds * 1000))
        self.token = token
        self._clock = clock
        self._expires_at = None if seconds is None else clock() + seconds

    @classmethod
    def after_ms(cls, ms: int | None, token=None, clock=time.monotonic) -> "Deadline":
        return cls(None if ms is None else ms / 1000.0, token=token, clock=clock)

    def remaining(self) -> float | None:
        """Seconds left, floored at 0.0; ``None`` when there is no budget."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and self._clock() >= self._expires_at

    @property
    def cancelled(self) -> bool:
        return self.token is not None and self.token.cancelled

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if spent or cancelled."""
        if self.cancelled:
            raise DeadlineExceededError(
                reason="cancelled", where=where, deadline_ms=self.deadline_ms
            )
        if self.expired:
            raise DeadlineExceededError(
                reason="deadline", where=where, deadline_ms=self.deadline_ms
            )
