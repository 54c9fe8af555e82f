"""The learned LOD schedule (paper Sections 4.4 and 6.5, measured online).

Progressive refinement pays for each intermediate LOD it evaluates and
gains whatever that LOD settles. Which side wins depends on the join:
an intersection join settles most pairs at LOD 0 and is several times
faster on the full ladder, while a within join settles few pairs below
the top and is faster on the top LOD alone. So the engine measures it.

The learned kinds are within, intersection and kNN with ``k >= 2``
(:data:`LEARNED_KINDS`), on joins that run with
``EngineConfig.lod_list=None``. For every key — ``(kind, source,
target)``, and ``(kind, source, target, k)`` for kNN — :class:`LearnedSchedule`
chooses between two schedules, the full ladder ``range(top + 1)`` and
the kind's :func:`alternative`: the top LOD alone ``(top,)`` for within
and intersection, LOD 0 then the top LOD ``(0, top)`` for kNN.

* the key's first query runs the ladder (label ``"ladder"``);
* its second query runs the alternative (``"probe"``);
* after that, each query runs the schedule with the lower mean cost over
  its last :data:`WINDOW` observations (``"learned"``), except that every
  :data:`REPROBE_EVERY`-th query runs the other one (``"probe"``), so a
  wrong or stale choice corrects itself. A schedule with no observation
  (its queries were all partial, cancelled or degraded) costs infinity,
  so with neither measured the ladder runs, as with a pinned ladder,
  and the unmeasured schedule is tried again only on the re-probe.

One observation is the query's compute seconds divided by the pairs
evaluated at the schedule's first LOD — the pairs entering refinement,
the same count under both schedules. Decode seconds are left out: on an
engine whose decode cache holds the working set, decode is a one-off
cost paid by whichever query first touches an object (its LOD table is
compiled, its LODs are cached), and charging it to that query's
schedule misleads. On the benchmark suite's scene the first
intersection join (the ladder) spent 30 ms decoding and 3 ms computing,
which made the ladder look dearer than the top LOD alone although it is
six times cheaper warm. Only complete queries with no degraded object
are recorded.

Within and intersection pairs do not depend on the schedule: every LOD
is a spatial subset of the object, and the top LOD decides what no
lower one confirmed, by the solids' distance (see
:func:`repro.core.refine.refine_within_group`).

kNN's intermediate LODs, with only MBB lower bounds, prune little, and
its distances are measured at the top LOD anyway, so skipping them can
pay; whether it does depends on k and the data (on the suite scene
``(0, top)`` wins at k = 3 and loses at k = 2). A kNN answer keeps this
contract under either schedule:

* its id set does not depend on the schedule;
* every distance flagged ``exact=True`` is the top-LOD kernel minimum,
  bit for bit;
* a target that leaves the rounds early (``k`` or fewer candidates
  left) reports upper bounds flagged ``exact=False``; those bounds, and
  the order they rank, come from the LOD where it left, which the
  schedule decides.

NN (kNN with ``k = 1``) keeps the ladder: a target leaves the rounds
once one candidate is left, which on the suite scene happens at LODs
0-2 for every target, and ``(0, top)`` costs it four to six times as
much. Were it learned, every :data:`REPROBE_EVERY`-th query would pay
for the re-probe. Containment derives its ladder from its candidates.
"""

from __future__ import annotations

import math
import threading
from collections import deque

__all__ = [
    "LEARNED_KINDS",
    "REPROBE_EVERY",
    "WINDOW",
    "LearnedSchedule",
    "alternative",
    "full_ladder",
    "query_cost",
]

#: Query kinds whose schedule is learned (kNN only with ``k >= 2``).
LEARNED_KINDS = ("intersection", "within", "knn")

#: Observations per schedule the cost mean is taken over.
WINDOW = 8

#: Every this-many-th query of a key runs the schedule not chosen.
REPROBE_EVERY = 16


def full_ladder(*datasets) -> tuple[int, ...]:
    """Every LOD up to the highest any object of ``datasets`` has."""
    top = max((obj.max_lod for d in datasets for obj in d.objects), default=0)
    return tuple(range(top + 1))


def alternative(kind: str, ladder: tuple[int, ...]) -> tuple[int, ...]:
    """The schedule a learned ``kind`` weighs against ``ladder``: LOD 0
    then the top LOD for kNN, the top LOD alone otherwise."""
    top = ladder[-1]
    return (0, top) if kind == "knn" else (top,)


def query_cost(result, lods) -> float | None:
    """Compute seconds per pair entering refinement.

    The query's merged stats, so under the process backend the workers'
    busy time. ``None`` when no pair was evaluated at the schedule's
    first LOD: such a query says nothing about either schedule.
    """
    stats = result.stats
    pairs = stats.pairs_evaluated_by_lod.get(lods[0], 0)
    if not pairs:
        return None
    return stats.compute_seconds / pairs


class _Key:
    __slots__ = ("queries", "ladder", "alternative")

    def __init__(self):
        self.queries = 0
        self.ladder: deque = deque(maxlen=WINDOW)
        self.alternative: deque = deque(maxlen=WINDOW)


def _mean(costs) -> float:
    """The window's mean; infinite for a schedule never measured."""
    return sum(costs) / len(costs) if costs else math.inf


class LearnedSchedule:
    """Per-key cost windows and the choice made from them; thread-safe.

    ``cost`` turns a finished query into one observation (default
    :func:`query_cost`); tests substitute a deterministic one.
    """

    def __init__(self, cost=query_cost):
        self.cost = cost
        self._lock = threading.Lock()
        self._keys: dict[tuple, _Key] = {}

    def choose(self, key: tuple, ladder: tuple[int, ...]) -> tuple[tuple[int, ...], str]:
        """``(lods, label)`` for the next query of ``key``: ``ladder`` or
        the :func:`alternative` of the key's kind (``key[0]``)."""
        other = alternative(key[0], ladder)
        if ladder[-1] == 0 or other == ladder:
            return ladder, "ladder"
        with self._lock:
            entry = self._keys.get(key)
            if entry is None:
                entry = self._keys[key] = _Key()
            n = entry.queries
            entry.queries += 1
            if n == 0:
                return ladder, "ladder"
            if n == 1:
                return other, "probe"
            other_wins = _mean(entry.alternative) < _mean(entry.ladder)
            if n % REPROBE_EVERY == REPROBE_EVERY - 1:
                other_wins = not other_wins
                label = "probe"
            else:
                label = "learned"
        return (other if other_wins else ladder), label

    def record(self, key: tuple, lods: tuple[int, ...], result) -> None:
        """Add ``result``'s cost to the window of the schedule it ran.

        Keys :meth:`choose` never saw (pinned, NN, containment and
        worker-side queries) are ignored, as are partial queries and
        queries that leaned on degraded geometry.
        """
        if not result.complete or result.stats.degraded_objects or key not in self._keys:
            return
        cost = self.cost(result, lods)
        if cost is None:
            return
        with self._lock:
            entry = self._keys.get(key)
            if entry is not None:
                ran_other = lods == alternative(key[0], lods)
                (entry.alternative if ran_other else entry.ladder).append(cost)

    def forget(self, dataset: str) -> None:
        """Drop every key that names ``dataset`` (it was replaced or unloaded)."""
        with self._lock:
            for key in [k for k in self._keys if dataset in k[1:3]]:
                del self._keys[key]
