"""Stream grouping strategies, including the paper's *dynamic grouping*.

A grouping maps an outgoing tuple to the consumer task(s) that receive it.
Every upstream executor owns its own grouper instance (as in Storm), but
dynamic groupings share a :class:`SplitRatioControl` per (source, consumer)
edge so the controller can retarget *all* upstream emitters with one call.

Dynamic grouping is implemented as **smooth weighted round-robin** (deficit
counters) rather than weighted random sampling: the achieved split converges
to the requested ratios deterministically at O(1/n), which is what lets the
paper's experiment "dynamic grouping works as expected" (E4) show ~exact
ratios after a few hundred tuples — and lets re-splits take effect
immediately.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as Tup

import numpy as np

from repro.storm.tuples import stable_hash

#: A compiled routing table entry: ``router(values)`` returns the target
#: task ids for one outgoing tuple.  Routers are closures built once per
#: ``(source_task, stream)`` on first emission and never rebuilt: task ids
#: do not change when elastic membership moves executors, so no
#: grouping's targets depend on placement.  Mutable routing state
#: (cursors, deficit counters) lives on the grouping instance.
Router = Callable[[Tup[Any, ...]], List[int]]

#: Bound on the per-router key→target memo table (fields grouping): big
#: enough for any realistic key cardinality, small enough that an
#: adversarial key stream cannot pin unbounded memory.
_KEY_CACHE_LIMIT = 1 << 16


class Grouping:
    """Base class: a consumer's task ids; subclasses define
    ``compile_router(*, fields, stream, source_component, source_task)``,
    the one implementation of their routing policy."""

    #: Set by the cluster at wiring time: the consumer's task ids, ordered.
    def __init__(self, target_tasks: Sequence[int]) -> None:
        if not target_tasks:
            raise ValueError("grouping needs at least one target task")
        self.target_tasks = list(target_tasks)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} targets={len(self.target_tasks)}>"


class ShuffleGrouping(Grouping):
    """Uniform round-robin from a random start (Storm's shuffle)."""

    def __init__(self, target_tasks: Sequence[int], rng: np.random.Generator) -> None:
        super().__init__(target_tasks)
        self._next = int(rng.integers(0, len(self.target_tasks)))

    def compile_router(self, **_ctx: Any) -> Router:
        # Cached modular cursor, kept on the instance.
        def router(values, g=self):
            tasks = g.target_tasks
            i = g._next
            g._next = (i + 1) % len(tasks)
            return [tasks[i]]

        return router


class FieldsGrouping(Grouping):
    """Hash-partition on selected fields (same key -> same task, always)."""

    def __init__(self, target_tasks: Sequence[int], fields: Sequence[str]) -> None:
        super().__init__(target_tasks)
        if not fields:
            raise ValueError("fields grouping requires fields")
        self.fields = tuple(fields)
        # Key→task assignment must depend only on the *set* of consumer
        # tasks, never on the order the wiring code enumerated them in.
        self._ordered = sorted(self.target_tasks)

    def compile_router(
        self, *, fields: Sequence[str] = (), **_ctx: Any
    ) -> Router:
        # Field positions are resolved once (topology validation rejects
        # a grouping on undeclared fields).  key → task is memoised on
        # ``repr(key)``, the exact input ``stable_hash`` reads: keys that
        # compare equal but print differently (1, 1.0, True; 0.0, -0.0)
        # hash apart, and the memo key is always hashable.
        idxs = tuple(fields.index(f) for f in self.fields)
        ordered = self._ordered
        n = len(ordered)
        cache: Dict[str, int] = {}

        def router(values):
            key = tuple([values[i] for i in idxs])
            text = repr(key)
            t = cache.get(text)
            if t is None:
                t = ordered[stable_hash(key) % n]
                if len(cache) >= _KEY_CACHE_LIMIT:
                    cache.clear()
                cache[text] = t
            return [t]

        return router


class GlobalGrouping(Grouping):
    """Everything to the lowest-id task."""

    def compile_router(self, **_ctx: Any) -> Router:
        target = [min(self.target_tasks)]  # static: tasks never change
        return lambda values: target


class SplitRatioControl:
    """Shared, mutable split ratios for one (source, consumer) edge.

    All upstream :class:`DynamicGrouping` instances on the edge read from
    this object; :meth:`set_ratios` retargets them all at once (this is the
    control surface the paper's framework actuates).  A monotonically
    increasing ``version`` lets groupers detect changes cheaply.
    """

    def __init__(self, n_targets: int, ratios: Optional[Sequence[float]] = None):
        if n_targets < 1:
            raise ValueError("need at least one target")
        self.n_targets = n_targets
        self.version = 0
        self._ratios = np.full(n_targets, 1.0 / n_targets)
        if ratios is not None:
            self.set_ratios(ratios)

    @property
    def ratios(self) -> np.ndarray:
        """Current normalised split ratios (read-only view)."""
        return self._ratios

    def set_ratios(self, ratios: Sequence[float]) -> None:
        """Replace the split ratios (they are normalised internally).

        Raises ``ValueError`` for negative weights, wrong arity, or an
        all-zero vector.
        """
        arr = np.asarray(ratios, dtype=float)
        if arr.shape != (self.n_targets,):
            raise ValueError(
                f"expected {self.n_targets} ratios, got shape {arr.shape}"
            )
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError(f"ratios must be finite and non-negative: {arr}")
        total = arr.sum()
        if total <= 0:
            raise ValueError("at least one ratio must be positive")
        self._ratios = arr / total
        self.version += 1


class DynamicGrouping(Grouping):
    """The paper's dynamic grouping: split tuples by arbitrary live ratios.

    Smooth weighted round-robin: each target accumulates credit equal to its
    ratio per tuple; the target with the largest credit wins and pays 1.
    Deterministic, O(targets) per tuple, and achieved proportions converge
    to the requested ratios with error ≤ 1 tuple per target.
    """

    def __init__(
        self, target_tasks: Sequence[int], control: SplitRatioControl
    ) -> None:
        super().__init__(target_tasks)
        if control.n_targets != len(target_tasks):
            raise ValueError(
                f"control has {control.n_targets} targets, grouping has "
                f"{len(target_tasks)}"
            )
        self.control = control
        # Credit and ratios are plain float lists: per-tuple arithmetic on
        # a handful of targets is cheaper element by element than through
        # NumPy scalar calls, and IEEE-identical to it.
        self._credit = [0.0] * len(target_tasks)
        self._ratios: List[float] = control.ratios.tolist()
        self._seen_version = control.version

    def compile_router(self, **_ctx: Any) -> Router:
        def router(values, g=self, control=self.control, tasks=self.target_tasks):
            credit = g._credit
            if control.version != g._seen_version:
                # Ratios changed: clear accumulated credit so the new split
                # takes effect immediately rather than paying back old debt.
                credit[:] = [0.0] * len(credit)
                g._ratios = control.ratios.tolist()
                g._seen_version = control.version
            winner = 0
            top = -math.inf
            for i, ratio in enumerate(g._ratios):
                c = credit[i] = credit[i] + ratio
                if c > top:  # strict: the first maximum wins, as np.argmax
                    top = c
                    winner = i
            credit[winner] -= 1.0
            return [tasks[winner]]

        return router


def make_grouping(
    strategy: str,
    target_tasks: Sequence[int],
    *,
    fields: Sequence[str] = (),
    rng: Optional[np.random.Generator] = None,
    control: Optional[SplitRatioControl] = None,
) -> Grouping:
    """Factory used by the cluster wiring code."""
    if strategy == "shuffle":
        assert rng is not None
        return ShuffleGrouping(target_tasks, rng)
    if strategy == "fields":
        return FieldsGrouping(target_tasks, fields)
    if strategy == "global":
        return GlobalGrouping(target_tasks)
    if strategy == "dynamic":
        assert control is not None
        return DynamicGrouping(target_tasks, control)
    raise ValueError(f"unknown grouping strategy {strategy!r}")
