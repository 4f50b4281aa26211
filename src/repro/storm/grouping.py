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

from repro.storm.tuples import DEFAULT_STREAM, Tuple, stable_hash

#: A compiled routing table entry: ``router(values, direct_task)`` returns
#: the target task ids for one outgoing tuple.  Routers are closures built
#: once per ``(source_task, stream)`` at topology-wire time; they must be
#: element-equal to driving :meth:`Grouping.choose` per tuple (the
#: Hypothesis property in ``tests/storm/test_routing_tables.py`` pins
#: this), and they read any mutable grouping state (cursors, pools,
#: deficit counters) *through the grouping instance* so elastic rewires
#: stay visible without recompiling.
Router = Callable[[Tup[Any, ...], Optional[int]], List[int]]

#: Bound on the per-router key→target memo tables (content-dependent
#: groupings): big enough for any realistic key cardinality, small enough
#: that an adversarial key stream cannot pin unbounded memory.
_KEY_CACHE_LIMIT = 1 << 16


class Grouping:
    """Base class: choose target task indices for an outgoing tuple."""

    #: ``True`` when :meth:`choose` never inspects the tuple's content —
    #: the emit hot path then skips building the probe tuple entirely.
    content_free = False

    #: Set by the cluster at wiring time: the consumer's task ids, ordered.
    def __init__(self, target_tasks: Sequence[int]) -> None:
        if not target_tasks:
            raise ValueError("grouping needs at least one target task")
        self.target_tasks = list(target_tasks)

    def choose(self, tup: Optional[Tuple]) -> List[int]:
        """Task ids that must receive ``tup``.

        ``tup`` is ``None`` when the grouping declares itself
        ``content_free`` (performance fast path).
        """
        raise NotImplementedError

    def compile_router(
        self,
        *,
        fields: Sequence[str] = (),
        stream: str = DEFAULT_STREAM,
        source_component: str = "",
        source_task: int = -1,
    ) -> Router:
        """Compile this grouping into a per-tuple routing closure.

        The returned ``router(values, direct_task)`` is the hot-path
        replacement for the polymorphic dispatch the emit loop used to
        do per tuple (isinstance checks, probe-tuple construction,
        ``choose`` method calls).  This base implementation is the
        behaviour-preserving fallback for third-party subclasses: it
        reproduces the original dispatch exactly, including the probe
        tuple handed to content-dependent ``choose`` implementations.
        Shipped groupings override it with specialised closures.
        """
        choose = self.choose
        if self.content_free:
            return lambda values, direct_task: choose(None)
        fields = tuple(fields)

        def router(values: Tup[Any, ...], direct_task: Optional[int]) -> List[int]:
            # positional Tuple(values, stream, source_component,
            # source_task, edge_id, roots, emit_time, msg_id, fields)
            return choose(
                Tuple(
                    values, stream, source_component, source_task,
                    0, (), 0.0, None, fields,
                )
            )

        return router

    def __repr__(self) -> str:
        return f"<{type(self).__name__} targets={len(self.target_tasks)}>"


class ShuffleGrouping(Grouping):
    """Uniform round-robin from a random start (Storm's shuffle)."""

    content_free = True

    def __init__(self, target_tasks: Sequence[int], rng: np.random.Generator) -> None:
        super().__init__(target_tasks)
        self._next = int(rng.integers(0, len(self.target_tasks)))

    def choose(self, tup: Tuple) -> List[int]:
        t = self.target_tasks[self._next]
        self._next = (self._next + 1) % len(self.target_tasks)
        return [t]

    def compile_router(self, **_ctx: Any) -> Router:
        # Cached modular cursor: one closure frame instead of a method
        # dispatch per tuple.  The cursor stays on the instance so the
        # per-tuple ``choose`` path (and tests driving it) sees the same
        # round-robin state.
        def router(values, direct_task, g=self):
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

    def choose(self, tup: Tuple) -> List[int]:
        key = tup.select(self.fields)
        return [self._ordered[stable_hash(key) % len(self._ordered)]]

    def compile_router(
        self, *, fields: Sequence[str] = (), **_ctx: Any
    ) -> Router:
        # Precompute field positions once (the per-tuple path re-derives
        # them through Tuple.value's fields.index per name) and memoise
        # key → task: repeated keys skip the FNV hash entirely.
        try:
            idxs = tuple(fields.index(f) for f in self.fields)
        except ValueError:
            # A declared field is missing from the stream: fall back to
            # the probe-tuple path so the per-tuple KeyError (with its
            # emitter context) surfaces exactly as before.
            return super().compile_router(fields=fields, **_ctx)
        ordered = self._ordered
        n = len(ordered)
        cache: Dict[Tup[Any, ...], int] = {}

        def router(values, direct_task):
            key = tuple(values[i] for i in idxs)
            try:
                t = cache.get(key)
            except TypeError:  # unhashable key value: hash directly
                return [ordered[stable_hash(key) % n]]
            if t is None:
                t = ordered[stable_hash(key) % n]
                if len(cache) >= _KEY_CACHE_LIMIT:
                    cache.clear()
                cache[key] = t
            return [t]

        return router


class GlobalGrouping(Grouping):
    """Everything to the lowest-id task."""

    content_free = True

    def choose(self, tup: Tuple) -> List[int]:
        return [min(self.target_tasks)]

    def compile_router(self, **_ctx: Any) -> Router:
        target = [min(self.target_tasks)]  # static: tasks never change
        return lambda values, direct_task: target


class AllGrouping(Grouping):
    """Replicate to every consumer task (control/broadcast streams)."""

    content_free = True

    def choose(self, tup: Tuple) -> List[int]:
        return list(self.target_tasks)

    def compile_router(self, **_ctx: Any) -> Router:
        targets = list(self.target_tasks)  # static snapshot, read-only
        return lambda values, direct_task: targets


class DirectGrouping(Grouping):
    """The emitter names the target task explicitly via ``direct_task``."""

    def choose(self, tup: Tuple) -> List[int]:  # pragma: no cover - guarded
        raise RuntimeError("direct grouping requires emit(..., direct_task=)")

    def choose_direct(self, task_id: int) -> List[int]:
        if task_id not in self.target_tasks:
            raise ValueError(
                f"direct emit to {task_id}, not a consumer task "
                f"({self.target_tasks})"
            )
        return [task_id]

    def compile_router(
        self,
        *,
        stream: str = DEFAULT_STREAM,
        source_component: str = "",
        **_ctx: Any,
    ) -> Router:
        members = frozenset(self.target_tasks)
        tasks = self.target_tasks

        def router(values, direct_task):
            if direct_task is None:
                raise ValueError(
                    f"{source_component!r}: direct grouping on stream "
                    f"{stream!r} requires emit(..., direct_task=)"
                )
            if direct_task not in members:
                raise ValueError(
                    f"direct emit to {direct_task}, not a consumer task "
                    f"({tasks})"
                )
            return [direct_task]

        return router


class LocalOrShuffleGrouping(Grouping):
    """Prefer consumer tasks in the emitter's own worker, else shuffle."""

    content_free = True

    def __init__(
        self,
        target_tasks: Sequence[int],
        rng: np.random.Generator,
        local_tasks: Sequence[int] = (),
    ) -> None:
        super().__init__(target_tasks)
        self.local_tasks = [t for t in target_tasks if t in set(local_tasks)]
        pool = self.local_tasks or self.target_tasks
        self._pool = pool
        self._next = int(rng.integers(0, len(pool)))

    def choose(self, tup: Tuple) -> List[int]:
        t = self._pool[self._next]
        self._next = (self._next + 1) % len(self._pool)
        return [t]

    def compile_router(self, **_ctx: Any) -> Router:
        # Pool and cursor are read through the instance on every call:
        # the elastic scheduler rewires ``_pool``/``local_tasks`` in
        # place after worker joins/leaves, and a compiled table must see
        # the new pool without waiting for a recompile.
        def router(values, direct_task, g=self):
            pool = g._pool
            i = g._next
            g._next = (i + 1) % len(pool)
            return [pool[i]]

        return router


class PartialKeyGrouping(Grouping):
    """Two-choice key grouping (Nasir et al.): each key may go to the less
    loaded of two candidate tasks, balancing skew while keeping per-key
    locality to two tasks."""

    def __init__(self, target_tasks: Sequence[int], fields: Sequence[str]) -> None:
        super().__init__(target_tasks)
        if not fields:
            raise ValueError("partial key grouping requires fields")
        self.fields = tuple(fields)
        # Candidate pair per key is order-independent (see FieldsGrouping).
        self._ordered = sorted(self.target_tasks)
        self._sent: Dict[int, int] = {t: 0 for t in self.target_tasks}

    def choose(self, tup: Tuple) -> List[int]:
        key = tup.select(self.fields)
        n = len(self._ordered)
        a = self._ordered[stable_hash(key) % n]
        b = self._ordered[stable_hash(("salt", key)) % n]
        pick = a if self._sent[a] <= self._sent[b] else b
        self._sent[pick] += 1
        return [pick]

    def compile_router(
        self, *, fields: Sequence[str] = (), **_ctx: Any
    ) -> Router:
        # Memoise the candidate pair per key (two FNV hashes saved on
        # repeats); the two-choice pick itself stays live against the
        # shared ``_sent`` load counters, which the per-tuple path and
        # every other emitter of this grouping instance also update.
        try:
            idxs = tuple(fields.index(f) for f in self.fields)
        except ValueError:
            return super().compile_router(fields=fields, **_ctx)
        ordered = self._ordered
        n = len(ordered)
        cache: Dict[Tup[Any, ...], Tup[int, int]] = {}
        sent = self._sent

        def router(values, direct_task):
            key = tuple(values[i] for i in idxs)
            try:
                pair = cache.get(key)
            except TypeError:  # unhashable key value: hash directly
                a = ordered[stable_hash(key) % n]
                b = ordered[stable_hash(("salt", key)) % n]
                pick = a if sent[a] <= sent[b] else b
                sent[pick] += 1
                return [pick]
            if pair is None:
                pair = (
                    ordered[stable_hash(key) % n],
                    ordered[stable_hash(("salt", key)) % n],
                )
                if len(cache) >= _KEY_CACHE_LIMIT:
                    cache.clear()
                cache[key] = pair
            a, b = pair
            pick = a if sent[a] <= sent[b] else b
            sent[pick] += 1
            return [pick]

        return router


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
        self.history: List[tuple] = []  # (set_time, ratios) for experiments
        if ratios is not None:
            self.set_ratios(ratios)

    @property
    def ratios(self) -> np.ndarray:
        """Current normalised split ratios (read-only view)."""
        return self._ratios

    def set_ratios(
        self, ratios: Sequence[float], now: Optional[float] = None
    ) -> None:
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
        self.history.append((now, self._ratios.copy()))


class DynamicGrouping(Grouping):
    """The paper's dynamic grouping: split tuples by arbitrary live ratios.

    Smooth weighted round-robin: each target accumulates credit equal to its
    ratio per tuple; the target with the largest credit wins and pays 1.
    Deterministic, O(targets) per tuple, and achieved proportions converge
    to the requested ratios with error ≤ 1 tuple per target.
    """

    content_free = True

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

    def choose(self, tup: Tuple) -> List[int]:
        control = self.control
        credit = self._credit
        if control.version != self._seen_version:
            # Ratios changed: clear accumulated credit so the new split
            # takes effect immediately rather than paying back old debt.
            credit[:] = [0.0] * len(credit)
            self._ratios = control.ratios.tolist()
            self._seen_version = control.version
        winner = 0
        top = -math.inf
        for i, ratio in enumerate(self._ratios):
            c = credit[i] = credit[i] + ratio
            if c > top:  # strict: the first maximum wins, as np.argmax
                top = c
                winner = i
        credit[winner] -= 1.0
        return [self.target_tasks[winner]]


def make_grouping(
    strategy: str,
    target_tasks: Sequence[int],
    *,
    fields: Sequence[str] = (),
    rng: Optional[np.random.Generator] = None,
    control: Optional[SplitRatioControl] = None,
    local_tasks: Sequence[int] = (),
) -> Grouping:
    """Factory used by the cluster wiring code."""
    if strategy == "shuffle":
        assert rng is not None
        return ShuffleGrouping(target_tasks, rng)
    if strategy == "fields":
        return FieldsGrouping(target_tasks, fields)
    if strategy == "global":
        return GlobalGrouping(target_tasks)
    if strategy == "all":
        return AllGrouping(target_tasks)
    if strategy == "direct":
        return DirectGrouping(target_tasks)
    if strategy == "local_or_shuffle":
        assert rng is not None
        return LocalOrShuffleGrouping(target_tasks, rng, local_tasks)
    if strategy == "partial_key":
        return PartialKeyGrouping(target_tasks, fields)
    if strategy == "dynamic":
        assert control is not None
        return DynamicGrouping(target_tasks, control)
    raise ValueError(f"unknown grouping strategy {strategy!r}")
