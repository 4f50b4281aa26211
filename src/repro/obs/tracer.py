"""Ring-buffered structured event tracer.

Every instrumented site in the simulator holds a ``tracer`` attribute
that is either a :class:`Tracer` or ``None``; the hot-path idiom is::

    tr = self.tracer
    if tr is not None:
        tr.record(self.env.now, TUPLE_EXECUTE, self.task_id, ...)

so a disabled tracer costs one attribute load and one identity check per
potential event.  Events land in a bounded :class:`collections.deque`;
once full, the oldest events are overwritten (``dropped`` counts them),
which keeps long runs memory-bounded without branching in ``record``.

A lifecycle (``tuple.*``) event is recorded positionally and stored as
one exact, flat tuple ``(time, kind, *values)`` in the :data:`FIELDS`
layout, which CPython's cyclic GC untracks at its first collection; other
events pass keywords, stored as ``(time, kind, fields)``.  Both are read
through :class:`TraceEvent` views.

Event taxonomy (the ``kind`` strings below):

==================  =====================================================
``tuple.emit``      spout opened a tuple tree (``root`` is the span id)
``tuple.transfer``  transport accepted a tuple for delivery
``tuple.queue``     bolt dequeued a tuple (``wait`` = queue time)
``tuple.execute``   bolt finished servicing a tuple (``service`` seconds)
``tuple.ack``       tuple tree completed — closes the ``emit`` span
``tuple.fail``      tuple tree failed/timed out — closes the span
``tuple.replay``    spout re-queued a failed message for replay
``tuple.drop``      message exceeded ``max_replays`` and was abandoned
``tuple.shed``      transport dropped a tuple at a full receiver queue
``tuple.loss``      chaos drop in transit (``reason``: ``loss`` = message-
                    loss fault, ``crash`` = destination worker was dead);
                    the tree recovers via the acker timeout + replay
``control.*``       controller loop: sample/predict/detect/plan skips,
                    one ``control.decision`` per acted interval and one
                    ``control.apply`` per actuated edge (with ratios)
``fault.apply``     fault injector applied a fault (ground truth)
``fault.revert``    fault injector reverted a fault
``slo.breach``      SLO engine opened a breach episode for one rule
``slo.recover``     the breach episode closed (``downtime`` seconds)
==================  =====================================================
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

TUPLE_EMIT = "tuple.emit"
TUPLE_TRANSFER = "tuple.transfer"
TUPLE_QUEUE = "tuple.queue"
TUPLE_EXECUTE = "tuple.execute"
TUPLE_ACK = "tuple.ack"
TUPLE_FAIL = "tuple.fail"
TUPLE_REPLAY = "tuple.replay"
TUPLE_DROP = "tuple.drop"
TUPLE_SHED = "tuple.shed"
TUPLE_LOSS = "tuple.loss"
CONTROL_SAMPLE = "control.sample"
CONTROL_SKIP = "control.skip"
CONTROL_DECISION = "control.decision"
CONTROL_APPLY = "control.apply"
FAULT_APPLY = "fault.apply"
FAULT_REVERT = "fault.revert"

#: Kinds that close a ``tuple.emit`` span (exactly one per completed root).
TUPLE_CLOSE_KINDS = frozenset({TUPLE_ACK, TUPLE_FAIL})

#: Field names of each lifecycle kind, in record (and JSONL key) order.
FIELDS: Dict[str, Tuple[str, ...]] = {
    TUPLE_EMIT: ("root", "msg_id", "task", "component", "retries"),
    TUPLE_TRANSFER: ("src_task", "dst_task", "edge", "roots", "delay"),
    TUPLE_QUEUE: ("task", "component", "edge", "roots", "wait"),
    TUPLE_EXECUTE: ("task", "component", "edge", "roots", "service"),
    TUPLE_ACK: ("root", "msg_id", "spout_task", "latency", "edge"),
    TUPLE_FAIL: ("root", "msg_id", "spout_task", "latency", "reason"),
    TUPLE_REPLAY: ("msg_id", "task", "retries"),
    TUPLE_DROP: ("msg_id", "task", "retries"),
    TUPLE_SHED: ("dst_task", "edge", "roots"),
    TUPLE_LOSS: ("dst_task", "edge", "roots", "reason"),
}


@dataclass(frozen=True)
class TraceEvent:
    """One structured event: simulation time, kind, and a flat payload."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def of(cls, record: tuple) -> "TraceEvent":
        """The read view of one ring record, typed or keyword form."""
        payload = record[2]
        if type(payload) is not dict:
            payload = dict(zip(FIELDS[record[1]], record[2:]))
        return cls(record[0], record[1], payload)

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"<{self.kind} t={self.time:.6g} {inner}>"


class Tracer:
    """Bounded in-memory event sink.

    Parameters
    ----------
    capacity:
        Maximum events retained; the oldest are overwritten beyond that.
    """

    __slots__ = ("capacity", "_buf", "_total")

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buf: deque[tuple] = deque(maxlen=capacity)
        self._total = 0

    # -- recording (the hot path) -------------------------------------------------

    def record(
        self, time: float, kind: str, *values: Any, **fields: Any
    ) -> None:
        """Append one event.  Callers guard with ``if tracer is not None``.

        Positional ``values`` (in :data:`FIELDS` order, unchecked) store
        ``(time, kind, *values)``; keywords store ``(time, kind, fields)``.
        """
        self._total += 1
        rec = (time, kind) + values if values else (time, kind, fields)
        self._buf.append(rec)

    # -- inspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buf)

    def records(self) -> List[tuple]:
        """Retained records as stored, in record order (no views built)."""
        return list(self._buf)

    def non_lifecycle_events(self) -> List[TraceEvent]:
        """Views of the retained records that are not ``tuple.*`` ones."""
        return [TraceEvent.of(r) for r in self._buf if r[1] not in FIELDS]

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (including ones since overwritten)."""
        return self._total

    @property
    def dropped(self) -> int:
        """Events lost to ring-buffer overwrite."""
        return self._total - len(self._buf)

    def events(
        self,
        kind: Optional[str] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> List[TraceEvent]:
        """Retained events, optionally filtered by ``kind`` and time window.

        A ``kind`` ending in ``.`` or ``.*`` matches the whole prefix
        (``"tuple.*"`` returns every tuple-lifecycle event).  ``t0``/``t1``
        bound the event time to the half-open window ``[t0, t1)``; either
        side may be omitted.  Windowing composes with the ring buffer:
        events already overwritten are gone regardless of the window
        (check :attr:`dropped` when an old window comes back empty).
        Raises :class:`ValueError` on an inverted window (``t0 > t1``)
        rather than silently returning nothing.
        """
        if t0 is not None and t1 is not None and t0 > t1:
            raise ValueError(
                f"inverted time window: t0={t0!r} > t1={t1!r}"
                " (events() windows are [t0, t1))"
            )
        view = TraceEvent.of
        if kind is None:
            if t0 is None and t1 is None:
                return list(map(view, self._buf))
            match = None
        elif kind.endswith(("*", ".")):
            prefix = kind.rstrip("*")
            match = lambda k: k.startswith(prefix)  # noqa: E731
        else:
            match = lambda k: k == kind  # noqa: E731
        return [
            view(r)
            for r in self._buf
            if (match is None or match(r[1]))
            and (t0 is None or r[0] >= t0)
            and (t1 is None or r[0] < t1)
        ]

    def clear(self) -> None:
        """Drop retained events and reset the counters."""
        self._buf.clear()
        self._total = 0

    def kind_counts(self) -> Dict[str, int]:
        """Retained-event histogram by kind (for summaries and tests)."""
        return dict(Counter(map(itemgetter(1), self._buf)))

    def __repr__(self) -> str:
        return (
            f"<Tracer retained={len(self._buf)}/{self.capacity}"
            f" total={self._total}>"
        )


def lifecycle_record(event: Any) -> Optional[tuple]:
    """``event`` in the flat :data:`FIELDS` layout; ``None`` for other kinds.

    Takes a ring record or a :class:`TraceEvent`; a dict payload gets
    ``None`` for missing fields and tuples for JSON lists (reloaded ids).
    """
    if type(event) is tuple:
        if type(event[2]) is not dict:
            return event
        time, kind, payload = event
    else:
        time, kind, payload = event.time, event.kind, event.fields
    names = FIELDS.get(kind)
    if names is None:
        return None
    return (time, kind, *(
        tuple(v) if isinstance(v, list) else v for v in map(payload.get, names)
    ))


def group_tuple_spans(
    events: Iterable[TraceEvent],
) -> Dict[int, List[TraceEvent]]:
    """Group tuple-lifecycle events by their span id (the tree root).

    Returns ``{root_id: [events in recorded order]}``.  Events without a
    ``root`` field (unreliable emissions, ticks) are skipped.  Useful for
    span-tree integrity checks: a well-formed completed span starts with
    ``tuple.emit`` and contains exactly one close
    (:data:`TUPLE_CLOSE_KINDS`).
    """
    spans: Dict[int, List[TraceEvent]] = {}
    for e in events:
        if not e.kind.startswith("tuple."):
            continue
        root = e.fields.get("root")
        if root is None:
            roots = e.fields.get("roots") or ()
        else:
            roots = (root,)
        for r in roots:
            spans.setdefault(r, []).append(e)
    return spans
