"""Causal span trees reconstructed from the tuple-lifecycle trace.

The storm layer already records every step of a tuple tree's life —
``tuple.emit`` when a spout opens the tree, one ``tuple.transfer`` /
``tuple.queue`` / ``tuple.execute`` triple per downstream hop, and a
single ``tuple.ack`` or ``tuple.fail`` close.  This module turns that
flat ring buffer back into per-root **span trees**, finds each tree's
**critical path** (the causal chain that ends at the edge whose ack
zeroed the XOR ledger), and decomposes the acker-measured complete
latency into components that sum *bitwise-exactly*:

``transit``
    wire + chaos-jitter time of every hop on the critical path
    (departure at the upstream execute/emit, arrival at the receiver
    queue);
``queue``
    receiver-queue wait of every hop (includes receiver-buffer
    backpressure under the ``buffer`` overflow policy);
``service``
    bolt service time of every hop, plus any deferred-ack hold (a bolt
    that acks a held tuple from a later ``execute`` call holds the tree
    open — that hold is service time of the acking bolt);
``replay``
    for replayed messages, the time between the message's *first* spout
    emission and the emission of the attempt that finally acked.

Exactness contract
------------------
The acker records ``latency = fl(t_ack - t_emit)`` — one correctly
rounded IEEE-754 subtraction of two event timestamps.  Every component
here is a *signed sum of those same recorded floats* (:func:`path_terms`
lists them).  A float is a rational and rational addition is
associative, so reducing a term list once (:func:`exact_sum`) gives the
very :class:`~fractions.Fraction` that per-hop rational algebra would;
nothing rounds on the way.  The three components telescope identically
to ``t_ack - t_emit`` (every other term occurs once with each sign), and
rounding that one rational to float is the single rounding the acker
did.  Hence ``float(queue + service + transit) == latency`` **bitwise**,
for every completed tuple, on any platform — no epsilon — and the same
predicate can be evaluated as ``fl(close - emit) == latency``.
(Individual components can carry the rounding residue of the recorded
``wait`` field, so a zero-delay hop's transit may be a ±1-ulp rational;
only the sum is pinned.)

Causality is recovered from record order: ``record()`` appends events
synchronously, and an emission's transfers are recorded in the same
event-loop step as (and immediately after) the ``tuple.execute`` or
``tuple.emit`` that produced them, so the most recent execute/emit on
the transfer's source task at the same timestamp *is* its parent.

Trees whose early events were overwritten by the ring buffer are kept
but marked path-incomplete; size ``trace_capacity`` to the run when the
decomposition must cover every tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.tracer import (
    TUPLE_ACK,
    TUPLE_CLOSE_KINDS,
    TUPLE_DROP,
    TUPLE_EMIT,
    TUPLE_EXECUTE,
    TUPLE_LOSS,
    TUPLE_QUEUE,
    TUPLE_REPLAY,
    TUPLE_SHED,
    TUPLE_TRANSFER,
    lifecycle_record,
)

_HOP_KINDS = frozenset({TUPLE_TRANSFER, TUPLE_QUEUE, TUPLE_EXECUTE})

__all__ = [
    "LatencyBreakdown",
    "SpanHop",
    "SpanTree",
    "SpanForest",
    "build_span_forest",
    "folded_stacks",
    "render_span_tree",
]


@dataclass(slots=True)
class SpanHop:
    """One edge of a tuple tree: transfer → queue wait → service."""

    edge: int
    #: parent edge id; ``0`` = fed directly by the spout emission,
    #: ``None`` = unknown (the parent's events left the ring buffer)
    parent: Optional[int] = None
    src_task: Optional[int] = None
    dst_task: Optional[int] = None
    #: destination component (set at dequeue/execute)
    component: Optional[str] = None
    transfer_time: Optional[float] = None
    queue_time: Optional[float] = None
    wait: Optional[float] = None
    exec_time: Optional[float] = None
    service: Optional[float] = None

    @property
    def complete(self) -> bool:
        """All three lifecycle stages were retained for this hop."""
        return (
            self.transfer_time is not None
            and self.queue_time is not None
            and self.wait is not None
            and self.exec_time is not None
            and self.parent is not None
        )


@dataclass(frozen=True)
class LatencyBreakdown:
    """Exact-rational latency components of one completed tuple tree.

    :meth:`total` performs the single rational → float rounding, which
    matches the acker-recorded latency bitwise (see the module docstring).
    """

    queue: Fraction = Fraction(0)
    service: Fraction = Fraction(0)
    transit: Fraction = Fraction(0)
    replay: Fraction = Fraction(0)

    def total(self) -> float:
        """Attempt latency: ``float(queue + service + transit)``."""
        return float(self.queue + self.service + self.transit)

    def end_to_end(self) -> float:
        """First-emission-to-ack latency, replay penalty included."""
        return float(self.queue + self.service + self.transit + self.replay)

    def sums_exactly_to(self, latency: float) -> bool:
        """The bitwise attribution invariant against an acker latency."""
        return self.total() == latency


def exact_sum(*terms: Sequence[float]) -> Fraction:
    """The exact rational sum of every float in the given sequences.

    :func:`math.fsum` tracks the exact sum and returns it rounded once,
    so a pass over the terms and the negated earlier results yields the
    next ~53 bits, and a pass returning ``0.0`` proves those results add
    up exactly.  ``Fraction`` rejects a NaN or infinite result.
    """
    total = Fraction(0)
    taken: List[float] = []
    while True:
        part = math.fsum(chain(*terms, taken))
        if part == 0.0:
            return total
        total += Fraction(part)
        taken.append(-part)


Terms = Tuple[float, ...]


def path_terms(
    tree: "SpanTree", path: List[SpanHop]
) -> Iterator[Tuple[Optional[str], Terms, Terms, Terms]]:
    """Signed recorded timestamps whose exact sums are the components.

    Yields ``(stage, queue, service, transit)`` per critical-path hop,
    root first.  A hop departs at ``prev`` (the upstream execute, or the
    spout emit), arrives at ``dequeue - wait``, waits ``wait`` and is
    served until ``exec``.  A gap between the last execute and the close
    (a deferred ack from a later ``execute`` call of the acking bolt) is
    service of the last stage; an empty path (a spout with no consumers)
    yields that hold alone, under stage ``None``.
    """
    prev, close = tree.emit_time, tree.close_time
    if not path:
        yield None, (), (close, -prev), ()
    for hop in path:
        dequeue, wait, done = hop.queue_time, hop.wait, hop.exec_time
        service = (done, -dequeue)
        if hop is path[-1]:
            service += (close, -done)
        stage = hop.component or f"task-{hop.dst_task}"
        yield stage, (wait,), service, (dequeue, -wait, -prev)
        prev = done


@dataclass(slots=True)
class SpanTree:
    """One spout tuple's causal tree (a single delivery attempt)."""

    root: int
    msg_id: Any = None
    spout_task: Optional[int] = None
    spout_component: Optional[str] = None
    emit_time: Optional[float] = None
    retries: int = 0
    hops: Dict[int, SpanHop] = field(default_factory=dict)
    #: "ack" | "fail" | None (still open / close not retained)
    close_kind: Optional[str] = None
    close_time: Optional[float] = None
    #: edge whose ack zeroed the ledger (critical-path endpoint)
    close_edge: Optional[int] = None
    latency: Optional[float] = None
    fail_reason: Optional[str] = None

    @property
    def acked(self) -> bool:
        return self.close_kind == "ack"

    def children(self) -> Dict[int, List[SpanHop]]:
        """``parent_edge -> [child hops]`` in edge order (0 = the root)."""
        out: Dict[int, List[SpanHop]] = {}
        for edge in sorted(self.hops):
            hop = self.hops[edge]
            if hop.parent is not None:
                out.setdefault(hop.parent, []).append(hop)
        return out

    def critical_path(self) -> Optional[List[SpanHop]]:
        """Root-first hop chain ending at the closing edge.

        ``None`` when the tree is not acked or any link of the chain is
        missing (events overwritten, or the close predates this trace
        window).  An acked tree with ``close_edge == 0`` (a spout with
        no consumers) has the empty path ``[]``.
        """
        if not self.acked or self.close_edge is None or self.emit_time is None:
            return None
        path: List[SpanHop] = []
        edge = self.close_edge
        while edge != 0:
            hop = self.hops.get(edge)
            if hop is None or not hop.complete or len(path) == len(self.hops):
                return None  # a link is missing, or the linkage is cyclic
            path.append(hop)
            edge = hop.parent  # type: ignore[assignment]
        path.reverse()
        return path

    def breakdown(self) -> Optional[LatencyBreakdown]:
        """Exact component decomposition along the critical path.

        Each component is the :func:`exact_sum` of its :func:`path_terms`,
        so the three always sum to exactly ``close - emit`` as rationals.
        """
        path = self.critical_path()
        if path is None or self.close_time is None:
            return None
        hops = list(path_terms(self, path))
        return LatencyBreakdown(
            queue=exact_sum(*(h[1] for h in hops)),
            service=exact_sum(*(h[2] for h in hops)),
            transit=exact_sum(*(h[3] for h in hops)),
        )

    def path_components(self) -> Optional[Tuple[str, ...]]:
        """Component names along the critical path, spout first."""
        path = self.critical_path()
        if path is None:
            return None
        head = self.spout_component or f"task-{self.spout_task}"
        return (head,) + tuple(
            hop.component or f"task-{hop.dst_task}" for hop in path
        )


@dataclass
class SpanForest:
    """Every span tree recoverable from one trace, plus accounting."""

    trees: Dict[int, SpanTree] = field(default_factory=dict)
    #: tuple.replay / tuple.drop / tuple.shed events retained
    replays: int = 0
    drops: int = 0
    sheds: int = 0
    #: tuple.loss events by reason ("loss" | "crash")
    losses: Dict[str, int] = field(default_factory=dict)
    #: tuple.* events whose root's emit left the ring buffer
    orphan_events: int = 0
    #: ``msg_id -> emit time`` of each message's first attempt
    #: (``retries == 0``) retained; replay penalties are measured from it
    first_emit: Dict[Any, float] = field(default_factory=dict)

    def messages(self) -> Dict[Any, List[SpanTree]]:
        """Delivery attempts grouped by ``msg_id``, in emission order.

        Replays open a *new* root per attempt; this is the linkage back
        to one logical message.  Only trees whose emit was retained (and
        thus carry a ``msg_id``) appear.
        """
        out: Dict[Any, List[SpanTree]] = {}
        for tree in self.trees.values():
            if tree.msg_id is not None:
                out.setdefault(tree.msg_id, []).append(tree)
        return out

    def replay_penalty(self, tree: SpanTree) -> Optional[Fraction]:
        """Exact first-emit → this-attempt-emit gap, or ``None`` if the
        first attempt's emission is not in the trace window."""
        if tree.emit_time is None:
            return None
        if tree.retries == 0:
            return Fraction(0)
        first = self.first_emit.get(tree.msg_id)
        return None if first is None else exact_sum((tree.emit_time, -first))

    def acked_trees(self) -> List[SpanTree]:
        """Acked trees in emission order (the order their roots first
        appear in the trace), not close order."""
        return [t for t in self.trees.values() if t.acked]

    def __repr__(self) -> str:
        closed = sum(1 for t in self.trees.values() if t.close_kind)
        return (
            f"<SpanForest trees={len(self.trees)} closed={closed}"
            f" replays={self.replays} orphan_events={self.orphan_events}>"
        )


def build_span_forest(events: Iterable[Any]) -> SpanForest:
    """Reconstruct span trees from tuple-lifecycle events in record order.

    Pass ``tracer.records()`` (the raw ring), ``tracer.events()`` or any
    subset that preserves record order; each event is read in the
    :data:`~repro.obs.tracer.FIELDS` layout (:func:`lifecycle_record`)
    and non-tuple events are ignored.  Multi-root (joined) tuples
    contribute one hop instance to each of their trees.
    """
    forest = SpanForest()
    trees = forest.trees
    # task -> (edge, time, roots) of its most recent tuple.execute; the
    # synchronous record order makes this the parent of any transfer
    # from that task at the same timestamp (see module docstring).
    last_exec: Dict[int, Tuple[int, float, Tuple[int, ...]]] = {}
    for ev in events:
        if type(ev) is not tuple or type(ev[2]) is dict:
            ev = lifecycle_record(ev)
            if ev is None:
                continue
        time, kind = ev[0], ev[1]
        if kind in _HOP_KINDS:
            # transfer: src, dst, ...; queue/execute: task, component, ...
            _, _, first, second, edge, roots, last = ev
            roots = roots or ()
            le = last_exec.get(first)
            for root in roots:
                tree = trees.get(root)
                if tree is None:
                    forest.orphan_events += 1
                    continue
                hop = tree.hops.get(edge)
                if hop is None:
                    hop = tree.hops[edge] = SpanHop(edge)
                if kind == TUPLE_TRANSFER:
                    hop.src_task, hop.dst_task = first, second
                    hop.transfer_time = time
                    if le is not None and le[1] == time and root in le[2]:
                        hop.parent = le[0]
                    elif first == tree.spout_task and time == tree.emit_time:
                        hop.parent = 0
                    continue
                hop.dst_task, hop.component = first, second
                if kind == TUPLE_QUEUE:
                    hop.queue_time, hop.wait = time, last
                else:
                    hop.exec_time, hop.service = time, last
            if kind == TUPLE_EXECUTE:
                last_exec[first] = (edge, time, roots)
        elif kind == TUPLE_EMIT:
            _, _, root, msg_id, task, component, retries = ev
            tree = trees.get(root)
            if tree is None:
                tree = trees[root] = SpanTree(root)
            tree.msg_id = msg_id
            tree.spout_task = task
            tree.spout_component = component
            tree.emit_time = time
            tree.retries = int(retries or 0)
            if tree.retries == 0 and msg_id is not None:
                forest.first_emit.setdefault(msg_id, time)
        elif kind in TUPLE_CLOSE_KINDS:
            # the last field is the closing edge of an ack, a fail's reason
            _, _, root, msg_id, _, latency, last = ev
            tree = trees.get(root)
            if tree is None:
                tree = trees[root] = SpanTree(root, msg_id)
                forest.orphan_events += 1
            acked = kind == TUPLE_ACK
            tree.close_kind = "ack" if acked else "fail"
            tree.close_time = time
            tree.latency = latency
            tree.close_edge = last if acked else None
            tree.fail_reason = None if acked else last
        elif kind == TUPLE_REPLAY:
            forest.replays += 1
        elif kind == TUPLE_DROP:
            forest.drops += 1
        elif kind == TUPLE_SHED:
            forest.sheds += 1
        elif kind == TUPLE_LOSS:
            reason = "loss" if ev[5] is None else ev[5]
            forest.losses[reason] = forest.losses.get(reason, 0) + 1
    return forest


def folded_stacks(forest: SpanForest) -> Dict[str, int]:
    """Collapse critical paths into flamegraph folded-stack lines.

    Returns ``{"spout;boltA;boltB": microseconds}`` where each frame's
    value is the time attributed *at that depth* (the hop's transit +
    queue + service, from the exact decomposition), so rendering with
    any standard flamegraph tool shows where completed-tuple latency is
    spent per pipeline stage.  Serialize with one ``f"{stack} {value}"``
    line per sorted key.
    """
    out: Dict[str, int] = {}
    for tree in forest.acked_trees():
        path = tree.critical_path()
        if path is None or not path:
            continue
        head = tree.spout_component or f"task-{tree.spout_task}"
        frames = [head]
        prev = tree.emit_time
        for hop in path:
            frames.append(hop.component or f"task-{hop.dst_task}")
            hop_time = hop.exec_time - prev  # rounds the rational gap once
            prev = hop.exec_time
            stack = ";".join(frames)
            out[stack] = out.get(stack, 0) + int(round(hop_time * 1e6))
        hold = tree.close_time - prev
        if hold:
            stack = ";".join(frames)
            out[stack] = out.get(stack, 0) + int(round(hold * 1e6))
    return out


def render_folded(forest: SpanForest) -> str:
    """Folded-stack text (one ``stack value`` line, sorted, newline-terminated)."""
    stacks = folded_stacks(forest)
    return "".join(f"{k} {stacks[k]}\n" for k in sorted(stacks))


def render_span_tree(tree: SpanTree) -> str:
    """ASCII dump of one span tree, critical path marked with ``*``."""
    lines: List[str] = []
    close = (
        f"{tree.close_kind} @ {tree.close_time:.6f}s"
        if tree.close_kind
        else "open"
    )
    lat = f" latency={tree.latency:.6f}s" if tree.latency is not None else ""
    reason = f" reason={tree.fail_reason}" if tree.fail_reason else ""
    lines.append(
        f"root {tree.root} msg_id={tree.msg_id!r} "
        f"{tree.spout_component or '?'} task={tree.spout_task} "
        f"emit={tree.emit_time if tree.emit_time is None else format(tree.emit_time, '.6f')} "
        f"retries={tree.retries} [{close}{lat}{reason}]"
    )
    crit = {hop.edge for hop in (tree.critical_path() or ())}
    children = tree.children()

    def walk(parent: int, indent: str) -> None:
        kids = children.get(parent, [])
        for i, hop in enumerate(kids):
            last = i == len(kids) - 1
            branch = "`-" if last else "|-"
            mark = "*" if hop.edge in crit else " "
            wait = "?" if hop.wait is None else f"{hop.wait * 1e3:.3f}ms"
            svc = "?" if hop.service is None else f"{hop.service * 1e3:.3f}ms"
            lines.append(
                f"{indent}{branch}{mark} edge {hop.edge} -> "
                f"{hop.component or '?'} task={hop.dst_task} "
                f"wait={wait} service={svc}"
            )
            walk(hop.edge, indent + ("   " if last else "|  "))

    walk(0, "  ")
    incomplete = [e for e, h in sorted(tree.hops.items()) if h.parent is None]
    if incomplete:
        lines.append(f"  (unlinked hops: {incomplete})")
    return "\n".join(lines)
