"""Latency attribution: aggregate span-tree decompositions for reports.

:func:`attribute_forest` reduces a :class:`~repro.obs.spans.SpanForest`
to an :class:`AttributionSummary`: per-component and per-control-interval
sums of the exact queue/service/transit/replay decomposition, the
component *shares* of end-to-end latency, and the bookkeeping needed to
trust them (how many acked trees were attributable, whether every one of
them satisfied the bitwise sum invariant).

Accumulation is one critical-path walk per tree that *appends* the signed
recorded timestamps of :func:`~repro.obs.spans.path_terms` to compact
float columns, so nothing rounds.  A column is reduced exactly
(:func:`~repro.obs.spans.exact_sum`) when a reader asks for its
:class:`~fractions.Fraction` — the rational that per-hop algebra would
have built — and floats appear only at the report boundary, so the JSON
is byte-identical across ``--jobs`` values and platforms for one run.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import (
    LatencyBreakdown,
    SpanForest,
    SpanTree,
    Terms,
    exact_sum,
    path_terms,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "DEFAULT_INTERVAL",
    "TreeAttribution",
    "AttributionSummary",
    "attribute_forest",
]

ATTRIBUTION_SCHEMA = "repro-attribution/1"

#: default aggregation bucket, matching the reliability arms' control
#: cadence (``ControllerConfig.control_interval`` defaults to 5 s)
DEFAULT_INTERVAL = 5.0

COMPONENTS = ("queue", "service", "transit", "replay")


@dataclass(frozen=True)
class TreeAttribution:
    """One attributed (acked, path-complete) tuple tree; everything but
    the aggregate's own findings is read, or rebuilt on access, from it."""

    tree: SpanTree
    #: bitwise sum invariant ``breakdown.total() == latency``, evaluated
    #: as ``fl(close - emit) == latency``: the components telescope to
    #: exactly ``close - emit`` whatever the hops recorded, and one IEEE
    #: subtraction rounds that rational as ``float(Fraction)`` does
    exact: bool
    #: replay-penalty terms ``(+emit, -first_emit)``, ``()`` for a first
    #: attempt; ``None`` = first emission outside the trace window, the
    #: penalty is unknown and counted as 0
    replay: Optional[Terms]

    root = property(lambda self: self.tree.root)
    msg_id = property(lambda self: self.tree.msg_id)
    close_time = property(lambda self: self.tree.close_time)
    latency = property(lambda self: self.tree.latency)  # acker-recorded
    retries = property(lambda self: self.tree.retries)
    replay_known = property(lambda self: self.replay is not None)

    @property
    def path(self) -> Tuple[str, ...]:
        return self.tree.path_components() or ()

    @property
    def breakdown(self) -> LatencyBreakdown:
        penalty = exact_sum(self.replay or ())
        return replace(self.tree.breakdown(), replay=penalty)


class _Bucket:
    """Signed float term columns of one aggregation key, plus a count.

    ``queue``/``service``/``transit``/``replay`` read as the exact
    :class:`~fractions.Fraction` sum of the column, reduced on first
    read and kept until the next :meth:`add`.
    """

    __slots__ = ("_columns", "_sums", "count")

    def __init__(self) -> None:
        self._columns = tuple(array("d") for _ in COMPONENTS)
        self._sums: Optional[Tuple[Fraction, ...]] = None
        self.count = 0

    def add(
        self, queue: Iterable[float] = (), service: Iterable[float] = (),
        transit: Iterable[float] = (), replay: Iterable[float] = (),
    ) -> None:
        q, s, t, r = self._columns
        q.extend(queue)
        s.extend(service)
        t.extend(transit)
        r.extend(replay)
        self._sums = None

    def sums(self) -> Tuple[Fraction, ...]:
        """Exact column sums, in ``COMPONENTS`` order."""
        if self._sums is None:
            self._sums = tuple(map(exact_sum, self._columns))
        return self._sums

    queue = property(lambda self: self.sums()[0])
    service = property(lambda self: self.sums()[1])
    transit = property(lambda self: self.sums()[2])
    replay = property(lambda self: self.sums()[3])

    def to_dict(self) -> Dict[str, Any]:
        seconds = zip(COMPONENTS, map(float, self.sums()))
        return dict(seconds, tuples=self.count)


@dataclass
class AttributionSummary:
    """Aggregated latency attribution of one traced run."""

    interval: float
    records: List[TreeAttribution] = field(default_factory=list)
    totals: _Bucket = field(default_factory=_Bucket)
    per_component: Dict[str, _Bucket] = field(
        default_factory=lambda: defaultdict(_Bucket)
    )
    per_interval: Dict[int, _Bucket] = field(
        default_factory=lambda: defaultdict(_Bucket)
    )
    #: acked trees whose path could not be reconstructed (ring overwrite)
    incomplete: int = 0
    #: failed trees by reason
    failed: Dict[str, int] = field(default_factory=dict)
    replays: int = 0
    drops: int = 0
    sheds: int = 0
    losses: Dict[str, int] = field(default_factory=dict)
    orphan_events: int = 0

    @property
    def attributed(self) -> int:
        return len(self.records)

    @property
    def exact(self) -> bool:
        """Every attributed tree satisfied the bitwise sum invariant."""
        return all(r.exact for r in self.records)

    def shares(self) -> Dict[str, float]:
        """Component fractions of total end-to-end latency (sum ≈ 1).

        All zero when the total is zero or a fraction does not fit a
        float (a subnormal total beside second-scale components).
        """
        sums = self.totals.sums()
        total = sum(sums)
        try:
            return {
                c: float(v / total) if total else 0.0
                for c, v in zip(COMPONENTS, sums)
            }
        except OverflowError:
            return dict.fromkeys(COMPONENTS, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """Byte-stable JSON-able digest (the report's ``attribution``)."""
        intervals = [
            dict(
                self.per_interval[i].to_dict(),
                t0=i * self.interval,
                t1=(i + 1) * self.interval,
            )
            for i in sorted(self.per_interval)
        ]
        return {
            "schema": ATTRIBUTION_SCHEMA,
            "interval": self.interval,
            "attributed": self.attributed,
            "incomplete": self.incomplete,
            "exact": self.exact,
            "totals": self.totals.to_dict(),
            "shares": self.shares(),
            "per_component": {
                c: self.per_component[c].to_dict()
                for c in sorted(self.per_component)
            },
            "per_interval": intervals,
            "failed": dict(sorted(self.failed.items())),
            "replays": self.replays,
            "drops": self.drops,
            "sheds": self.sheds,
            "losses": dict(sorted(self.losses.items())),
            "orphan_events": self.orphan_events,
        }

    def publish(self, registry: "MetricsRegistry") -> None:
        """Set attribution gauges on the metrics registry.

        One ``attribution.<component>_seconds`` gauge per latency
        component (totals), the same labelled per topology component,
        and ``attribution.trees{state=...}`` accounting gauges — so the
        Prometheus exposition and deterministic dumps carry the
        decomposition next to the raw latency histograms.
        """
        for name, value in zip(COMPONENTS, self.totals.sums()):
            registry.gauge(f"attribution.{name}_seconds").set(float(value))
        for comp in sorted(self.per_component):
            sums = self.per_component[comp].sums()
            for name, value in zip(COMPONENTS[:3], sums):  # no replay
                registry.gauge(
                    f"attribution.{name}_seconds", component=comp
                ).set(float(value))
        for state in ("attributed", "incomplete"):
            registry.gauge("attribution.trees", state=state).set(
                getattr(self, state)
            )

    def render_table(self) -> str:
        """Human attribution table: totals, shares, per component."""
        shares = self.shares()
        seconds = dict(zip(COMPONENTS, self.totals.sums()))
        lines = [f"{'component':>12}  {'seconds':>12}  {'share %':>8}"]
        for name in ("transit", "queue", "service", "replay"):
            lines.append(
                f"{name:>12}  {float(seconds[name]):12.6f}"
                f"  {100 * shares[name]:8.2f}"
            )
        lines.append("")
        lines.append(
            f"{'pipeline stage':>16}  {'tuples':>7}  {'queue s':>10}"
            f"  {'service s':>10}  {'transit s':>10}"
        )
        for comp in sorted(self.per_component):
            b = self.per_component[comp]
            lines.append(
                f"{comp:>16}  {b.count:>7}  {float(b.queue):10.4f}"
                f"  {float(b.service):10.4f}  {float(b.transit):10.4f}"
            )
        lines.append("")
        lines.append(
            f"attributed {self.attributed} trees"
            f" ({self.incomplete} incomplete,"
            f" {sum(self.failed.values())} failed,"
            f" {self.replays} replays)"
            f"  exact={self.exact}"
        )
        return "\n".join(lines)


def attribute_forest(
    forest: SpanForest, interval: float = DEFAULT_INTERVAL
) -> AttributionSummary:
    """Aggregate every attributable tree of ``forest``.

    ``interval`` buckets trees by close time into control-interval bins
    (``floor(close_time / interval)``).  An acked tree is *attributable*
    when its critical path survived the ring buffer; replay penalties
    additionally need the message's first emission in the window (a
    tree with an unresolvable penalty is attributed with ``replay=0``
    and ``replay_known=False``).
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    summary = AttributionSummary(
        interval=float(interval), replays=forest.replays, drops=forest.drops,
        sheds=forest.sheds, losses=dict(forest.losses),
        orphan_events=forest.orphan_events,
    )
    for tree in forest.trees.values():
        if tree.close_kind == "fail":
            reason = tree.fail_reason or "failed"
            summary.failed[reason] = summary.failed.get(reason, 0) + 1
    stages = summary.per_component
    for tree in forest.acked_trees():
        path = tree.critical_path()
        if path is None or tree.close_time is None or tree.latency is None:
            summary.incomplete += 1
            continue
        window = summary.per_interval[int(tree.close_time // interval)]
        window.count += 1
        # transit and queue belong to the receiving stage's ingress,
        # service (and the deferred-ack hold) to the stage itself
        for stage, queue, service, transit in path_terms(tree, path):
            window.add(queue, service, transit)
            if stage is not None:
                bucket = stages[stage]
                bucket.add(queue, service, transit)
                bucket.count += 1
        replay: Optional[Terms] = ()
        if tree.retries:
            first = forest.first_emit.get(tree.msg_id)
            replay = None if first is None else (tree.emit_time, -first)
        if replay and sum(replay):  # spout re-emission wait, if nonzero
            spout = tree.spout_component or f"task-{tree.spout_task}"
            stages[spout].add(replay=replay)
            window.add(replay=replay)
        exact = tree.close_time - tree.emit_time == tree.latency
        summary.records.append(TreeAttribution(tree, exact, replay))
    for window in summary.per_interval.values():  # every tree is in one
        summary.totals.add(*window._columns)
        summary.totals.count += window.count
    return summary
