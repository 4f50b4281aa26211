"""Latency attribution: aggregate span-tree decompositions for reports.

:func:`attribute_forest` reduces a :class:`~repro.obs.spans.SpanForest`
to an :class:`AttributionSummary`: per-component and per-control-interval
sums of the exact queue/service/transit/replay decomposition, the
component *shares* of end-to-end latency, and the bookkeeping needed to
trust them (how many acked trees were attributable, whether every one of
them satisfied the bitwise sum invariant).

All internal accumulation stays in exact rationals
(:class:`fractions.Fraction`); floats appear only at the report boundary,
so the emitted JSON is byte-identical across ``--jobs`` values and
platforms for the same simulated run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.spans import (
    LatencyBreakdown,
    SpanForest,
    SpanTree,
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
    """One attributed (acked, path-complete) tuple tree."""

    root: int
    msg_id: Any
    close_time: float
    #: acker-recorded attempt latency
    latency: float
    retries: int
    path: Tuple[str, ...]
    breakdown: LatencyBreakdown
    #: bitwise sum invariant: ``breakdown.total() == latency``
    exact: bool
    #: replay penalty resolvable (first attempt's emit in the window)
    replay_known: bool


@dataclass
class _Bucket:
    """Exact-rational component sums over one aggregation key."""

    queue: Fraction = Fraction(0)
    service: Fraction = Fraction(0)
    transit: Fraction = Fraction(0)
    replay: Fraction = Fraction(0)
    count: int = 0

    def add(self, b: LatencyBreakdown) -> None:
        self.queue += b.queue
        self.service += b.service
        self.transit += b.transit
        self.replay += b.replay
        self.count += 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "queue": float(self.queue),
            "service": float(self.service),
            "transit": float(self.transit),
            "replay": float(self.replay),
            "tuples": self.count,
        }


@dataclass
class AttributionSummary:
    """Aggregated latency attribution of one traced run."""

    interval: float
    records: List[TreeAttribution] = field(default_factory=list)
    totals: _Bucket = field(default_factory=_Bucket)
    per_component: Dict[str, _Bucket] = field(default_factory=dict)
    per_interval: Dict[int, _Bucket] = field(default_factory=dict)
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
        """Component fractions of total end-to-end latency (sum ≈ 1)."""
        t = self.totals
        total = t.queue + t.service + t.transit + t.replay
        if total == 0:
            return {c: 0.0 for c in COMPONENTS}
        return {
            "queue": float(t.queue / total),
            "service": float(t.service / total),
            "transit": float(t.transit / total),
            "replay": float(t.replay / total),
        }

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
        t = self.totals
        for name, value in (
            ("queue", t.queue), ("service", t.service),
            ("transit", t.transit), ("replay", t.replay),
        ):
            registry.gauge(f"attribution.{name}_seconds").set(float(value))
        for comp in sorted(self.per_component):
            b = self.per_component[comp]
            for name, value in (
                ("queue", b.queue), ("service", b.service),
                ("transit", b.transit),
            ):
                registry.gauge(
                    f"attribution.{name}_seconds", component=comp
                ).set(float(value))
        registry.gauge("attribution.trees", state="attributed").set(
            self.attributed
        )
        registry.gauge("attribution.trees", state="incomplete").set(
            self.incomplete
        )

    def render_table(self) -> str:
        """Human attribution table: totals, shares, per component."""
        shares = self.shares()
        t = self.totals
        lines = [
            f"{'component':>12}  {'seconds':>12}  {'share %':>8}",
        ]
        for name, value in (
            ("transit", t.transit), ("queue", t.queue),
            ("service", t.service), ("replay", t.replay),
        ):
            lines.append(
                f"{name:>12}  {float(value):12.6f}  {100 * shares[name]:8.2f}"
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
    summary = AttributionSummary(interval=float(interval))
    summary.replays = forest.replays
    summary.drops = forest.drops
    summary.sheds = forest.sheds
    summary.losses = dict(forest.losses)
    summary.orphan_events = forest.orphan_events
    for tree in forest.trees.values():
        if tree.close_kind == "fail":
            reason = tree.fail_reason or "failed"
            summary.failed[reason] = summary.failed.get(reason, 0) + 1
    for tree in forest.acked_trees():
        base = tree.breakdown()
        if base is None or tree.latency is None:
            summary.incomplete += 1
            continue
        penalty = forest.replay_penalty(tree)
        replay_known = penalty is not None
        b = LatencyBreakdown(
            queue=base.queue,
            service=base.service,
            transit=base.transit,
            replay=penalty if penalty is not None else Fraction(0),
        )
        record = TreeAttribution(
            root=tree.root,
            msg_id=tree.msg_id,
            close_time=tree.close_time,
            latency=tree.latency,
            retries=tree.retries,
            path=tree.path_components() or (),
            breakdown=b,
            exact=b.sums_exactly_to(tree.latency),
            replay_known=replay_known,
        )
        summary.records.append(record)
        summary.totals.add(b)
        _add_per_component(summary, tree, b)
        idx = int(tree.close_time // interval)
        bucket = summary.per_interval.get(idx)
        if bucket is None:
            bucket = summary.per_interval[idx] = _Bucket()
        bucket.add(b)
    return summary


def _add_per_component(
    summary: AttributionSummary, tree: SpanTree, b: LatencyBreakdown
) -> None:
    """Attribute per-hop components to the hop's destination stage.

    Transit and queue belong to the receiving component's ingress;
    service to the component itself; the replay penalty to the spout
    (it is spout re-emission wait).
    """
    path = tree.critical_path() or ()
    prev = Fraction(tree.emit_time)
    last_exec = prev
    for hop in path:
        comp = hop.component or f"task-{hop.dst_task}"
        bucket = summary.per_component.get(comp)
        if bucket is None:
            bucket = summary.per_component[comp] = _Bucket()
        wait = Fraction(hop.wait)
        dequeue = Fraction(hop.queue_time)
        bucket.transit += (dequeue - wait) - prev
        bucket.queue += wait
        bucket.service += Fraction(hop.exec_time) - dequeue
        bucket.count += 1
        prev = Fraction(hop.exec_time)
        last_exec = prev
    if path:
        # deferred-ack hold: service of the acking (last) component
        hold = Fraction(tree.close_time) - last_exec
        if hold:
            comp = path[-1].component or f"task-{path[-1].dst_task}"
            summary.per_component[comp].service += hold
    if b.replay:
        spout = tree.spout_component or f"task-{tree.spout_task}"
        bucket = summary.per_component.get(spout)
        if bucket is None:
            bucket = summary.per_component[spout] = _Bucket()
        bucket.replay += b.replay
