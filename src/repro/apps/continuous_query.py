"""Continuous Queries — the paper's second evaluation application.

Topology::

    sensors (spout) --shuffle--> filter --DYNAMIC--> query --global--> results

* ``sensors`` emits drifting sensor readings;
* ``filter`` drops malformed/out-of-range readings;
* ``query`` evaluates a set of *standing* window-aggregate queries
  (avg/min/max/count over the last W seconds, compared to a threshold) —
  the heavy stage fed by the dynamic grouping.  Each query task sees a
  ratio-controlled share of the stream and reports *partial* aggregates;
* ``results`` merges partials into final query answers (weighted for avg,
  min/max/sum composition otherwise) and records match transitions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.workload import RateProfile, SensorEventGenerator, require_positive
from repro.storm.api import Bolt, Emission, OutputCollector, Spout, TopologyContext
from repro.storm.topology import Topology, TopologyBuilder, TopologyConfig
from repro.storm.tuples import Tuple as StormTuple

_AGGS = ("avg", "min", "max", "count")
_OPS = (">", "<", ">=", "<=")
#: one task's partial aggregate: (count, total, minimum, maximum)
_Partial = Tuple[int, float, float, float]


@dataclass(frozen=True)
class ContinuousQuery:
    """One standing query: ``AGG(value of matching sensors over window) OP
    threshold``.

    ``sensor_prefix`` selects the sensor population (e.g. ``"sensor-1"``
    matches sensor-1, sensor-10, ...; empty selects all).
    """

    query_id: str
    agg: str = "avg"
    op: str = ">"
    threshold: float = 50.0
    window_seconds: float = 20.0
    sensor_prefix: str = ""

    def __post_init__(self) -> None:
        if self.agg not in _AGGS:
            raise ValueError(f"agg must be one of {_AGGS}, got {self.agg!r}")
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        require_positive("window_seconds", self.window_seconds)
        if math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")

    def matches(self, sensor_id: str) -> bool:
        return sensor_id.startswith(self.sensor_prefix)

    def compare(self, value: float) -> bool:
        if self.op == ">":
            return value > self.threshold
        if self.op == "<":
            return value < self.threshold
        if self.op == ">=":
            return value >= self.threshold
        return value <= self.threshold


def default_queries(n: int = 6) -> List[ContinuousQuery]:
    """A representative standing-query mix (used by experiments/examples)."""
    qs = [
        ContinuousQuery("q-avg-all", agg="avg", op=">", threshold=50.0),
        ContinuousQuery("q-max-all", agg="max", op=">", threshold=60.0),
        ContinuousQuery("q-min-all", agg="min", op="<", threshold=40.0),
        ContinuousQuery("q-count-all", agg="count", op=">", threshold=100.0),
        ContinuousQuery(
            "q-avg-s1", agg="avg", op=">", threshold=52.0, sensor_prefix="sensor-1"
        ),
        ContinuousQuery(
            "q-avg-s2", agg="avg", op="<", threshold=48.0, sensor_prefix="sensor-2"
        ),
    ]
    return qs[:n]


class SensorSpout(Spout):
    """Emits ``(sensor_id, value)`` readings at a profile-driven rate."""

    outputs = {"default": ("sensor_id", "value")}

    def __init__(
        self,
        profile: Optional[RateProfile] = None,
        n_sensors: int = 50,
    ) -> None:
        self.profile = profile or RateProfile(base=100.0)
        self.n_sensors = n_sensors
        self._seq = 0

    def open(self, context: TopologyContext) -> None:
        self.ctx = context
        self.gen = SensorEventGenerator(context.rng, n_sensors=self.n_sensors)

    def inter_arrival(self) -> float:
        rate = self.profile.rate(self.ctx.now()) / self.ctx.parallelism
        return float(self.ctx.rng.exponential(1.0 / rate))

    def next_tuple(self) -> Emission:
        self._seq += 1
        sensor, value = self.gen.next_event()
        return Emission(
            values=(sensor, value), msg_id=(self.ctx.task_id, self._seq)
        )


class FilterBolt(Bolt):
    """Drops readings outside the plausible range (sensor glitches)."""

    outputs = {"default": ("sensor_id", "value")}
    default_cpu_cost = 0.2e-3

    def __init__(self, lo: float = -1e3, hi: float = 1e3) -> None:
        self.lo = lo
        self.hi = hi
        self.dropped = 0

    def execute(self, tup: StormTuple, collector: OutputCollector) -> None:
        value = tup.value("value")
        if self.lo <= value <= self.hi:
            collector.emit((tup.value("sensor_id"), value), anchors=[tup])
        else:
            self.dropped += 1  # auto-ack still fires: drop, don't replay


class QueryBolt(Bolt):
    """Evaluates every standing query against its partition's window.

    On each tick it emits, per query, a *partial aggregate* on the
    ``partials`` stream: ``(query_id, count, total, minimum, maximum)`` —
    enough for the results stage to compose exactly.

    Queries that share ``(window_seconds, sensor_prefix)`` select the
    same readings, so they share one time-ordered window of
    ``(time, value)`` and the tick aggregates each window once.  Each
    sensor's windows are looked up on its first reading and cached.
    """

    outputs = {
        "default": (),
        "partials": ("query_id", "count", "total", "minimum", "maximum"),
    }
    default_cpu_cost = 1.5e-3

    def __init__(
        self,
        queries: Sequence[ContinuousQuery],
        cpu_cost: Optional[float] = None,
    ) -> None:
        if cpu_cost is not None:
            require_positive("cpu_cost", cpu_cost)
            self.default_cpu_cost = cpu_cost
        if not queries:
            raise ValueError("need at least one continuous query")
        ids = [q.query_id for q in queries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate query ids in {ids}")
        self.queries = list(queries)
        #: arrival times over the longest window: the resident-window
        #: size that ``cpu_cost`` charges for
        self._events: deque = deque()

    def prepare(self, context: TopologyContext) -> None:
        self.ctx = context
        self._longest = max(q.window_seconds for q in self.queries)
        keys: Dict[Tuple[float, str], int] = {}
        #: one (representative query, window of (time, value)) per group
        self._groups: List[Tuple[ContinuousQuery, deque]] = []
        #: group index of each query, in query order
        self._group_of: List[int] = []
        for q in self.queries:
            key = (q.window_seconds, q.sensor_prefix)
            if key not in keys:
                keys[key] = len(self._groups)
                self._groups.append((q, deque()))
            self._group_of.append(keys[key])
        #: sensor_id -> the windows of the groups it matches
        self._routes: Dict[str, List[deque]] = {}

    def execute(self, tup: StormTuple, collector: OutputCollector) -> None:
        now = self.ctx.now()
        sensor = tup.value("sensor_id")
        windows = self._routes.get(sensor)
        if windows is None:
            windows = self._routes[sensor] = [
                window for q, window in self._groups if q.matches(sensor)
            ]
        reading = (now, tup.value("value"))
        for window in windows:
            window.append(reading)
        events = self._events
        events.append(now)
        horizon = now - self._longest
        while events and events[0] < horizon:
            events.popleft()

    def cpu_cost(self, tup: StormTuple) -> float:
        # Per-tuple cost scales with the number of standing queries
        # (each maintains predicate state) and resident window size.
        return self.default_cpu_cost * (
            0.5 + 0.1 * len(self.queries) + len(self._events) / 40000.0
        )

    def tick(self, now: float, collector: OutputCollector) -> None:
        events = self._events
        horizon = now - self._longest
        while events and events[0] < horizon:
            events.popleft()
        partials = []
        for q, window in self._groups:
            horizon = now - q.window_seconds
            while window and window[0][0] < horizon:
                window.popleft()
            # A left-to-right sum from 0.0, as the per-query scan summed:
            # sum() compensates from Python 3.12 and would change the bits.
            total = 0.0
            mn = float("inf")
            mx = float("-inf")
            for _, value in window:
                total += value
                if value < mn:
                    mn = value
                if value > mx:
                    mx = value
            partials.append((len(window), total, mn, mx))
        for q, group in zip(self.queries, self._group_of):
            collector.emit((q.query_id, *partials[group]), stream="partials")


class ResultBolt(Bolt):
    """Composes partial aggregates into final query answers."""

    outputs = {"default": ()}
    default_cpu_cost = 0.2e-3

    def __init__(self, queries: Sequence[ContinuousQuery]) -> None:
        self.queries = {q.query_id: q for q in queries}
        #: query_id -> {source_task: latest partial}
        self._partials: Dict[str, Dict[int, _Partial]] = {
            qid: {} for qid in self.queries
        }
        #: query_id -> latest composed value (NaN until first data)
        self.current: Dict[str, float] = {}
        #: query_id -> current match state
        self.matched: Dict[str, bool] = {}
        #: (time-free) log of (query_id, value, matched) transitions
        self.transitions: List[Tuple[str, float, bool]] = []

    def execute(self, tup: StormTuple, collector: OutputCollector) -> None:
        qid = tup.value("query_id")
        self._partials[qid][tup.source_task] = (
            tup.value("count"),
            tup.value("total"),
            tup.value("minimum"),
            tup.value("maximum"),
        )
        self._recompose(qid)

    def _recompose(self, qid: str) -> None:
        query = self.queries[qid]
        cnt = 0
        total = 0.0
        mn = float("inf")
        mx = float("-inf")
        for c, s, lo, hi in self._partials[qid].values():
            if c == 0:
                continue
            cnt += c
            total += s
            mn = min(mn, lo)
            mx = max(mx, hi)
        if cnt == 0:
            return
        if query.agg == "avg":
            value = total / cnt
        elif query.agg == "min":
            value = mn
        elif query.agg == "max":
            value = mx
        else:
            value = float(cnt)
        self.current[qid] = value
        matched = query.compare(value)
        if self.matched.get(qid) != matched:
            self.matched[qid] = matched
            self.transitions.append((qid, value, matched))


def build_continuous_query_topology(
    profile: Optional[RateProfile] = None,
    queries: Optional[Sequence[ContinuousQuery]] = None,
    filter_parallelism: int = 4,
    query_parallelism: int = 6,
    spout_parallelism: int = 2,
    grouping: str = "dynamic",
    config: Optional[TopologyConfig] = None,
    n_sensors: int = 50,
    query_cpu_cost: Optional[float] = None,
) -> Topology:
    """Assemble the Continuous Queries topology (see module docstring)."""
    if queries is None:
        queries = default_queries()
    if config is None:
        config = TopologyConfig(num_workers=6, tick_interval=1.0)
    elif config.tick_interval <= 0:
        raise ValueError(
            "Continuous Queries needs tick_interval > 0 to evaluate queries"
        )
    builder = TopologyBuilder()
    builder.set_spout(
        "sensors",
        SensorSpout(profile=profile, n_sensors=n_sensors),
        parallelism=spout_parallelism,
    )
    builder.set_bolt(
        "filter", FilterBolt(), parallelism=filter_parallelism
    ).shuffle_grouping("sensors")
    query_spec = builder.set_bolt(
        "query",
        QueryBolt(queries, cpu_cost=query_cpu_cost),
        parallelism=query_parallelism,
    )
    if grouping == "dynamic":
        query_spec.dynamic_grouping("filter")
    elif grouping == "shuffle":
        query_spec.shuffle_grouping("filter")
    else:
        raise ValueError(f"unsupported grouping {grouping!r}")
    builder.set_bolt(
        "results", ResultBolt(queries), parallelism=1
    ).global_grouping("query", stream="partials")
    return builder.build("continuous-query", config)
