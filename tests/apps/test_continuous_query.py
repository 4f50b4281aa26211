"""Tests for the Continuous Queries application."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import (
    ContinuousQuery,
    RateProfile,
    build_continuous_query_topology,
)
from repro.apps.continuous_query import (
    _AGGS,
    _OPS,
    FilterBolt,
    QueryBolt,
    ResultBolt,
    SensorSpout,
    default_queries,
)
from repro.storm import StormSimulation
from repro.storm.api import OutputCollector, TopologyContext
from repro.storm.topology import TopologyConfig
from repro.storm.tuples import Tuple as StormTuple


def ctx(now=0.0):
    t = {"now": now}
    return TopologyContext(
        topology_name="t",
        component_id="c",
        task_id=0,
        task_index=0,
        parallelism=1,
        worker_id=0,
        node_name="n",
        now=lambda: t["now"],
        rng=np.random.default_rng(0),
    ), t


def reading(sensor, value, task=0):
    return StormTuple(
        values=(sensor, value), fields=("sensor_id", "value"), source_task=task
    )


# --- query dataclass --------------------------------------------------------------


def test_query_validation():
    with pytest.raises(ValueError):
        ContinuousQuery("q", agg="sum")
    with pytest.raises(ValueError):
        ContinuousQuery("q", op="!=")
    with pytest.raises(ValueError):
        ContinuousQuery("q", window_seconds=0)


def test_query_compare_ops():
    assert ContinuousQuery("q", op=">", threshold=5).compare(6)
    assert ContinuousQuery("q", op="<", threshold=5).compare(4)
    assert ContinuousQuery("q", op=">=", threshold=5).compare(5)
    assert ContinuousQuery("q", op="<=", threshold=5).compare(5)
    assert not ContinuousQuery("q", op=">", threshold=5).compare(5)


def test_query_prefix_matching():
    q = ContinuousQuery("q", sensor_prefix="sensor-1")
    assert q.matches("sensor-1")
    assert q.matches("sensor-12")
    assert not q.matches("sensor-2")
    assert ContinuousQuery("q2").matches("anything")


def test_default_queries_unique_ids():
    qs = default_queries()
    assert len({q.query_id for q in qs}) == len(qs)


# --- bolts ------------------------------------------------------------------------------


def test_filter_bolt_drops_out_of_range():
    bolt = FilterBolt(lo=0.0, hi=100.0)
    col = OutputCollector()
    bolt.execute(reading("s", 50.0), col)
    bolt.execute(reading("s", 5000.0), col)
    emissions, _, _ = col.drain()
    assert len(emissions) == 1
    assert bolt.dropped == 1


def test_query_bolt_window_aggregates():
    context, clock = ctx()
    q = ContinuousQuery("avg", agg="avg", window_seconds=10.0)
    bolt = QueryBolt([q])
    bolt.prepare(context)
    col = OutputCollector()
    for t, v in [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]:
        clock["now"] = t
        bolt.execute(reading("s", v), col)
    col.drain()
    bolt.tick(5.0, col)
    emissions, _, _ = col.drain()
    qid, cnt, total, mn, mx = emissions[0][0]
    assert (qid, cnt, total, mn, mx) == ("avg", 3, 60.0, 10.0, 30.0)
    # After expiry only the last reading remains.
    bolt.tick(12.5, col)
    emissions, _, _ = col.drain()
    _, cnt, total, _, _ = emissions[0][0]
    assert (cnt, total) == (1, 30.0)


def test_query_bolt_prefix_scoping():
    context, clock = ctx()
    q = ContinuousQuery("s1", agg="count", sensor_prefix="sensor-1",
                        window_seconds=100.0)
    bolt = QueryBolt([q])
    bolt.prepare(context)
    col = OutputCollector()
    for sensor in ("sensor-1", "sensor-2", "sensor-10"):
        bolt.execute(reading(sensor, 1.0), col)
    col.drain()
    bolt.tick(1.0, col)
    emissions, _, _ = col.drain()
    assert emissions[0][0][1] == 2  # sensor-1 and sensor-10


def test_query_bolt_validation():
    with pytest.raises(ValueError):
        QueryBolt([])
    q = ContinuousQuery("dup")
    with pytest.raises(ValueError):
        QueryBolt([q, q])


def test_query_cost_grows_with_queries():
    few = QueryBolt(default_queries(2))
    many = QueryBolt(default_queries(6))
    t = reading("s", 1.0)
    assert many.cpu_cost(t) > few.cpu_cost(t)


def test_result_bolt_composes_partials():
    qs = [
        ContinuousQuery("avg", agg="avg", op=">", threshold=15.0),
        ContinuousQuery("mx", agg="max", op=">", threshold=100.0),
    ]
    bolt = ResultBolt(qs)
    col = OutputCollector()

    def partial(task, qid, cnt, total, mn, mx):
        bolt.execute(
            StormTuple(
                values=(qid, cnt, total, mn, mx),
                fields=("query_id", "count", "total", "minimum", "maximum"),
                source_task=task,
            ),
            col,
        )

    partial(1, "avg", 2, 20.0, 5.0, 15.0)
    partial(2, "avg", 2, 40.0, 18.0, 22.0)
    assert bolt.current["avg"] == pytest.approx(15.0)  # (20+40)/4
    assert bolt.matched["avg"] is False
    partial(2, "avg", 2, 80.0, 30.0, 50.0)  # replaces task 2's partial
    assert bolt.current["avg"] == pytest.approx(25.0)
    assert bolt.matched["avg"] is True
    assert bolt.transitions[-1][0] == "avg"
    partial(1, "mx", 3, 0.0, -5.0, 120.0)
    assert bolt.current["mx"] == 120.0


def test_result_bolt_ignores_empty_partials():
    bolt = ResultBolt([ContinuousQuery("q", agg="min")])
    col = OutputCollector()
    bolt.execute(
        StormTuple(
            values=("q", 0, 0.0, float("inf"), float("-inf")),
            fields=("query_id", "count", "total", "minimum", "maximum"),
            source_task=1,
        ),
        col,
    )
    assert "q" not in bolt.current


# --- equivalence with the per-query window scan -------------------------------------


def scan_reference(queries, steps):
    """The query stage as one window rescanned per query per tick.

    ``steps`` is a time-ordered list of ``("read", t, sensor, value)`` and
    ``("tick", t, None, None)``.  Returns the ``cpu_cost`` seen before
    every read and every partial emitted, in order.
    """
    longest = max(q.window_seconds for q in queries)
    events = deque()  # (time, sensor_id, value) over the longest window
    costs, partials = [], []

    def evict(now):
        horizon = now - longest
        while events and events[0][0] < horizon:
            events.popleft()

    for kind, t, sensor, value in steps:
        if kind == "read":
            costs.append(QueryBolt.default_cpu_cost * (
                0.5 + 0.1 * len(queries) + len(events) / 40000.0
            ))
            events.append((t, sensor, value))
            evict(t)
            continue
        evict(t)
        for q in queries:
            cnt = 0
            total = 0.0
            mn = float("inf")
            mx = float("-inf")
            horizon = t - q.window_seconds
            for et, s, v in events:
                if et < horizon or not q.matches(s):
                    continue
                cnt += 1
                total += v
                mn = min(mn, v)
                mx = max(mx, v)
            partials.append((q.query_id, cnt, total, mn, mx))
    return costs, partials


def run_query_bolt(queries, steps):
    """Drive a prepared ``QueryBolt`` through ``steps`` (see above)."""
    context, clock = ctx()
    bolt = QueryBolt(queries)
    bolt.prepare(context)
    col = OutputCollector()
    costs, partials = [], []
    for kind, t, sensor, value in steps:
        clock["now"] = t
        if kind == "read":
            tup = reading(sensor, value)
            costs.append(bolt.cpu_cost(tup))
            bolt.execute(tup, col)
        else:
            bolt.tick(t, col)
        emissions, _, _ = col.drain()
        partials.extend(values for values, stream, _ in emissions
                        if stream == "partials")
    return costs, partials


_WINDOWS = (0.5, 1.0, 2.5, 20.0)
# "" selects every sensor; "sensor-1" also selects sensor-10 and sensor-12
_PREFIXES = ("", "sensor-1", "sensor-10", "sensor-2")
_SENSORS = ("sensor-1", "sensor-10", "sensor-12", "sensor-2", "pump-1")

_query_specs = st.lists(
    st.tuples(
        st.sampled_from(_AGGS),
        st.sampled_from(_OPS),
        st.sampled_from(_WINDOWS),
        st.sampled_from(_PREFIXES),
    ),
    min_size=1,
    max_size=8,
)
# Grid steps land readings exactly on a window's edge, where the strict
# ``t < now - window`` eviction decides; long gaps empty every window.
_gaps = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5, 30.0)),
    st.floats(0.0, 25.0),
)
_values = st.one_of(
    st.sampled_from((0.1, 0.2, 0.3, 1.0, 1e16, -1e16)),
    st.floats(-1e16, 1e16, allow_nan=False),
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("read"), _gaps, st.sampled_from(_SENSORS), _values),
        st.tuples(st.just("tick"), _gaps, st.none(), st.none()),
    ),
    max_size=80,
)


def _timed(gapped_steps):
    t = 0.0
    steps = []
    for kind, gap, sensor, value in gapped_steps:
        t += gap
        steps.append((kind, t, sensor, value))
    return steps


@settings(max_examples=300, deadline=None)
@given(specs=_query_specs, gapped=_steps)
# A sum that a compensated or exact summation would change.
@example(
    specs=[("avg", ">", 20.0, "")],
    gapped=[("read", 0.0, "sensor-1", 1e16), ("read", 0.0, "sensor-2", 1.0),
            ("read", 0.0, "sensor-1", -1e16), ("tick", 1.0, None, None)],
)
# Mixed windows: the cost counter keeps readings only the long one holds.
@example(
    specs=[("count", ">", 1.0, "sensor-1"), ("max", "<", 20.0, "")],
    gapped=[("read", 0.0, "sensor-1", 1.0), ("read", 5.0, "sensor-10", 2.0),
            ("read", 1.0, "pump-1", 3.0), ("tick", 0.0, None, None),
            ("tick", 40.0, None, None)],
)
def test_query_bolt_matches_per_query_scan(specs, gapped):
    queries = [
        ContinuousQuery(f"q{i}", agg=agg, op=op, window_seconds=window,
                        sensor_prefix=prefix)
        for i, (agg, op, window, prefix) in enumerate(specs)
    ]
    steps = _timed(gapped)
    costs, partials = run_query_bolt(queries, steps)
    ref_costs, ref_partials = scan_reference(queries, steps)
    assert costs == ref_costs
    assert partials == ref_partials


def compose_reference(queries, arrivals):
    """The results stage over one ``(query_id, task) -> partial`` dict."""
    by_id = {q.query_id: q for q in queries}
    latest = {}
    current, matched, transitions = {}, {}, []
    for task, qid, partial in arrivals:
        latest[(qid, task)] = partial
        cnt = 0
        total = 0.0
        mn = float("inf")
        mx = float("-inf")
        for (q, _task), (c, s, lo, hi) in latest.items():
            if q != qid or c == 0:
                continue
            cnt += c
            total += s
            mn = min(mn, lo)
            mx = max(mx, hi)
        if cnt == 0:
            continue
        query = by_id[qid]
        value = {
            "avg": total / cnt,
            "min": mn,
            "max": mx,
            "count": float(cnt),
        }[query.agg]
        current[qid] = value
        state = query.compare(value)
        if matched.get(qid) != state:
            matched[qid] = state
            transitions.append((qid, value, state))
    return current, matched, transitions


_partials = st.one_of(
    st.just((0, 0.0, math.inf, -math.inf)),
    st.tuples(
        st.integers(1, 50),
        st.floats(-1e6, 1e6),
        st.floats(-1e3, 1e3),
        st.floats(-1e3, 1e3),
    ).map(lambda p: (p[0], p[1], min(p[2], p[3]), max(p[2], p[3]))),
)


@settings(max_examples=200, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(_AGGS), st.sampled_from(_OPS),
                  st.sampled_from((0.0, 5.0, 50.0))),
        min_size=1, max_size=5,
    ),
    picks=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4), _partials),
        max_size=60,
    ),
)
def test_result_bolt_matches_compose_over_all_partials(specs, picks):
    queries = [
        ContinuousQuery(f"q{i}", agg=agg, op=op, threshold=threshold)
        for i, (agg, op, threshold) in enumerate(specs)
    ]
    # Several tasks' partials for several queries, interleaved.
    arrivals = [
        (task, queries[pick % len(queries)].query_id, partial)
        for task, pick, partial in picks
    ]
    bolt = ResultBolt(queries)
    col = OutputCollector()
    for task, qid, partial in arrivals:
        bolt.execute(
            StormTuple(
                values=(qid, *partial),
                fields=("query_id", "count", "total", "minimum", "maximum"),
                source_task=task,
            ),
            col,
        )
    current, matched, transitions = compose_reference(queries, arrivals)
    assert bolt.current == current
    assert bolt.matched == matched
    assert bolt.transitions == transitions

# --- topology / end to end ---------------------------------------------------------------


def test_build_validates():
    with pytest.raises(ValueError):
        build_continuous_query_topology(grouping="bogus")
    with pytest.raises(ValueError, match="tick"):
        build_continuous_query_topology(config=TopologyConfig(tick_interval=0))


def test_end_to_end_query_answers_track_sensor_mean():
    topo = build_continuous_query_topology(
        profile=RateProfile(base=200), n_sensors=30
    )
    sim = StormSimulation(topo, seed=21)
    res = sim.run(duration=40)
    assert res.failed == 0
    results = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "results"
    ).bolt
    # Sensor values mean-revert to 50: the global average query must sit
    # near 50, min below it, max above it.
    assert results.current["q-avg-all"] == pytest.approx(50.0, abs=5.0)
    assert results.current["q-min-all"] < results.current["q-avg-all"]
    assert results.current["q-max-all"] > results.current["q-avg-all"]
    # count query: ~200/s over a 20s window.
    assert results.current["q-count-all"] == pytest.approx(4000, rel=0.3)


def test_end_to_end_shuffle_variant_runs():
    topo = build_continuous_query_topology(
        profile=RateProfile(base=100), grouping="shuffle"
    )
    sim = StormSimulation(topo, seed=22)
    res = sim.run(duration=20)
    assert res.acked > 1000
