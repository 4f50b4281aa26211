"""Tests for the Windowed URL Count application."""

import numpy as np
import pytest

from repro.apps import RateProfile, build_url_count_topology
from repro.apps.url_count import (
    AggregateBolt,
    ParseBolt,
    UrlSpout,
    WindowedCountBolt,
)
from repro.storm import StormSimulation
from repro.storm.api import OutputCollector, TopologyContext
from repro.storm.topology import TopologyConfig
from repro.storm.tuples import Tuple as StormTuple


def ctx(now=0.0, rng_seed=0):
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
        rng=np.random.default_rng(rng_seed),
    ), t


# --- unit: bolts ------------------------------------------------------------------


def test_parse_bolt_extracts_domain():
    bolt = ParseBolt()
    col = OutputCollector()
    tup = StormTuple(
        values=("user-1", "http://site-42.example/page"),
        fields=("user", "url"),
    )
    bolt.execute(tup, col)
    emissions, _, _ = col.drain()
    assert emissions[0][0] == ("user-1", "site-42.example", "http://site-42.example/page")


def test_parse_cost_scales_with_url_length():
    bolt = ParseBolt()
    short = StormTuple(values=("u", "http://a.b/c"), fields=("user", "url"))
    long = StormTuple(values=("u", "http://" + "x" * 500), fields=("user", "url"))
    assert bolt.cpu_cost(long) > bolt.cpu_cost(short)


def test_count_bolt_counts_and_evicts():
    context, clock = ctx()
    bolt = WindowedCountBolt(window_seconds=10.0)
    bolt.prepare(context)
    col = OutputCollector()

    def feed(url, at):
        clock["now"] = at
        tup = StormTuple(values=("u", "d", url), fields=("user", "domain", "url"))
        bolt.execute(tup, col)

    feed("a", 1.0)
    feed("a", 2.0)
    feed("b", 3.0)
    assert bolt.window_population == 3
    clock["now"] = 12.5  # "a"@1 and "a"@2 expired, "b"@3 alive
    bolt.tick(12.5, col)
    emissions, _, _ = col.drain()
    counts = {v[0]: v[1] for v, s, _a in emissions if s == "counts"}
    assert counts == {"b": 1}
    assert bolt.window_population == 1


def test_count_bolt_emits_top_k_only():
    context, clock = ctx()
    bolt = WindowedCountBolt(window_seconds=100.0, emit_top=2)
    bolt.prepare(context)
    col = OutputCollector()
    for i, url in enumerate(["a"] * 5 + ["b"] * 3 + ["c"] * 1):
        clock["now"] = float(i)
        bolt.execute(
            StormTuple(values=("u", "d", url), fields=("user", "domain", "url")),
            col,
        )
    col.drain()
    bolt.tick(10.0, col)
    emissions, _, _ = col.drain()
    emitted = [v[0] for v, s, _a in emissions if s == "counts"]
    assert emitted == ["a", "b"]


def test_count_bolt_validation():
    with pytest.raises(ValueError):
        WindowedCountBolt(window_seconds=0)


def test_aggregate_bolt_merges_partials():
    bolt = AggregateBolt(top_k=2)
    col = OutputCollector()

    def partial(task, url, count):
        bolt.execute(
            StormTuple(
                values=(url, count), fields=("url", "count"), source_task=task
            ),
            col,
        )

    partial(1, "a", 5)
    partial(2, "a", 3)
    partial(1, "b", 4)
    assert bolt.top() == [("a", 8), ("b", 4)]
    # Newer partial from the same task replaces, not adds.
    partial(1, "a", 1)
    assert bolt.top() == [("a", 4), ("b", 4)]


def test_url_spout_emits_with_msg_ids():
    context, _ = ctx()
    spout = UrlSpout(profile=RateProfile(base=100.0))
    spout.open(context)
    e1 = spout.next_tuple()
    e2 = spout.next_tuple()
    assert e1.msg_id != e2.msg_id
    assert len(e1.values) == 2
    assert 0 < spout.inter_arrival() < 1.0


# --- topology assembly ------------------------------------------------------------------


def test_build_variants():
    for grouping in ("dynamic", "shuffle", "fields"):
        topo = build_url_count_topology(grouping=grouping)
        assert set(topo.specs) == {"urls", "parse", "count", "aggregate"}
    with pytest.raises(ValueError):
        build_url_count_topology(grouping="bogus")


def test_build_requires_ticks():
    with pytest.raises(ValueError, match="tick"):
        build_url_count_topology(config=TopologyConfig(tick_interval=0.0))


# --- end to end -------------------------------------------------------------------------


def test_end_to_end_top_k_matches_zipf_ground_truth():
    topo = build_url_count_topology(
        profile=RateProfile(base=300), n_urls=500, skew=1.3
    )
    sim = StormSimulation(topo, seed=11)
    res = sim.run(duration=45)
    assert res.failed == 0
    agg = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "aggregate"
    ).bolt
    top = agg.top()
    assert len(top) > 3
    # The global #1 must be the Zipf head URL.
    assert top[0][0] == "http://site-0.example/page"
    # And counts must be sorted.
    counts = [c for _u, c in top]
    assert counts == sorted(counts, reverse=True)


def test_window_bounds_aggregate_counts():
    # Total counted hits in a 10s window can never exceed 10s of offered load.
    topo = build_url_count_topology(
        profile=RateProfile(base=200), window_seconds=10.0
    )
    sim = StormSimulation(topo, seed=12)
    sim.run(duration=40)
    counts = [
        ex.bolt._counts.total()
        for ex in sim.cluster.executors.values()
        if ex.component_id == "count"
    ]
    assert sum(counts) <= 200 * 10 * 1.5  # window cap (with margin)
    assert sum(counts) > 200 * 10 * 0.5  # and the window is actually full
