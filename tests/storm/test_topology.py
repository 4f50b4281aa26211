"""Tests for topology building and validation."""

import pytest

from repro.storm import Bolt, TopologyBuilder, TopologyConfig
from tests.storm.helpers import CounterSpout, PassBolt, SinkBolt


def build_linear():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(), parallelism=2)
    b.set_bolt("mid", PassBolt(), parallelism=3).shuffle_grouping("src")
    b.set_bolt("sink", SinkBolt(), parallelism=2).shuffle_grouping("mid")
    return b.build("linear")


def test_task_ids_contiguous_and_stable():
    topo = build_linear()
    # components sorted: mid, sink, src
    assert topo.task_ids["mid"] == [0, 1, 2]
    assert topo.task_ids["sink"] == [3, 4]
    assert topo.task_ids["src"] == [5, 6]
    assert topo.num_tasks == 7


def test_component_of_task():
    topo = build_linear()
    assert topo.component_of_task(0) == "mid"
    assert topo.component_of_task(6) == "src"
    with pytest.raises(KeyError):
        topo.component_of_task(99)


def test_consumers_of():
    topo = build_linear()
    consumers = topo.consumers_of("src")
    assert [c for c, _ in consumers] == ["mid"]
    assert topo.consumers_of("sink") == []


def test_spout_and_bolt_ids():
    topo = build_linear()
    assert topo.spout_ids() == ["src"]
    assert topo.bolt_ids() == ["mid", "sink"]


def test_make_instance_returns_fresh_copies():
    topo = build_linear()
    a = topo.make_instance("sink")
    b = topo.make_instance("sink")
    assert a is not b
    a.seen.append("x")
    assert b.seen == []


def test_duplicate_component_id_rejected():
    b = TopologyBuilder()
    b.set_spout("x", CounterSpout())
    with pytest.raises(ValueError, match="duplicate"):
        b.set_bolt("x", SinkBolt())


def test_invalid_component_id_rejected():
    b = TopologyBuilder()
    with pytest.raises(ValueError):
        b.set_spout("", CounterSpout())
    with pytest.raises(ValueError):
        b.set_spout("a/b", CounterSpout())


def test_spout_type_checked():
    b = TopologyBuilder()
    with pytest.raises(TypeError):
        b.set_spout("s", SinkBolt())  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        b.set_bolt("b", CounterSpout())  # type: ignore[arg-type]


def test_spout_cannot_subscribe():
    b = TopologyBuilder()
    spec = b.set_spout("s", CounterSpout())
    with pytest.raises(ValueError, match="cannot subscribe"):
        spec.shuffle_grouping("s")


def test_topology_requires_spout():
    b = TopologyBuilder()
    b.set_bolt("only", SinkBolt())
    with pytest.raises(ValueError, match="no spout"):
        b.build("bad")


def test_unknown_source_rejected():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout())
    b.set_bolt("b", SinkBolt()).shuffle_grouping("ghost")
    with pytest.raises(ValueError, match="unknown"):
        b.build("bad")


def test_undeclared_stream_rejected():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout())
    b.set_bolt("b", SinkBolt()).shuffle_grouping("src", stream="nope")
    with pytest.raises(ValueError, match="undeclared"):
        b.build("bad")


def test_fields_grouping_validates_fields():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout())  # declares field "n"
    b.set_bolt("b", SinkBolt()).fields_grouping("src", ["bogus"])
    with pytest.raises(ValueError, match="unknown fields"):
        b.build("bad")


def test_fields_grouping_requires_fields():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout())
    with pytest.raises(ValueError):
        b.set_bolt("b", SinkBolt()).fields_grouping("src", [])


def test_cycle_rejected():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout())
    b.set_bolt("a", PassBolt()).shuffle_grouping("src").shuffle_grouping("b")
    b.set_bolt("b", PassBolt()).shuffle_grouping("a")
    with pytest.raises(ValueError, match="cycle"):
        b.build("cyclic")


def test_dynamic_grouping_ratio_arity_checked():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout())
    spec = b.set_bolt("b", SinkBolt(), parallelism=3)
    with pytest.raises(ValueError, match="parallelism"):
        spec.dynamic_grouping("src", initial_ratios=[0.5, 0.5])


def test_dynamic_grouping_ratio_values_checked():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout())
    spec = b.set_bolt("b", SinkBolt(), parallelism=2)
    with pytest.raises(ValueError):
        spec.dynamic_grouping("src", initial_ratios=[-1.0, 2.0])
    with pytest.raises(ValueError):
        spec.dynamic_grouping("src", initial_ratios=[0.0, 0.0])


def test_parallelism_must_be_positive():
    b = TopologyBuilder()
    with pytest.raises(ValueError):
        b.set_spout("s", CounterSpout(), parallelism=0)


def test_config_validation():
    with pytest.raises(ValueError):
        TopologyConfig(num_workers=0).validate()
    with pytest.raises(ValueError):
        TopologyConfig(message_timeout=0).validate()
    with pytest.raises(ValueError):
        TopologyConfig(max_spout_pending=0).validate()
    with pytest.raises(ValueError):
        TopologyConfig(executor_queue_capacity=0).validate()


_REJECTED = [
    ("service_noise_sigma", -0.1),
    ("service_noise_sigma", float("nan")),
    ("service_noise_sigma", float("inf")),
    ("inter_node_latency", -1e-3),
    ("inter_node_latency", float("nan")),
    ("intra_node_latency", -1e-4),
    ("intra_node_latency", float("inf")),
    ("intra_worker_latency", -1e-5),
    ("intra_worker_latency", float("nan")),
    ("tick_interval", -1.0),
    ("tick_interval", float("nan")),
    ("ack_sweep_interval", 0.0),
    ("ack_sweep_interval", -1.0),
    ("ack_sweep_interval", float("nan")),
    ("max_replays", -1),
]
# ...and every numeric field rejects NaN, ±inf and -1 (cases above kept)
_listed = {(name, repr(float(value))) for name, value in _REJECTED}
_REJECTED += [
    (name, value)
    for name, default in vars(TopologyConfig()).items()
    if type(default) in (int, float)
    for value in (float("nan"), float("inf"), -float("inf"), -1)
    if (name, repr(float(value))) not in _listed
]


@pytest.mark.parametrize("field, value", _REJECTED)
def test_config_rejects_values_that_would_fail_mid_run(field, value):
    with pytest.raises(ValueError, match=field):
        TopologyConfig(**{field: value}).validate()
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout())
    b.set_bolt("b", SinkBolt()).shuffle_grouping("src")
    with pytest.raises(ValueError, match=field):
        b.build("bad", TopologyConfig(**{field: value}))  # at build time


def test_config_accepts_the_boundary_values():
    TopologyConfig(
        service_noise_sigma=0.0, inter_node_latency=0.0, intra_node_latency=0.0,
        intra_worker_latency=0.0, tick_interval=0.0, max_replays=0,
        ack_sweep_interval=1e-9,
    ).validate()


def test_multiple_subscriptions_same_bolt():
    b = TopologyBuilder()
    b.set_spout("s1", CounterSpout())
    b.set_spout("s2", CounterSpout())
    b.set_bolt("merge", SinkBolt()).shuffle_grouping("s1").shuffle_grouping("s2")
    topo = b.build("fanin")
    assert len(topo.specs["merge"].groupings) == 2
