"""End-to-end integration tests of the Storm simulator.

These exercise the full stack: spout pacing, flow control, routing,
service/interference, acking, replay, backpressure, and metrics.
"""

import numpy as np
import pytest

from repro.storm import (
    Bolt,
    Emission,
    NodeSpec,
    PauseFault,
    SlowdownFault,
    Spout,
    StormSimulation,
    TopologyBuilder,
    TopologyConfig,
)
from tests.storm.helpers import CounterSpout, PassBolt, SinkBolt, SlowBolt


NODES = (
    NodeSpec("n0", cores=4, slots=2),
    NodeSpec("n1", cores=4, slots=2),
)


def linear_topology(rate=100.0, limit=None, workers=2, **cfg):
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=rate, limit=limit), parallelism=1)
    b.set_bolt("mid", PassBolt(), parallelism=2).shuffle_grouping("src")
    b.set_bolt("sink", SinkBolt(), parallelism=2).shuffle_grouping("mid")
    return b.build("linear", TopologyConfig(num_workers=workers, **cfg))


def executed_of(sim, component):
    return sum(
        ex.executed_count
        for ex in sim.cluster.executors.values()
        if ex.component_id == component
    )


def test_every_emitted_tuple_is_acked():
    topo = linear_topology(rate=200, limit=500)
    sim = StormSimulation(topo, nodes=NODES, seed=1)
    res = sim.run(duration=20)
    assert res.acked == 500
    assert res.failed == 0
    assert executed_of(sim, "mid") == 500
    assert executed_of(sim, "sink") == 500


def test_complete_latency_positive_and_bounded():
    topo = linear_topology(rate=100, limit=200)
    sim = StormSimulation(topo, nodes=NODES, seed=2)
    res = sim.run(duration=10)
    assert res.complete_latencies.size == 200
    assert np.all(res.complete_latencies > 0)
    # Light load: latency must be near the bare service path, far below 1s.
    assert res.latency_percentile(0.99) < 0.1


def test_throughput_matches_offered_load():
    topo = linear_topology(rate=300)
    sim = StormSimulation(topo, nodes=NODES, seed=3)
    res = sim.run(duration=30)
    assert res.mean_throughput(after=5) == pytest.approx(300, rel=0.1)


def test_deterministic_given_seed():
    r1 = StormSimulation(linear_topology(rate=150), nodes=NODES, seed=42).run(10)
    r2 = StormSimulation(linear_topology(rate=150), nodes=NODES, seed=42).run(10)
    assert r1.acked == r2.acked
    assert np.allclose(r1.complete_latencies, r2.complete_latencies)


def test_different_seeds_differ():
    r1 = StormSimulation(linear_topology(rate=150), nodes=NODES, seed=1).run(10)
    r2 = StormSimulation(linear_topology(rate=150), nodes=NODES, seed=2).run(10)
    assert not np.allclose(
        r1.complete_latencies[: min(50, r2.complete_latencies.size)],
        r2.complete_latencies[: min(50, r1.complete_latencies.size)],
    )


def test_spout_receives_ack_callbacks():
    topo = linear_topology(rate=100, limit=50)
    sim = StormSimulation(topo, nodes=NODES, seed=4)
    sim.run(duration=10)
    spout_ex = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "src"
    )
    assert len(spout_ex.spout.acks) == 50
    assert all(lat > 0 for _m, lat in spout_ex.spout.acks)


def test_max_spout_pending_limits_in_flight():
    # A sink far slower than the source: in-flight must cap at max pending.
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=1000), parallelism=1)
    b.set_bolt("slow", SlowBolt(cost=0.05), parallelism=1).shuffle_grouping("src")
    topo = b.build(
        "capped",
        TopologyConfig(num_workers=1, max_spout_pending=10, message_timeout=1000),
    )
    sim = StormSimulation(topo, nodes=NODES, seed=5)
    sim.run(duration=5)
    spout_ex = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "src"
    )
    # ~20 tuples/s drain rate; emitted must be tiny vs the 1000/s offer.
    assert spout_ex.executed_count < 150
    assert spout_ex.in_flight <= 10


def test_timeout_triggers_replay_and_eventual_ack():
    # A transient worker pause makes in-flight tuples time out and fail;
    # after recovery the replays complete, so at-least-once holds.
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=50, limit=30), parallelism=1)
    b.set_bolt("slow", SlowBolt(cost=0.005), parallelism=1).shuffle_grouping("src")
    topo = b.build(
        "flaky",
        TopologyConfig(
            num_workers=1,
            message_timeout=0.5,
            ack_sweep_interval=0.1,
            max_spout_pending=64,
            max_replays=50,
        ),
    )
    sim = StormSimulation(
        topo,
        nodes=NODES,
        seed=6,
        faults=[PauseFault(start=0.1, duration=1.9, worker_id=0)],
    )
    res = sim.run(duration=60)
    assert res.failed > 0  # timeouts happened
    spout_ex = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "src"
    )
    assert spout_ex.replayed_count > 0
    # All 30 distinct messages eventually acked (replay works).
    acked_ids = {m for m, _ in spout_ex.spout.acks}
    assert len(acked_ids) == 30


def test_unreliable_tuples_skip_ledger():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=100, limit=50, reliable=False))
    b.set_bolt("sink", SinkBolt()).shuffle_grouping("src")
    topo = b.build("unreliable", TopologyConfig(num_workers=1))
    sim = StormSimulation(topo, nodes=NODES, seed=7)
    res = sim.run(duration=5)
    assert res.acked == 0 and res.failed == 0
    assert executed_of(sim, "sink") == 50


def test_fields_grouping_keeps_key_locality():
    class KeySpout(Spout):
        outputs = {"default": ("key",)}

        def __init__(self):
            self.i = 0

        def open(self, ctx):
            self.rng = ctx.rng

        def inter_arrival(self):
            return 0.005 if self.i < 400 else None

        def next_tuple(self):
            self.i += 1
            return Emission(values=(f"k{self.i % 10}",), msg_id=self.i)

    class KeySink(Bolt):
        outputs = {}

        def __init__(self):
            self.keys = set()

        def execute(self, tup, collector):
            self.keys.add(tup.value("key"))

    b = TopologyBuilder()
    b.set_spout("src", KeySpout())
    b.set_bolt("sink", KeySink(), parallelism=4).fields_grouping("src", ["key"])
    topo = b.build("keyed", TopologyConfig(num_workers=2))
    sim = StormSimulation(topo, nodes=NODES, seed=8)
    sim.run(duration=10)
    sinks = [
        ex for ex in sim.cluster.executors.values() if ex.component_id == "sink"
    ]
    all_key_sets = [ex.bolt.keys for ex in sinks]
    # Each key lands in exactly one sink task.
    for key in {f"k{i}" for i in range(10)}:
        assert sum(key in ks for ks in all_key_sets) == 1


def test_interference_slows_colocated_worker():
    # Two separate single-bolt pipelines placed on ONE node: raising the
    # load of pipeline A must inflate pipeline B's service latency.
    def build(rate_a):
        b = TopologyBuilder()
        b.set_spout("srcA", CounterSpout(rate=rate_a), parallelism=1)
        b.set_spout("srcB", CounterSpout(rate=50), parallelism=1)
        b.set_bolt("boltA", SlowBolt(cost=8e-3), parallelism=2).shuffle_grouping(
            "srcA"
        )
        b.set_bolt("boltB", SlowBolt(cost=8e-3), parallelism=2).shuffle_grouping(
            "srcB"
        )
        return b.build("pair", TopologyConfig(num_workers=2))

    one_node = (NodeSpec("solo", cores=2, slots=2),)

    def mean_service_b(rate_a, seed=11):
        sim = StormSimulation(build(rate_a), nodes=one_node, seed=seed)
        sim.run(duration=20)
        bolts = [
            ex
            for ex in sim.cluster.executors.values()
            if ex.component_id == "boltB"
        ]
        total = sum(ex.service_time_sum for ex in bolts)
        count = sum(ex.executed_count for ex in bolts)
        return total / count

    quiet = mean_service_b(rate_a=10)
    noisy = mean_service_b(rate_a=220)
    assert noisy > quiet * 1.15  # co-location interference is visible


def test_backpressure_grows_queue_of_slow_bolt():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=500), parallelism=1)
    b.set_bolt("slow", SlowBolt(cost=0.02), parallelism=1).shuffle_grouping("src")
    topo = b.build(
        "pressured",
        TopologyConfig(num_workers=1, max_spout_pending=5000, message_timeout=1e6),
    )
    sim = StormSimulation(topo, nodes=NODES, seed=12)
    res = sim.run(duration=10)
    last = res.snapshots[-1]
    slow_stats = [
        es for es in last.executors.values() if es.component_id == "slow"
    ]
    assert slow_stats[0].backlog > 100  # queue piled up


def test_stop_halts_executors():
    topo = linear_topology(rate=100)
    sim = StormSimulation(topo, nodes=NODES, seed=13)
    sim.run(duration=5)
    before = executed_of(sim, "sink")
    sim.cluster.stop()
    sim.run(duration=5)
    after = executed_of(sim, "sink")
    # Executors stop at the next loop turn: negligible extra processing.
    assert after - before <= 5
