"""Executor feature tests: ticks, streams, direct emit, error paths."""

import pytest

from repro.storm import (
    Bolt,
    Emission,
    NodeSpec,
    Spout,
    StormSimulation,
    TopologyBuilder,
    TopologyConfig,
)
from repro.storm.tuples import Tuple
from tests.storm.helpers import CounterSpout, SinkBolt

NODES = [NodeSpec("n0", cores=4, slots=2)]


def test_tick_drives_windowed_bolt():
    class TickCounter(Bolt):
        outputs = {}

        def __init__(self):
            self.ticks = []

        def execute(self, tup, collector):
            pass

        def tick(self, now, collector):
            self.ticks.append(now)

    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=10))
    b.set_bolt("w", TickCounter()).shuffle_grouping("src")
    topo = b.build("t", TopologyConfig(num_workers=1, tick_interval=2.0))
    sim = StormSimulation(topo, nodes=NODES, seed=0)
    sim.run(duration=11)
    bolt = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "w"
    ).bolt
    assert 4 <= len(bolt.ticks) <= 6  # every ~2 s, modulo queue delay
    assert all(t >= 2.0 for t in bolt.ticks)


def test_no_ticks_when_interval_zero():
    class TickCounter(Bolt):
        outputs = {}

        def __init__(self):
            self.ticks = 0

        def execute(self, tup, collector):
            pass

        def tick(self, now, collector):
            self.ticks += 1

    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=10))
    b.set_bolt("w", TickCounter()).shuffle_grouping("src")
    topo = b.build("t", TopologyConfig(num_workers=1, tick_interval=0.0))
    sim = StormSimulation(topo, nodes=NODES, seed=0)
    sim.run(duration=5)
    bolt = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "w"
    ).bolt
    assert bolt.ticks == 0


def test_multi_stream_routing():
    class SplitterBolt(Bolt):
        outputs = {"default": ("n",), "odd": ("n",)}

        def execute(self, tup, collector):
            stream = "odd" if tup[0] % 2 else "default"
            collector.emit((tup[0],), stream=stream, anchors=[tup])

    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=100, limit=40))
    b.set_bolt("split", SplitterBolt()).shuffle_grouping("src")
    b.set_bolt("evens", SinkBolt()).shuffle_grouping("split")  # default stream
    b.set_bolt("odds", SinkBolt()).shuffle_grouping("split", stream="odd")
    topo = b.build("streams", TopologyConfig(num_workers=2))
    sim = StormSimulation(topo, nodes=NODES, seed=1)
    res = sim.run(duration=5)
    evens = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "evens"
    ).bolt
    odds = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "odds"
    ).bolt
    assert all(v[0] % 2 == 0 for v in evens.seen)
    assert all(v[0] % 2 == 1 for v in odds.seen)
    assert len(evens.seen) + len(odds.seen) == 40
    assert res.acked == 40  # both branches ack into the same trees


def test_undeclared_stream_emit_raises():
    class BadBolt(Bolt):
        outputs = {"default": ("n",)}

        def execute(self, tup, collector):
            collector.emit((1,), stream="ghost")

    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=50))
    b.set_bolt("bad", BadBolt()).shuffle_grouping("src")
    topo = b.build("bad", TopologyConfig(num_workers=1))
    sim = StormSimulation(topo, nodes=NODES, seed=0)
    with pytest.raises(ValueError, match="undeclared"):
        sim.run(duration=2)


def test_declared_but_unsubscribed_stream_evaporates():
    class ChattyBolt(Bolt):
        outputs = {"default": (), "side": ("n",)}

        def execute(self, tup, collector):
            collector.emit((tup[0],), stream="side")  # nobody listens

    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=100, limit=20))
    b.set_bolt("chat", ChattyBolt()).shuffle_grouping("src")
    topo = b.build("chat", TopologyConfig(num_workers=1))
    sim = StormSimulation(topo, nodes=NODES, seed=0)
    res = sim.run(duration=5)
    assert res.acked == 20  # side-stream emits don't block tree completion


def test_spout_exhaustion_stops_cleanly():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=100, limit=10))
    b.set_bolt("sink", SinkBolt()).shuffle_grouping("src")
    topo = b.build("fin", TopologyConfig(num_workers=1))
    sim = StormSimulation(topo, nodes=NODES, seed=0)
    res = sim.run(duration=30)
    assert res.acked == 10
    spout = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "src"
    )
    assert spout.spout.emitted == 10


def test_explicit_fail_triggers_replay():
    class PickyBolt(Bolt):
        outputs = {}
        auto_ack = False

        def __init__(self):
            self.attempts = {}

        def execute(self, tup, collector):
            n = tup[0]
            self.attempts[n] = self.attempts.get(n, 0) + 1
            if self.attempts[n] == 1 and n % 5 == 0:
                collector.fail(tup)  # reject first attempt of every 5th
            else:
                collector.ack(tup)

    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=100, limit=20))
    b.set_bolt("picky", PickyBolt()).shuffle_grouping("src")
    topo = b.build("picky", TopologyConfig(num_workers=1, max_replays=5))
    sim = StormSimulation(topo, nodes=NODES, seed=0)
    res = sim.run(duration=10)
    bolt = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "picky"
    ).bolt
    rejected = [n for n in bolt.attempts if n % 5 == 0]
    assert all(bolt.attempts[n] == 2 for n in rejected)  # replayed exactly once
    assert res.failed == len(rejected)
    spout = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "src"
    )
    assert {m for m, _ in spout.spout.acks} == {
        (spout.task_id, i) for i in range(1, 21)
    }


# --- the executor state machine ------------------------------------------------------
#
# Executors are callback state machines: ``on_arrival`` starts service
# inside the event that delivered the envelope, ``on_service_done``
# finishes it and takes the next one, pause gates are waited on as
# callbacks.  These tests drive one bolt by hand through each transition.


class RecordingBolt(Bolt):
    outputs = {}
    default_cpu_cost = 0.25  # binary-exact: completion times compare with ==

    def __init__(self):
        self.seen = []
        self.cleaned = 0

    def execute(self, tup, collector):
        self.seen.append((self.now(), tup[0]))

    def prepare(self, context):
        self.now = context.now

    def cleanup(self):
        self.cleaned += 1


def idle_bolt(sigma=0.0, **config):
    """A started simulation whose one bolt is idle and whose spout (on
    another worker) has not emitted yet; returns ``(sim, executor)``."""
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=0.001))
    b.set_bolt("rec", RecordingBolt()).shuffle_grouping("src")
    topo = b.build(
        "sm",
        TopologyConfig(
            num_workers=2, tick_interval=0.0, service_noise_sigma=sigma, **config
        ),
    )
    sim = StormSimulation(topo, nodes=NODES, seed=0)
    ex = next(
        e for e in sim.cluster.executors.values() if e.component_id == "rec"
    )
    spout = next(
        e for e in sim.cluster.executors.values() if e.component_id == "src"
    )
    assert ex.worker is not spout.worker
    sim.env.run(until=1.0)  # init events ran: the bolt is prepared and idle
    return sim, ex


def envelope(sim, n):
    from repro.storm.executor import Envelope

    return Envelope(Tuple(values=(n,)), sim.env.now)


def test_arrival_at_idle_bolt_schedules_only_the_service_timeout():
    sim, ex = idle_bolt()
    env = sim.env
    before = env.scheduled_count
    ex.queue.put(envelope(sim, 1))
    assert env.scheduled_count == before + 1  # no get event, no wake-up
    assert ex.queue.level == 0  # handed over, in service
    ex.queue.put(envelope(sim, 2))
    assert env.scheduled_count == before + 1  # busy: the second one queues
    assert ex.queue.level == 1
    env.run(until=2.0)
    assert ex.bolt.seen == [(1.25, 1), (1.5, 2)]


def test_arrival_while_paused_is_held_and_served_on_release():
    sim, ex = idle_bolt()
    env = sim.env
    ex.worker.hold_pause()
    before = env.scheduled_count
    ex.queue.put(envelope(sim, 1))
    ex.queue.put(envelope(sim, 2))
    assert ex._held.tup[0] == 1 and ex.queue.level == 1
    assert env.scheduled_count == before  # nothing runs while paused
    env.run(until=3.0)
    assert ex.bolt.seen == []
    ex.worker.release_pause()
    env.run(until=4.0)
    assert ex._held is None
    assert ex.bolt.seen == [(3.25, 1), (3.5, 2)]


def test_crash_mid_service_finishes_the_service_then_blocks():
    sim, ex = idle_bolt()
    env = sim.env
    ex.queue.put(envelope(sim, 1))  # in service until 1.25
    ex.queue.put(envelope(sim, 2))
    env.run(until=1.125)
    assert ex.worker.crash(sim.cluster.ledger) == 1  # the queued one is lost
    env.run(until=2.0)
    assert ex.bolt.seen == [(1.25, 1)]  # the started service completed
    ex.queue.put(envelope(sim, 3))  # (a tick would arrive like this)
    env.run(until=3.0)
    assert ex.bolt.seen == [(1.25, 1)] and ex.queue.level == 1  # blocked
    ex.worker.restart()
    env.run(until=4.0)
    assert ex.bolt.seen == [(1.25, 1), (3.25, 3)]


def test_stop_with_idle_bolt_serves_one_more_arrival_then_cleans_up():
    # An idle bolt only notices stop() at its next transition, as the
    # generator loop did: the arrival that wakes it is still served.
    sim, ex = idle_bolt()
    env = sim.env
    sim.cluster.stop()
    env.run(until=2.0)
    assert ex.bolt.cleaned == 0
    ex.queue.put(envelope(sim, 1))
    ex.queue.put(envelope(sim, 2))
    env.run(until=3.0)
    assert ex.bolt.seen == [(2.25, 1)]
    assert ex.bolt.cleaned == 1
    assert ex.queue.level == 1  # never taken


def test_spout_at_max_pending_resumes_on_ack():
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=1000))
    b.set_bolt("rec", RecordingBolt()).shuffle_grouping("src")
    topo = b.build(
        "window",
        TopologyConfig(
            num_workers=1, max_spout_pending=2, tick_interval=0.0,
            service_noise_sigma=0.0, message_timeout=1e6,
        ),
    )
    sim = StormSimulation(topo, nodes=NODES, seed=0)
    spout = next(
        e for e in sim.cluster.executors.values() if e.component_id == "src"
    )
    sim.env.run(until=0.009)
    # two emitted at 1 ms and 2 ms; the window is full, so no pacing
    # timeout is pending: the spout waits on its wake event
    assert spout.spout.emitted == 2 and spout.in_flight == 2
    assert spout._wake is not None and not spout._wake.triggered
    sim.env.run(until=2.0)
    assert spout.spout.emitted > 2 and spout.in_flight <= 2
    assert len(spout.spout.acks) == spout.spout.emitted - spout.in_flight


def test_replay_burst_loops_instead_of_recursing():
    # 2,500 messages queue at a slow bolt; crashing its worker fails them
    # all at once.  The spout then replays the whole burst from one
    # callback — in a loop, so the burst costs no stack.
    import sys

    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=10000, limit=2500))
    b.set_bolt("rec", RecordingBolt()).shuffle_grouping("src")
    topo = b.build(
        "burst",
        TopologyConfig(
            num_workers=2, max_spout_pending=5000, tick_interval=0.0,
            message_timeout=1e6, max_replays=3,
        ),
    )
    sim = StormSimulation(topo, nodes=NODES, seed=0)
    spout = next(
        e for e in sim.cluster.executors.values() if e.component_id == "src"
    )
    bolt = next(
        e for e in sim.cluster.executors.values() if e.component_id == "rec"
    )
    assert bolt.worker is not spout.worker
    sim.env.run(until=0.5)
    assert spout.spout.emitted == 2500
    lost = bolt.worker.crash(sim.cluster.ledger)
    assert lost >= 2000 and len(spout.replay_queue) == lost
    assert lost > sys.getrecursionlimit()
    bolt.worker.restart()
    sim.env.run(until=0.6)  # RecursionError here if replay recursed
    assert spout.replayed_count == lost and not spout.replay_queue


def test_service_noise_blocks_are_bit_equal_to_scalar_draws():
    import math

    import numpy as np

    sim, ex = idle_bolt(sigma=0.3)
    ex.rng = np.random.default_rng(42)
    reference = np.random.default_rng(42)
    # 1,000 values cross three block boundaries
    for _ in range(1000):
        assert ex._service_noise() == math.exp(reference.normal(0.0, 0.3))


def test_zero_sigma_draws_nothing():
    sim, ex = idle_bolt(sigma=0.0)
    before = ex.rng.bit_generator.state
    assert [ex._service_noise() for _ in range(10)] == [1.0] * 10
    assert ex.rng.bit_generator.state == before
