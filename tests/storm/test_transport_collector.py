"""Unit tests for Transport latency selection, delivery events, OutputCollector."""

import pytest

from repro.des import Environment, Store
from repro.storm.api import OutputCollector
from repro.storm.executor import Envelope, Transport
from repro.storm.node import Node
from repro.storm.topology import TopologyConfig
from repro.storm.tuples import Tuple
from repro.storm.worker import Worker


def make_transport():
    env = Environment()
    config = TopologyConfig(
        intra_worker_latency=1e-5,
        intra_node_latency=1e-4,
        inter_node_latency=1e-3,
    )
    t = Transport(env, config)
    n0 = Node(env, "n0")
    n1 = Node(env, "n1")
    w0 = Worker(env, 0, n0)
    w1 = Worker(env, 1, n0)  # same node as w0
    w2 = Worker(env, 2, n1)  # other node
    for task, worker in ((10, w0), (11, w1), (12, w2)):
        t.register(task, Store(), worker)
    return env, t, (w0, w1, w2)


def test_latency_tiers():
    env, t, (w0, w1, w2) = make_transport()
    assert t.latency(w0, 10) == 1e-5  # same worker
    assert t.latency(w0, 11) == 1e-4  # same node, different worker
    assert t.latency(w0, 12) == 1e-3  # cross-node


def test_deliver_arrives_after_latency():
    env, t, (w0, _w1, _w2) = make_transport()
    tup = Tuple(values=(1,))
    t.deliver(w0, [(12, tup)])
    assert t.queues[12].level == 0  # not yet delivered
    env.run(until=2e-3)
    assert t.queues[12].level == 1
    env2_item = t.queues[12].items[0]
    assert isinstance(env2_item, Envelope)
    assert env2_item.tup is tup
    assert env2_item.enqueue_time == pytest.approx(1e-3)
    assert t.sent_count == 1


def test_deliver_preserves_per_link_order():
    env, t, (w0, _w1, _w2) = make_transport()
    for i in range(5):
        t.deliver(w0, [(11, Tuple(values=(i,)))])
    env.run(until=1.0)
    values = [e.tup[0] for e in t.queues[11].items]
    assert values == [0, 1, 2, 3, 4]


def test_one_delivery_event_per_latency_group_carries_its_batch():
    env, t, (w0, _w1, _w2) = make_transport()
    a, b, c = (Tuple(values=(i,)) for i in range(3))
    before = env.scheduled_count
    t.deliver(w0, [(11, a), (12, b), (11, c)])
    # two latency tiers -> two events, each holding its sends in order
    assert env.scheduled_count == before + 2
    assert sorted((when, ev.value) for when, _p, _s, ev in env._queue) == [
        (1e-4, [(11, a), (11, c)]),
        (1e-3, [(12, b)]),
    ]


def test_call_later_is_gone():
    import repro.storm.executor as executor

    assert not hasattr(executor, "call_later")


# --- batched delivery ----------------------------------------------------------------


def test_deliver_batch_matches_individual_delivers():
    tuples = [Tuple(values=(i,)) for i in range(6)]
    dests = [10, 11, 12, 11, 12, 10]

    env_a, ta, (w0a, _, _) = make_transport()
    for dst, tup in zip(dests, tuples):
        ta.deliver(w0a, [(dst, tup)])
    env_a.run(until=1.0)

    env_b, tb, (w0b, _, _) = make_transport()
    tb.deliver(w0b, list(zip(dests, tuples)))
    env_b.run(until=1.0)

    assert tb.sent_count == ta.sent_count == 6
    for task in (10, 11, 12):
        assert [e.tup[0] for e in tb.queues[task].items] == [
            e.tup[0] for e in ta.queues[task].items
        ]
        assert [e.enqueue_time for e in tb.queues[task].items] == [
            e.enqueue_time for e in ta.queues[task].items
        ]


def test_deliver_groups_by_latency_but_keeps_order():
    env, t, (w0, _, _) = make_transport()
    t.deliver(w0, [(11, Tuple(values=(i,))) for i in range(4)])
    env.run(until=1.0)
    assert [e.tup[0] for e in t.queues[11].items] == [0, 1, 2, 3]
    # same-node destinations arrive after the intra-node latency tier
    assert all(
        e.enqueue_time == pytest.approx(1e-4) for e in t.queues[11].items
    )


def test_deliver_draws_loss_per_tuple():
    import numpy as np

    env, t, (w0, _, _) = make_transport()
    t.rng = np.random.default_rng(0)
    t.loss_probability = 1.0
    # Cross-worker transfers are all lost; the same-worker one survives
    # (loss only applies between workers).
    t.deliver(
        w0, [(12, Tuple(values=(0,))), (10, Tuple(values=(1,))),
             (11, Tuple(values=(2,)))]
    )
    env.run(until=1.0)
    assert t.lost_count == 2
    assert t.sent_count == 3
    assert [e.tup[0] for e in t.queues[10].items] == [1]
    assert t.queues[11].level == 0 and t.queues[12].level == 0


def test_deliver_skips_crashed_destination():
    env, t, (w0, _w1, w2) = make_transport()
    w2.crashed = True
    t.deliver(w0, [(12, Tuple(values=(0,))), (11, Tuple(values=(1,)))])
    env.run(until=1.0)
    assert t.lost_count == 1
    assert [e.tup[0] for e in t.queues[11].items] == [1]
    assert t.queues[12].level == 0


# --- collector --------------------------------------------------------------------


def test_collector_buffers_and_drains():
    col = OutputCollector()
    t1 = Tuple(values=(1,))
    col.emit((1, 2), anchors=[t1])
    col.emit((3,), stream="other")
    col.ack(t1)
    emissions, acked, failed = col.drain()
    assert emissions[0] == ((1, 2), "default", (t1,))
    assert emissions[1] == ((3,), "other", ())
    assert acked == [t1]
    assert failed == []
    # Drain resets.
    assert col.drain() == ([], [], [])


def test_collector_fail_path():
    col = OutputCollector()
    t = Tuple(values=(9,))
    col.fail(t)
    _, _, failed = col.drain()
    assert failed == [t]


def test_collector_emit_copies_values():
    col = OutputCollector()
    values = [1, 2]
    col.emit(values)
    values.append(3)  # mutating the caller's list must not leak
    emissions, _, _ = col.drain()
    assert emissions[0][0] == (1, 2)
