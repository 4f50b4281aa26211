"""Unit tests for the node CPU/interference accounting."""

import pytest

from repro.des import Environment
from repro.storm.node import Node


def test_dilation_below_capacity_is_one():
    env = Environment()
    node = Node(env, "n", cores=4)
    assert node.dilation() == 1.0
    node.busy_executors = 3
    assert node.dilation() == 1.0


def test_dilation_above_capacity_scales():
    env = Environment()
    node = Node(env, "n", cores=4)
    node.busy_executors = 6
    assert node.dilation() == pytest.approx(1.5)
    node.set_external_load(2.0)
    assert node.dilation() == pytest.approx(2.0)


def test_service_start_counts_the_newcomer():
    env = Environment()
    node = Node(env, "n", cores=1)
    d1 = node.service_started()
    assert d1 == 1.0  # first tuple on an idle 1-core node
    d2 = node.service_started()
    assert d2 == pytest.approx(2.0)  # second concurrent service contends
    node.service_finished()
    node.service_finished()
    assert node.busy_executors == 0


def test_demand_integral_accumulates_capped_usage():
    env = Environment()
    node = Node(env, "n", cores=2)

    def load(env):
        node.service_started()
        yield env.timeout(4.0)
        node.service_finished()

    env.process(load(env))
    env.run()
    # 1 busy executor for 4 s on a 2-core node -> 4 core-seconds.
    assert node.demand_integral == pytest.approx(4.0)


def test_demand_integral_caps_at_capacity():
    env = Environment()
    node = Node(env, "n", cores=2)

    def overload(env):
        for _ in range(5):
            node.service_started()
        yield env.timeout(2.0)
        for _ in range(5):
            node.service_finished()

    env.process(overload(env))
    env.run()
    # Demand 5 on 2 cores for 2 s caps at 2 * 2 = 4 core-seconds.
    assert node.demand_integral == pytest.approx(4.0)


def test_external_load_validation():
    env = Environment()
    node = Node(env, "n")
    with pytest.raises(ValueError):
        node.set_external_load(-1.0)


def test_constructor_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Node(env, "n", cores=0)
    with pytest.raises(ValueError):
        Node(env, "n", slots=0)


def test_co_located_workers_excludes_self():
    from repro.storm.worker import Worker

    env = Environment()
    node = Node(env, "n", slots=3)
    w0 = Worker(env, 0, node)
    w1 = Worker(env, 1, node)
    w2 = Worker(env, 2, node)
    assert node.co_located_workers(w1) == [w0, w2]


def test_worker_pause_resume_gate():
    from repro.storm.worker import Worker

    env = Environment()
    node = Node(env, "n")
    w = Worker(env, 0, node)
    assert w.pause_gate() is None
    w.hold_pause()
    gate = w.pause_gate()
    assert gate is not None and not gate.triggered
    w.hold_pause()  # overlapping fault: same gate, second hold
    assert w.pause_gate() is gate
    w.release_pause()
    assert not gate.triggered  # one hold still active
    w.release_pause()
    assert gate.triggered
    assert w.pause_gate() is None
    with pytest.raises(RuntimeError):
        w.release_pause()  # nothing left to release


def test_worker_slow_factor_validation():
    from repro.storm.worker import Worker

    env = Environment()
    w = Worker(env, 0, Node(env, "n"))
    with pytest.raises(ValueError):
        w.hold_slowdown(0.5)
    w.hold_slowdown(3.0)
    w.hold_slowdown(2.0)
    assert w.slow_factor == 6.0 and w.is_misbehaving
    w.release_slowdown(3.0)  # windows may close in any order
    assert w.slow_factor == 2.0
    w.release_slowdown(2.0)
    assert w.slow_factor == 1.0 and not w.is_misbehaving
