"""Compiled routing tables must be element-equal to per-tuple dispatch.

The emit hot path routes through closures compiled once per
``(source_task, stream)`` (:meth:`Grouping.compile_router`); the contract
is that for any tuple sequence and any permutation of the consumer task
list, the compiled router returns exactly the task ids the per-tuple
``choose`` dispatch would have — including stateful strategies (shuffle
cursors, partial-key load counters) and content-dependent ones
(fields hashing, unhashable keys).  A second set of tests pins the
executor-side plan lifecycle: lazy compilation, the declared-but-
unsubscribed empty plan, the undeclared-stream error, and invalidation
when the cluster's membership epoch moves (elastic add/remove).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Store
from repro.storm.acker import AckLedger
from repro.storm.executor import BaseExecutor, Transport
from repro.storm.grouping import (
    AllGrouping,
    DirectGrouping,
    DynamicGrouping,
    FieldsGrouping,
    GlobalGrouping,
    Grouping,
    LocalOrShuffleGrouping,
    PartialKeyGrouping,
    ShuffleGrouping,
    SplitRatioControl,
)
from repro.storm.node import Node
from repro.storm.topology import TopologyConfig
from repro.storm.tuples import Tuple
from repro.storm.worker import Worker

# Unique task-id lists plus a permutation seed: every property runs the
# compiled router against per-tuple dispatch on an arbitrary ordering of
# the same task set.
_TASKS = st.lists(
    st.integers(min_value=0, max_value=60), min_size=1, max_size=7,
    unique=True,
)
_PERM_SEED = st.integers(min_value=0, max_value=2**31 - 1)
_KEYS = st.lists(
    st.one_of(st.integers(min_value=-4, max_value=4), st.text(max_size=2)),
    max_size=30,
)

_CTX = dict(stream="s", source_component="c", source_task=1)


def _permuted(tasks, seed):
    rng = np.random.default_rng(seed)
    return [tasks[i] for i in rng.permutation(len(tasks))]


def _assert_parity(reference: Grouping, compiled: Grouping, values_seq,
                   fields=("k",)):
    """Drive per-tuple dispatch and the compiled router side by side.

    ``reference`` and ``compiled`` must be identically-initialised twin
    instances (stateful strategies advance cursors/counters as they
    route, so one instance cannot serve both sides).
    """
    router = compiled.compile_router(fields=fields, **_CTX)
    for values in values_seq:
        if reference.content_free:
            expected = reference.choose(None)
        else:
            expected = reference.choose(
                Tuple(values=values, stream="s", source_component="c",
                      source_task=1, fields=fields)
            )
        assert router(values, None) == expected


@settings(max_examples=60, deadline=None)
@given(tasks=_TASKS, seed=_PERM_SEED, keys=_KEYS)
def test_shuffle_router_matches_choose(tasks, seed, keys):
    perm = _permuted(tasks, seed)
    a = ShuffleGrouping(perm, np.random.default_rng(3))
    b = ShuffleGrouping(perm, np.random.default_rng(3))
    _assert_parity(a, b, [(k,) for k in keys])


@settings(max_examples=60, deadline=None)
@given(tasks=_TASKS, seed=_PERM_SEED, keys=_KEYS)
def test_fields_router_matches_choose_under_permutation(tasks, seed, keys):
    # Fields grouping is permutation-invariant by design (it sorts the
    # task list), so the compiled router over a *permuted* list must
    # match per-tuple dispatch over the original ordering too.
    a = FieldsGrouping(tasks, ["k"])
    b = FieldsGrouping(_permuted(tasks, seed), ["k"])
    _assert_parity(a, b, [(k,) for k in keys])


@settings(max_examples=60, deadline=None)
@given(tasks=_TASKS, seed=_PERM_SEED, keys=_KEYS)
def test_partial_key_router_matches_choose(tasks, seed, keys):
    perm = _permuted(tasks, seed)
    a = PartialKeyGrouping(perm, ["k"])
    b = PartialKeyGrouping(perm, ["k"])
    _assert_parity(a, b, [(k,) for k in keys])


@settings(max_examples=40, deadline=None)
@given(tasks=_TASKS, seed=_PERM_SEED, keys=_KEYS)
def test_static_routers_match_choose(tasks, seed, keys):
    perm = _permuted(tasks, seed)
    values_seq = [(k,) for k in keys]
    _assert_parity(GlobalGrouping(perm), GlobalGrouping(perm), values_seq)
    _assert_parity(AllGrouping(perm), AllGrouping(perm), values_seq)


@settings(max_examples=40, deadline=None)
@given(tasks=_TASKS, seed=_PERM_SEED, keys=_KEYS)
def test_local_or_shuffle_router_matches_choose(tasks, seed, keys):
    perm = _permuted(tasks, seed)
    local = perm[: max(1, len(perm) // 2)]
    a = LocalOrShuffleGrouping(perm, np.random.default_rng(5), local)
    b = LocalOrShuffleGrouping(perm, np.random.default_rng(5), local)
    _assert_parity(a, b, [(k,) for k in keys])


@settings(max_examples=40, deadline=None)
@given(tasks=_TASKS, seed=_PERM_SEED, keys=_KEYS)
def test_dynamic_router_matches_choose(tasks, seed, keys):
    # DynamicGrouping uses the base content-free fallback router; the
    # deficit-counter state must advance identically on both sides.
    perm = _permuted(tasks, seed)
    rng = np.random.default_rng(seed)
    ratios = rng.uniform(0.1, 1.0, size=len(perm))
    a = DynamicGrouping(perm, SplitRatioControl(len(perm), ratios))
    b = DynamicGrouping(perm, SplitRatioControl(len(perm), ratios))
    _assert_parity(a, b, [(k,) for k in keys])


def test_fields_router_handles_unhashable_keys():
    g = FieldsGrouping([3, 1, 2], ["k"])
    router = g.compile_router(fields=("k",), **_CTX)
    values = ([1, 2],)  # list inside the key: not memoisable
    expected = g.choose(Tuple(values=values, fields=("k",)))
    assert router(values, None) == expected
    assert router(values, None) == expected  # and again, no cache poison


def test_partial_key_router_handles_unhashable_keys():
    a = PartialKeyGrouping([3, 1, 2], ["k"])
    b = PartialKeyGrouping([3, 1, 2], ["k"])
    router = b.compile_router(fields=("k",), **_CTX)
    for _ in range(4):
        values = ([1],)
        expected = a.choose(Tuple(values=values, fields=("k",)))
        assert router(values, None) == expected


def test_fields_router_missing_field_falls_back_to_probe_path():
    g = FieldsGrouping([1, 2], ["missing"])
    router = g.compile_router(fields=("k",), **_CTX)
    with pytest.raises(KeyError, match="missing"):
        router((5,), None)


def test_direct_router_matches_choose_direct_and_errors():
    g = DirectGrouping([4, 5])
    router = g.compile_router(fields=(), **_CTX)
    assert router((1,), 5) == g.choose_direct(5) == [5]
    with pytest.raises(ValueError, match="requires emit"):
        router((1,), None)
    with pytest.raises(ValueError, match="not a consumer task"):
        router((1,), 9)


# --- executor plan lifecycle ------------------------------------------------------


class _FakeCluster:
    def __init__(self):
        self.membership_epoch = 0


def _make_executor():
    env = Environment()
    config = TopologyConfig()
    transport = Transport(env, config)
    ledger = AckLedger(env, message_timeout=30.0)
    node = Node(env, "n0")
    worker = Worker(env, 0, node)
    ex = BaseExecutor(
        env=env, task_id=1, task_index=0, component_id="c", worker=worker,
        config=config, transport=transport, ledger=ledger,
        rng=np.random.default_rng(0),
    )
    for task in (11, 12):
        transport.register(task, Store(), Worker(env, task, node))
    ex.declared_outputs = {"s": ("k",), "idle": ("k",)}
    return env, ex, transport


def test_plan_declared_but_unsubscribed_returns_no_edges():
    _env, ex, _t = _make_executor()
    assert ex.route_emission((1,), "idle", roots=()) == []
    assert ex._plans["idle"] is None  # cached empty plan


def test_plan_undeclared_stream_raises():
    _env, ex, _t = _make_executor()
    with pytest.raises(ValueError, match="undeclared stream"):
        ex.route_emission((1,), "nope", roots=())


def test_plan_recompiles_when_membership_epoch_moves():
    env, ex, transport = _make_executor()
    cluster = _FakeCluster()
    ex._cluster = cluster
    ex.outbound["s"] = [("down", AllGrouping([11]))]
    ex.route_emission((1,), "s", roots=())
    assert set(ex._plans) == {"s"}
    # Elastic rewire: consumer set changes and the epoch is bumped; the
    # stale compiled table must not keep routing to the old target.
    ex.outbound["s"] = [("down", AllGrouping([12]))]
    cluster.membership_epoch += 1
    ex.route_emission((1,), "s", roots=())
    env.run(until=1.0)
    assert transport.queues[11].level == 1
    assert transport.queues[12].level == 1


def test_plan_stale_without_epoch_bump_is_reused():
    # Control for the test above: same rewire, no epoch bump — the
    # compiled plan is (correctly) reused, so invalidation really is
    # epoch-driven rather than per-emission recompilation.
    env, ex, transport = _make_executor()
    ex._cluster = _FakeCluster()
    ex.outbound["s"] = [("down", AllGrouping([11]))]
    ex.route_emission((1,), "s", roots=())
    ex.outbound["s"] = [("down", AllGrouping([12]))]
    ex.route_emission((1,), "s", roots=())
    env.run(until=1.0)
    assert transport.queues[11].level == 2
    assert transport.queues[12].level == 0
