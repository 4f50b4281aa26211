"""Compiled routing tables must be element-equal to the reference policy.

The emit hot path routes through closures compiled once per
``(source_task, stream)`` (:meth:`Grouping.compile_router`), the one
implementation of each grouping.  The contract is that for any tuple
sequence and any permutation of the consumer task list, the compiled
router returns exactly the task ids the per-tuple oracle in
:mod:`tests.storm.grouping_oracle` returns — including stateful strategies
(shuffle cursors, dynamic deficit counters) and content-dependent ones
(fields hashing, unhashable keys, equal-but-distinct keys).  A second set
of tests pins the executor-side plan lifecycle: lazy compilation, the
declared-but-unsubscribed empty plan, the undeclared-stream error, and
one compilation per stream that survives membership changes.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Store
from repro.storm import NodeSpec, SimulationBuilder, TopologyBuilder
from repro.storm.acker import AckLedger
from repro.storm.executor import BaseExecutor, Transport
from repro.storm.grouping import (
    DynamicGrouping,
    FieldsGrouping,
    GlobalGrouping,
    ShuffleGrouping,
    SplitRatioControl,
)
from repro.storm.node import Node
from repro.storm.topology import TopologyConfig
from repro.storm.worker import Worker
from tests.storm.helpers import CounterSpout, PassBolt, SinkBolt
from tests.storm.grouping_oracle import (
    DynamicOracle,
    FieldsOracle,
    GlobalOracle,
    ShuffleOracle,
)

# Unique task-id lists plus a permutation seed: every property runs the
# compiled router against the oracle on an arbitrary ordering of the
# same task set.
_TASKS = st.lists(
    st.integers(min_value=0, max_value=60), min_size=1, max_size=7,
    unique=True,
)
_PERM_SEED = st.integers(min_value=0, max_value=2**31 - 1)
# Mixed int/float/bool keys and signed zeros: values that compare equal
# (1 == 1.0 == True, 0.0 == -0.0) but hash to different tasks.
_KEYS = st.lists(
    st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.text(max_size=2),
        st.booleans(),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(min_value=-4, max_value=4, allow_nan=False),
    ),
    max_size=30,
)

_CTX = dict(stream="s", source_component="c", source_task=1)


def _permuted(tasks, seed):
    rng = np.random.default_rng(seed)
    return [tasks[i] for i in rng.permutation(len(tasks))]


def _assert_parity(oracle, grouping, values_seq, fields=("k",)):
    """Drive the oracle and the compiled router side by side."""
    router = grouping.compile_router(fields=fields, **_CTX)
    for values in values_seq:
        assert router(values) == oracle.choose(values)


@settings(max_examples=60, deadline=None)
@given(tasks=_TASKS, seed=_PERM_SEED, keys=_KEYS)
def test_shuffle_router_matches_choose(tasks, seed, keys):
    perm = _permuted(tasks, seed)
    _assert_parity(
        ShuffleOracle(perm, np.random.default_rng(3)),
        ShuffleGrouping(perm, np.random.default_rng(3)),
        [(k,) for k in keys],
    )


@settings(max_examples=60, deadline=None)
@given(tasks=_TASKS, seed=_PERM_SEED, keys=_KEYS)
def test_fields_router_matches_choose_under_permutation(tasks, seed, keys):
    # Fields grouping is permutation-invariant by design (it sorts the
    # task list), so the compiled router over a *permuted* list must
    # match the oracle over the original ordering too.
    _assert_parity(
        FieldsOracle(tasks, ["k"], ("k",)),
        FieldsGrouping(_permuted(tasks, seed), ["k"]),
        [(k,) for k in keys],
    )


@settings(max_examples=40, deadline=None)
@given(tasks=_TASKS, seed=_PERM_SEED, keys=_KEYS)
def test_static_routers_match_choose(tasks, seed, keys):
    perm = _permuted(tasks, seed)
    _assert_parity(GlobalOracle(perm), GlobalGrouping(perm), [(k,) for k in keys])


@settings(max_examples=40, deadline=None)
@given(tasks=_TASKS, seed=_PERM_SEED, keys=_KEYS)
def test_dynamic_router_matches_choose(tasks, seed, keys):
    perm = _permuted(tasks, seed)
    rng = np.random.default_rng(seed)
    control = SplitRatioControl(len(perm), rng.uniform(0.1, 1.0, size=len(perm)))
    _assert_parity(
        DynamicOracle(perm, control),
        DynamicGrouping(perm, control),
        [(k,) for k in keys],
    )


def test_fields_router_handles_unhashable_keys():
    g = FieldsGrouping([3, 1, 2], ["k"])
    router = g.compile_router(fields=("k",), **_CTX)
    values = ([1, 2],)  # list inside the key: memoised by its repr
    expected = FieldsOracle([3, 1, 2], ["k"], ("k",)).choose(values)
    assert router(values) == expected
    assert router(values) == expected  # and again, no cache poison


@pytest.mark.parametrize(
    "keys", [[1, 1.0, True], [0.0, -0.0], [(1,), (1.0,), (True,)]]
)
def test_fields_router_separates_equal_but_distinct_keys(keys):
    # Keys that compare equal but print differently hash to different
    # tasks; a memo keyed on the key itself would route every one of
    # them to wherever the first arrival went.
    tasks = list(range(8))
    oracle = FieldsOracle(tasks, ["k"], ("k",))
    for order in (keys, keys[::-1]):
        router = FieldsGrouping(tasks, ["k"]).compile_router(
            fields=("k",), **_CTX
        )
        for key in order:
            assert router((key,)) == oracle.choose((key,))


# --- executor plan lifecycle ------------------------------------------------------


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


def test_plan_compiled_once_and_reused_across_epoch_bump(monkeypatch):
    # Each executor compiles a stream's plan on first emission and never
    # again: elastic add/remove moves executors, but task ids stay put.
    compiles = Counter()
    compile_plan = BaseExecutor._compile_plan

    def counting(self, stream):
        compiles[self.task_id, stream] += 1
        return compile_plan(self, stream)

    monkeypatch.setattr(BaseExecutor, "_compile_plan", counting)
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=100.0))
    b.set_bolt("mid", PassBolt(), parallelism=3).shuffle_grouping("src")
    b.set_bolt("sink", SinkBolt(), parallelism=2).fields_grouping("mid", ["n"])
    sim = (
        SimulationBuilder(b.build("plans", TopologyConfig(num_workers=2)))
        .nodes([NodeSpec(f"n{i}", cores=4, slots=2) for i in range(2)])
        .seed(3)
        .build()
    )
    sim.run(3.0)
    compiled = dict(compiles)
    assert set(compiled.values()) == {1} and len(compiled) == 4
    epoch = sim.cluster.membership_epoch
    sim.cluster.elastic.add_worker()
    sim.run(2.0)
    sim.cluster.elastic.remove_worker()
    sim.run(3.0)
    assert sim.cluster.membership_epoch == epoch + 2
    assert dict(compiles) == compiled
