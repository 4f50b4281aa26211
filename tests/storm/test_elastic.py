"""Elastic worker membership: identity, conservation, and alignment.

Pins the tentpole behaviours of :mod:`repro.storm.elastic` plus the
worker-identity bug that blocked it: worker ids are permanent *names*
(``Cluster.worker_by_id``), never positions into ``cluster.workers`` —
positional indexing breaks the moment the pool shrinks or grows.
"""

import numpy as np
import pytest

from repro.core import PerformancePredictor, PredictiveController
from repro.core.config import ControllerConfig
from repro.storm import (
    Emission,
    NodeSpec,
    SimulationBuilder,
    SlowdownFault,
    TopologyBuilder,
    TopologyConfig,
)
from repro.storm.executor import SpoutExecutor
from tests.storm.helpers import CounterSpout, PassBolt, SinkBolt

NODES = tuple(
    NodeSpec(f"n{i}", cores=4, slots=2) for i in range(4)
)


class KeySpout(CounterSpout):
    """Cycles through 16 keys, so every key recurs many times."""

    def next_tuple(self):
        emission = super().next_tuple()
        return Emission(values=(self.emitted % 16,), msg_id=emission.msg_id)


class KeyedPassBolt(PassBolt):
    """Re-emits its input and remembers every key it saw."""

    def __init__(self):
        self.seen = []

    def execute(self, tup, collector):
        self.seen.append(tup[0])
        super().execute(tup, collector)


def topology(num_workers=3, rate=150.0, grouping="shuffle"):
    b = TopologyBuilder()
    if grouping == "fields":
        # a fields edge into mid and a dynamic edge out of it
        b.set_spout("src", KeySpout(rate=rate), parallelism=1)
        b.set_bolt("mid", KeyedPassBolt(), parallelism=4).fields_grouping(
            "src", ["n"]
        )
        b.set_bolt("sink", SinkBolt(), parallelism=2).dynamic_grouping("mid")
    else:
        b.set_spout("src", CounterSpout(rate=rate), parallelism=1)
        mid = b.set_bolt("mid", PassBolt(), parallelism=4)
        if grouping == "shuffle":
            mid.shuffle_grouping("src")
        elif grouping == "dynamic":
            mid.dynamic_grouping("src")
        b.set_bolt("sink", SinkBolt(), parallelism=2).shuffle_grouping("mid")
    return b.build(
        "elastic-t",
        TopologyConfig(
            num_workers=num_workers, message_timeout=5.0, max_replays=8
        ),
    )


def build_sim(num_workers=3, rate=150.0, grouping="shuffle", **kwargs):
    return (
        SimulationBuilder(topology(num_workers, rate, grouping))
        .nodes(NODES)
        .seed(11)
        .build()
    )


def accounting(sim):
    ledger = sim.cluster.ledger
    opened = sum(
        ex.trees_opened
        for ex in sim.cluster.executors.values()
        if isinstance(ex, SpoutExecutor)
    )
    return opened, ledger.acked_count, ledger.failed_count, ledger.in_flight


def assert_conserved(sim):
    opened, acked, failed, in_flight = accounting(sim)
    assert opened == acked + failed + in_flight


class TestWorkerIdentity:
    def test_worker_by_id_survives_removal(self):
        sim = build_sim()
        sim.run(5.0)
        cluster = sim.cluster
        # Remove the *middle* worker: under positional indexing every
        # id above it would now resolve to the wrong worker.
        cluster.elastic.remove_worker(1)
        assert not cluster.has_worker(1)
        assert cluster.worker_by_id(2).worker_id == 2
        assert cluster.tasks_of_worker(2) == cluster.worker_by_id(2).task_ids
        with pytest.raises(KeyError, match=r"live ids: \[0, 2\]"):
            cluster.worker_by_id(1)

    def test_new_worker_ids_are_never_reused(self):
        sim = build_sim()
        sim.run(2.0)
        cluster = sim.cluster
        cluster.elastic.remove_worker(2)
        added = cluster.elastic.add_worker()
        assert added.worker_id == 3  # not a recycled 2
        assert sorted(w.worker_id for w in cluster.workers) == [0, 1, 3]

    def test_fault_on_high_id_after_removal(self):
        # A scheduled fault targeting worker 2 must still land after a
        # lower-id worker leaves (positionally, index 2 no longer exists).
        sim = (
            SimulationBuilder(topology())
            .nodes(NODES)
            .seed(11)
            .faults(
                [SlowdownFault(start=6.0, duration=4.0, worker_id=2, factor=8.0)]
            )
            .build()
        )
        sim.run(3.0)
        sim.cluster.elastic.remove_worker(0)
        assert len(sim.cluster.workers) == 2
        sim.run(10.0)  # fault applies and reverts against worker *2*
        assert sim.cluster.worker_by_id(2).slow_factor == 1.0
        assert_conserved(sim)

    def test_membership_epoch_bumps_on_every_change(self):
        sim = build_sim()
        sim.run(1.0)
        cluster = sim.cluster
        e0 = cluster.membership_epoch
        cluster.elastic.add_worker()
        assert cluster.membership_epoch == e0 + 1
        cluster.elastic.remove_worker()
        assert cluster.membership_epoch == e0 + 2


class TestScaleOut:
    def test_scale_out_is_lossless(self):
        sim = build_sim()
        sim.run(10.0)
        _, _, failed_before, _ = accounting(sim)
        worker = sim.cluster.elastic.add_worker()
        # queues moved with the executors: nothing failed at the instant
        # of migration
        _, _, failed_after, _ = accounting(sim)
        assert failed_after == failed_before
        assert worker.executors, "rebalance moved nothing onto the newcomer"
        assert_conserved(sim)
        sim.run(10.0)
        assert_conserved(sim)
        # in-transit tuples followed the executors: the topology still
        # makes progress through the migrated tasks
        assert all(
            ex.executed_count > 0
            for ex in worker.executors
        )

    def test_scale_out_event_log(self):
        sim = build_sim()
        sim.run(2.0)
        worker = sim.cluster.elastic.add_worker()
        (event,) = sim.cluster.elastic.log
        assert event.kind == "add"
        assert event.worker_id == worker.worker_id
        assert event.moved_tasks == [ex.task_id for ex in worker.executors]

    def test_scale_out_rejects_full_node(self):
        sim = build_sim()
        sim.run(1.0)
        node = sim.cluster.workers[0].node
        while node.slots - len(node.workers) > 0:
            sim.cluster.elastic.add_worker(node)
        with pytest.raises(ValueError, match="no free slot"):
            sim.cluster.elastic.add_worker(node)


class TestScaleIn:
    def test_scale_in_drains_and_conserves(self):
        sim = build_sim()
        sim.run(10.0)
        lost = sim.cluster.elastic.remove_worker()
        assert lost >= 0
        assert len(sim.cluster.workers) == 2
        assert_conserved(sim)
        _, acked_before, _, _ = accounting(sim)
        sim.run(10.0)
        _, acked_after, _, _ = accounting(sim)
        assert acked_after > acked_before  # survivors keep processing
        assert_conserved(sim)

    def test_scale_in_refuses_last_worker(self):
        sim = build_sim(num_workers=1)
        sim.run(1.0)
        with pytest.raises(RuntimeError, match="last worker"):
            sim.cluster.elastic.remove_worker()

    def test_default_victim_is_youngest(self):
        sim = build_sim()
        sim.run(1.0)
        added = sim.cluster.elastic.add_worker()
        sim.cluster.elastic.remove_worker()
        assert not sim.cluster.has_worker(added.worker_id)
        assert sorted(w.worker_id for w in sim.cluster.workers) == [0, 1, 2]


class TestRoutingAcrossMembership:
    @staticmethod
    def _key_owners(sim, start):
        """key -> set of mid task ids that executed it, from ``start[task]``."""
        owners = {}
        for ex in sim.cluster.executors.values():
            if ex.component_id == "mid":
                for key in ex.bolt.seen[start.get(ex.task_id, 0):]:
                    owners.setdefault(key, set()).add(ex.task_id)
        return owners

    @staticmethod
    def _sink_counts(sim):
        return [
            sim.cluster.executors[t].executed_count
            for t in sim.cluster.topology.task_ids["sink"]
        ]

    def test_routing_survives_membership_changes_without_recompile(self):
        sim = build_sim(grouping="fields")
        sim.run(5.0)
        before = self._key_owners(sim, {})
        mark = {
            ex.task_id: len(ex.bolt.seen)
            for ex in sim.cluster.executors.values()
            if ex.component_id == "mid"
        }
        sim.cluster.elastic.add_worker()
        sim.run(5.0)
        sim.cluster.elastic.remove_worker()
        sim.run(5.0)
        after = self._key_owners(sim, mark)
        # every key keeps its one task across the scale-out and scale-in
        assert set(before) == set(after) == set(range(16))
        assert all(len(tasks) == 1 for tasks in before.values())
        assert after == before
        # a re-split requested after the scale-in still reaches every emitter
        sim.cluster.set_split_ratios("mid", "sink", [0.8, 0.2])
        counts0 = self._sink_counts(sim)
        sim.run(15.0)
        delta = np.subtract(self._sink_counts(sim), counts0)
        assert delta.sum() > 1000
        assert delta[0] / delta.sum() == pytest.approx(0.8, abs=0.02)
        assert_conserved(sim)


class TestMonitorAlignment:
    def _controlled_sim(self):
        sim = (
            SimulationBuilder(topology(grouping="dynamic"))
            .nodes(NODES)
            .seed(11)
            .controller(
                PredictiveController(
                    PerformancePredictor(None, window=3),
                    ControllerConfig(control_interval=2.0, window=3),
                )
            )
            .build()
        )
        return sim, sim.controller

    def test_feature_matrices_stay_aligned_across_epoch(self):
        sim, controller = self._controlled_sim()
        sim.run(10.0)
        monitor = controller.monitor
        n_before = monitor.n_intervals
        added = sim.cluster.elastic.add_worker()
        sim.run(10.0)
        # every row — pre-existing and added — spans every interval
        for wid in [0, 1, 2, added.worker_id]:
            F = monitor.feature_matrix(wid)
            y = monitor.target_series(wid)
            assert F.shape[0] == monitor.n_intervals
            assert y.shape[0] == monitor.n_intervals
        # the newcomer's pre-join history is zero padding
        F_new = monitor.feature_matrix(added.worker_id)
        assert not F_new[: n_before].any()
        assert F_new[n_before + 1 :].any()
        assert added.worker_id in monitor.worker_ids

    def test_departed_worker_goes_inactive_not_deleted(self):
        sim, controller = self._controlled_sim()
        sim.run(10.0)
        monitor = controller.monitor
        sim.cluster.elastic.remove_worker(2)
        sim.run(10.0)
        assert 2 not in monitor.worker_ids
        assert 2 not in monitor.latest_backlogs()
        assert 2 not in monitor.latest_latencies()
        # ...but its row still spans all intervals (alignment) and its
        # post-departure tail is zero-padded features
        F = monitor.feature_matrix(2)
        assert F.shape[0] == monitor.n_intervals
        assert not F[-3:].any()
        # training windows never cross into the padded tail
        X, y = monitor.pooled_training_data(window=2)
        assert np.isfinite(X).all() and np.isfinite(y).all()

    def test_controller_replans_over_new_membership(self):
        sim, controller = self._controlled_sim()
        sim.run(10.0)
        added = sim.cluster.elastic.add_worker()
        sim.run(10.0)
        assert controller._task_worker == {
            task_id: ex.worker.worker_id
            for task_id, ex in sim.cluster.executors.items()
        }
        assert any(
            ex.worker.worker_id == added.worker_id
            for ex in sim.cluster.executors.values()
        )
        assert_conserved(sim)


class TestControlActionCopy:
    def test_recorded_crash_set_does_not_alias_caller(self):
        sim, controller = TestMonitorAlignment()._controlled_sim()
        sim.run(4.0)
        crashed = {1}
        controller._plan_and_apply(sim.env.now, {}, set(), crashed)
        action = controller.actions[-1]
        crashed.add(2)  # caller keeps mutating its own set
        assert action.crashed == {1}
        assert action.crashed is not crashed


class TestAdmissionControl:
    def test_admission_rate_throttles_spouts(self):
        fast = build_sim(rate=200.0)
        fast.run(10.0)
        opened_full, *_ = accounting(fast)

        throttled = build_sim(rate=200.0)
        throttled.cluster.set_admission_rate(0.5)
        assert throttled.cluster.admission_rate() == 0.5
        throttled.run(10.0)
        opened_half, *_ = accounting(throttled)
        assert opened_half < 0.7 * opened_full

    def test_admission_rate_validates(self):
        sim = build_sim()
        with pytest.raises(ValueError):
            sim.cluster.set_admission_rate(0.0)
        with pytest.raises(ValueError):
            sim.cluster.set_admission_rate(1.5)

    def test_full_rate_is_bitwise_noop(self):
        a = build_sim()
        a.run(15.0)
        b = build_sim()
        b.cluster.set_admission_rate(1.0)
        b.run(15.0)
        assert accounting(a) == accounting(b)
