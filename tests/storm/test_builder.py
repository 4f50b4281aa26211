"""The fluent SimulationBuilder and the explicit attach() contract."""

import numpy as np
import pytest

from repro.core import ControllerConfig, PerformancePredictor, PredictiveController
from repro.obs import ObservabilityConfig
from repro.storm import (
    NodeSpec,
    Series,
    SimulationBuilder,
    SlowdownFault,
    StormSimulation,
    TopologyBuilder,
    TopologyConfig,
)
from tests.storm.helpers import CounterSpout, SinkBolt


def make_topology(dynamic=False, workers=1):
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=100.0))
    bolt = b.set_bolt("sink", SinkBolt(), parallelism=max(workers, 1))
    if dynamic:
        bolt.dynamic_grouping("src")
    else:
        bolt.shuffle_grouping("src")
    return b.build("b", TopologyConfig(num_workers=workers))


def test_builder_chain_and_defaults():
    sim = (
        SimulationBuilder(make_topology())
        .nodes(NodeSpec("n0", cores=2, slots=1))
        .seed(5)
        .metrics_interval(0.5)
        .build()
    )
    assert isinstance(sim, StormSimulation)
    res = sim.run(duration=4)
    assert res.acked > 0
    assert len(res.snapshots) == 8  # 0.5 s metrics interval


def test_builder_is_idempotent():
    builder = SimulationBuilder(make_topology()).nodes(
        NodeSpec("n0", cores=2, slots=1)
    )
    assert builder.build() is builder.build()


def test_builder_validates_inputs():
    builder = SimulationBuilder(make_topology())
    with pytest.raises(ValueError):
        builder.nodes()
    with pytest.raises(TypeError):
        builder.nodes("not-a-node-spec")
    with pytest.raises(ValueError):
        builder.metrics_interval(0)


def test_builder_run_shortcut():
    res = (
        SimulationBuilder(make_topology())
        .nodes(NodeSpec("n0", cores=2, slots=1))
        .run(duration=3)
    )
    assert res.acked > 0


def test_builder_accepts_detached_controller():
    ctrl = PredictiveController(
        PerformancePredictor(None, window=3),
        ControllerConfig(control_interval=2.0, window=3),
    )
    assert not ctrl.attached
    sim = (
        SimulationBuilder(make_topology(dynamic=True, workers=4))
        .controller(ctrl)
        .build()
    )
    assert sim.controller is ctrl
    assert ctrl.attached


def test_builder_rejects_options_with_ready_controller():
    # one attach form: a built controller, never a predictor plus options
    ctrl = PredictiveController(PerformancePredictor(None, window=3))
    builder = SimulationBuilder(make_topology(dynamic=True))
    with pytest.raises(TypeError):
        builder.controller(ctrl, ControllerConfig())
    with pytest.raises(TypeError, match="PredictiveController"):
        builder.controller(PerformancePredictor(None, window=3))


def test_builder_observability_flags():
    sim = (
        SimulationBuilder(make_topology())
        .nodes(NodeSpec("n0", cores=2, slots=1))
        .observability(trace=True, profile=True, trace_capacity=128)
        .build()
    )
    assert sim.obs.tracer is not None
    assert sim.obs.tracer.capacity == 128
    assert sim.obs.profiler is not None


def test_builder_observability_config_object():
    cfg = ObservabilityConfig(trace=True)
    sim = (
        SimulationBuilder(make_topology())
        .nodes(NodeSpec("n0", cores=2, slots=1))
        .observability(cfg)
        .build()
    )
    assert sim.obs.config is cfg


def test_removed_selector_options_are_rejected(capsys):
    """One event queue, one data plane: nothing is left to select."""
    from repro.__main__ import main

    with pytest.raises(TypeError):
        TopologyConfig(data_plane="pertuple")
    assert not hasattr(SimulationBuilder(make_topology()), "scheduler")
    with pytest.raises(SystemExit) as exc_info:
        main(["chaos", "--scheduler", "wheel"])
    assert exc_info.value.code == 2
    assert "--scheduler" in capsys.readouterr().err


# -- explicit attachment ------------------------------------------------------------


def test_attach_after_run_raises_clear_error():
    sim = (
        SimulationBuilder(make_topology(dynamic=True, workers=4))
        .build()
    )
    sim.run(duration=2)
    ctrl = PredictiveController(PerformancePredictor(None, window=3))
    with pytest.raises(RuntimeError, match="after run"):
        sim.attach(ctrl)


def test_double_attach_rejected():
    ctrl = PredictiveController(PerformancePredictor(None, window=3))
    SimulationBuilder(make_topology(dynamic=True, workers=4)).controller(
        ctrl
    ).build()
    other = SimulationBuilder(make_topology(dynamic=True, workers=4)).build()
    with pytest.raises(RuntimeError, match="already attached"):
        other.attach(ctrl)


def test_controller_requires_predictor():
    with pytest.raises(TypeError, match="PerformancePredictor"):
        PredictiveController("nope")
    # the old implicit-attach form (sim, predictor, ...) is gone
    sim = SimulationBuilder(make_topology(dynamic=True, workers=4)).build()
    with pytest.raises(TypeError, match="PerformancePredictor"):
        PredictiveController(sim, PerformancePredictor(None, window=3))


# -- Series & summaries ---------------------------------------------------------------


def test_series_named_fields_and_tuple_compat():
    sim = (
        SimulationBuilder(make_topology())
        .nodes(NodeSpec("n0", cores=2, slots=1))
        .build()
    )
    res = sim.run(duration=4)
    series = res.throughput_series()
    assert isinstance(series, Series)
    assert series.t.shape == series.y.shape
    t, y = series  # old 2-tuple unpacking keeps working
    assert np.array_equal(t, series.t)
    assert np.array_equal(y, series.y)


def test_result_summary_is_flat_dict():
    sim = (
        SimulationBuilder(make_topology())
        .nodes(NodeSpec("n0", cores=2, slots=1))
        .build()
    )
    res = sim.run(duration=4)
    summary = res.summary()
    expected = {
        "start_time", "duration", "acked", "failed", "dropped", "lost",
        "snapshots", "mean_throughput", "mean_complete_latency",
        "p50_complete_latency", "p99_complete_latency",
    }
    assert set(summary) == expected
    assert all(np.isscalar(v) for v in summary.values())
    assert summary["acked"] == res.acked


def test_segmented_runs_report_per_segment_results():
    # Regression: run() used to return cumulative counters/snapshots.
    sim = (
        SimulationBuilder(make_topology())
        .nodes(NodeSpec("n0", cores=2, slots=1))
        .build()
    )
    r1 = sim.run(duration=5)
    r2 = sim.run(duration=5)
    r3 = sim.run(duration=5)
    assert [r.start_time for r in (r1, r2, r3)] == [0.0, 5.0, 10.0]
    assert len(r1.snapshots) == len(r2.snapshots) == len(r3.snapshots) == 5
    assert min(s.time for s in r3.snapshots) > 10.0
    total = sim.cluster.ledger.acked_count
    assert r1.acked + r2.acked + r3.acked == total
    # Latency arrays are per-segment, not cumulative.
    assert r1.complete_latencies.size + r2.complete_latencies.size \
        + r3.complete_latencies.size == total
