"""Zero-cost-when-disabled guarantees of the observability layer.

The structural checks pin the mechanism (disabled handles are literally
``None`` everywhere they are threaded); the timing check guards against
gross regressions of the disabled-path overhead.  The precise <2%
criterion on E10 is measured by the benchmark suite, not here — a unit
test asserting a tight wall-clock margin would be flaky on loaded CI
machines, so this one uses a generous bound.
"""

import time

from repro.apps import RateProfile, build_url_count_topology
from repro.core import ControllerConfig, PerformancePredictor, PredictiveController
from repro.storm import SimulationBuilder


def build_sim(trace: bool, metrics: bool = False, controller: bool = False):
    topo = build_url_count_topology(profile=RateProfile(base=150.0))
    builder = SimulationBuilder(topo).seed(2)
    if trace or metrics:
        builder.observability(trace=trace, metrics=metrics)
    if controller:
        builder.controller(PredictiveController(
            PerformancePredictor(None, window=3),
            ControllerConfig(control_interval=5.0, window=3),
        ))
    return builder.build()


def test_disabled_observability_threads_none_everywhere():
    sim = build_sim(trace=False)
    assert sim.obs.tracer is None
    assert sim.obs.profiler is None
    assert sim.cluster.tracer is None
    assert sim.cluster.ledger.tracer is None
    assert sim.cluster.transport.tracer is None
    assert sim.fault_injector.tracer is None
    for ex in sim.cluster.executors.values():
        assert ex.tracer is None


def test_enabled_observability_threads_one_shared_tracer():
    sim = build_sim(trace=True)
    tr = sim.obs.tracer
    assert tr is not None
    assert sim.cluster.tracer is tr
    assert sim.cluster.ledger.tracer is tr
    assert sim.cluster.transport.tracer is tr
    for ex in sim.cluster.executors.values():
        assert ex.tracer is tr


def test_disabled_metrics_threads_none_everywhere():
    sim = build_sim(trace=False, metrics=False, controller=True)
    assert sim.obs.metrics is None
    assert sim.cluster.metrics is None
    assert sim.cluster.ledger.metrics is None
    assert sim.cluster.ledger._m_latency is None
    for ex in sim.cluster.executors.values():
        assert ex.metrics is None
    ctrl = sim.controller
    assert ctrl is not None
    sim.run(duration=6)  # _bind ran; handles must stay None
    assert ctrl._m_decisions is None
    assert ctrl._m_applies is None
    assert ctrl._step_wall is None


def test_enabled_metrics_threads_one_shared_registry():
    sim = build_sim(trace=False, metrics=True, controller=True)
    reg = sim.obs.metrics
    assert reg is not None
    assert sim.cluster.metrics is reg
    assert sim.cluster.ledger.metrics is reg
    for ex in sim.cluster.executors.values():
        assert ex.metrics is reg
    result = sim.run(duration=20)
    assert sim.controller._m_decisions is reg.get("controller.decisions")
    # the instruments agree with the simulation's own accounting: the
    # data plane's counts are read through pull counters, not re-counted
    transport = sim.cluster.transport
    assert reg.get("tuple.acked").value == result.acked > 0
    assert reg.get("transport.sent").value == transport.sent_count > 0
    assert reg.get("transport.lost", reason="crash").value == 0
    executed = sum(
        ex.executed_count
        for ex in sim.cluster.executors.values()
        if ex.component_id == "count"
    )
    assert reg.get("bolt.executed", component="count").value == executed > 0
    assert reg.get("tuple.complete_latency_seconds").count == result.acked
    assert reg.get("des.events_scheduled").read() > 0


def test_observability_does_not_change_the_schedule():
    # Tracing and metrics only read; a traced run must schedule exactly
    # the events of the plain run (at the parent commit the traced data
    # plane scheduled one extra put event per delivered tuple).
    plain = build_sim(trace=False)
    observed = build_sim(trace=True, metrics=True)
    plain_result = plain.run(duration=30)
    observed_result = observed.run(duration=30)
    assert observed_result.acked == plain_result.acked > 0
    assert observed.env.scheduled_count == plain.env.scheduled_count


def test_disabled_tracer_wall_time_overhead_is_small():
    # Warm both paths once (imports, JIT-ish caches), then time.
    build_sim(trace=False).run(duration=2)

    t0 = time.perf_counter()
    plain = build_sim(trace=False)
    plain.run(duration=30)
    plain_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    traced = build_sim(trace=True)
    traced.run(duration=30)
    traced_wall = time.perf_counter() - t0

    assert traced.obs.tracer.total_recorded > 1000
    # Disabled-path runtime must stay in the same ballpark as the traced
    # run minus its recording cost; 50% headroom absorbs CI noise while
    # still catching an accidentally hot disabled path (e.g. building
    # event dicts before the None check).
    assert plain_wall < traced_wall * 1.5
