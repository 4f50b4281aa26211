"""Export round-trips and the traced-run acceptance path (E5-style)."""

import csv
import json

import pytest

from repro.core import ControllerConfig, PerformancePredictor, PredictiveController
from repro.obs import (
    CONTROL_APPLY,
    CONTROL_DECISION,
    load_snapshots_jsonl,
    load_trace_jsonl,
    render_live_summary,
    snapshots_to_csv,
    snapshots_to_jsonl,
    summary_to_json,
    trace_to_jsonl,
)
from repro.storm import (
    NodeSpec,
    SimulationBuilder,
    SlowdownFault,
    TopologyBuilder,
    TopologyConfig,
)
from tests.storm.helpers import CounterSpout, SinkBolt


def small_traced_sim(seed=0, controller=False, faults=()):
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=150.0))
    grouping = b.set_bolt("sink", SinkBolt(), parallelism=4)
    if controller:
        grouping.dynamic_grouping("src")
    else:
        grouping.shuffle_grouping("src")
    topo = b.build("exp", TopologyConfig(num_workers=4))
    builder = (
        SimulationBuilder(topo)
        .nodes(NodeSpec("a", cores=4, slots=2), NodeSpec("b", cores=4, slots=2))
        .seed(seed)
        .faults(list(faults))
        .observability(trace=True)
    )
    if controller:
        builder.controller(PredictiveController(
            PerformancePredictor(None, window=3),
            ControllerConfig(control_interval=5.0, window=3),
        ))
    return builder.build()


def test_trace_jsonl_round_trip(tmp_path):
    sim = small_traced_sim()
    sim.run(duration=10)
    path = tmp_path / "trace.jsonl"
    events = sim.obs.tracer.events()
    n = trace_to_jsonl(events, path)
    assert n == len(events) > 0
    loaded = load_trace_jsonl(path)
    assert len(loaded) == len(events)
    for orig, back in zip(events, loaded):
        assert back.time == pytest.approx(orig.time)
        assert back.kind == orig.kind
    # spot-check payload fidelity on an emit event
    emits = [e for e in loaded if e.kind == "tuple.emit"]
    assert emits and isinstance(emits[0].get("root"), int)


def test_trace_jsonl_empty_round_trip(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert trace_to_jsonl([], path) == 0
    assert path.exists()
    assert path.read_text() == ""
    assert load_trace_jsonl(path) == []


def test_trace_jsonl_payload_equality(tmp_path):
    """Every field survives the JSON round-trip, not just time/kind."""
    from repro.obs import Tracer

    tr = Tracer()
    tr.record(0.25, "tuple.emit", root=11, task=2)
    tr.record(0.75, "tuple.transfer", roots=[11], src=2, dst=5)
    tr.record(1.5, "control.apply", ratios=[0.5, 0.25, 0.25])
    path = tmp_path / "t.jsonl"
    trace_to_jsonl(tr.events(), path)
    loaded = load_trace_jsonl(path)
    assert len(loaded) == 3
    for orig, back in zip(tr.events(), loaded):
        assert back.time == orig.time
        assert back.kind == orig.kind
        assert back.fields == orig.fields


def test_snapshots_jsonl_empty_round_trip(tmp_path):
    path = tmp_path / "empty-snaps.jsonl"
    assert snapshots_to_jsonl([], path) == 0
    assert load_snapshots_jsonl(path) == []


def test_snapshots_jsonl_round_trip(tmp_path):
    sim = small_traced_sim()
    res = sim.run(duration=10)
    path = tmp_path / "snaps.jsonl"
    n = snapshots_to_jsonl(res.snapshots, path)
    assert n == len(res.snapshots) > 0
    loaded = load_snapshots_jsonl(path)
    assert len(loaded) == len(res.snapshots)
    for orig, back in zip(res.snapshots, loaded):
        assert back.time == pytest.approx(orig.time)
        assert back.topology.acked == orig.topology.acked
        assert set(back.workers) == set(orig.workers)  # int keys restored
        for wid in orig.workers:
            assert back.workers[wid].executed == orig.workers[wid].executed


def test_snapshots_csv_levels(tmp_path):
    sim = small_traced_sim()
    res = sim.run(duration=5)
    for level in ("topology", "node", "worker", "executor"):
        path = tmp_path / f"{level}.csv"
        n = snapshots_to_csv(res.snapshots, path, level=level)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == n + 1  # header + data
        assert rows[0][0] == "time"
    with pytest.raises(ValueError):
        snapshots_to_csv(res.snapshots, tmp_path / "x.csv", level="galaxy")


def test_summary_json_and_live_render(tmp_path):
    sim = small_traced_sim()
    res = sim.run(duration=5)
    path = tmp_path / "summary.json"
    summary_to_json(res.summary(), path)
    loaded = json.loads(path.read_text())
    assert loaded["acked"] == res.acked
    assert loaded["duration"] == 5
    text = render_live_summary(res.snapshots)
    assert "thr (t/s)" in text
    assert len(text.splitlines()) <= 2 + 10
    assert render_live_summary([]) == "(no snapshots yet)"


def test_traced_controlled_run_exports_decisions(tmp_path):
    """Acceptance: a traced faulty run exports tuple-lifecycle spans AND
    controller decision records carrying the applied split ratios."""
    fault = SlowdownFault(start=15, duration=20, worker_id=1, factor=10)
    sim = small_traced_sim(seed=5, controller=True, faults=[fault])
    sim.run(duration=45)
    path = tmp_path / "run.jsonl"
    trace_to_jsonl(sim.obs.tracer.events(), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = {r["kind"] for r in rows}
    for expected in ("tuple.emit", "tuple.transfer", "tuple.queue",
                     "tuple.execute", "tuple.ack"):
        assert expected in kinds, f"missing {expected} in exported trace"
    decisions = [r for r in rows if r["kind"] == CONTROL_DECISION]
    assert decisions, "no controller decision records in export"
    assert "predictions" in decisions[-1] and "flagged" in decisions[-1]
    applies = [r for r in rows if r["kind"] == CONTROL_APPLY]
    assert applies, "no apply records with split ratios"
    ratios = applies[-1]["ratios"]
    assert len(ratios) == 4
    assert sum(ratios) == pytest.approx(1.0, abs=1e-6)
