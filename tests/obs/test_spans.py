"""Span-tree integrity of traced runs.

Property under test: in a traced simulation, every tuple tree whose root
span was opened (``tuple.emit``) and that the ack ledger has resolved is
closed by *exactly one* terminal event (``tuple.ack`` or ``tuple.fail``),
and the open precedes the close in simulation time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    TUPLE_ACK,
    TUPLE_CLOSE_KINDS,
    TUPLE_EMIT,
    Tracer,
    attribute_forest,
    build_span_forest,
    group_tuple_spans,
    load_trace_jsonl,
    render_folded,
    trace_to_jsonl,
)
from repro.storm import (
    MessageLossFault,
    NodeSpec,
    SimulationBuilder,
    TopologyBuilder,
    TopologyConfig,
    WorkerCrashFault,
)
from tests.storm.helpers import CounterSpout, PassBolt, SinkBolt, SlowBolt


def traced_sim(seed: int, rate: float = 120.0):
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=rate))
    b.set_bolt("mid", PassBolt(), parallelism=2).shuffle_grouping("src")
    b.set_bolt("sink", SinkBolt(), parallelism=2).shuffle_grouping("mid")
    topo = b.build("spans", TopologyConfig(num_workers=2))
    return (
        SimulationBuilder(topo)
        .nodes(NodeSpec("n0", cores=4, slots=2))
        .seed(seed)
        .observability(trace=True)
        .build()
    )


def all_kinds_sim(seed: int = 5):
    """A traced chaos run that records all ten lifecycle kinds.

    Message loss and a worker crash give ``loss`` (both reasons), ``fail``
    and ``replay``; ``max_replays=1`` turns second failures into ``drop``;
    the shed overflow policy on small queues gives ``shed``.
    """
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=300))
    b.set_bolt("mid", PassBolt(), parallelism=2).shuffle_grouping("src")
    b.set_bolt("sink", SlowBolt(cost=0.004), parallelism=2).shuffle_grouping("mid")
    topo = b.build("all-kinds", TopologyConfig(
        num_workers=3, message_timeout=2.0, max_replays=1,
        executor_queue_capacity=8, overflow_policy="shed",
    ))
    return (
        SimulationBuilder(topo)
        .nodes(NodeSpec("n0", cores=4, slots=2), NodeSpec("n1", cores=4, slots=2))
        .seed(seed)
        .faults([
            MessageLossFault(start=1.0, duration=6.0, probability=0.3),
            WorkerCrashFault(start=2.0, duration=2.0, worker_id=1),
        ])
        .observability(trace=True, trace_capacity=1 << 20)
        .build()
    )


def check_span_integrity(sim):
    tracer = sim.obs.tracer
    spans = group_tuple_spans(tracer.events())
    ledger = sim.cluster.ledger
    open_roots = set(ledger._trees)  # still in flight at end of run
    checked = 0
    for root, events in spans.items():
        closes = [e for e in events if e.kind in TUPLE_CLOSE_KINDS]
        opens = [e for e in events if e.kind == TUPLE_EMIT]
        if root in open_roots:
            assert len(closes) == 0, f"in-flight root {root} has a close"
            continue
        if not opens:
            continue  # opened before the ring buffer window — unverifiable
        assert len(opens) == 1, f"root {root} opened {len(opens)} times"
        assert len(closes) == 1, (
            f"resolved root {root} closed by {len(closes)} events: "
            f"{[e.kind for e in closes]}"
        )
        assert opens[0].time <= closes[0].time
        checked += 1
    return checked


def test_every_emit_closed_exactly_once():
    sim = traced_sim(seed=1)
    sim.run(duration=20)
    assert check_span_integrity(sim) > 100


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_span_integrity_across_seeds(seed):
    sim = traced_sim(seed=seed, rate=60.0)
    sim.run(duration=8)
    assert check_span_integrity(sim) > 10


def test_span_integrity_survives_segmented_runs():
    sim = traced_sim(seed=3)
    sim.run(duration=5)
    sim.run(duration=5)
    assert check_span_integrity(sim) > 50


def test_typed_and_keyword_records_build_identical_outputs(tmp_path):
    sim = all_kinds_sim()
    sim.run(duration=10)
    typed = sim.obs.tracer
    keyword = Tracer(capacity=typed.capacity)
    for e in typed.events():
        keyword.record(e.time, e.kind, **e.fields)
    assert keyword.events() == typed.events()
    outputs = []
    for tracer in (typed, keyword):
        forest = build_span_forest(tracer.records())
        path = tmp_path / f"trace-{len(outputs)}.jsonl"
        trace_to_jsonl(tracer.events(), path)
        outputs.append((
            attribute_forest(forest).to_dict(),
            render_folded(forest),
            path.read_bytes(),
        ))
    assert outputs[0] == outputs[1]
    assert outputs[0][1] != ""
    # the view-based path reads the same forest as the raw ring
    views = attribute_forest(build_span_forest(typed.events())).to_dict()
    assert views == outputs[0][0]


def test_reloaded_orphan_close_keeps_msg_ids_hashable(tmp_path):
    """Regression: a reloaded close whose emit left the ring kept its
    JSON-list ``msg_id``, and ``messages()`` raised ``TypeError``."""
    tr = Tracer(capacity=2)
    for root in (1, 2):
        tr.record(float(root), TUPLE_EMIT, root=root, msg_id=(0, root),
                  task=0, component="src", retries=0)
    tr.record(3.0, TUPLE_ACK, root=1, msg_id=(0, 1), spout_task=0,
              latency=2.0, edge=0)
    path = tmp_path / "trace.jsonl"
    trace_to_jsonl(tr.events(), path)
    for events in (tr.events(), load_trace_jsonl(path)):
        forest = build_span_forest(events)
        assert forest.orphan_events == 1
        assert set(forest.messages()) == {(0, 1), (0, 2)}
