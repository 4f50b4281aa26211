"""Latency attribution: the bitwise exact-sum invariant and aggregation.

Property under test (the exactness contract of
:mod:`repro.obs.spans`): for every acked tuple tree whose critical path
survived the trace window, the queue/service/transit decomposition sums
to the acker-recorded latency *bitwise* — ``float`` equality with zero
tolerance — including trees that were replayed under an active
:class:`~repro.storm.MessageLossFault` (whose replay penalty is
additionally resolvable back to the first attempt's emission).
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    TraceEvent,
    attribute_forest,
    build_span_forest,
    load_trace_jsonl,
    render_folded,
    trace_to_jsonl,
)
from repro.obs.attribution import AttributionSummary
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import LatencyBreakdown, SpanForest, SpanTree, exact_sum
from repro.storm import (
    MessageLossFault,
    NodeSpec,
    SimulationBuilder,
    TopologyBuilder,
    TopologyConfig,
)
from tests.obs.test_spans import traced_sim
from tests.storm.helpers import CounterSpout, PassBolt, SinkBolt


def lossy_sim(seed: int, probability: float = 0.08, rate: float = 120.0):
    """A traced 3-stage pipeline with a mid-run message-loss fault."""
    b = TopologyBuilder()
    b.set_spout("src", CounterSpout(rate=rate))
    b.set_bolt("mid", PassBolt(), parallelism=2).shuffle_grouping("src")
    b.set_bolt("sink", SinkBolt(), parallelism=2).shuffle_grouping("mid")
    # short message timeout so lost tuples replay (and re-ack) in-window
    topo = b.build(
        "attr-loss", TopologyConfig(num_workers=2, message_timeout=5.0)
    )
    return (
        SimulationBuilder(topo)
        .nodes(NodeSpec("n0", cores=4, slots=2))
        .seed(seed)
        .faults([MessageLossFault(start=5.0, duration=15.0,
                                  probability=probability)])
        .observability(trace=True, trace_capacity=1 << 20)
        .build()
    )


def forest_of(sim):
    return build_span_forest(sim.obs.tracer.events())


# -- the exact-sum invariant -------------------------------------------------------


def test_every_acked_tree_sums_bitwise_exactly():
    sim = traced_sim(seed=1)
    sim.run(duration=20)
    forest = forest_of(sim)
    checked = 0
    for tree in forest.acked_trees():
        b = tree.breakdown()
        assert b is not None, f"root {tree.root} lost its critical path"
        assert b.sums_exactly_to(tree.latency), (
            f"root {tree.root}: {b.total()!r} != {tree.latency!r}"
        )
        checked += 1
    assert checked > 100


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_decomposition_exact_under_message_loss(seed):
    """Satellite invariant: atol=0 sums, replay subtrees included."""
    sim = lossy_sim(seed)
    sim.run(duration=35)  # past the fault + ack-timeout replays
    forest = forest_of(sim)
    assert forest.losses.get("loss", 0) > 0, "fault never dropped a tuple"
    summary = attribute_forest(forest)
    assert summary.attributed > 100
    assert summary.exact  # every record, bitwise, no epsilon
    replayed = [r for r in summary.records if r.retries > 0]
    assert replayed, "no replayed tree completed inside the window"
    for r in replayed:
        assert r.replay_known
        assert r.breakdown.replay > 0
        # end-to-end = attempt components + replay penalty, strictly
        # above the attempt latency (the penalty spans an ack timeout)
        assert r.breakdown.end_to_end() > r.latency


def test_replay_penalty_is_first_emit_gap():
    sim = lossy_sim(seed=3)
    sim.run(duration=35)
    forest = forest_of(sim)
    attempts_by_msg = forest.messages()
    checked = 0
    for tree in forest.acked_trees():
        if tree.retries == 0:
            continue
        first = [a for a in attempts_by_msg[tree.msg_id] if a.retries == 0]
        if not first:
            continue
        penalty = forest.replay_penalty(tree)
        assert penalty == (
            Fraction(tree.emit_time) - Fraction(first[0].emit_time)
        )
        checked += 1
    assert checked > 0


# -- aggregation -------------------------------------------------------------------


def test_attribute_forest_rejects_bad_interval():
    forest = forest_of_run()
    with pytest.raises(ValueError):
        attribute_forest(forest, interval=0.0)
    with pytest.raises(ValueError):
        attribute_forest(forest, interval=-1.0)


def forest_of_run(seed: int = 2, duration: float = 12.0):
    sim = traced_sim(seed=seed)
    sim.run(duration=duration)
    return forest_of(sim)


def test_shares_sum_to_one():
    summary = attribute_forest(forest_of_run())
    shares = summary.shares()
    assert set(shares) == {"queue", "service", "transit", "replay"}
    assert abs(sum(shares.values()) - 1.0) < 1e-12


def test_shares_of_a_subnormal_total_are_zero():
    summary = AttributionSummary(interval=5.0)
    summary.totals.add(queue=[1.0], service=[-1.0, 5e-324])
    assert summary.shares() == dict.fromkeys(
        ("queue", "service", "transit", "replay"), 0.0
    )


def test_per_interval_buckets_cover_every_record():
    summary = attribute_forest(forest_of_run(), interval=2.0)
    assert sum(b.count for b in summary.per_interval.values()) == (
        summary.attributed
    )
    d = summary.to_dict()
    for row in d["per_interval"]:
        assert row["t1"] == pytest.approx(row["t0"] + 2.0)
        assert row["tuples"] > 0


def test_per_component_sums_cross_check_totals():
    """Stage-level sums must telescope to the same exact totals."""
    summary = attribute_forest(forest_of_run())
    t = summary.totals
    for comp_name in ("queue", "service", "transit", "replay"):
        stage_sum = sum(
            (getattr(b, comp_name) for b in summary.per_component.values()),
            Fraction(0),
        )
        assert stage_sum == getattr(t, comp_name)


def test_publish_sets_registry_gauges():
    summary = attribute_forest(forest_of_run())
    registry = MetricsRegistry()
    summary.publish(registry)
    d = registry.to_dict()
    for comp in ("queue", "service", "transit", "replay"):
        assert d[f"attribution.{comp}_seconds"] == pytest.approx(
            float(getattr(summary.totals, comp))
        )
    assert d["attribution.trees{state=attributed}"] == summary.attributed
    assert d["attribution.trees{state=incomplete}"] == summary.incomplete
    assert 'attribution.queue_seconds{component=sink}' in d


def test_to_dict_is_byte_stable_and_render_table():
    a = attribute_forest(forest_of_run(seed=5))
    b = attribute_forest(forest_of_run(seed=5))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )
    table = a.render_table()
    assert "service" in table and "exact=True" in table
    assert f"attributed {a.attributed} trees" in table


def test_render_span_tree_marks_critical_path():
    from repro.obs import render_span_tree

    sim = traced_sim(seed=6)
    sim.run(duration=10)
    forest = forest_of(sim)
    tree = forest.acked_trees()[0]
    text = render_span_tree(tree)
    lines = text.splitlines()
    assert lines[0].startswith(f"root {tree.root} ")
    assert "[ack @" in lines[0]
    # exactly one starred hop per critical-path edge, in path order
    starred = [l for l in lines if "-*" in l]
    path = tree.critical_path()
    assert len(starred) == len(path)
    for line, hop in zip(starred, path):
        assert f"edge {hop.edge} ->" in line
    assert "(unlinked hops" not in text


def test_folded_stacks_render():
    sim = traced_sim(seed=4)
    sim.run(duration=10)
    text = render_folded(forest_of(sim))
    lines = text.splitlines()
    assert lines == sorted(lines)
    for line in lines:
        stack, value = line.rsplit(" ", 1)
        assert stack.startswith("src")
        assert int(value) > 0
    assert any(l.startswith("src;mid;sink ") for l in lines)


# -- the Fraction oracle: the per-hop rational algebra the term columns replaced ---


def oracle_breakdown(tree):
    path = tree.critical_path()
    if path is None or tree.close_time is None:
        return None
    queue = service = transit = Fraction(0)
    prev = Fraction(tree.emit_time)
    for hop in path:
        wait = Fraction(hop.wait)
        dequeue = Fraction(hop.queue_time)
        transit += (dequeue - wait) - prev
        queue += wait
        service += Fraction(hop.exec_time) - dequeue
        prev = Fraction(hop.exec_time)
    service += Fraction(tree.close_time) - prev
    return LatencyBreakdown(queue=queue, service=service, transit=transit)


def oracle_replay_penalty(forest, tree):
    if tree.retries == 0:
        return Fraction(0)
    for attempt in forest.messages().get(tree.msg_id, ()):
        if attempt.retries == 0 and attempt.emit_time is not None:
            return Fraction(tree.emit_time) - Fraction(attempt.emit_time)
    return None


def oracle_attribution(forest, interval):
    """``(totals, per_component, per_interval, exact flags)`` in rationals."""
    zero = lambda: dict(queue=Fraction(0), service=Fraction(0),  # noqa: E731
                        transit=Fraction(0), replay=Fraction(0), tuples=0)
    totals, stages, windows, exact = zero(), {}, {}, []
    for tree in forest.acked_trees():
        base = oracle_breakdown(tree)
        if base is None or tree.latency is None:
            continue
        exact.append(base.sums_exactly_to(tree.latency))
        penalty = oracle_replay_penalty(forest, tree) or Fraction(0)
        window = windows.setdefault(int(tree.close_time // interval), zero())
        for bucket in (totals, window):
            bucket["queue"] += base.queue
            bucket["service"] += base.service
            bucket["transit"] += base.transit
            bucket["replay"] += penalty
            bucket["tuples"] += 1
        path = tree.critical_path()
        prev = Fraction(tree.emit_time)
        for hop in path:
            stage = stages.setdefault(
                hop.component or f"task-{hop.dst_task}", zero())
            wait, dequeue = Fraction(hop.wait), Fraction(hop.queue_time)
            stage["transit"] += (dequeue - wait) - prev
            stage["queue"] += wait
            stage["service"] += Fraction(hop.exec_time) - dequeue
            stage["tuples"] += 1
            prev = Fraction(hop.exec_time)
        if path:
            stage["service"] += Fraction(tree.close_time) - prev
        if penalty:
            spout = tree.spout_component or f"task-{tree.spout_task}"
            stages.setdefault(spout, zero())["replay"] += penalty
    return totals, stages, windows, exact


def as_floats(bucket):
    return {k: v if k == "tuples" else float(v) for k, v in bucket.items()}


# -- the exact reducer ---------------------------------------------------------------

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False,
                   allow_subnormal=True)
tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])


@settings(max_examples=300, deadline=None)
@given(st.lists(finite | tiny, max_size=40), st.data())
def test_exact_sum_equals_the_rational_sum(xs, data):
    # heavy cancellation: negate a random subset and append it
    xs = xs + [-x for x in data.draw(st.lists(st.sampled_from(xs or [0.0])))]
    assert exact_sum(xs) == sum(map(Fraction, xs), Fraction(0))
    assert exact_sum(xs[::2], xs[1::2]) == sum(map(Fraction, xs), Fraction(0))


def test_exact_sum_of_nothing_and_of_non_finite_terms():
    assert exact_sum([]) == 0 and exact_sum() == 0
    with pytest.raises(ValueError):
        exact_sum([1.0, math.nan])
    with pytest.raises((OverflowError, ValueError)):
        exact_sum([math.inf, 1.0])


# -- synthetic forests against the oracle --------------------------------------------

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
STAGES = ("parse", "count", "sink", None)


@st.composite
def tree_events(draw, root):
    """One chain tree's events in record order (timestamps need not be
    monotone: the algebra, not the simulator, is under test)."""
    spout_task = draw(st.integers(0, 1))
    emit = draw(times)
    retries = draw(st.integers(0, 2))
    events = [TraceEvent(emit, "tuple.emit", dict(
        root=root, task=spout_task, retries=retries,
        msg_id=(spout_task, draw(st.integers(0, 3))),
        component=draw(st.sampled_from(("src", None))),
    ))]
    prev, src, edge = emit, spout_task, 0
    for i in range(draw(st.integers(0, 6))):
        edge, task = 10 * root + i + 1, 2 + i
        stage = draw(st.sampled_from(STAGES))
        dequeue, done = draw(times), draw(times)
        queue = dict(edge=edge, roots=(root,), task=task, component=stage,
                     wait=draw(st.floats(0.0, 1e3)))
        if draw(st.integers(0, 19)) == 0:
            del queue["wait"]  # a filtered trace: the tree is incomplete
        events += [
            TraceEvent(prev, "tuple.transfer", dict(
                edge=edge, roots=(root,), src_task=src, dst_task=task)),
            TraceEvent(dequeue, "tuple.queue", queue),
            TraceEvent(done, "tuple.execute", dict(
                edge=edge, roots=(root,), task=task, component=stage)),
        ]
        prev, src = done, task
    # deferred-ack hold: the close may come after the last execute, and
    # never before the emit (a run cannot record a negative latency)
    close = draw(st.sampled_from((max(prev, emit),)) | st.floats(emit, 1e6))
    if draw(st.integers(0, 9)) == 0:
        events.append(TraceEvent(close, "tuple.fail", dict(
            root=root, latency=close - emit, reason="timeout")))
    else:
        latency = close - emit
        if draw(st.integers(0, 9)) == 0:
            latency = math.nextafter(latency, math.inf)  # not exact
        events.append(TraceEvent(close, "tuple.ack", dict(
            root=root, latency=latency, edge=edge)))
    return events


@st.composite
def forests(draw):
    events = []
    for root in range(1, draw(st.integers(1, 8)) + 1):
        events += draw(tree_events(root))
    return build_span_forest(events)


@settings(max_examples=150, deadline=None)
@given(forests(), st.sampled_from((5.0, 0.37, 1e5)))
def test_attribute_forest_equals_the_fraction_oracle(forest, interval):
    summary = attribute_forest(forest, interval=interval)
    totals, stages, windows, exact = oracle_attribution(forest, interval)
    d = summary.to_dict()
    assert d["totals"] == as_floats(totals)
    assert d["per_component"] == {c: as_floats(stages[c]) for c in sorted(stages)}
    assert d["per_interval"] == [
        dict(as_floats(windows[i]), t0=i * interval, t1=(i + 1) * interval)
        for i in sorted(windows)
    ]
    components = ("queue", "service", "transit", "replay")
    total = sum(totals[c] for c in components)
    try:
        shares = {c: float(totals[c] / total) if total else 0.0 for c in components}
    except OverflowError:  # a subnormal total: no float holds the fraction
        shares = dict.fromkeys(components, 0.0)
    assert summary.shares() == d["shares"] == shares
    assert [r.exact for r in summary.records] == exact
    assert d["exact"] == all(exact)
    acked = len(forest.acked_trees())
    assert d["attributed"] == len(exact) and d["incomplete"] == acked - len(exact)
    for r in summary.records:
        tree = forest.trees[r.root]
        assert r.exact == tree.breakdown().sums_exactly_to(tree.latency)
        assert tree.breakdown() == oracle_breakdown(tree)
        penalty = oracle_replay_penalty(forest, tree)
        assert r.replay_known == (penalty is not None)
        assert r.breakdown.replay == (penalty or 0)
        assert forest.replay_penalty(tree) == penalty


# -- structure: one walk per tree, one index per forest ------------------------------


def test_attribute_forest_walks_each_tree_once(monkeypatch):
    sim = lossy_sim(seed=3)
    sim.run(duration=35)
    forest = forest_of(sim)
    calls = {"critical_path": 0, "messages": 0}
    walk, regroup = SpanTree.critical_path, SpanForest.messages

    def counted_walk(tree):
        calls["critical_path"] += 1
        return walk(tree)

    def counted_regroup(forest):
        calls["messages"] += 1
        return regroup(forest)

    monkeypatch.setattr(SpanTree, "critical_path", counted_walk)
    monkeypatch.setattr(SpanForest, "messages", counted_regroup)
    summary = attribute_forest(forest)
    assert any(r.retries for r in summary.records)
    assert calls["critical_path"] == len(forest.acked_trees())
    assert calls["messages"] <= 1
    summary.to_dict(), summary.shares(), summary.render_table()
    assert calls["critical_path"] == len(forest.acked_trees())


def test_wait_less_queue_event_counts_the_tree_incomplete():
    """Regression: a ``tuple.queue`` without ``wait`` raised ``TypeError``
    from ``Fraction(None)`` instead of marking the hop incomplete."""
    forest = build_span_forest([
        TraceEvent(1.0, "tuple.emit", dict(root=1, task=0, msg_id=(0, 1))),
        TraceEvent(1.0, "tuple.transfer", dict(
            edge=5, roots=(1,), src_task=0, dst_task=2)),
        TraceEvent(1.5, "tuple.queue", dict(edge=5, roots=(1,), task=2)),
        TraceEvent(2.0, "tuple.execute", dict(edge=5, roots=(1,), task=2)),
        TraceEvent(2.0, "tuple.ack", dict(root=1, latency=1.0, edge=5)),
    ])
    tree = forest.trees[1]
    assert tree.critical_path() is None and tree.breakdown() is None
    summary = attribute_forest(forest)
    assert (summary.attributed, summary.incomplete) == (0, 1)
    assert render_folded(forest) == ""


# -- other readers of the same traces ------------------------------------------------


def test_attribution_survives_a_jsonl_round_trip(tmp_path):
    sim = lossy_sim(seed=3)
    sim.run(duration=35)
    events = sim.obs.tracer.events()
    path = tmp_path / "trace.jsonl"
    trace_to_jsonl(events, path)
    reloaded = attribute_forest(build_span_forest(load_trace_jsonl(path)))
    in_memory = attribute_forest(build_span_forest(events))
    assert any(r.retries and r.replay_known for r in reloaded.records)
    assert reloaded.to_dict() == in_memory.to_dict()


def oracle_folded(forest):
    """``render_folded`` with the rational per-hop differences it used."""
    out = {}
    for tree in forest.acked_trees():
        path = tree.critical_path()
        if not path:
            continue
        frames = [tree.spout_component or f"task-{tree.spout_task}"]
        prev = Fraction(tree.emit_time)
        for hop in path + [None]:
            at = tree.close_time if hop is None else hop.exec_time
            if hop is not None:
                frames.append(hop.component or f"task-{hop.dst_task}")
            gap = Fraction(at) - prev
            prev = Fraction(at)
            if hop is not None or gap:
                stack = ";".join(frames)
                out[stack] = out.get(stack, 0) + int(round(float(gap) * 1e6))
    return "".join(f"{k} {out[k]}\n" for k in sorted(out))


@pytest.mark.parametrize("make, duration", [(traced_sim, 10), (lossy_sim, 35)])
def test_folded_stacks_bytes_match_the_rational_differences(make, duration):
    sim = make(seed=4)
    sim.run(duration=duration)
    forest = forest_of(sim)
    assert render_folded(forest) == oracle_folded(forest) != ""
