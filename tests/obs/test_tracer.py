"""Unit tests for the structured event tracer."""

import gc

import pytest

from repro.obs import (
    Observability,
    ObservabilityConfig,
    Tracer,
    TUPLE_ACK,
    TUPLE_EMIT,
    TUPLE_TRANSFER,
    group_tuple_spans,
)
from repro.obs.tracer import FIELDS
from tests.obs.test_spans import all_kinds_sim


def test_record_and_read_back():
    tr = Tracer()
    tr.record(1.0, TUPLE_EMIT, root=1, task=2)
    tr.record(2.0, TUPLE_ACK, root=1, latency=1.0)
    events = tr.events()
    assert [e.kind for e in events] == [TUPLE_EMIT, TUPLE_ACK]
    assert events[0].time == 1.0
    assert events[0].get("task") == 2
    assert events[0].get("missing", "d") == "d"


def test_kind_filter_and_prefix_filter():
    tr = Tracer()
    tr.record(0.0, TUPLE_EMIT, root=1)
    tr.record(0.5, TUPLE_TRANSFER, roots=(1,))
    tr.record(1.0, "control.decision", flagged=[])
    assert len(tr.events(TUPLE_EMIT)) == 1
    assert len(tr.events("tuple.*")) == 2
    assert len(tr.events("control.*")) == 1


def test_prefix_filter_accepts_dot_and_star_suffixes():
    tr = Tracer()
    tr.record(0.0, TUPLE_EMIT, root=1)
    tr.record(1.0, "control.decision", flagged=[])
    assert tr.events("tuple.") == tr.events("tuple.*") == tr.events()[:1]
    assert len(tr.events("control.")) == 1
    assert tr.events("tuple") == []  # no suffix: an exact kind


def test_ring_buffer_drops_oldest_and_counts():
    tr = Tracer(capacity=4)
    for i in range(10):
        tr.record(float(i), TUPLE_EMIT, root=i)
    events = tr.events()
    assert len(events) == 4
    assert [e.get("root") for e in events] == [6, 7, 8, 9]
    assert tr.total_recorded == 10
    assert tr.dropped == 6


def test_time_window_half_open():
    tr = Tracer()
    for t in (0.0, 1.0, 2.0, 3.0, 4.0):
        tr.record(t, TUPLE_EMIT, root=int(t))
    # [t0, t1): left-inclusive, right-exclusive
    assert [e.time for e in tr.events(t0=1.0, t1=3.0)] == [1.0, 2.0]
    assert [e.time for e in tr.events(t0=2.0)] == [2.0, 3.0, 4.0]
    assert [e.time for e in tr.events(t1=2.0)] == [0.0, 1.0]
    assert tr.events(t0=3.0, t1=3.0) == []
    assert tr.events(t0=10.0) == []


def test_time_window_composes_with_kind_filter():
    tr = Tracer()
    tr.record(0.0, TUPLE_EMIT, root=1)
    tr.record(1.0, TUPLE_ACK, root=1)
    tr.record(2.0, TUPLE_EMIT, root=2)
    tr.record(3.0, TUPLE_ACK, root=2)
    tr.record(4.0, "control.decision")
    assert [e.get("root") for e in tr.events(TUPLE_ACK, t0=2.0)] == [2]
    assert len(tr.events("tuple.*", t0=1.0, t1=3.0)) == 2
    assert tr.events("control.*", t1=4.0) == []


def test_time_window_after_ring_wraparound():
    tr = Tracer(capacity=4)
    for i in range(10):
        tr.record(float(i), TUPLE_EMIT, root=i)
    # times 0..5 were overwritten; a window over them comes back empty
    assert tr.events(t0=0.0, t1=6.0) == []
    assert tr.dropped == 6
    # windows over the retained suffix still work, half-open at both ends
    assert [e.get("root") for e in tr.events(t0=7.0, t1=9.0)] == [7, 8]
    assert [e.get("root") for e in tr.events(TUPLE_EMIT, t0=6.0)] == [6, 7, 8, 9]


def test_kind_counts_and_clear():
    tr = Tracer()
    tr.record(0.0, TUPLE_EMIT, root=1)
    tr.record(0.1, TUPLE_EMIT, root=2)
    tr.record(0.2, TUPLE_ACK, root=1)
    assert tr.kind_counts() == {TUPLE_EMIT: 2, TUPLE_ACK: 1}
    tr.clear()
    assert tr.events() == []
    assert tr.total_recorded == 0


def test_unfiltered_reads_equal_the_filtered_path():
    tr = Tracer(capacity=8)
    for i in range(12):  # wraps the ring
        tr.record(float(i), (TUPLE_EMIT, TUPLE_TRANSFER, TUPLE_ACK)[i % 3], root=i)
    everything = tr.events()
    assert everything == tr.events(t0=-1.0) == tr.events("*")
    assert isinstance(everything, list) and everything is not tr.events()
    counts = tr.kind_counts()
    assert type(counts) is dict
    assert counts == {k: len(tr.events(k)) for k in counts}
    assert list(counts) == [TUPLE_TRANSFER, TUPLE_ACK, TUPLE_EMIT]  # first seen


def test_group_tuple_spans_by_root_and_roots():
    tr = Tracer()
    tr.record(0.0, TUPLE_EMIT, root=7)
    tr.record(0.1, TUPLE_TRANSFER, roots=(7, 8))
    tr.record(0.2, TUPLE_ACK, root=8)
    spans = group_tuple_spans(tr.events())
    assert set(spans) == {7, 8}
    assert len(spans[7]) == 2  # emit + transfer
    assert len(spans[8]) == 2  # transfer + ack


def test_observability_disabled_has_no_handles():
    obs = Observability()
    assert obs.tracer is None
    assert obs.profiler is None
    assert not obs.enabled


def test_observability_config_validation():
    with pytest.raises(ValueError):
        ObservabilityConfig(trace=True, trace_capacity=0).validate()


def test_events_rejects_inverted_window():
    tr = Tracer()
    tr.record(1.0, TUPLE_EMIT, root=1)
    with pytest.raises(ValueError, match="inverted time window"):
        tr.events(t0=5.0, t1=1.0)
    # an equal-bounds window is valid (and empty: [t0, t1) is half-open)
    assert tr.events(t0=1.0, t1=1.0) == []
    assert len(tr.events(t0=1.0, t1=2.0)) == 1


@pytest.fixture(scope="module")
def lifecycle_records():
    sim = all_kinds_sim()
    sim.run(duration=10)
    tracer = sim.obs.tracer
    assert tracer.dropped == 0
    return tracer, [r for r in tracer.records() if r[1] in FIELDS]


def test_every_lifecycle_record_is_flat_and_laid_out_by_fields(
    lifecycle_records,
):
    tracer, records = lifecycle_records
    assert {r[1] for r in records} == set(FIELDS)  # all ten kinds ran
    for r in records:
        assert type(r) is tuple and len(r) == 2 + len(FIELDS[r[1]])
    for e in tracer.events("tuple."):
        assert tuple(e.fields) == FIELDS[e.kind]
    reasons = {r[-1] for r in records if r[1] == "tuple.loss"}
    assert reasons == {"loss", "crash"}


def test_lifecycle_records_leave_the_cyclic_gc(lifecycle_records):
    _, records = lifecycle_records
    gc.collect()
    assert not any(gc.is_tracked(r) for r in records)


def test_positional_and_keyword_records_read_back_alike():
    typed, keyword = Tracer(), Tracer()
    values = dict(root=3, msg_id=(0, 3), task=1, component="src", retries=0)
    typed.record(1.0, TUPLE_EMIT, *values.values())
    keyword.record(1.0, TUPLE_EMIT, **values)
    assert typed.records() == [(1.0, TUPLE_EMIT, 3, (0, 3), 1, "src", 0)]
    assert keyword.records() == [(1.0, TUPLE_EMIT, values)]
    assert typed.events() == keyword.events()
    assert repr(typed.events()[0]) == repr(keyword.events()[0])
    assert typed.kind_counts() == keyword.kind_counts() == {TUPLE_EMIT: 1}
