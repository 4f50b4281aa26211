"""Tests for the DES environment: clock, ordering, run() semantics."""

import numpy as np
import pytest

from repro.des import Environment, Event
from repro.des.events import StopSimulation


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        assert env.now == 3.0
        yield env.timeout(2.0)
        assert env.now == 5.0

    env.process(proc(env))
    env.run()
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


@pytest.mark.parametrize("nan", [float("nan"), np.float64("nan")])
def test_nan_delay_rejected_before_it_reaches_the_queue(nan):
    # NaN compares false with everything: it would pass ``delay < 0``,
    # sit unordered in the heap and set the clock to NaN when popped.
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(nan)
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay=nan)
    assert env.queue_depth == 0 and env.scheduled_count == 0
    env.timeout(0.0)  # zero and positive delays still pass
    env.schedule(env.event(), delay=np.float64(1.5))
    env.run()
    assert env.now == 1.5


def test_timeouts_pass_values_and_fire_on_time():
    env = Environment()
    log = []

    def proc():
        for i in range(6):
            v = yield env.timeout(0.5, value=i)
            log.append((env.now, v))

    env.process(proc())
    env.run()
    assert log == [(0.5 * (i + 1), i) for i in range(6)]


def test_run_until_number_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def setter(env, ev):
        yield env.timeout(4.0)
        ev.succeed("done")

    ev = env.event()
    env.process(setter(env, ev))
    assert env.run(until=ev) == "done"
    assert env.now == 4.0


def test_run_until_event_never_fires_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        env.run(until=ev)


def test_run_drains_queue_and_returns_none():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    assert env.run() is None
    assert env.now == 1.0


def test_simultaneous_events_fire_in_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_queue_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_event_fail_uncaught_surfaces_at_run():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_event_fail_caught_by_process_is_defused():
    env = Environment()
    caught = []

    def proc(env, ev):
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    ev = env.event()
    env.process(proc(env, ev))
    ev.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_schedule_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay=-0.5)


def test_stop_simulation_value_passthrough():
    # run(until=Event) must return the event's value even when the event
    # fires exactly at the same instant as other events.
    env = Environment()
    ev = env.event()

    def proc(env):
        yield env.timeout(1.0)
        ev.succeed(123)

    env.process(proc(env))
    assert env.run(until=ev) == 123
