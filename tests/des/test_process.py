"""Tests for processes: lifecycle, return values, crashes, waiting."""

import pytest

from repro.des import Environment


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 99

    p = env.process(proc(env))
    assert env.run(until=p) == 99


def test_process_is_alive_transitions():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_processes_can_wait_on_each_other():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(3)
        log.append(("child-done", env.now))
        return "payload"

    def parent(env):
        result = yield env.process(child(env))
        log.append(("parent-got", env.now, result))

    env.process(parent(env))
    env.run()
    assert log == [("child-done", 3.0), ("parent-got", 3.0, "payload")]


def test_process_crash_propagates_to_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise RuntimeError("crash")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="crash"):
        env.run()


def test_process_crash_catchable_by_waiter():
    env = Environment()
    seen = []

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("crash")

    def waiter(env):
        try:
            yield env.process(bad(env))
        except RuntimeError as e:
            seen.append(str(e))

    env.process(waiter(env))
    env.run()
    assert seen == ["crash"]


def test_removed_primitives_are_gone():
    # Nothing in the simulator waits on a resource, a priority store or
    # a condition, or interrupts a process; check_api.py rule 4 keeps
    # the package surface from regrowing them unused.
    import repro.des
    from repro.des import Process

    with pytest.raises(ImportError):
        from repro.des import Resource, PriorityStore, AnyOf, Interrupt  # noqa: F401
    for name in ("Resource", "PriorityStore", "AnyOf", "Interrupt"):
        assert not hasattr(repro.des, name)
    assert not hasattr(Process, "interrupt")


def test_yield_non_event_raises():
    env = Environment()

    def proc(env):
        yield 42  # type: ignore[misc]

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    log = []

    def proc(env, done_ev):
        yield env.timeout(2)
        # done_ev fired at t=1 and was processed; yielding it must resume
        # without advancing the clock.
        val = yield done_ev
        log.append((env.now, val))

    ev = env.event()

    def setter(env):
        yield env.timeout(1)
        ev.succeed("early")

    env.process(setter(env))
    env.process(proc(env, ev))
    env.run()
    assert log == [(2.0, "early")]


def test_long_chain_of_processed_events_no_stack_overflow():
    # _resume iterates; a long chain of already-fired events must not recurse.
    env = Environment()
    events = []

    def setter(env):
        yield env.timeout(1)
        for ev in events:
            ev.succeed(None)

    def proc(env):
        yield env.timeout(2)
        for ev in events:
            yield ev
        return "ok"

    events.extend(env.event() for _ in range(5000))
    env.process(setter(env))
    p = env.process(proc(env))
    assert env.run(until=p) == "ok"


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_two_processes_interleave_deterministically():
    env = Environment()
    log = []

    def proc(env, tag, period):
        while env.now < 6:
            yield env.timeout(period)
            log.append((tag, env.now))

    env.process(proc(env, "fast", 1))
    env.process(proc(env, "slow", 2))
    env.run(until=7)
    fast = [t for tag, t in log if tag == "fast"]
    slow = [t for tag, t in log if tag == "slow"]
    assert fast == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert slow == [2.0, 4.0, 6.0]
