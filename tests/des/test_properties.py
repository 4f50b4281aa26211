"""Property-based tests (hypothesis) for DES kernel invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Store


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30
    )
)
def test_timeouts_resume_in_time_order(delays):
    env = Environment()
    fired = []

    def waiter(env, d):
        yield env.timeout(d)
        fired.append(d)

    for d in delays:
        env.process(waiter(env, d))
    env.run()
    assert fired == sorted(fired) or np.allclose(fired, sorted(fired))
    assert len(fired) == len(delays)


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=20
    )
)
def test_equal_time_events_fire_in_creation_order(delays):
    # Force ties: round delays to integers so collisions are common.
    env = Environment()
    fired = []

    def waiter(env, i, d):
        yield env.timeout(float(int(d)))
        fired.append((int(d), i))

    for i, d in enumerate(delays):
        env.process(waiter(env, i, d))
    env.run()
    assert fired == sorted(fired)  # time-major, creation-order within ties


@settings(max_examples=30, deadline=None)
@given(
    n_items=st.integers(min_value=1, max_value=60),
    capacity=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_store_conserves_items_under_random_interleaving(
    n_items, capacity, seed
):
    rng = np.random.default_rng(seed)
    env = Environment()
    store = Store(capacity=capacity)
    produced = list(range(n_items))
    consumed = []

    def producer(env):
        for item in produced:
            yield env.timeout(float(rng.random()))
            store.put(item)

    def serve(item):
        consumed.append(item)
        env.timeout(float(rng.random())).callbacks.append(take_next)

    def take_next(_event=None):
        item = store.take(serve)
        if item is not None:
            serve(item)

    env.process(producer(env))
    take_next()
    env.run(until=10_000)
    # nothing lost, nothing duplicated, and the producer's items leave
    # the store in the order they entered it
    assert consumed == produced


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(st.sampled_from(["put", "take"]), min_size=1, max_size=60),
)
def test_store_level_never_exceeds_capacity(ops):
    store = Store(capacity=3)
    handed = []
    for op in ops:
        if op == "put":
            store.put(object())
        else:
            store.take(handed.append)
        assert store.level <= store.capacity


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_simulation_bit_reproducible(seed):
    def run_once():
        env = Environment()
        log = []
        rng = np.random.default_rng(seed)

        def proc(env, tag):
            while env.now < 20:
                yield env.timeout(float(rng.exponential(1.0)))
                log.append((tag, env.now))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run(until=25)
        return log

    assert run_once() == run_once()
