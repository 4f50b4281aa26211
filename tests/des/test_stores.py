"""Tests for Store: FIFO, capacity/backlog, waiting getters, drain."""

import pytest

from repro.des import Environment, Store


def test_put_then_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    for i in range(3):
        assert store.put(i) is None  # a plain insert, nothing to wait on
    env.process(consumer(env))
    env.run()
    assert got == [0, 1, 2]


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env):
        yield env.timeout(5)
        store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(5.0, "x")]


def test_put_blocks_when_full():
    # A put into a full store never blocks the producer: the item waits
    # in the overflow (counted by backlog, not level) and enters the
    # store, in arrival order, as gets free capacity.
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        for item in ("a", "b", "c"):
            store.put(item)
        log.append(("put", env.now, store.level, store.backlog))
        yield env.timeout(0)

    def consumer(env):
        yield env.timeout(10)
        for _ in range(3):
            item = yield store.get()
            log.append(("got", item, store.level, store.backlog))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [
        ("put", 0.0, 1, 3),
        ("got", "a", 1, 2),
        ("got", "b", 1, 1),
        ("got", "c", 0, 0),
    ]


def test_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_level_and_is_full():
    env = Environment()
    store = Store(env, capacity=2)
    assert store.level == 0
    store.put(1)
    assert store.level == len(store) == 1
    assert not store.is_full
    store.put(2)
    assert store.is_full


def test_try_put_drops_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    assert store.try_put("a") is True
    assert store.try_put("b") is False
    assert store.level == store.backlog == 1


def test_try_put_succeeds_with_waiting_getter():
    # A waiting getter means the store is empty, so the item has a home
    # even at capacity 1: try_put hands it over rather than dropping it.
    env = Environment()
    store = Store(env, capacity=1)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append(item)
        item = yield store.get()
        got.append(item)

    def producer(env):
        yield env.timeout(1)
        assert store.try_put("a")
        assert store.try_put("b")  # "a" went straight to the getter

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == ["a", "b"]


def test_waiting_getters_are_served_in_request_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    for tag in ("first", "second"):
        env.process(consumer(env, tag))

    def producer(env):
        yield env.timeout(1)
        store.put_many(["x", "y", "z"])

    env.process(producer(env))
    env.run()
    assert got == [("first", "x"), ("second", "y")]
    assert list(store.items) == ["z"]


def test_put_many_matches_a_loop_of_puts_under_capacity_pressure():
    env = Environment()
    one, many = Store(env, capacity=3), Store(env, capacity=3)
    for store in (one, many):
        store.put("head")
    for item in range(5):
        one.put(item)
    many.put_many(range(5))
    assert list(one.items) == list(many.items) == ["head", 0, 1]
    assert one.backlog == many.backlog == 6
    assert one.drain() == many.drain()
    assert list(one.items) == list(many.items) == [2, 3, 4]


def test_take_nowait_returns_head_and_admits_overflow():
    env = Environment()
    store = Store(env, capacity=2)
    assert store.take_nowait() is None
    store.put_many(["a", "b", "c"])
    assert store.take_nowait() == "a"
    assert list(store.items) == ["b", "c"]
    assert store.backlog == 2


def test_drain_empties_the_store_and_admits_overflow():
    env = Environment()
    store = Store(env, capacity=2)
    store.put_many([1, 2, 3, 4, 5])
    assert store.drain() == [1, 2]
    assert store.drain() == [3, 4]
    assert store.drain() == [5]
    assert store.drain() == []
    assert store.backlog == 0


def test_many_producers_consumers_conservation():
    # No item is lost or duplicated under heavy interleaving.
    env = Environment()
    store = Store(env, capacity=4)
    produced, consumed = [], []

    def producer(env, base):
        for i in range(50):
            item = base + i
            produced.append(item)
            store.put(item)
            yield env.timeout(0.1)

    def consumer(env):
        while len(consumed) < 150:
            item = yield store.get()
            consumed.append(item)
            yield env.timeout(0.13)

    for k in range(3):
        env.process(producer(env, 1000 * k))
    env.process(consumer(env))
    env.run()
    assert sorted(consumed) == sorted(produced)
    assert len(consumed) == 150
