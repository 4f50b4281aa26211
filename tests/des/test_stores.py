"""Tests for Store: FIFO, capacity/backlog, the waiting consumer, drain."""

import pytest

from repro.des import Environment, Store


def test_put_then_get_fifo():
    store = Store()
    late = []
    for i in range(3):
        assert store.put(i) is None  # a plain insert, nothing to wait on
    assert [store.take(late.append) for _ in range(3)] == [0, 1, 2]
    assert late == []  # an item handed over at once is not handed again


def test_get_blocks_until_put():
    # take() on an empty store returns None and owes the consumer the
    # next item: it arrives inside the producer's own event.
    env = Environment()
    store = Store()
    times = []

    def producer(env):
        yield env.timeout(5)
        store.put("x")

    assert store.take(lambda item: times.append((env.now, item))) is None
    env.process(producer(env))
    env.run()
    assert times == [(5.0, "x")]
    assert store.level == 0  # handed over, never stored


def test_waiter_is_owed_exactly_one_item():
    store = Store()
    got = []
    assert store.take(got.append) is None
    store.put_many(["x", "y", "z"])
    assert got == ["x"]
    assert list(store.items) == ["y", "z"]


def test_put_blocks_when_full():
    # A put into a full store never blocks the producer: the item waits
    # in the overflow (counted by backlog, not level) and enters the
    # store, in arrival order, as takes free capacity.
    store = Store(capacity=1)
    for item in ("a", "b", "c"):
        store.put(item)
    log = [("put", store.level, store.backlog)]
    for _ in range(3):
        item = store.take(log.append)
        log.append(("got", item, store.level, store.backlog))
    assert log == [
        ("put", 1, 3),
        ("got", "a", 1, 2),
        ("got", "b", 1, 1),
        ("got", "c", 0, 0),
    ]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Store(capacity=0)


def test_level_and_is_full():
    store = Store(capacity=2)
    assert store.level == 0
    store.put(1)
    assert store.level == 1
    assert not store.is_full
    store.put(2)
    assert store.is_full


def test_try_put_drops_when_full():
    store = Store(capacity=1)
    assert store.try_put("a") is True
    assert store.try_put("b") is False
    assert store.level == store.backlog == 1


def test_try_put_succeeds_with_waiting_getter():
    # A waiting consumer means the store is empty, so the item has a
    # home even at capacity 1: try_put hands it over rather than
    # dropping it.
    store = Store(capacity=1)
    got = []
    assert store.take(got.append) is None
    assert store.try_put("a")  # straight to the consumer
    assert store.try_put("b")  # stored
    assert got == ["a"]
    assert store.take(got.append) == "b"


def test_put_many_matches_a_loop_of_puts_under_capacity_pressure():
    one, many = Store(capacity=3), Store(capacity=3)
    for store in (one, many):
        store.put("head")
    for item in range(5):
        one.put(item)
    many.put_many(range(5))
    assert list(one.items) == list(many.items) == ["head", 0, 1]
    assert one.backlog == many.backlog == 6
    assert one.drain() == many.drain()
    assert list(one.items) == list(many.items) == [2, 3, 4]


def test_take_returns_head_and_admits_overflow():
    store = Store(capacity=2)
    store.put_many(["a", "b", "c"])
    assert store.take(None) == "a"
    assert list(store.items) == ["b", "c"]
    assert store.backlog == 2


def test_get_and_take_nowait_are_gone():
    assert not hasattr(Store, "get")
    assert not hasattr(Store, "take_nowait")


def test_drain_empties_the_store_and_admits_overflow():
    store = Store(capacity=2)
    store.put_many([1, 2, 3, 4, 5])
    assert store.drain() == [1, 2]
    assert store.drain() == [3, 4]
    assert store.drain() == [5]
    assert store.drain() == []
    assert store.backlog == 0


def test_many_producers_consumers_conservation():
    # No item is lost or duplicated under heavy interleaving: three
    # producers, one callback consumer that serves each item for 0.13.
    env = Environment()
    store = Store(capacity=4)
    produced, consumed = [], []

    def producer(env, base):
        for i in range(50):
            item = base + i
            produced.append(item)
            store.put(item)
            yield env.timeout(0.1)

    def serve(item):
        consumed.append(item)
        env.timeout(0.13).callbacks.append(take_next)

    def take_next(_event=None):
        item = store.take(serve)
        if item is not None:
            serve(item)

    for k in range(3):
        env.process(producer(env, 1000 * k))
    take_next()
    env.run()
    assert sorted(consumed) == sorted(produced)
    assert len(consumed) == 150
