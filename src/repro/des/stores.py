"""Bounded producer/consumer stores.

:class:`Store` is the workhorse queue of the Storm simulator: every executor
has a bounded input :class:`Store`; upstream emitters block (or observe
backpressure) when it is full.  :class:`PriorityStore` additionally orders
items by priority (used for control messages that must overtake data tuples).

Both follow SimPy semantics: ``put``/``get`` return *events* that a process
yields on; the event fires when the operation completes.  Events support
``cancel()`` so an interrupted waiter does not consume an item later.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.des.events import Event
from repro.des.queues import HeapQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment


class StorePut(Event):
    """Event for a pending ``put``; fires (value ``None``) once stored."""

    __slots__ = ("item", "_store")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        self._store = store

    def cancel(self) -> None:
        """Withdraw this put if it has not completed yet."""
        if not self.triggered:
            self._store._abort_put(self)


class StoreGet(Event):
    """Event for a pending ``get``; fires with the retrieved item."""

    __slots__ = ("_store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self._store = store

    def cancel(self) -> None:
        """Withdraw this get if it has not completed yet."""
        if not self.triggered:
            self._store._abort_get(self)

    def orphan(self) -> None:
        """Return the already-taken item to the head of the store.

        Invoked by the kernel when the waiting process was interrupted at
        the same instant the get completed; guarantees tuple conservation.
        """
        if self.triggered and self._ok:
            self._store._do_unstore(self._value)
            self._store._dispatch()


class Store:
    """FIFO store with optional capacity bound.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Maximum number of items held; ``float('inf')`` for unbounded.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque = deque()
        self._putters: deque[StorePut] = deque()
        self._getters: deque[StoreGet] = deque()

    # -- public API --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    @property
    def backlog(self) -> int:
        """Stored items plus puts blocked on capacity (total queued work)."""
        return len(self.items) + len(self._putters)

    def put(self, item: Any) -> StorePut:
        """Request insertion of ``item``; returns the completion event."""
        ev = StorePut(self, item)
        self._putters.append(ev)
        self._dispatch()
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: store ``item`` if space allows, else drop.

        Returns ``True`` on success.  Used by load-shedding emitters.
        """
        if self.is_full and not self._getters:
            return False
        self.put(item)
        return True

    def put_many(self, items: Iterable[Any]) -> None:
        """Bulk fire-and-forget put: store ``items`` in order.

        Semantically equivalent to calling :meth:`put` once per item and
        discarding the completion events, but the common same-tick burst
        shape — no blocked putters, room for the whole batch — stores the
        items in one array-level operation and wakes waiting getters with
        a single dispatch, skipping the per-item :class:`StorePut` event
        machinery entirely.  Use only where the caller does not observe
        completion (e.g. transport delivery); blocking puts must go
        through :meth:`put`.
        """
        batch = items if isinstance(items, (list, tuple)) else list(items)
        if not self._putters and len(self.items) + len(batch) <= self.capacity:
            self._do_store_many(batch)
            if self._getters:
                self._dispatch()
            return
        # Slow path (capacity pressure or queued putters): fall back to
        # per-item puts so backpressure accounting and FIFO putter order
        # stay exactly as if the caller had looped.
        for item in batch:
            self.put(item)

    def get(self) -> StoreGet:
        """Request removal of the oldest item; returns the completion event."""
        ev = StoreGet(self)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def take_nowait(self) -> Optional[Any]:
        """Synchronously take the head item, or ``None`` if none is ready.

        The batched-service fast path in the bolt executor: when an item
        is already stored, this removes and returns it without creating
        a :class:`StoreGet` event (the item would have been taken from
        the store at ``get()``-call time anyway — only the consumer's
        wakeup event is elided).  Capacity freed here releases blocked
        putters exactly as a completed ``get`` would.  Returns ``None``
        when the store is empty (callers fall back to :meth:`get`) or
        when getters are already waiting (FIFO fairness: a new consumer
        must not overtake them).
        """
        if not self.items or self._getters:
            return None
        item = self._do_take()
        if self._putters:
            self._dispatch()
        return item

    def drain(self) -> list:
        """Remove and return every stored item (crash/purge semantics).

        Capacity freed by the drain lets blocked putters complete, so their
        items may appear in the store immediately afterwards — callers that
        must empty the *backlog* too should drain in a loop until empty.
        """
        taken = []
        while self.items:
            taken.append(self._do_take())
        self._dispatch()
        return taken

    # -- hooks for subclasses ------------------------------------------------------

    def _do_store(self, item: Any) -> None:
        self.items.append(item)

    def _do_store_many(self, items: Any) -> None:
        self.items.extend(items)

    def _do_take(self) -> Any:
        return self.items.popleft()

    def _do_unstore(self, item: Any) -> None:
        """Return a taken item to the head of the queue (orphan recovery)."""
        self.items.appendleft(item)

    # -- internals -------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Complete as many pending puts/gets as the state allows."""
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self._do_store(put.item)
                put.succeed(None)
                progressed = True
            while self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self._do_take())
                progressed = True

    def _abort_put(self, ev: StorePut) -> None:
        try:
            self._putters.remove(ev)
        except ValueError:  # pragma: no cover - already completed
            pass

    def _abort_get(self, ev: StoreGet) -> None:
        try:
            self._getters.remove(ev)
        except ValueError:  # pragma: no cover - already completed
            pass

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} level={len(self.items)}"
            f" capacity={self.capacity}>"
        )


@dataclass(order=True)
class PriorityItem:
    """Wrapper giving an arbitrary payload a sort key for PriorityStore."""

    priority: float
    seq: int = field(compare=True, default=0)
    item: Any = field(compare=False, default=None)


class PriorityStore(Store):
    """Store that releases the lowest-priority-value item first.

    Items must be :class:`PriorityItem` (or a numeric priority key used
    as its own payload).  Ties break FIFO via the sequence number
    stamped at put time.

    The items live in a :class:`~repro.des.queues.HeapQueue` keyed
    ``(priority, seq, item)``, so item objects are never compared.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self.items = HeapQueue()
        self._counter = 0

    def _do_store(self, item: Any) -> None:
        self._counter += 1
        if isinstance(item, PriorityItem):
            if item.seq == 0:
                item.seq = self._counter
            self.items.push((item.priority, item.seq, item))
        else:
            self.items.push((item, self._counter, item))

    def _do_store_many(self, items: Any) -> None:
        for item in items:
            self._do_store(item)

    def _do_take(self) -> Any:
        return self.items.pop()[2]

    def _do_unstore(self, item: Any) -> None:
        # An orphaned PriorityItem keeps its stamped seq, so recovery
        # restores its exact position among equal priorities.
        if isinstance(item, PriorityItem):
            self.items.push((item.priority, item.seq, item))
        else:
            self._counter += 1
            self.items.push((item, self._counter, item))
