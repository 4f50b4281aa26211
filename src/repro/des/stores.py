"""The bounded FIFO queue every executor reads its input from.

:class:`Store` has one consumer and it never waits on an event:
:meth:`Store.take` hands over the oldest item at once, or — when the
store is empty — remembers the consumer's callback and calls it, inside
the producer's own event, with the next item put.  Producers never wait
either: :meth:`Store.put` creates and schedules nothing.  An item put
into a full store is kept, in arrival order, in an overflow deque that
models the receiver-side transfer buffer growing — counted by
:attr:`Store.backlog`, refused by :meth:`Store.try_put` — and moves into
the store as capacity frees.

Two facts hold between calls and let every method stay a few deque
operations: a waiting consumer means the store is empty, and a
non-empty overflow means the store is full.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Optional


class Store:
    """FIFO store with optional capacity bound.

    Parameters
    ----------
    capacity:
        Maximum number of items held; ``float('inf')`` for unbounded.
    """

    def __init__(self, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.items: deque = deque()
        #: items put while the store was full, oldest first
        self._overflow: deque = deque()
        #: the idle consumer's callback, owed the next item put
        self._waiter: Optional[Callable[[Any], None]] = None

    @property
    def level(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    @property
    def backlog(self) -> int:
        """Stored items plus items waiting on capacity (total queued work)."""
        return len(self.items) + len(self._overflow)

    def put(self, item: Any) -> None:
        """Insert ``item``: hand it to the waiting consumer, else store
        it, else (store full) queue it behind the overflow."""
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter(item)
        elif len(self.items) < self.capacity:
            self.items.append(item)
        else:
            self._overflow.append(item)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: store ``item`` if space allows, else drop.

        Returns ``True`` on success.  Used by load-shedding emitters.
        """
        if self.is_full:
            return False
        self.put(item)
        return True

    def put_many(self, items: Iterable[Any]) -> None:
        """Bulk put: insert ``items`` in order, as a loop of :meth:`put`
        would — but a batch that fits with nobody waiting, the common
        same-tick burst shape, is stored in one array-level operation."""
        batch = items if isinstance(items, (list, tuple)) else list(items)
        if (
            self._waiter is not None
            or len(self.items) + len(batch) > self.capacity
        ):
            for item in batch:
                self.put(item)
        else:
            self.items.extend(batch)

    def take(self, waiter: Callable[[Any], None]) -> Optional[Any]:
        """Remove and return the oldest item (the freed slot admits the
        oldest overflow).  When nothing is stored, return ``None`` and
        owe ``waiter(item)`` to the next :meth:`put` — called once,
        synchronously, in place of storing that item."""
        if not self.items:
            self._waiter = waiter
            return None
        item = self.items.popleft()
        if self._overflow:
            self.items.append(self._overflow.popleft())
        return item

    def drain(self) -> list:
        """Remove and return every stored item (crash/purge semantics).

        Capacity freed by the drain admits overflow items, so the store
        may be non-empty immediately afterwards — callers that must
        empty the *backlog* too should drain in a loop until empty.
        """
        taken = list(self.items)
        self.items.clear()
        overflow = self._overflow
        while overflow and len(self.items) < self.capacity:
            self.items.append(overflow.popleft())
        return taken

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} level={len(self.items)}"
            f" capacity={self.capacity}>"
        )
