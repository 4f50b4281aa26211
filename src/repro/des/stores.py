"""The bounded FIFO queue every executor reads its input from.

:class:`Store` has one waiting side.  Consumers wait: :meth:`Store.get`
returns an event a process yields on, fired with the oldest item (at
once when one is stored, else on the next insert).  Producers never
wait: :meth:`Store.put` is a fire-and-forget insert that creates and
schedules nothing.  An item put into a full store is kept, in arrival
order, in an overflow deque that models the receiver-side transfer
buffer growing — counted by :attr:`Store.backlog`, refused by
:meth:`Store.try_put` — and moves into the store as capacity frees.

Two facts hold between calls and let every method stay a few deque
operations: a waiting getter means the store is empty, and a non-empty
overflow means the store is full.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment


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
        #: items put while the store was full, oldest first
        self._overflow: deque = deque()
        #: pending ``get`` events, oldest first
        self._getters: deque[Event] = deque()

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
        """Stored items plus items waiting on capacity (total queued work)."""
        return len(self.items) + len(self._overflow)

    def put(self, item: Any) -> None:
        """Insert ``item``: hand it to the oldest waiting getter, else
        store it, else (store full) queue it behind the overflow."""
        if self._getters:
            self._getters.popleft().succeed(item)
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
        would — but a batch that fits with nothing waiting, the common
        same-tick burst shape, is stored in one array-level operation."""
        batch = items if isinstance(items, (list, tuple)) else list(items)
        if self._getters or len(self.items) + len(batch) > self.capacity:
            for item in batch:
                self.put(item)
        else:
            self.items.extend(batch)

    def get(self) -> Event:
        """Request removal of the oldest item; returns the completion event."""
        ev = Event(self.env)
        if self.items:
            ev.succeed(self._take())
        else:
            self._getters.append(ev)
        return ev

    def take_nowait(self) -> Optional[Any]:
        """Synchronously take the head item, or ``None`` if none is stored.

        The batched-service fast path in the bolt executor: when an item
        is already stored, this removes and returns it without creating
        a ``get`` event (the item would have been taken from the store
        at ``get()``-call time anyway — only the consumer's wakeup event
        is elided).  Callers fall back to :meth:`get` on ``None``.
        """
        return self._take() if self.items else None

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

    def _take(self) -> Any:
        """Pop the head item; the freed slot admits the oldest overflow."""
        item = self.items.popleft()
        if self._overflow:
            self.items.append(self._overflow.popleft())
        return item

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} level={len(self.items)}"
            f" capacity={self.capacity}>"
        )
