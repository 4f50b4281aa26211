"""The event queue of the DES kernel: a binary heap.

The environment's schedule is a total order over ``(when, priority,
seq, payload)`` tuples: lexicographic tuple comparison *is* the
determinism contract (``seq`` strictly increases with push order, so
ties at equal time and priority resolve in scheduling order).
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Iterable, Tuple

#: A scheduled entry.  ``entry[0]`` is the event time; the full tuple
#: comparison defines the pop order.
Entry = Tuple[Any, ...]

_INF = float("inf")


class HeapQueue(list):
    """Binary-heap priority queue over comparable tuples.

    Subclasses ``list`` so the kernel's hot loop keeps C-speed truth
    tests and ``len``; ``push``/``pop`` are bound ``heapq`` partials
    (note they shadow ``list.pop`` — this is a queue, not a sequence).
    ``pop`` raises ``IndexError`` when empty.
    """

    def __init__(self, entries: Iterable[Entry] = ()) -> None:
        super().__init__(entries)
        if self:
            heapify(self)
        self.push = partial(heappush, self)
        self.pop = partial(heappop, self)

    def peek(self) -> float:
        """``entry[0]`` of the smallest entry, or ``inf`` if empty."""
        return self[0][0] if self else _INF
