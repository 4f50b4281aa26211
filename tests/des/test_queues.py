"""HeapQueue: the kernel's one event queue, also behind PriorityStore.

The load-bearing property is the tie-break: entries equal in their
leading components pop in push (``seq``) order, which is what makes
same-time events and same-priority store items FIFO (the store side is
covered in ``test_stores.py``).
"""

import pytest

from repro.des.queues import HeapQueue


def test_empty_queue_contract():
    queue = HeapQueue()
    assert len(queue) == 0
    assert not queue
    assert queue.peek() == float("inf")
    with pytest.raises(IndexError):
        queue.pop()


def test_heap_pops_in_tuple_order_with_fifo_ties():
    entries = [
        (2.0, 1, 1, "a"), (1.0, 1, 2, "b"), (1.0, 0, 3, "c"),
        (1.0, 1, 4, "d"), (-5.0, 1, 5, "e"),
    ]
    queue = HeapQueue(entries[:2])  # bulk load, then incremental pushes
    for entry in entries[2:]:
        queue.push(entry)
    assert queue.peek() == -5.0
    assert [queue.pop()[3] for _ in entries] == ["e", "c", "b", "d", "a"]

