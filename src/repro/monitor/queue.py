"""Bounded single-producer/single-consumer queue (Lamport, 1983).

The paper's monitor avoids locks by giving every program thread its own
SPSC ring buffer: the producer writes only ``tail``, the consumer writes
only ``head``, and on a machine with atomic word stores no lock is needed
(Lamport's classic result).  We reproduce the exact index discipline —
fixed capacity, head==tail means empty, one slot kept free to distinguish
full from empty — so the wraparound arithmetic is tested for real, even
though CPython lists would have been "atomic enough" anyway.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


class SpscQueue(Generic[T]):
    """Lamport's lock-free bounded queue.

    ``try_push`` may only ever be called by the queue's producer thread
    and ``try_pop`` by its consumer; neither blocks nor takes a lock.
    One slot is sacrificed so that ``head == tail`` unambiguously means
    *empty* and ``(tail + 1) % size == head`` means *full*.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        # +1: the permanently-free slot of Lamport's algorithm.
        self._size = capacity + 1
        self._buffer: List[Optional[T]] = [None] * self._size
        self._head = 0  # consumer cursor
        self._tail = 0  # producer cursor
        #: producers count stall events when the queue is full; the cost
        #: model charges for them.
        self.full_events = 0

    @property
    def capacity(self) -> int:
        return self._size - 1

    def __len__(self) -> int:
        return (self._tail - self._head) % self._size

    @property
    def is_empty(self) -> bool:
        return self._head == self._tail

    @property
    def is_full(self) -> bool:
        return (self._tail + 1) % self._size == self._head

    def try_push(self, item: T) -> bool:
        """Producer side: append at the tail; False when full."""
        next_tail = (self._tail + 1) % self._size
        if next_tail == self._head:
            self.full_events += 1
            return False
        self._buffer[self._tail] = item
        # On hardware this store-then-publish order is what makes the
        # algorithm safe without locks: the slot is written before the
        # tail moves.
        self._tail = next_tail
        return True

    def try_pop(self) -> Optional[T]:
        """Consumer side: remove from the head; None when empty."""
        if self._head == self._tail:
            return None
        item = self._buffer[self._head]
        self._buffer[self._head] = None
        self._head = (self._head + 1) % self._size
        return item

    def save_state(self) -> Tuple[List[T], int]:
        """The live items, oldest first, and the stall count (a machine
        checkpoint copies only the occupied slots)."""
        head, tail, buffer = self._head, self._tail, self._buffer
        if head <= tail:
            items = buffer[head:tail]
        else:
            items = buffer[head:] + buffer[:tail]
        return items, self.full_events

    def load_state(self, state: Tuple[List[T], int]) -> None:
        """Refill a fresh queue from :meth:`save_state` output.  The
        cursors restart at slot 0; only their distance is observable."""
        items, self.full_events = state
        self._buffer[:len(items)] = items
        self._head = 0
        self._tail = len(items)

    def drain(self, limit: int) -> List[T]:
        """Pop up to ``limit`` items (consumer side)."""
        items: List[T] = []
        while len(items) < limit:
            item = self.try_pop()
            if item is None:
                break
            items.append(item)
        return items


def pop_round_robin(queues: Sequence[SpscQueue[T]], cursor: int,
                    limit: int) -> Tuple[List[T], int]:
    """Pop up to ``limit`` items from ``queues``, one per non-empty
    queue per visit, visiting them cyclically from position ``cursor``.

    Returns the items in pop order and the next cursor: one past the
    last queue popped, or ``cursor`` when nothing was popped.  This is
    the paper's round-robin drain, which visits every queue in turn
    until a whole cycle of visits finds nothing.  No item arrives during
    a drain, so a queue found empty stays empty, and visiting only the
    non-empty ones pops the same items in the same order at
    O(items + queues) cost.
    """
    n = len(queues)
    live = [pos for pos, queue in enumerate(queues)
            if queue._head != queue._tail]
    if not live or limit <= 0:
        return [], cursor
    split = bisect_left(live, cursor)
    live = live[split:] + live[:split]
    items: List[T] = []
    budget = limit
    while budget > 0:
        kept = []
        for pos in live:
            queue = queues[pos]
            items.append(queue.try_pop())
            budget -= 1
            if not budget:
                break
            if queue._head != queue._tail:
                kept.append(pos)
        if not kept:
            break
        live = kept
    return items, (pos + 1) % n
