"""The monitor's front-end queues: one bounded FIFO list per thread.

The paper gives every program thread its own lock-free SPSC ring
(Lamport's).  A single-threaded simulation can observe only its
capacity (a producer finding it full stalls) and FIFO order, and a
plain list has both: generated send code appends while
``len(queue) < capacity``, and the drain pops from the front.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple, TypeVar

T = TypeVar("T")


def pop_round_robin(queues: Sequence[List[T]], cursor: int,
                    limit: int) -> Tuple[List[T], int]:
    """Pop up to ``limit`` items from ``queues``, one per non-empty
    queue per visit, visiting them cyclically from position ``cursor``.

    Returns the items in pop order and the next cursor: one past the
    last queue popped, or ``cursor`` when nothing was popped.  This is
    the paper's round-robin drain, which visits every queue in turn
    until a whole cycle of visits finds nothing.  No item arrives during
    a drain, so a queue found empty stays empty, and visiting only the
    non-empty ones pops the same items in the same order in
    O(items + queues) visits.  Most drains find a single non-empty
    queue; that case is one slice.
    """
    live = [pos for pos, queue in enumerate(queues) if queue]
    if not live or limit <= 0:
        return [], cursor
    if len(live) == 1:
        pos = live[0]
        queue = queues[pos]
        items = queue[:limit]
        del queue[:limit]
        return items, (pos + 1) % len(queues)
    split = bisect_left(live, cursor)
    live = live[split:] + live[:split]
    items: List[T] = []
    budget = limit
    while budget > 0:
        kept = []
        for pos in live:
            queue = queues[pos]
            items.append(queue.pop(0))
            budget -= 1
            if not budget:
                break
            if queue:
                kept.append(pos)
        if not kept:
            break
        live = kept
    return items, (pos + 1) % len(queues)
