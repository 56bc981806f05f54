"""Deterministic ordered mapping over independent work items.

Its one caller is ``mc-study``, which maps over replicates. Work items
own their RNG streams (derived from a seed and the item index), and
results are always consumed in item order, so output is bit-identical
for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


def ordered_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Apply fn to each item, returning results in item order."""
    if workers <= 1:
        return [fn(item) for item in items]
    out = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Bounded submission window keeps memory flat; consumption stays
        # in submission order regardless of completion order.
        window = 4 * workers
        pending = []
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= window:
                out.append(pending.pop(0).result())
        for fut in pending:
            out.append(fut.result())
    return out
