"""Order-preserving parallel map over trial indices.

Work items must be pure functions of their index (all randomness derived from
indexed substreams), so the result list is identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")

THREADS_ENV_VAR = "OUTBREAK_LOCAL_THREADS"


def resolve_threads(threads: int | None) -> int:
    """Explicit thread count, else the OUTBREAK_LOCAL_THREADS env var, else 1.
    Either source must give an integer >= 1."""
    if threads is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if not env:
            return 1
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"threads must be >= 1, got {THREADS_ENV_VAR}={env!r}") from None
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def parallel_map(fn: Callable[[int], T], count: int, threads: int = 1) -> list[T]:
    """[fn(0), ..., fn(count-1)], computed with up to `threads` workers,
    never more than os.cpu_count()."""
    workers = min(threads, count, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))
