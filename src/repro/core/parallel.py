"""Shared executor machinery for the repo's parallel hot paths.

One helper, two consumers: the design-space :class:`repro.api.explorer.Sweep`
and the speculative Phase-I training trials of :mod:`repro.core.phase1`.
Centralizing the pattern keeps the determinism contract in one place:
**results always come back in submission order**, so a parallel run and a
serial run of the same jobs produce identical downstream bytes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigError

__all__ = ["EXECUTION_MODES", "map_ordered", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")

EXECUTION_MODES = ("serial", "thread", "process")


def resolve_workers(workers: int | None, jobs: int, default: int = 4) -> int:
    """Pool size: explicit ``workers`` wins, else ``min(default, jobs)``."""
    if workers is not None:
        if workers < 1:
            raise ConfigError(f"workers must be positive, got {workers}")
        return workers
    return max(1, min(default, jobs))


def map_ordered(
    fn: Callable[[T], R],
    items: Iterable[T],
    mode: str = "serial",
    workers: int | None = None,
    mp_context: Any = None,
) -> list[R]:
    """Apply ``fn`` to every item, returning results in item order.

    ``mode`` is ``"serial"``, ``"thread"``, or ``"process"`` (the process
    path requires a picklable ``fn``/items).  Exceptions propagate — a
    failing job fails the map, exactly like the serial loop would.  Single
    jobs and serial mode share one code path so there is no pool overhead
    when parallelism cannot help.
    """
    if mode not in EXECUTION_MODES:
        raise ConfigError(
            f"mode must be one of {', '.join(EXECUTION_MODES)}, got {mode!r}"
        )
    jobs: Sequence[T] = list(items)
    if mode == "serial" or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    if mode == "thread":
        with ThreadPoolExecutor(
            max_workers=resolve_workers(workers, len(jobs))
        ) as pool:
            return list(pool.map(fn, jobs))
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=mp_context
    ) as pool:
        return list(pool.map(fn, jobs))
