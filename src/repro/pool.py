"""The one way work runs in parallel on this host.

``jobs=N`` means the same thing to fault campaigns, verify campaigns and
the fuzzer: the caller prepares its state in this process (golden run,
checkpoint chain, corpus, evaluator), then :class:`Workers` forks up to
``N`` processes that inherit that state copy-on-write — warm decode memo
and JIT code cache included — and runs ``task(arg)`` on them, results
back in argument order.  Work splits into contiguous ranges with
:func:`shard_bounds`, the split the service's ``shards`` use too, so a
``jobs=N`` run and an ``N``-shard service job cut the work the same way.

One worker runs the task in-process with no pool; so does a platform
without ``fork`` or a pool that cannot start, each with one
:class:`RuntimeWarning`.  :func:`process_pool` is the one pool
constructor, shared with the service's process mode.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Iterable, Iterator, List, Tuple

__all__ = ["Workers", "available_cpus", "process_pool", "resolve_jobs",
           "shard_bounds", "split"]


def shard_bounds(total: int, shard_count: int, shard_index: int
                 ) -> Tuple[int, int]:
    """The ``[lo, hi)`` slice of ``total`` items shard ``shard_index``
    of ``shard_count`` owns — contiguous, balanced, and a pure function
    of its arguments (never of cluster shape or arrival order)."""
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard_index {shard_index} out of range for "
                         f"{shard_count} shards")
    base, extra = divmod(total, shard_count)
    lo = shard_index * base + min(shard_index, extra)
    hi = lo + base + (1 if shard_index < extra else 0)
    return lo, hi


def split(total: int, parts: int) -> List[Tuple[int, int]]:
    """The non-empty :func:`shard_bounds` ranges of ``total`` items in
    ``parts`` shards, in order."""
    bounds = (shard_bounds(total, parts, index) for index in range(parts))
    return [(lo, hi) for lo, hi in bounds if hi > lo]


def available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def resolve_jobs(jobs: int, work: int) -> int:
    """The worker count ``jobs`` gets for ``work`` units: ``0`` means
    every available CPU; never more workers than CPUs or units, never
    fewer than one."""
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0:
        raise ValueError(f"jobs must be an integer >= 0, got {jobs!r}")
    if jobs == 1 or work <= 1:
        return 1
    cpus = available_cpus()
    return max(1, min(jobs or cpus, cpus, work))


def _init(initializer, initargs) -> None:
    import repro.bmi  # noqa: F401 — register optional ISA modules (Zbb)

    if initializer is not None:
        initializer(*initargs)


def process_pool(processes: int, initializer=None, initargs=()):
    """A ``multiprocessing`` pool of ``processes`` seeded workers.

    Workers start on ``fork`` where offered (no re-import per worker),
    else on the platform default, and register the optional ISA modules
    before ``initializer`` runs."""
    import multiprocessing

    fork = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else None).Pool(
        processes, _init, (initializer, tuple(initargs)))


#: The task a forked worker runs; set by :func:`_adopt` in each child.
_TASK: Callable = None  # type: ignore[assignment]


def _adopt(task: Callable) -> None:
    global _TASK
    _TASK = task


def _call(arg):
    return _TASK(arg)


class Workers:
    """``task(arg)`` on ``count`` processes forked from this one.

    Construct it after preparing the state ``task`` reads: the pool
    forks in the constructor, and a forked child gets ``task`` and
    everything it reaches without pickling.  Arguments and results
    still cross the process boundary, so keep them small.  A child holds
    only the forking thread, so fork from a process whose other threads
    hold no lock the task needs (the service, which runs threads, runs
    no ``jobs`` pool)::

        with Workers(lambda bounds: run(*bounds), jobs, total) as workers:
            for part in workers.map(split(total, workers.count)):
                ...
    """

    def __init__(self, task: Callable, jobs: int, work: int) -> None:
        self.count = resolve_jobs(jobs, work)
        self._task = task
        self._pool = None
        if self.count > 1:
            self._pool = self._fork()

    def _fork(self):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            reason = "this platform cannot fork"
        else:
            import repro.bmi  # noqa: F401 — registered once, inherited

            try:
                return process_pool(self.count, _adopt, (self._task,))
            except (OSError, ImportError, ValueError, RuntimeError) as exc:
                reason = str(exc)
        warnings.warn(f"could not start {self.count} worker processes "
                      f"({reason}); running in-process", RuntimeWarning,
                      stacklevel=3)
        self.count = 1
        return None

    def map(self, args: Iterable) -> Iterator:
        """``task(arg)`` for every ``arg``, in argument order."""
        if self._pool is None:
            return map(self._task, args)
        return self._pool.imap(_call, args)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self._pool is not None:
            self._pool.terminate()
        self.close()
