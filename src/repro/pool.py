"""The one process-pool constructor behind every parallel path.

Workers start on ``fork`` where offered (no re-import per worker), else
on the platform default, and register the optional ISA modules before
their own initializer runs.  Initializers stay picklable for ``spawn``.
"""

__all__ = ["process_pool"]


def _init(initializer, initargs) -> None:
    import repro.bmi  # noqa: F401 — register optional ISA modules (Zbb)

    if initializer is not None:
        initializer(*initargs)


def process_pool(processes: int, initializer=None, initargs=()):
    """A ``multiprocessing`` pool of ``processes`` seeded workers."""
    import multiprocessing

    fork = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else None).Pool(
        processes, _init, (initializer, tuple(initargs)))
