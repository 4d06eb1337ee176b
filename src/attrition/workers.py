"""Independent tasks on every CPU the process may use, with their results in task order.

`ordered_map` is the one pool of the package: `evaluation.cv_tune` scores
the folds of every model kind with it, and the `generate` stage writes blocks
of students. Its workers are forked, so the shared arguments reach them
without being pickled; only a task and its result are. Each process runs one
BLAS thread (the package's `__init__`), so one worker per CPU does not
oversubscribe the CPUs. With one CPU, one task, or no `fork`, the same
function runs in-process, so a caller has one code path whatever the CPU
count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial

_shared: tuple = ()  # in a worker, the shared arguments of its pool, set when the worker starts


def usable_cpus() -> int:
    """How many CPUs this process may run on (`os.sched_getaffinity`), or 1 where that is unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _start(shared: tuple) -> None:
    global _shared
    _shared = shared


def _call(fn, task):
    return fn(task, *_shared)


@contextmanager
def ordered_map(fn, tasks, shared: tuple = ()):
    """Yield an iterator over `fn(task, *shared)` for each of `tasks`, in task order.

    The tasks run in `min(len(tasks), usable_cpus())` forked workers, which
    inherit `shared`; a worker's exception is raised when its result is
    reached, with the worker's traceback as its cause. With one worker or
    without `fork`, the iterator calls `fn` in-process as it advances. Leaving
    the block drops the tasks not yet started and waits for every worker to
    exit.
    """
    tasks = list(tasks)
    workers = min(len(tasks), usable_cpus())
    if workers > 1:
        import multiprocessing  # not at the top: it costs every stage process ~1.3 MB
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_start, initargs=(shared,)) as pool:
                try:
                    yield pool.map(partial(_call, fn), tasks)
                finally:
                    pool.shutdown(cancel_futures=True)  # before the `with` waits: pending tasks are dropped
            return
    yield (fn(task, *shared) for task in tasks)
