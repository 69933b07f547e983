"""The one process-pool map, used by the sweep and the testbed.

One ProcessPoolExecutor per effective worker count lives as long as the
process: it starts at the first pooled call and is shut down at exit, so the
sweep and the testbed fork their workers once per process, not once per
call.  Workers are forked at that first use and keep the module state of
that moment: modules imported later in the parent are imported again by each
worker that needs them, and a change to module state made after the fork
(a monkeypatch, a cache) is not seen by the workers.  A worker ends with the
thread that forked it, so a process killed by a signal, which runs no exit
handlers, leaves no idle worker behind.

This module imports no SciPy, so that the command line can clamp its worker
count without loading the numerical modules.
"""

from __future__ import annotations

import atexit
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

_pools = {}


def effective_workers(workers):
    """Worker count clamped to the CPUs this process may run on: processes
    beyond the core count only oversubscribe the cores."""
    return max(1, min(int(workers), len(os.sched_getaffinity(0))))


def _exit_with_parent(parent):
    """Pool-worker initializer: ask Linux for SIGTERM when the forking
    thread ends (prctl PR_SET_PDEATHSIG); exit at once if the parent is
    already gone."""
    import ctypes

    try:
        ctypes.CDLL(None).prctl(1, signal.SIGTERM)
    except (AttributeError, OSError):  # no prctl: not Linux
        return
    if os.getppid() != parent:
        os._exit(0)


@atexit.register
def _shutdown_pools():
    while _pools:
        _pools.popitem()[1].shutdown()


# A forked child must not reuse its parent's pools.
os.register_at_fork(after_in_child=_pools.clear)


def parallel_map(fn, tasks, workers):
    """[fn(t) for t in tasks], over the process pool of
    effective_workers(workers) processes; in this process when that count
    is 1 or there is at most one task.  A pool whose worker died
    (BrokenProcessPool) is dropped and the error re-raised; the next call
    starts a new pool."""
    workers = effective_workers(workers)
    if min(workers, len(tasks)) <= 1:
        return [fn(t) for t in tasks]
    pool = _pools.get(workers)
    if pool is None:
        pool = _pools[workers] = ProcessPoolExecutor(
            max_workers=workers, initializer=_exit_with_parent,
            initargs=(os.getpid(),))
    try:
        return list(pool.map(fn, tasks, chunksize=1))
    except BrokenProcessPool:
        del _pools[workers]
        pool.shutdown()
        raise
