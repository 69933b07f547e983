"""The one process-pool map, used by the sweep and the testbed.

This module imports no SciPy, so that the command line can clamp its worker
count without loading the numerical modules.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def effective_workers(workers):
    """Worker count clamped to the CPUs this process may run on: processes
    beyond the core count only oversubscribe the cores."""
    return max(1, min(int(workers), len(os.sched_getaffinity(0))))


def parallel_map(fn, tasks, workers):
    """[fn(t) for t in tasks], over a process pool of effective_workers(workers)
    processes; in this process when that count is 1."""
    workers = effective_workers(workers)
    if workers == 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))
