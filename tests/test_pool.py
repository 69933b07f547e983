"""Lifecycle of the process pool behind parallel_map."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from hyplab.pool import effective_workers, parallel_map

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(effective_workers(2) < 2,
                                reason="needs two usable cores")


def _pid(_):
    return os.getpid()


def _die(_):
    os._exit(3)


def _workers():
    return {p.pid for p in multiprocessing.active_children()}


def test_consecutive_calls_reuse_the_workers():
    first = set(parallel_map(_pid, range(8), 2))
    workers = _workers()
    second = set(parallel_map(_pid, range(8), 2))
    assert len(workers) == 2 and os.getpid() not in workers
    assert first <= workers and second <= workers
    assert _workers() == workers


def _alive(pid):
    """Whether pid is a live process (not gone, not a zombie)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in "ZX"


@pytest.mark.parametrize("ending", ["exit", "SIGKILL"])
def test_no_worker_outlives_the_interpreter(ending, tmp_path):
    code = (
        "import multiprocessing, os\n"
        "from hyplab.pool import parallel_map\n"
        "def pid(_):\n"
        "    return os.getpid()\n"
        "used = set(parallel_map(pid, range(8), 2))\n"
        "workers = {p.pid for p in multiprocessing.active_children()}\n"
        "assert used <= workers\n"
        "print(*sorted(workers), flush=True)\n"
    )
    if ending == "SIGKILL":
        # A killed interpreter runs no exit handlers.
        code += "import signal\nos.kill(os.getpid(), signal.SIGKILL)\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # Files, not pipes: a worker left behind would hold a pipe open.
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("w") as stdout, err.open("w") as stderr:
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              stdout=stdout, stderr=stderr, timeout=120)
    assert done.returncode == (0 if ending == "exit" else -9), err.read_text()
    pids = [int(p) for p in out.read_text().split()]
    assert len(pids) == 2
    try:
        # Exit handlers join the workers; a killed parent's workers get
        # SIGTERM.
        deadline = time.monotonic() + (0.0 if ending == "exit" else 10.0)
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))
    finally:
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)


def test_a_broken_pool_is_replaced():
    parallel_map(_pid, range(4), 2)
    old = _workers()
    with pytest.raises(BrokenProcessPool):
        parallel_map(_die, range(4), 2)
    pids = set(parallel_map(_pid, range(8), 2))
    new = _workers()
    assert len(new) == 2 and pids <= new
    assert not new & old
