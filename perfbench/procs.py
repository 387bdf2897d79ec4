"""Stop every process a run started, and wait for each to end.

The workloads close what they start: the pool's workers and the reference
work's helper.  That leaves the ``multiprocessing`` resource tracker, which
the first shared-memory segment or named semaphore of the run starts.  It
is not a ``multiprocessing`` child, and without this module it would
outlive the run: it only ends once the run's process has exited, and then
nobody waits for it.  Closing its pipe makes it unlink whatever is still
registered and exit; it is waited for here.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
from time import perf_counter, sleep

__all__ = ["stop_children"]


def _wait(pid: int, timeout: float) -> None:
    """Wait for child ``pid``; kill it if it has not ended in ``timeout``."""
    deadline = perf_counter() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if perf_counter() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            sleep(0.005)
    except ChildProcessError:  # already waited for
        pass


def _stop_resource_tracker(timeout: float) -> None:
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    lock = getattr(tracker, "_lock", None)
    if lock is None:
        return
    with lock:
        fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
        if pid is None:
            return
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    _wait(pid, timeout)


def stop_children(timeout: float = 10.0) -> None:
    """End this process's children and wait for each, the resource tracker
    last: a child still running could hold the tracker's pipe open, and a
    semaphore finalized after it would start a new tracker."""
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    gc.collect()
    _stop_resource_tracker(timeout)
