"""Interleaved shares of an independent sweep, one per CPU, in forked children.

A sweep of ``count`` independent items (the couplings of ``wh-sweep``, the
modes of ``analyze``) is split into interleaved shares, items w, w +
workers, w + 2 workers, ... for w < workers.  Share 0 runs in this
process; every other share runs in an ``os.fork`` child, which pickles its
result to a pipe and leaves through ``os._exit``.  The children inherit
the sweep's inputs, so nothing is pickled on the way out.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading


def _worker_count(items: int, least: int) -> int:
    """CPUs this process may run on, at most one per ``least`` items.

    One without fork, or while another Python thread runs: a forked child
    keeps only the calling thread, and locks the others held stay taken.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") \
            or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), items // least))


def _child_share(read_fd: int, write_fd: int, share, start: int, workers: int):
    """In a forked child: pickle one share's result to the pipe and exit.

    ``os._exit`` never returns into the caller and never flushes stdio
    buffers copied from the parent.  The exit status is 0 only once the
    whole result is written.
    """
    code = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(share(start, workers)))
        code = 0
    finally:
        os._exit(code)


def _run_shares(share, workers: int) -> list:
    """``share(w, workers)`` for each w < workers, in order.

    Share 0 runs in this process, every other share in a forked child that
    pickles its result to a pipe.  All pipes are read to their end and all
    children reaped before anything is returned or raised; if this process
    is interrupted, or its own share raises, it kills and reaps its
    children first.
    """
    pipes = {}  # pid -> read end, until it is read
    live = []  # forked and not yet reaped
    payloads, statuses = [], []
    try:
        for start in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child_share(read_fd, write_fd, share, start, workers)
            live.append(pid)
            pipes[pid] = read_fd
            os.close(write_fd)
        results = [share(0, workers)]
        for pid in live:
            with open(pipes.pop(pid), "rb") as pipe:
                payloads.append(pipe.read())
        while live:
            statuses.append(os.waitpid(live[0], 0)[1])
            live.pop(0)
    except BaseException:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
        for pid in live:
            os.waitpid(pid, 0)
        raise
    finally:
        for fd in pipes.values():
            os.close(fd)
    for start, (payload, status) in enumerate(zip(payloads, statuses), start=1):
        if status != 0 or not payload:
            raise RuntimeError(f"the worker for share {start} of the sweep did not "
                               f"return its result (wait status {status})")
        results.append(pickle.loads(payload))
    return results


def interleaved(share, count: int, least: int) -> list:
    """The rows of ``count`` items, computed in interleaved shares.

    ``share(start, step)`` computes the items start, start + step, ... and
    returns (rows, failure): the rows of its items in that order, and
    (index, exception) of the first item that failed, or None.  There is
    one share per CPU this process may run on, with at least ``least``
    items each; without ``os.fork``, while another Python thread runs, or
    with one share, everything runs in this process.  Of the items that
    fail, the lowest index's exception is raised, as a run in one process
    would raise it; otherwise the rows come back in item order.
    """
    workers = _worker_count(count, least)
    results = _run_shares(share, workers)
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [results[i % workers][0][i // workers] for i in range(count)]
