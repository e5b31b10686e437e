"""Run contiguous groups of work on every usable CPU, one forked worker per group.

`split` cuts range(units) into contiguous groups, one per CPU this thread may
run on, but only as many as carry at least `min_units` each: a fork, exit and
wait cost about 5 ms in a 200 MB process, plus the copy-on-write faults of
both sides, so a group below the caller's measured break-even runs faster in
the calling process.  With one group nothing is forked or pinned.

`run` forks one worker per group after the first and runs the first group
itself.  Each process pins itself to its own CPU, since an unpinned worker
was left on its parent's CPU; the caller's affinity is restored afterwards.
Workers return their results through memory the caller shared before the
fork (an anonymous `mmap`) and leave by os._exit only, so they flush no
inherited buffer and run no exit handler.  The collector is frozen from
before the fork to the join, so it writes none of the pages the fork shares.
Every worker is waited for; if the caller raises, the workers left are
killed and reaped.  A worker that exits non-zero has its group rerun in the
caller, which then raises the worker's exception, or repeats its work if
the worker died of something else.  The fork copies only the calling thread;
the only other threads the program runs are OpenBLAS's, whose pool shuts
down across a fork and restarts on the next BLAS call.
"""

from __future__ import annotations

import gc
import os
import signal


def cpus() -> list[int]:
    """The CPUs the calling thread may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def split(units: int, min_units: int, cpu_list: list[int]) -> list[range]:
    """Contiguous groups of range(units): one per CPU, each of at least min_units.

    There is always at least one group, which may be short or empty.
    """
    count = max(1, min(len(cpu_list), units // max(1, min_units)))
    return [range(units * k // count, units * (k + 1) // count) for k in range(count)]


def _fork_pinned(cpu: int, job, group) -> int:
    """Fork a worker pinned to `cpu` that runs job(group); return its pid.

    The worker leaves only by os._exit: status 0 if the job returned, 1 if
    anything raised.
    """
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.sched_setaffinity(0, {cpu})
            job(group)
            status = 0
        finally:
            os._exit(status)
    return pid


def run(job, groups: list[range], cpu_list: list[int]) -> None:
    """Call job(group) for every group, group k on cpu_list[k] (see the module docstring)."""
    if len(groups) == 1:
        job(groups[0])
        return
    workers, failed = {}, []
    home = os.sched_getaffinity(0)
    gc.freeze()  # until the join the collector writes none of the pages the fork shares
    try:
        for cpu, group in zip(cpu_list[1:], groups[1:]):
            workers[_fork_pinned(cpu, job, group)] = group
        os.sched_setaffinity(0, {cpu_list[0]})
        try:
            job(groups[0])
        finally:
            os.sched_setaffinity(0, home)
        while workers:
            pid, status = os.waitpid(next(iter(workers)), 0)
            if status:
                failed.append(workers[pid])
            del workers[pid]
    finally:
        gc.unfreeze()
        for pid in workers:  # left only when the calling process raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for group in failed:
        job(group)
