"""One worker process per CPU.

`synth` builds and writes one shard of players per worker, `featurize` loads
and featurizes one, and the attack protocols train one shard of their
independent units per worker. A shard is a contiguous run of the jobs, in
order, so the parent merges results in job order and its output does not
depend on the number of CPUs. Each worker is
forked from the caller, inherits its data without copying, and pickles back
only its result; a single shard runs in the calling process. Fork rather
than spawn: a spawned worker would import numpy and the layers again and
receive its matrices pickled, which costs more than a desk-scale shard
saves, and `aia` starts no thread of its own (BLAS is pinned to one) before
it forks.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import traceback
from typing import Callable, Iterable

from .errors import AiaError


def worker_count() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def shards(items: list, n: int, size: Callable[[object], int]) -> list[list]:
    """At most `n` contiguous runs of `items`, in order, each holding about
    the same total `size`; one empty run when there are no items."""
    left = sum(size(item) for item in items)  # not in a closed run
    runs: list[list] = [[]]
    held = 0
    for item in items:
        # Close the open run once it holds its share of what is left.
        if runs[-1] and len(runs) < n and held * (n - len(runs) + 1) >= left:
            left -= held
            runs.append([])
            held = 0
        runs[-1].append(item)
        held += size(item)
    return runs


def run_forked(fn, jobs: list) -> list:
    """fn(job) for each job, in job order. Each job runs in a child forked
    from this process and pickles its result back through its own pipe; a
    single job runs here. A child that exits without a result (it printed
    its traceback) raises AiaError."""
    if len(jobs) == 1:
        return [fn(jobs[0])]
    pids, readers = [], []
    try:
        for job in jobs:
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:  # pragma: no cover - the child, which never returns
                    _report_to_parent(fn, job, read_fd, write_fd)
                pids.append(pid)
            finally:
                os.close(write_fd)
        results = [reader.read() for reader in readers]
    finally:
        # A child blocked on a full pipe sees it closed, so every wait ends.
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, code in zip(pids, codes):
        if code != 0:
            raise AiaError(f"worker process {pid} failed (exit status {code})")
    return [pickle.loads(data) for data in results]


def _report_to_parent(fn, job, read_fd: int, write_fd: int) -> None:  # pragma: no cover
    """In a forked child: write pickle(fn(job)) to the pipe's `write_fd` and
    exit, with status 1 and the traceback on stderr when that fails."""
    status = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as out:
            pickle.dump(fn(job), out, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(status)


def _run_units(fn, units: list) -> tuple[list, AiaError | None]:
    """fn(unit) for each unit up to the first that raises AiaError, and that
    error (None when every unit ran)."""
    results = []
    for unit in units:
        try:
            results.append(fn(unit))
        except AiaError as exc:
            return results, exc
    return results, None


def map_units(fn, units: Iterable) -> list:
    """[fn(unit) for unit in units], one contiguous shard of units per CPU.

    Errors read as in that serial loop: an AiaError raised by a unit, or by
    `units` itself while yielding the next one, is raised once every earlier
    unit has run, and only when none of them failed first.
    """
    listed, late = [], None
    try:
        for unit in units:
            listed.append(unit)
    except AiaError as exc:
        late = exc
    results = []
    for shard_results, error in run_forked(
            functools.partial(_run_units, fn),
            shards(listed, worker_count(), lambda unit: 1)):
        results += shard_results
        if error is not None:
            raise error
    if late is not None:
        raise late
    return results
