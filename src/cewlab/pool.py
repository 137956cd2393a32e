"""The package's one process pool: an ordered map over forked workers.

`ordered_map` runs the sweep's training groups and `generate`'s chunks
(after the first, for a request one chunk could hold). Each worker is
forked with the job list in its memory and runs its share of the jobs from
there, so a job's function and arguments are never pickled: only its
result, or its error, comes back, as one pickle on the worker's pipe. A
worker runs ahead of the consumer only as far as its pipe holds its
outcomes. A job's result does not depend on where it ran, so the bytes of
every artifact match a one-process run. The BLAS library's functions are
looked up here too: its thread setter, which pins each worker, and
`blas_kernel`, the name of the kernel it runs.
"""
from __future__ import annotations

import os
import pickle
import signal
import traceback
from itertools import starmap

from .errors import WorkerDied

# environment variables that cap a BLAS library's thread count
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def ordered_map(fn, jobs):
    """Yield fn(*job) for each argument tuple `job` of the sequence `jobs`, in job order.

    The job count caps the worker count W (see `worker_count`). Where W is
    1, this is `itertools.starmap`. Otherwise W workers are forked, each
    holding fn and jobs as this process held them, and worker w runs jobs
    w, w + W, w + 2W, ... back to back: only results are pickled, so fn and
    the jobs need not be. A worker blocks only when its pipe is full, so it
    runs ahead of the consumer by as many outcomes as the pipe holds (at
    least the job it is running). Closing the generator, or an error in a
    job or in the consumer, kills every worker (SIGKILL) and reaps it
    without waiting for the jobs in flight, so no worker outlives the
    generator. A job's exception, or the error pickling its result, is
    raised here with its own type and the worker's traceback as its cause,
    and a worker that ends before returning its job whole (killed by a
    signal, say) raises WorkerDied. Close the generator
    (`contextlib.closing`) where the consumer may stop early, so that the
    workers stop then and not when it is collected.
    """
    workers = worker_count(len(jobs))
    if workers == 1:
        yield from starmap(fn, jobs)
        return
    # fork, not spawn or forkserver: those re-import the caller's main
    # module, which breaks a script without a __main__ guard, and a forked
    # worker sees the functions its caller's module holds. OpenBLAS stops
    # its own thread pool at each fork.
    parent, pin_blas = os.getpid(), _blas_thread_setter()
    pids, outcomes = [], []  # per worker: its pid and this process's end of its pipe
    try:
        for w in range(workers):
            outcome_r, outcome_w = os.pipe()
            outcomes.append(open(outcome_r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, jobs[w::workers], parent, pin_blas, outcome_w, outcomes)
            finally:  # the worker's end, which _work never leaves
                os.close(outcome_w)
            pids.append(pid)
        for k in range(len(jobs)):
            try:
                error, detail, result = pickle.load(outcomes[k % workers])
            except (EOFError, pickle.UnpicklingError):  # no outcome, or a truncated one
                raise WorkerDied("a worker process ended before returning its job") from None
            if error is not None:
                raise error from _RemoteTraceback(detail)
            yield result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for pipe in outcomes:
            pipe.close()


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, the cause of the error `ordered_map` raises for it."""

    def __init__(self, detail: str) -> None:
        self.detail = detail

    def __str__(self) -> str:
        return self.detail


def _work(fn, jobs, parent: int, pin_blas, outcome_w: int, inherited) -> None:
    """A forked worker's whole life: run `jobs` back to back, then exit.

    It first closes `inherited`, the parent's ends of its own pipe and of
    those of every worker forked before it, so that only the parent holds
    them and a worker whose parent is gone stops at its next write
    (BrokenPipeError). Each job's outcome is written to outcome_w as one
    pickle. It never returns, and leaves through os._exit, so no cleanup of
    the caller's runs twice.
    """
    try:
        for pipe in inherited:
            pipe.close()
        _init_worker(parent, pin_blas)
        with open(outcome_w, "wb") as out:
            for job in jobs:
                out.write(_outcome(fn, job))
                out.flush()
    finally:
        os._exit(0)


def _outcome(fn, job) -> bytes:
    """The pickled (None, None, fn(*job)), or (error, its traceback, None) where that raised.

    The error is the job's own, or the one pickling its result raised; an
    error that does not pickle is replaced by the one pickling it raised.
    """
    try:
        return pickle.dumps((None, None, fn(*job)), pickle.HIGHEST_PROTOCOL)
    except BaseException as error:  # sent back, where the caller sees it
        detail = "".join(traceback.format_exception(error))
        try:
            return pickle.dumps((error, detail, None), pickle.HIGHEST_PROTOCOL)
        except Exception as unpicklable:
            return pickle.dumps((unpicklable, detail, None), pickle.HIGHEST_PROTOCOL)


def _init_worker(parent: int, pin_blas) -> None:
    """Make a forked worker die with its parent, then pin its BLAS to one thread.

    A worker in the middle of a job would outlive a parent killed by a
    signal. On Linux the kernel kills it when the thread that forked it
    (the first to advance `ordered_map`) exits; a parent gone before that
    leaves it reparented, so it exits now.
    """
    import ctypes
    prctl = getattr(ctypes.CDLL(None), "prctl", None)  # Linux's C library only
    if prctl is not None:
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)
    if pin_blas is not None:
        pin_blas(1)


def worker_count(jobs: int) -> int:
    """Processes `ordered_map` uses for `jobs` jobs; 1 means this process.

    One worker per usable CPU, at most one per job. Workers share the CPUs,
    so each must run one BLAS thread: unpinned, a two-worker pool was slower
    than one process. Each worker calls the setter of the BLAS library numpy
    loaded; without one, the pool runs only when the environment already
    sets a BLAS thread count of 1.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(jobs, cpus)
    if workers < 2:
        return 1
    if not hasattr(os, "fork"):
        return 1
    if _blas_thread_setter() is None and "1" not in map(os.environ.get, _BLAS_THREAD_VARS):
        return 1
    return workers


def _blas_thread_setter():
    """`openblas_set_num_threads` of the OpenBLAS numpy links, or None."""
    import ctypes
    return _openblas_function("set_num_threads", None, ctypes.c_int)


def blas_kernel() -> str | None:
    """Name of the kernel the OpenBLAS numpy links runs (`openblas_get_corename`), or None.

    A DYNAMIC_ARCH build picks its kernel for the CPU, or as the
    environment variable OPENBLAS_CORETYPE names it, and the last bits of
    its results depend on that choice.
    """
    import ctypes
    corename = _openblas_function("get_corename", ctypes.c_char_p)
    return None if corename is None else corename().decode()


def _openblas_function(name: str, restype, *argtypes):
    """`openblas_<name>` of the OpenBLAS numpy links, typed `restype(*argtypes)`, or None.

    numpy's wheels bundle scipy-openblas, whose symbols carry a `scipy_`
    prefix and, for 64-bit integers, a `64_` suffix. A symbol looked up in
    numpy's linalg extension is also searched for in the libraries that
    extension links, so the BLAS numpy calls is the one found.
    """
    import ctypes
    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            function = getattr(lib, prefix + name + suffix, None)
            if function is not None:
                function.restype, function.argtypes = restype, argtypes
                return function
    return None
