"""The package's one process pool: an ordered, windowed map over forked workers.

`ordered_map` runs the sweep's training groups and `generate`'s chunks
(after the first, for a request one chunk could hold). Every job is a call
of a module-level function with picklable arguments, so a job's result does
not depend on where it ran and the bytes of every artifact match a
one-process run. The BLAS library's functions are looked up here too: its
thread setter, which pins each worker, and `blas_kernel`, the name of the
kernel it runs.
"""
from __future__ import annotations

import os
from collections import deque
from itertools import islice, starmap

from .errors import WorkerDied

# environment variables that cap a BLAS library's thread count
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def ordered_map(fn, jobs):
    """Yield fn(*job) for each argument tuple `job` of the sequence `jobs`, in job order.

    The job count caps the worker count (see `worker_count`). Where that
    count is 1, this is `itertools.starmap`. Otherwise jobs run in forked
    worker processes, submitted in order with at most one more in flight
    than there are workers; closing the generator, or an error in a job or
    in the consumer, cancels the jobs not yet started. A job's exception is
    raised here with its own type, and a worker that ends before returning
    its job (killed by a signal, say) raises WorkerDied. Close the generator
    (`contextlib.closing`) where the consumer may stop early, so that the
    workers stop then and not when it is collected.
    """
    workers = worker_count(len(jobs))
    if workers == 1:
        yield from starmap(fn, jobs)
        return
    import multiprocessing
    from concurrent import futures
    # fork, not the platform default: spawn and forkserver re-import the
    # caller's main module, which breaks a script without a __main__ guard,
    # and a forked worker sees the functions its caller's module holds. The
    # executor forks every worker before it starts its threads, and OpenBLAS
    # stops its own thread pool at each fork.
    pool = futures.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_init_worker,
                                       initargs=(os.getpid(), _blas_thread_setter()))
    try:
        jobs = iter(jobs)
        pending = deque(pool.submit(fn, *job) for job in islice(jobs, workers + 1))
        while pending:
            # the next job is submitted once the consumer asks for more, so a
            # consumer that stops leaves only one job per worker to finish
            yield pending.popleft().result()
            pending.extend(pool.submit(fn, *job) for job in islice(jobs, 1))
    except futures.BrokenExecutor:
        # the executor has already stopped the other workers
        raise WorkerDied("a worker process ended before returning its job")
    finally:
        pool.shutdown(cancel_futures=True)


def _init_worker(parent: int, pin_blas) -> None:
    """Make a forked worker die with its parent, then pin its BLAS to one thread.

    A worker blocks on the call queue, whose write end it inherited, so it
    would outlive a parent killed by a signal. On Linux the kernel kills it
    when the thread that forked it (the first to advance `ordered_map`)
    exits; a parent gone before that leaves it reparented, so it exits now.
    """
    import ctypes
    import signal
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
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
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
