"""Independent units of work spread over processes, this one included.

``run_sharded(fn, args, items, label)`` is ``[fn(*args, item) for item
in items]``, and it is the one place where the package starts worker
processes and the one owner of their count: one process per usable CPU,
at most one per item. ``mc`` hands it its replicates, the battery and
distance curves their (member, K) partitions, the CSV reader its byte
ranges and the CSV writer its row ranges. The caller decides whether a
worker pays for itself: the CSV paths cut no more ranges than their
size pays for (``corpus._SHARD_BYTES``), and the member stage runs its
items in its own process, without this function, below a measured
amount of work (``battery._SHARD_WORK``). A call made while another
call's workers run, in that caller's own share or inside a worker (an
``mc`` replicate's battery), runs its items in its own process: it
starts no process and leaves the BLAS count alone, so the CPUs stay one
process each. ``multiprocessing`` is imported only when a worker is
needed, so a run that never shards does not load it.

``_one_blas_thread()`` is the one place that sets numpy's BLAS threads:
``run_sharded`` enters it before it starts the workers and each worker
enters it too, whatever the start method, so sharded work runs on one
thread per process and two processes on two cores do not oversubscribe
them; the PCA fit runs its eigendecomposition in it. So no output
depends on the CPU count, which sets OpenBLAS's default thread count.
Thread-invariant work outside, such as serial k-means, keeps the
caller's count. Where no OpenBLAS is found the counts are left as they
are. The platform's default start method is kept; on Python 3.12 and
later a ``fork`` while OpenBLAS threads are alive may emit a
``DeprecationWarning`` (not verified: only 3.11 was tried).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from typing import Callable, Sequence

# True while this process runs one share of a sharded call, as its
# caller or as a worker: a nested call then runs serially
_in_shard = False


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count (at least 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def split_range(count: int, jobs: int) -> list[range]:
    """``range(count)`` cut into min(jobs, count) contiguous chunks whose
    sizes differ by at most one, in order (one empty chunk if count is 0)."""
    jobs = max(min(jobs, count), 1)
    bounds = [count * j // jobs for j in range(jobs + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, looked up through numpy's own extension module, or None."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then give it
    back the count it had, also on error; where no OpenBLAS is found,
    change nothing."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _send_results(conn, fn: Callable, args: tuple, items: Sequence) -> None:
    """Worker process body: send back ``[fn(*args, item) for item in
    items]``, run on one BLAS thread, or the error that ended it."""
    global _in_shard
    _in_shard = True  # a spawned worker does not inherit the caller's flag
    try:
        with _one_blas_thread():
            conn.send([fn(*args, item) for item in items])
    except Exception as exc:
        conn.send(exc)


def run_sharded(fn: Callable, args: tuple, items: Sequence, label: str) -> list:
    """``[fn(*args, item) for item in items]``, the items cut by
    ``split_range`` into one contiguous run per usable CPU.

    Worker processes take runs 1.. while this process takes run 0, so
    no process idles and a profile of this process still sees every
    layer. Each worker sends back one list for its run. Every run is on
    one BLAS thread; this process gets its own count back on return.
    ``fn`` must be a module-level function and ``args`` and ``items``
    picklable.
    Results are read in item order, so the error raised is the
    lowest-index one, as in the serial loop; on any error the remaining
    workers are terminated rather than awaited. A worker that exits
    without a result raises ``RuntimeError`` naming the indices of its
    items as ``label first-last``. A call nested in a share of another
    runs serially, as the module docstring says.
    """
    global _in_shard
    runs = [] if _in_shard else split_range(len(items), usable_cpus())
    if len(runs) < 2:
        return [fn(*args, item) for item in items]
    import multiprocessing

    workers = []
    with _one_blas_thread():  # before the fork, which copies the count
        _in_shard = True  # and the flag
        try:
            for run in runs[1:]:
                receive, send = multiprocessing.Pipe(duplex=False)
                proc = multiprocessing.Process(
                    target=_send_results, args=(send, fn, args, items[run.start : run.stop]),
                    daemon=True,
                )
                proc.start()
                send.close()  # so a worker that dies unheard reads as EOF here
                workers.append((proc, receive, run))
            results = [fn(*args, item) for item in items[: runs[0].stop]]
            for proc, receive, run in workers:
                try:
                    got = receive.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(
                        f"the worker running {label} {run.start}-{run.stop - 1} "
                        f"exited with code {proc.exitcode} without a result"
                    ) from None
                if isinstance(got, Exception):
                    raise got
                results.extend(got)
        except BaseException:
            for proc, _, _ in workers:
                proc.terminate()
            raise
        finally:
            _in_shard = False
            for proc, receive, _ in workers:
                proc.join()
                receive.close()
    return results
