"""Contiguous chunks of work spread over processes, this one included.

``run_sharded`` is the one place where the package starts worker
processes: ``mc`` runs its replicates through it and the CSV reader its
byte ranges. ``multiprocessing`` is imported only when a worker is
needed, so a run that never shards does not load it.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count (at least 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _send_result(conn, fn: Callable, args: tuple, chunk: range) -> None:
    """Worker process body: send back ``fn(*args, chunk)`` or the error
    that ended it."""
    try:
        conn.send(fn(*args, chunk))
    except Exception as exc:
        conn.send(exc)


def run_sharded(fn: Callable, args: tuple, chunks: Sequence[range], label: str) -> list:
    """``[fn(*args, chunk) for chunk in chunks]``, one chunk per process.

    Worker processes run chunks 1.. while this process runs chunk 0, so
    no process idles and a profile of this process still sees every
    layer. ``fn`` must be a module-level function and ``args`` picklable.
    Results are read in chunk order, so the error raised is the
    lowest-index one, as in the serial loop; on any error the remaining
    workers are terminated rather than awaited. A worker that exits
    without a result raises ``RuntimeError`` naming its chunk as
    ``label start-last``.
    """
    if len(chunks) < 2:
        return [fn(*args, chunk) for chunk in chunks]
    import multiprocessing

    workers = []
    try:
        for chunk in chunks[1:]:
            receive, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_send_result, args=(send, fn, args, chunk), daemon=True
            )
            proc.start()
            send.close()  # so a worker that dies unheard reads as EOF here
            workers.append((proc, receive, chunk))
        results = [fn(*args, chunks[0])]
        for proc, receive, chunk in workers:
            try:
                got = receive.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"the worker running {label} {chunk.start}-{chunk.stop - 1} "
                    f"exited with code {proc.exitcode} without a result"
                ) from None
            if isinstance(got, Exception):
                raise got
            results.append(got)
    except BaseException:
        for proc, _, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, receive, _ in workers:
            proc.join()
            receive.close()
    return results
