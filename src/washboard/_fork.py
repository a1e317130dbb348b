"""The one place the package forks, and the one fan-out both parallel callers
share: :func:`fanned_out` splits work into contiguous parts, solves the first
in this process and each of the others in a helper that :func:`forked`
starts, and gathers the results in order.  :func:`washboard.cli.run_sweep`
shares out the points of a sweep this way and
:func:`washboard.montecarlo.simulate` its trajectories.  A helper sends its
result back pickled, over one pipe from the child to this process.

Caveats.  Python 3.12 and later warn when a process with threads forks, and
OpenBLAS starts threads at import; only Python 3.11 was tried, so that
warning was never seen.  :func:`washboard.cli.main` pins OpenBLAS to one
thread before its sweeps fork, but the pin leaves OpenBLAS's idle threads
in place, and a library caller of ``simulate`` forks with no pin at all.
"""

import functools
import os
import pickle
import signal
import sys
from contextlib import ExitStack, contextmanager, suppress

__all__ = ["fanned_out", "forked"]


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def forked(fn):
    """Run ``fn(write_fd)`` in a forked child and yield this process's
    ``read_fd``, which reads what the child writes.  Yield None, and start
    nothing, where ``os.fork`` does not exist or no pipe or process can be
    made.

    The child leaves through ``os._exit``: status 0 when ``fn`` returns, 1
    when it raises, after printing the traceback to standard error.  The
    child closes the read end and this process the write end, so the
    child's exit reads here as EOF.  On every way out the child is sent
    SIGKILL (one that has finished is exiting anyway), the read end is
    closed and the child is reaped.
    """
    fds, pid = [], None
    with suppress(OSError):             # no pipe or no process: pid stays None
        if hasattr(os, "fork"):
            fds += os.pipe()
            pid = os.fork()
    if pid is None:
        for fd in fds:
            os.close(fd)
        yield None
        return
    read_fd, write_fd = fds
    if pid == 0:                        # the child; it never returns
        status = 1
        try:
            os.close(read_fd)
            fn(write_fd)
            status = 0
        except BaseException:
            import traceback
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        yield read_fd
    finally:
        os.kill(pid, signal.SIGKILL)
        os.close(read_fd)
        os.waitpid(pid, 0)


def _send(solve, part, write_fd: int) -> None:
    """A helper's work: ``solve(part)``, written back pickled."""
    with open(write_fd, "wb", closefd=False) as fh:
        pickle.dump(solve(part), fh)


def _received(read_fd: int, solve, part):
    """The result a helper wrote, or ``solve(part)`` here if it sent none."""
    with open(read_fd, "rb", closefd=False) as fh:
        payload = fh.read()
    try:
        return pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):   # died before or while writing
        return solve(part)


@contextmanager
def fanned_out(solve, parts: list):
    """Fork a helper for each of ``parts[1:]`` and yield ``gather()``, which
    returns ``[solve(part) for part in parts]``.

    ``gather`` solves ``parts[0]`` in this process, then reads each
    helper's pickled result in order; a part whose helper could not be
    started, or that died (its traceback, if it raised, is on standard
    error), is solved here, so what it raises, ``gather`` raises.  Work
    done in the ``with`` body before ``gather`` runs alongside the helpers.
    Helpers are killed and reaped on every way out.
    """
    with ExitStack() as stack:
        helpers = [stack.enter_context(forked(functools.partial(_send, solve, part)))
                   for part in parts[1:]]

        def gather():
            results = [solve(parts[0])]
            for part, read_fd in zip(parts[1:], helpers):
                results.append(solve(part) if read_fd is None
                               else _received(read_fd, solve, part))
            return results

        yield gather
