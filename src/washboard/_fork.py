"""The one place the package forks: :func:`forked`, a helper process that is
killed and reaped on every way out.  The sweep helpers of
:func:`washboard.cli.run_sweep` and the Monte Carlo noise helper of
:func:`washboard.montecarlo.simulate` use it.

The channel is two pipes, one each way.  A Unix socket pair would be one
descriptor a side, but a socket whose peer closes with bytes unread makes
the next read raise ``ECONNRESET`` where a pipe reads EOF, and the noise
helper can die with a "free" byte unread.

Caveats.  Python 3.12 and later warn when a process with threads forks, and
OpenBLAS starts threads at import; only Python 3.11 was tried, so that
warning was never seen.  :func:`washboard.cli.main` pins OpenBLAS to one
thread before its sweeps fork, but the pin leaves OpenBLAS's idle threads
in place, and a library caller of ``simulate`` forks with no pin at all.
"""

import os
import signal
import sys
from contextlib import contextmanager, suppress

__all__ = ["forked"]


@contextmanager
def forked(fn):
    """Run ``fn(read_fd, write_fd)`` in a forked child and yield this
    process's ``(read_fd, write_fd)``: each side reads what the other writes.
    Yield None, and start nothing, where ``os.fork`` does not exist or no
    pipe or process can be made.

    The child leaves through ``os._exit``: status 0 when ``fn`` returns, 1
    when it raises, after printing the traceback to standard error.  Each
    side closes the ends it does not use, so the child's exit reads here as
    EOF.  On every way out the child is sent SIGKILL (one that has finished
    is exiting anyway), the ends are closed and the child is reaped.
    """
    fds, pid = [], None
    with suppress(OSError):             # no pipe or no process: pid stays None
        if hasattr(os, "fork"):
            fds += os.pipe()            # child -> this process
            fds += os.pipe()            # this process -> child
            pid = os.fork()
    if pid is None:
        for fd in fds:
            os.close(fd)
        yield None
        return
    up_r, up_w, down_r, down_w = fds
    if pid == 0:                        # the child; it never returns
        status = 1
        try:
            os.close(up_r)
            os.close(down_w)
            fn(down_r, up_w)
            status = 0
        except BaseException:
            import traceback
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(up_w)
    os.close(down_r)
    try:
        yield up_r, down_w
    finally:
        os.kill(pid, signal.SIGKILL)
        os.close(up_r)
        os.close(down_w)
        os.waitpid(pid, 0)
