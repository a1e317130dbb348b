import errno
import os
import pathlib
import re
import signal

import pytest

import washboard
from washboard._fork import forked

_FORK = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


@pytest.fixture(autouse=True)
def deadline():
    """Fail, rather than hang, a test whose read never sees EOF."""
    def hung(signum, frame):
        raise TimeoutError("waited 30 s on a forked child")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exited_child():
    """(si_code, si_status) of the child that has exited, left unreaped."""
    info = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
    return info.si_code, info.si_status


@_FORK
def test_channel_runs_both_ways():
    def shout(read_fd, write_fd):
        os.write(write_fd, os.read(read_fd, 5).upper())

    with forked(shout) as (read_fd, write_fd):
        os.write(write_fd, b"hello")
        assert os.read(read_fd, 5) == b"HELLO"
        assert os.read(read_fd, 1) == b""
        assert _exited_child() == (os.CLD_EXITED, 0)
    _assert_no_child()


@_FORK
def test_raising_child_leaves_its_traceback_and_reads_as_eof(capfd):
    def fail(read_fd, write_fd):
        raise RuntimeError("injected child failure")

    with forked(fail) as (read_fd, _):
        assert os.read(read_fd, 1) == b""
        assert _exited_child() == (os.CLD_EXITED, 1)
    err = capfd.readouterr().err
    assert "Traceback" in err and "RuntimeError: injected child failure" in err
    _assert_no_child()


@_FORK
def test_exception_in_the_body_kills_and_reaps_a_running_child(monkeypatch):
    statuses = []
    waitpid = os.waitpid

    def recorded(pid, options):
        got = waitpid(pid, options)
        statuses.append(got[1])
        return got

    def wait_for_eof(read_fd, write_fd):
        os.write(write_fd, b"\1")
        os.read(read_fd, 1)         # returns once the other side's ends close

    monkeypatch.setattr(os, "waitpid", recorded)
    with pytest.raises(RuntimeError, match="injected body failure"):
        with forked(wait_for_eof) as (read_fd, _):
            assert os.read(read_fd, 1) == b"\1"     # the child is running
            raise RuntimeError("injected body failure")
    assert len(statuses) == 1
    assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL
    monkeypatch.undo()
    _assert_no_child()


def test_without_fork_nothing_is_started(monkeypatch):
    ran, pipes = [], []
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(True))
    with forked(lambda read_fd, write_fd: ran.append(True)) as ends:
        assert ends is None
        _assert_no_child()
    assert ran == [] and pipes == []


@_FORK
@pytest.mark.parametrize("pipes_made", [0, 1, 2])
def test_failed_start_yields_none_and_closes_its_pipes(monkeypatch, pipes_made):
    # os.pipe fails (EMFILE) after ``pipes_made`` pipes; after both, os.fork
    # fails (EAGAIN)
    made = []
    pipe = os.pipe

    def limited_pipe():
        if len(made) == 2 * pipes_made:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        fds = pipe()
        made.extend(fds)
        return fds

    def failing_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", limited_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    with forked(lambda read_fd, write_fd: None) as ends:
        assert ends is None
    assert len(made) == 2 * pipes_made
    for fd in made:
        with pytest.raises(OSError, match="Bad file descriptor"):
            os.fstat(fd)
    _assert_no_child()


def test_only_the_fork_module_forks():
    # one copy of the process handling: a second module that forks, exits a
    # child, reaps it or kills it has grown its own
    pattern = re.compile(r"os\.fork|os\._exit|os\.waitpid|SIGKILL")
    package = pathlib.Path(washboard.__file__).parent
    found = {path.name for path in package.rglob("*.py")
             if pattern.search(path.read_text())}
    assert found == {"_fork.py"}
