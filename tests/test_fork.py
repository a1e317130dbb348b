import errno
import os
import pathlib
import re
import signal

import pytest

import washboard
from washboard import _fork
from washboard._fork import fanned_out, forked

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
def test_channel_carries_what_the_child_writes():
    def shout(write_fd):
        os.write(write_fd, b"HELLO")

    with forked(shout) as read_fd:
        assert os.read(read_fd, 5) == b"HELLO"
        assert os.read(read_fd, 1) == b""
        assert _exited_child() == (os.CLD_EXITED, 0)
    _assert_no_child()


@_FORK
def test_raising_child_leaves_its_traceback_and_reads_as_eof(capfd):
    def fail(write_fd):
        raise RuntimeError("injected child failure")

    with forked(fail) as read_fd:
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

    def wait_forever(write_fd):
        os.write(write_fd, b"\1")
        signal.pause()              # until killed

    monkeypatch.setattr(os, "waitpid", recorded)
    with pytest.raises(RuntimeError, match="injected body failure"):
        with forked(wait_forever) as read_fd:
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
    with forked(lambda write_fd: ran.append(True)) as ends:
        assert ends is None
        _assert_no_child()
    assert ran == [] and pipes == []


@_FORK
@pytest.mark.parametrize("pipes_made", [0, 1])
def test_failed_start_yields_none_and_closes_its_pipes(monkeypatch, pipes_made):
    # os.pipe fails (EMFILE) after ``pipes_made`` pipes; after the one pipe,
    # os.fork fails (EAGAIN)
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
    with forked(lambda write_fd: None) as ends:
        assert ends is None
    assert len(made) == 2 * pipes_made
    for fd in made:
        with pytest.raises(OSError, match="Bad file descriptor"):
            os.fstat(fd)
    _assert_no_child()


def _modules_matching(pattern: str) -> set:
    package = pathlib.Path(washboard.__file__).parent
    return {path.name for path in package.rglob("*.py")
            if re.search(pattern, path.read_text())}


def test_only_the_fork_module_forks():
    # one copy of the process handling: a second module that forks, exits a
    # child, reaps it or kills it has grown its own
    assert _modules_matching(r"os\.fork|os\._exit|os\.waitpid|SIGKILL") == {"_fork.py"}


def test_only_the_fork_module_reads_the_cpu_count():
    # one budget: a second module that counts CPUs cuts its work on its own
    assert _modules_matching(r"_cpu_count\(|sched_getaffinity|cpu_count\(") == {"_fork.py"}


def _cpus(monkeypatch, n):
    monkeypatch.setattr(_fork, "_cpu_count", lambda: n)


@_FORK
def test_fan_out_gathers_in_order_and_solves_a_dead_helpers_part_here(monkeypatch):
    parent = os.getpid()

    def solve(part):
        if part == [2] and os.getpid() != parent:
            os._exit(3)
        return part, os.getpid() == parent

    _cpus(monkeypatch, 4)
    with fanned_out(solve, [0, 1, 2, 3]) as gather:
        assert gather() == [([0], True), ([1], False), ([2], True), ([3], False)]
    _assert_no_child()


def _where(part):
    """``part`` and the pid of the process that solved it."""
    return part, os.getpid()


def _inner(part):
    """The parts and pids of a fan-out nested in the one solving ``part``."""
    with fanned_out(_where, range(4)) as gather:
        return gather()


@_FORK
@pytest.mark.parametrize("cpus, items, parts", [
    (2, range(5), [range(0, 2), range(2, 5)]),
    (4, range(3), [range(0, 1), range(1, 2), range(2, 3)]),
])
def test_fan_out_cuts_contiguous_parts_shortest_first(monkeypatch, cpus, items, parts):
    _cpus(monkeypatch, cpus)
    with fanned_out(_where, items) as gather:
        got = gather()
    assert [part for part, _ in got] == parts
    assert len({pid for _, pid in got}) == len(parts)
    _assert_no_child()


@_FORK
def test_fan_out_nested_in_a_helper_runs_inline_at_two_cpus(monkeypatch):
    _cpus(monkeypatch, 2)
    with fanned_out(_inner, range(2)) as gather:
        first, second = gather()
    parent = os.getpid()
    assert first == [(range(4), parent)]            # in the first part, here
    [(inner_part, helper)] = second
    assert inner_part == range(4) and helper != parent
    _assert_no_child()


@_FORK
def test_fan_out_in_the_with_body_runs_inline_at_two_cpus(monkeypatch):
    _cpus(monkeypatch, 2)
    with fanned_out(_where, range(2)) as gather:
        assert _inner(None) == [(range(4), os.getpid())]
        assert [pid == os.getpid() for _, pid in gather()] == [True, False]
    _assert_no_child()
    # outside any fan-out the budget is the CPU count again
    assert len({pid for _, pid in _inner(None)}) == 2
    _assert_no_child()


@_FORK
def test_nested_fan_outs_share_four_cpus(monkeypatch):
    _cpus(monkeypatch, 4)
    with fanned_out(_inner, range(2)) as gather:
        outer = gather()
    parent = os.getpid()
    assert [[part for part, _ in inner] for inner in outer] == [
        [range(0, 2), range(2, 4)]] * 2
    pids = [[pid for _, pid in inner] for inner in outer]
    assert pids[0][0] == parent and pids[1][0] != parent
    assert len({pid for inner in pids for pid in inner}) == 4
    _assert_no_child()


@_FORK
def test_unsplit_fan_out_forks_nothing(monkeypatch):
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(True))
    _cpus(monkeypatch, 4)
    with fanned_out(_where, [0, 1, 2, 3], split=False) as gather:
        assert gather() == [([0, 1, 2, 3], os.getpid())]
    assert forks == []
