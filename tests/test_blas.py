import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import washboard.blas as blas
import washboard.cli as cli
import washboard.transport as transport
from washboard.basis import TruncationSpec
from washboard.model import ModelParams, PeriodicPotential


def _counts():
    return [get() for _, get in blas._controls()]


@pytest.fixture
def two_threads():
    """Every loaded OpenBLAS copy on two threads for the test, then as before."""
    controls = blas._controls()
    if not controls:
        pytest.skip("no loaded OpenBLAS exports its thread entry points")
    before = _counts()
    try:
        for setter, _ in controls:
            setter(2)
        if _counts() != [2] * len(controls):
            pytest.skip("OpenBLAS does not run two threads here")
        yield
    finally:
        for (setter, _), count in zip(controls, before):
            setter(count)


def _ones():
    return [1] * len(blas._controls())


def test_both_copies_are_found():
    # the package loads numpy's copy alone (tests/test_package.py checks it
    # in a fresh process); a caller that imports scipy.linalg brings scipy's
    # copy as well, and the pin must find both
    import scipy.linalg  # noqa: F401
    blas._controls.cache_clear()
    assert len(blas._controls()) == 2


def test_a_copy_loaded_later_counts(tmp_path):
    # scipy's copy, loaded inside a pin with OPENBLAS_NUM_THREADS=2, runs two
    # threads: single_threaded() must see it, so that run_sweep does not fork
    code = "\n".join([
        "import json",
        "import washboard.blas as blas",
        "with blas.one_thread():",
        "    before = blas.single_threaded()",
        "    import scipy.linalg",
        "    print(json.dumps([before, blas.single_threaded(), len(blas._controls())]))",
    ])
    env_path = str(pathlib.Path(blas.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": env_path,
                                          "OPENBLAS_NUM_THREADS": "2"})
    before, after, copies = json.loads(out.stdout.strip().splitlines()[-1])
    if not before:
        pytest.skip("no loaded OpenBLAS exports its thread entry points")
    assert (after, copies) == (False, 2)


def test_one_thread_pins_and_restores(two_threads):
    assert not blas.single_threaded()
    twos = _counts()
    with pytest.raises(KeyError):
        with blas.one_thread():
            assert _counts() == _ones() and blas.single_threaded()
            with blas.one_thread():
                assert _counts() == _ones()
            assert _counts() == _ones()
            raise KeyError("restored on the way out")
    assert _counts() == twos


def test_factor_hierarchy_runs_on_one_thread(two_threads, monkeypatch):
    # every LAPACK call of the factorization runs under the pin
    seen = []
    make = transport.inverter

    def recorded(stack):
        invert = make(stack)

        def call(k):
            seen.append(_counts())
            return invert(k)
        return call

    monkeypatch.setattr(transport, "inverter", recorded)
    params = ModelParams(gamma=1.0, beta=5.0, force=0.5,
                         potential=PeriodicPotential.cosine(1.0, 1.0))
    twos = _counts()
    transport.factor_hierarchy(params, TruncationSpec(8, 4))
    assert seen == [_ones()] * 8
    assert _counts() == twos


def test_main_pins_for_the_whole_call(two_threads, monkeypatch, tmp_path):
    seen = []
    solve = cli.solve_transport

    def recorded(*args, **kwargs):
        seen.append(_counts())
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_transport", recorded)
    assert cli.main(["transport", "--n-hermite", "16", "--n-fourier", "4",
                     "--count", "2", "--out", str(tmp_path / "t.csv")]) == 0
    assert seen == [_ones()] * 2
    assert _counts() == [2] * len(blas._controls())


def test_compute_diffusion_does_not_depend_on_the_thread_count(two_threads):
    # the gradient-squared quadrature's gemms round differently on two threads
    params = ModelParams(gamma=0.5, beta=5.0, force=1.5,
                         potential=PeriodicPotential.cosine(1.0, 1.0))
    trunc = TruncationSpec(384, 24)
    free = transport.solve_transport(params, trunc)
    with blas.one_thread():
        pinned = transport.solve_transport(params, trunc)
    assert free.d_ibp == pinned.d_ibp
    assert free.d_ibp_stability == pinned.d_ibp_stability


def _through_scipy(monkeypatch):
    """Send LAPACK through scipy.linalg.lapack from here on, as where numpy's
    OpenBLAS does not export it."""
    if blas._lapack() is None:
        pytest.skip("numpy's OpenBLAS exports no LAPACK here: scipy is the only path")
    monkeypatch.setattr(blas, "_lapack", lambda: None)


def _blocks(seed=0, count=6, size=49):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, size, size)) + 4.0 * np.eye(size)


def test_ctypes_and_scipy_inverses_agree(monkeypatch):
    a = _blocks()
    ours, theirs = a.copy(), a.copy()
    invert = blas.inverter(ours)
    assert [invert(k) for k in range(len(a))] == [0] * len(a)
    _through_scipy(monkeypatch)
    invert = blas.inverter(theirs)
    assert [invert(k) for k in range(len(a))] == [0] * len(a)
    for k in range(len(a)):
        assert np.abs(ours[k] @ a[k] - np.eye(49)).max() < 1e-12
        assert np.abs(ours[k] - theirs[k]).max() <= 1e-13 * np.abs(theirs[k]).max()


def test_ctypes_and_scipy_solves_agree(monkeypatch):
    a = _blocks(seed=1, count=1)[0]
    b = np.random.default_rng(2).standard_normal(49)
    x, rcond, info = blas.lu_solve(a, b)
    _through_scipy(monkeypatch)
    y, rcond_ref, info_ref = blas.lu_solve(a, b)
    assert info == info_ref == 0 and x.shape == b.shape
    assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()
    assert rcond == pytest.approx(rcond_ref, rel=1e-13)
    assert np.abs(a @ x - b).max() < 1e-12


@pytest.mark.parametrize("fallback", [False, True])
def test_singular_blocks_report_info(monkeypatch, fallback):
    if fallback:
        _through_scipy(monkeypatch)
    stack = np.zeros((2, 4, 4))
    stack[1] = np.eye(4)
    invert = blas.inverter(stack)
    assert invert(0) > 0 and invert(1) == 0
    assert np.array_equal(stack[1], np.eye(4))
    x, rcond, info = blas.lu_solve(np.zeros((4, 4)), np.ones(4))
    assert info > 0 and x is None and rcond == 0.0


def test_inverter_rejects_stacks_it_cannot_invert_in_place():
    for bad in (np.zeros((2, 3, 4)), np.zeros((2, 4, 4), dtype=np.float32),
                np.zeros((4, 4, 2)).transpose(2, 0, 1), np.zeros((4, 4))):
        with pytest.raises(ValueError):
            blas.inverter(bad)


def test_lu_solve_rejects_mismatched_shapes():
    for a, b in ((np.eye(3)[:2], np.ones(2)), (np.eye(3), np.ones(2)),
                 (np.eye(3), np.ones((3, 1))), (np.ones(3), np.ones(3))):
        with pytest.raises(ValueError):
            blas.lu_solve(a, b)


def test_fig1_row_is_the_same_through_scipy(monkeypatch):
    # fig1's gamma = 0.1 point at 1.05 F_c climbs past n0 = 64; through
    # scipy's LAPACK it gives the default path's row
    v0 = np.pi ** 2 / 16.0
    params = ModelParams(gamma=0.1, beta=1.2 / v0, force=1.05 * 3.36 * 0.1 * np.sqrt(v0),
                         potential=PeriodicPotential.cosine(v0, 2 * np.pi))
    trunc = TruncationSpec(64, 24)
    default = transport.solve_transport(params, trunc, adaptive=True)
    _through_scipy(monkeypatch)
    fallback = transport.solve_transport(params, trunc, adaptive=True)
    assert fallback.n_hermite == default.n_hermite > 64
    for name in ("drift", "d_primary", "d_ibp"):
        assert getattr(fallback, name) == pytest.approx(getattr(default, name), rel=1e-10)


def test_fallback_pins_the_copy_that_runs_its_lapack(tmp_path):
    # with numpy's LAPACK hidden, scipy's copy runs every solve; in a fresh
    # process, where nothing has imported scipy, the first pin must still
    # find it, and every LAPACK call of a sweep must run on one thread
    code = "\n".join([
        "import json",
        "import washboard.blas as blas",
        "import washboard.transport as transport",
        "from washboard.cli import main",
        "blas._lapack = lambda: None",
        "seen, make = [], transport.inverter",
        "def recorded(stack):",
        "    seen.append([get() for _, get in blas._controls()])",
        "    return make(stack)",
        "transport.inverter = recorded",
        "assert main(['transport', '--n-hermite', '16', '--n-fourier', '4',"
        f" '--count', '2', '--out', {str(tmp_path / 't.csv')!r}]) == 0",
        "print(json.dumps([len(blas._controls()), seen]))",
    ])
    env_path = str(pathlib.Path(blas.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": env_path})
    copies, seen = json.loads(out.stdout.strip().splitlines()[-1])
    assert copies == 2
    assert seen and seen == [[1, 1]] * len(seen)
