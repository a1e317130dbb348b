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


def test_both_copies_are_found():
    # numpy's and scipy's wheels each bring one; transport imports both
    assert len(blas._controls()) == 2


def test_one_thread_pins_and_restores(two_threads):
    assert not blas.single_threaded()
    with pytest.raises(KeyError):
        with blas.one_thread():
            assert _counts() == [1, 1] and blas.single_threaded()
            with blas.one_thread():
                assert _counts() == [1, 1]
            assert _counts() == [1, 1]
            raise KeyError("restored on the way out")
    assert _counts() == [2, 2]


def test_factor_hierarchy_runs_on_one_thread(two_threads, monkeypatch):
    seen = []
    dgetri = transport.dgetri

    def recorded(*args, **kwargs):
        seen.append(_counts())
        return dgetri(*args, **kwargs)

    monkeypatch.setattr(transport, "dgetri", recorded)
    params = ModelParams(gamma=1.0, beta=5.0, force=0.5,
                         potential=PeriodicPotential.cosine(1.0, 1.0))
    transport.factor_hierarchy(params, TruncationSpec(8, 4))
    assert seen == [[1, 1]] * 8
    assert _counts() == [2, 2]


def test_main_pins_for_the_whole_call(two_threads, monkeypatch, tmp_path):
    seen = []
    solve = cli.solve_transport

    def recorded(*args, **kwargs):
        seen.append(_counts())
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_transport", recorded)
    assert cli.main(["transport", "--n-hermite", "16", "--n-fourier", "4",
                     "--count", "2", "--out", str(tmp_path / "t.csv")]) == 0
    assert seen == [[1, 1]] * 2
    assert _counts() == [2, 2]
