import pytest

from pdm_spectra import OperatorMatrix, eigen


@pytest.fixture(autouse=True)
def empty_solve_memo():
    """Every test starts with an empty `eig_lowest` memo, so that what a
    test counts (processes built, calls to `eig`) and what it patches does
    not depend on which tests ran before it."""
    eigen._MEMO.clear()


@pytest.fixture
def arnoldi_builds(monkeypatch):
    """Records the matrix size of each Arnoldi process eig_lowest builds."""
    builds = []

    class Counting(eigen._ShiftInvertArnoldi):
        def __init__(self, coupling, diag, *args):
            builds.append(diag.size)
            super().__init__(coupling, diag, *args)

    monkeypatch.setattr(eigen, "_ShiftInvertArnoldi", Counting)
    return builds


@pytest.fixture
def refuse_dense(monkeypatch):
    """Makes densifying any OperatorMatrix fail the test."""
    def refuse(matrix):
        raise AssertionError(f"densified a {matrix.n}-node operator")

    monkeypatch.setattr(OperatorMatrix, "entries", property(refuse))
