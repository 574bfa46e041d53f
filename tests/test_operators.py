"""Grids and matrix assembly: exact stencils, exact symmetries, convergence."""

import numpy as np
import pytest
import sympy

from pdm_spectra import (
    MAX_DENSE_NODES,
    BadIntervalError,
    Constant,
    ConstantMass,
    ModelSpec,
    OperatorMatrix,
    OutOfDomainError,
    ScarfII,
    SingularEdgeError,
    TooFewNodesError,
    TooLargeError,
    build_eta_matrix,
    build_reference_matrix,
    build_target_matrix,
    eig,
    matched_domains,
    ordering_preset,
    q_induced_grid,
    target_potential,
    uniform_grid,
)

ZK = ordering_preset("ZhuKroemer")
GW = ordering_preset("GoraWilliams")
BDD = ordering_preset("BenDanielDuke")


def test_uniform_grid_nodes():
    g = uniform_grid(0.0, 1.0, 3)
    assert g.h == pytest.approx(0.25)
    np.testing.assert_allclose(g.nodes, [0.25, 0.5, 0.75], rtol=0, atol=1e-16)
    np.testing.assert_allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=1e-16)
    assert g.kind == "uniform_q"


def test_uniform_grid_guards():
    with pytest.raises(TooFewNodesError):
        uniform_grid(0.0, 1.0, 2)
    with pytest.raises(BadIntervalError):
        uniform_grid(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        uniform_grid(0.0, 1.0, 5, coordinate="y")


@pytest.mark.parametrize("a, b", [(-8.0, np.inf), (-np.inf, 8.0), (np.nan, 1.0), (0.0, np.nan)])
def test_uniform_grid_refuses_non_finite_endpoints(a, b):
    with pytest.raises(BadIntervalError, match="finite"):
        uniform_grid(a, b, 5)


# h^2 underflows to 0; h^2 is subnormal and 1/h^2 overflows; h^2 overflows
@pytest.mark.parametrize("a, b", [(0.0, 1e-300), (0.0, 1.8e-154), (-1e300, 1e300)])
@pytest.mark.parametrize("coordinate", ["q", "x"])
def test_uniform_grid_refuses_a_spacing_without_a_finite_inverse_square(a, b, coordinate):
    with pytest.raises(BadIntervalError, match=r"grid spacing h = .* has no finite 1/h\^2"):
        uniform_grid(a, b, 5, coordinate=coordinate)
    assert uniform_grid(0.0, 1.8e-153, 5).h ** -2 < np.inf  # the nearest scale that passes


def test_q_induced_grid_maps_nodes():
    spec = ModelSpec.from_ordering(ScarfII(2.0), ZK, q_interval=(-1.0, 1.0))
    gq = uniform_grid(-1.0, 1.0, 7)
    gx = q_induced_grid(spec.profile, gq)
    assert gx.kind == "q_induced_x"
    np.testing.assert_array_equal(gx.nodes, np.exp(gq.nodes))
    assert gx.a == pytest.approx(np.exp(-1.0)) and gx.b == pytest.approx(np.e)
    with pytest.raises(ValueError):
        q_induced_grid(spec.profile, gx)  # needs a uniform_q input


def test_matched_domains_refuse_mapped_spacings_without_a_finite_inverse_square():
    # x = e^q maps this window to (4e-322, 1e-304), whose spacings square
    # to 0; refused before any band is built, with no warning.
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-740.0, -700.0))
    with pytest.raises(BadIntervalError,
                       match=r"mapped grid spacing h = 4.99e-322 .* has no finite 1/h\^2"):
        matched_domains(spec, 50)
    wide = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-300.0, -250.0))
    assert matched_domains(wide, 50)[0].n == 50


def test_q_induced_grid_constant_mass_collapses_to_uniform():
    gq = uniform_grid(-2.0, 2.0, 9)
    gx = q_induced_grid(ConstantMass(), gq)
    assert gx.kind == "uniform_x"
    np.testing.assert_array_equal(gx.nodes, gq.nodes)


def test_matched_domains_share_q_window():
    spec = ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 4.0))
    gx, gq = matched_domains(spec, 11)
    assert (gq.a, gq.b) == (0.5, 4.0)
    np.testing.assert_array_equal(gx.nodes, spec.profile.x_from_q(gq.nodes))


def test_operator_matrix_guards():
    with pytest.raises(ValueError, match="upper"):
        OperatorMatrix(np.zeros(2), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="lower"):
        OperatorMatrix(np.zeros(3), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="diag"):
        OperatorMatrix(np.zeros(0), np.zeros((1, 1)), np.zeros(0))
    m = OperatorMatrix([1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0])
    with pytest.raises(ValueError):
        m.diag[0] = 0.0  # the bands are read-only


def test_operator_matrix_dense_form():
    m = OperatorMatrix([1.0, 2.0j], [3.0, 4.0, 5.0], [6.0, 7.0])
    expected = np.array([[3.0, 6.0, 0.0], [1.0, 4.0, 7.0], [0.0, 2.0j, 5.0]])
    np.testing.assert_array_equal(m.entries, expected)
    assert m.entries is not m.entries  # built on each access, never cached


def test_reference_matrix_free_box_exact():
    # h = 0.25: diagonal 2/h^2 = 32, off-diagonal -1/h^2 = -16, no potential
    spec = ModelSpec(Constant(0.0), BDD, ConstantMass(), q_interval=(0.0, 1.0))
    m = build_reference_matrix(spec, uniform_grid(0.0, 1.0, 3)).entries
    expected = np.array([[32.0, -16.0, 0.0], [-16.0, 32.0, -16.0], [0.0, -16.0, 32.0]])
    np.testing.assert_array_equal(m, expected.astype(complex))


def test_reference_matrix_grid_checks():
    spec = ModelSpec(ScarfII(2.0), ZK, ConstantMass(), q_interval=(-2.0, 2.0))
    with pytest.raises(OutOfDomainError):
        build_reference_matrix(spec, uniform_grid(-3.0, 2.0, 5))
    with pytest.raises(ValueError):
        build_reference_matrix(spec, uniform_grid(-1.0, 1.0, 5, coordinate="x"))


def test_reference_matrix_potential_on_diagonal():
    spec = ModelSpec(ScarfII(2.0), ZK, ConstantMass(), q_interval=(-2.0, 2.0))
    g = uniform_grid(-2.0, 2.0, 15)
    m = build_reference_matrix(spec, g).entries
    sech = 1.0 / np.cosh(g.nodes)
    np.testing.assert_allclose(
        np.diag(m), 2.0 / g.h**2 - 4.0 * sech**2 - 2j * sech * np.tanh(g.nodes), rtol=1e-15
    )


def test_target_uniform_real_part_exactly_symmetric():
    spec = ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 4.0))
    g = uniform_grid(*spec.x_interval, 40, coordinate="x")
    m = build_target_matrix(spec, g).entries
    assert np.array_equal(m.real, m.real.T)
    # the non-Hermitian part lives purely on the diagonal
    off_imag = m.imag - np.diag(np.diag(m.imag))
    assert np.all(off_imag == 0.0)


def test_target_constant_mass_collapses_bitwise():
    spec = ModelSpec(ScarfII(2.5), BDD, ConstantMass(), q_interval=(-8.0, 8.0))
    gx, gq = matched_domains(spec, 64)
    assert gx.kind == "uniform_x"
    target = build_target_matrix(spec, gx).entries
    reference = build_reference_matrix(spec, gq).entries
    assert np.array_equal(target, reference)


def test_target_singular_edge_guard():
    # c1*x + c2 = 1e-12 at the left end, a sliver of a cell from the mass
    # blow-up at x = 0; a grid that starts on the blow-up leaves the domain
    spec = ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 4.0))
    with pytest.raises(SingularEdgeError):
        build_target_matrix(spec, uniform_grid(1e-12, 1.0, 5, coordinate="x"))
    with pytest.raises(SingularEdgeError):
        build_eta_matrix(spec, uniform_grid(1e-12, 1.0, 5, coordinate="x"))
    with pytest.raises(OutOfDomainError):
        build_target_matrix(spec, uniform_grid(0.0, 1.0, 5, coordinate="x"))


def test_target_assembles_on_criterion_2_window():
    # the log-branch map sends q = -12 to x ~ 6e-6 and q = 12 to x ~ 1.6e5;
    # the first point still sits about twelve local cells from the blow-up
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-12.0, 12.0))
    gx, _ = matched_domains(spec, 300)
    assert gx.a == pytest.approx(np.exp(-12.0))
    assert np.all(np.isfinite(build_target_matrix(spec, gx).entries))


def test_oversized_grid_is_refused_before_allocating():
    # the bands of an oversized grid take O(n) memory; densifying them and
    # their full spectrum, O(n^2) in memory or time, are refused first
    spec = ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 4.0))
    n = MAX_DENSE_NODES + 1
    grid_x = uniform_grid(1.0, 2.0, n, coordinate="x")
    matrices = [
        build_reference_matrix(spec, uniform_grid(0.5, 4.0, n)),
        build_target_matrix(spec, grid_x),
        build_eta_matrix(spec, grid_x),
    ]
    for matrix in matrices:
        assert matrix.n == n
        with pytest.raises(TooLargeError, match=str(MAX_DENSE_NODES)):
            matrix.entries
        with pytest.raises(TooLargeError, match=str(MAX_DENSE_NODES)):
            eig(matrix)


def test_target_domain_guard():
    spec = ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 4.0))
    with pytest.raises(OutOfDomainError):
        build_target_matrix(spec, uniform_grid(-1.0, 1.0, 5, coordinate="x"))
    with pytest.raises(ValueError):
        build_target_matrix(spec, uniform_grid(0.5, 4.0, 5, coordinate="q"))


def test_eta_needs_a_uniform_x_grid():
    # the intertwiner's Hermitian stencil needs one spacing
    spec = ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 4.0))
    for grid in matched_domains(spec, 5):
        with pytest.raises(ValueError, match="eta assembly needs a uniform_x grid"):
            build_eta_matrix(spec, grid)


def _poly_bump(a, b):
    """(x-a)^2 (b-x)^2 with derivatives; vanishes to first order at both ends."""
    x = sympy.Symbol("x")
    psi = (x - a) ** 2 * (b - x) ** 2 * sympy.exp(-x)
    d1 = sympy.diff(psi, x)
    d2 = sympy.diff(d1, x)
    return tuple(sympy.lambdify(x, f, "numpy") for f in (psi, d1, d2))


def _target_action_error(spec, n):
    """Sup-norm error of the assembled operator acting on a smooth function."""
    gx, _ = matched_domains(spec, n)
    m = build_target_matrix(spec, gx).entries
    psi, d1, d2 = _poly_bump(gx.a, gx.b)
    xs = gx.nodes
    mu, mu1, mu2 = spec.profile.eval(xs)
    exact = (
        -(mu**2) * d2(xs)
        - 2.0 * mu * mu1 * d1(xs)
        + (-(mu1**2) / 4.0 - mu * mu2 / 2.0 + target_potential(spec, xs)) * psi(xs)
    )
    return np.max(np.abs(m @ psi(xs) - exact))


def test_target_nonuniform_stencils_converge_second_order():
    spec = ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 4.0))
    e1 = _target_action_error(spec, 200)
    e2 = _target_action_error(spec, 400)
    assert e1 / e2 >= 3.0, (e1, e2)


def test_eta_exactly_hermitian():
    for spec in (
        ModelSpec.from_ordering(ScarfII(2.0), ZK, q_interval=(-2.0, 2.0)),
        ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 4.0)),
    ):
        g = uniform_grid(*spec.x_interval, 41, coordinate="x")
        eta = build_eta_matrix(spec, g).entries
        assert np.array_equal(eta, eta.conj().T)


def test_eta_entries():
    spec = ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 4.0))
    g = uniform_grid(*spec.x_interval, 12, coordinate="x")
    eta = build_eta_matrix(spec, g).entries
    mu = spec.profile.eval(g.nodes).mu
    f, _ = spec.generator(spec.profile.q_from_x(g.nodes))
    np.testing.assert_array_equal(np.diag(eta), f.astype(complex))
    np.testing.assert_array_equal(
        np.diag(eta, k=1), -1j * (mu[:-1] + mu[1:]) / (4.0 * g.h)
    )
    np.testing.assert_array_equal(
        np.diag(eta, k=-1), 1j * (mu[:-1] + mu[1:]) / (4.0 * g.h)
    )


def test_eta_commutes_with_free_flat_operator_in_the_interior():
    """With mu = 1 and F = 0 the intertwining defect is pure boundary effect.

    eta reduces to -i Dc and H to the free Laplacian; both are Toeplitz, so
    eta H - H eta vanishes except in the corner rows.  BLAS reassociation
    leaves O(eps/h^3) dust in the interior; corners carry O(1/h^3).
    """
    spec = ModelSpec(Constant(0.0), BDD, ConstantMass(), q_interval=(0.0, 1.0))
    g = uniform_grid(0.0, 1.0, 50, coordinate="x")
    ham = build_target_matrix(spec, g).entries
    eta = build_eta_matrix(spec, g).entries
    comm = eta @ ham - ham.conj().T @ eta
    corner = np.max(np.abs(comm))
    assert corner == pytest.approx(1.0 / g.h**3, rel=1e-12)
    interior = np.max(np.abs(comm[2:-2, :]))
    assert interior <= 1e-12 * corner
