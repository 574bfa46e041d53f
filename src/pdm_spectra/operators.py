"""Grids and banded matrix assembly for both operator pictures.

All operators are discretized on interior nodes with Dirichlet truncation:
a grid over (a, b) with n interior nodes has spacing h = (b-a)/(n+1) and
nodes a + i*h, i = 1..n.  Boundary values enter the stencils as zeros.
Every stencil has three points, so each matrix is tridiagonal and is stored
as its three bands; the dense array is built only on request.

Flat-picture operators use the standard 3-point Laplacian.  Mass-picture
operators come in two flavours:

* on uniform position grids the second-order term is assembled in the
  manifestly symmetric divergence form -D^T diag(mu^2 at midpoints) D, so the
  real part of the matrix is exactly Hermitian;
* on grids induced by mapping a uniform flat grid through x(q), the expanded
  coefficient form -mu^2 d^2/dx^2 - 2 mu mu' d/dx is discretized with
  3-point stencils on non-uniform spacings.

The intertwiner eta = -i(mu d/dx + mu'/2) + F(q(x)) is discretized through
the operator identity mu d/dx + mu'/2 = (mu d/dx + d/dx mu)/2, whose matrix
realization (diag(mu) Dc + Dc diag(mu))/2 is antisymmetric to the last bit,
making eta exactly Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIntervalError,
    OutOfDomainError,
    SingularEdgeError,
    TooFewNodesError,
    TooLargeError,
)
from .model import ConstantMass, MassLike, ModelSpec
from .mapping import target_potential, reference_potential

__all__ = [
    "EDGE_EPSILON_FACTOR",
    "MAX_DENSE_NODES",
    "Grid",
    "uniform_grid",
    "q_induced_grid",
    "matched_domains",
    "OperatorMatrix",
    "build_reference_matrix",
    "build_target_matrix",
    "build_eta_matrix",
]

# Points of a mass-picture grid must keep c1*x + c2 above this fraction of
# |c1| times the local node spacing; the mass blows up at c1*x + c2 = 0.  The
# local spacing, unlike the grid width, does not grow with the far end of a
# log-mapped grid, so the guard is free of the window's scale.
EDGE_EPSILON_FACTOR = 1e-8

# Largest matrix that is densified, or whose full spectrum is computed: one
# complex n x n array takes 16 n^2 bytes, 1.0 GB at this size, and a banded
# full spectrum takes O(n^2) time.
MAX_DENSE_NODES = 8000


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a Dirichlet-truncated interval.

    kind is one of "uniform_q", "uniform_x", "q_induced_x".  For the two
    uniform kinds the spacing is the scalar (b-a)/(n+1); the induced kind
    stores mapped nodes with their own spacings.
    """

    kind: str
    a: float
    b: float
    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def h(self) -> float:
        """Uniform spacing (b-a)/(n+1); meaningful for the uniform kinds."""
        return (self.b - self.a) / (self.n + 1)

    @property
    def points(self) -> np.ndarray:
        """Nodes with the two boundary points prepended/appended."""
        return np.concatenate(([self.a], self.nodes, [self.b]))


def uniform_grid(a: float, b: float, n: int, coordinate: str = "q") -> Grid:
    """Uniform interior grid on (a, b) with n nodes.

    `coordinate` tags the axis ("q" flat picture, "x" mass picture) so the
    matrix builders can reject grids from the wrong picture.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise BadIntervalError(f"need finite endpoints, got ({a}, {b})")
    if not a < b:
        raise BadIntervalError(f"need a < b, got ({a}, {b})")
    if n < 3:
        raise TooFewNodesError(f"need at least 3 interior nodes, got {n}")
    if coordinate not in ("q", "x"):
        raise ValueError(f"coordinate must be 'q' or 'x', got {coordinate!r}")
    h = (b - a) / (n + 1)
    nodes = a + h * np.arange(1, n + 1)
    return Grid(kind=f"uniform_{coordinate}", a=float(a), b=float(b), nodes=nodes)


def q_induced_grid(profile: MassLike, q_grid: Grid) -> Grid:
    """Image of a uniform flat grid under the change of variables x(q).

    For ConstantMass the map is the identity and the result is tagged
    uniform_x, so downstream assembly collapses to the flat-picture stencils.
    """
    if q_grid.kind != "uniform_q":
        raise ValueError(f"expected a uniform_q grid, got {q_grid.kind}")
    if isinstance(profile, ConstantMass):
        return Grid(kind="uniform_x", a=q_grid.a, b=q_grid.b, nodes=q_grid.nodes.copy())
    xa = float(profile.x_from_q(q_grid.a))
    xb = float(profile.x_from_q(q_grid.b))
    nodes = profile.x_from_q(q_grid.nodes)
    return Grid(kind="q_induced_x", a=xa, b=xb, nodes=nodes)


def matched_domains(spec: ModelSpec, n: int) -> tuple[Grid, Grid]:
    """Paired grids (mass picture, flat picture) sharing one q-window."""
    qa, qb = spec.q_interval
    grid_q = uniform_grid(qa, qb, n, coordinate="q")
    grid_x = q_induced_grid(spec.profile, grid_q)
    return grid_x, grid_q


@dataclass(frozen=True)
class OperatorMatrix:
    """Complex tridiagonal matrix stored as its three bands.

    lower and upper hold the n - 1 entries below and above the diagonal.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        n = np.size(self.diag)
        for name, size in (("lower", n - 1), ("diag", n), ("upper", n - 1)):
            band = np.array(getattr(self, name), dtype=complex)
            if band.shape != (size,):
                raise ValueError(f"{name} band must have shape ({size},), got {band.shape}")
            band.setflags(write=False)
            object.__setattr__(self, name, band)

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n array, built anew on each access.

        Refused with TooLargeError above MAX_DENSE_NODES, before allocating.
        """
        n = self.n
        if n > MAX_DENSE_NODES:
            raise TooLargeError(
                f"dense matrices are limited to {MAX_DENSE_NODES} nodes, got {n} "
                f"({16 * n * n / 1e9:.1f} GB per matrix)"
            )
        m = np.zeros((n, n), dtype=complex)
        i = np.arange(n)
        m[i, i] = self.diag
        m[i[:-1], i[1:]] = self.upper
        m[i[1:], i[:-1]] = self.lower
        return m

    def sparse(self):
        """The matrix in scipy's compressed sparse column format."""
        # scipy is imported here, not at module level: its import costs more
        # than a small solve, and only the low-window solver and the
        # intertwining residual need it.
        from scipy.sparse import diags

        return diags([self.lower, self.diag, self.upper], [-1, 0, 1], format="csc")


def _check_inside_q_window(spec: ModelSpec, grid: Grid) -> None:
    qa, qb = spec.q_interval
    pad = 1e-12 * (qb - qa)
    if grid.a < qa - pad or grid.b > qb + pad:
        raise OutOfDomainError(
            f"grid ({grid.a}, {grid.b}) exits the model q-window ({qa}, {qb})"
        )


def build_reference_matrix(spec: ModelSpec, grid: Grid) -> OperatorMatrix:
    """Flat-picture Hamiltonian -d^2/dq^2 + V_eff(q) on a uniform q grid.

    The kinetic stencil is (-1, 2, -1)/h^2; the potential sits on the
    diagonal.  The grid must lie inside the model's q-window.
    """
    if grid.kind != "uniform_q":
        raise ValueError(f"reference assembly needs a uniform_q grid, got {grid.kind}")
    _check_inside_q_window(spec, grid)
    h = grid.h
    off = np.full(grid.n - 1, -1.0 / h**2)
    diag = 2.0 / h**2 + reference_potential(spec.generator, spec.alpha0, grid.nodes)
    return OperatorMatrix(off, diag, off)


def _guard_mass_nodes(profile: MassLike, grid: Grid) -> None:
    if isinstance(profile, ConstantMass):
        return
    points = grid.points
    u = profile.c1 * points + profile.c2
    if np.any(u <= 0.0):
        raise OutOfDomainError("grid reaches outside the profile domain c1*x + c2 > 0")
    cells = np.abs(np.diff(points))
    spacing = np.maximum(np.append(cells[0], cells), np.append(cells, cells[-1]))
    edge_epsilon = EDGE_EPSILON_FACTOR * abs(profile.c1) * spacing
    close = np.nonzero(u <= edge_epsilon)[0]
    if close.size:
        i = close[0]
        raise SingularEdgeError(
            f"grid point x = {points[i]:.6g} too close to the mass singularity: "
            f"c1*x + c2 = {u[i]:.3e} <= {edge_epsilon[i]:.3e}"
        )


def build_target_matrix(spec: ModelSpec, grid: Grid) -> OperatorMatrix:
    """Mass-picture Hamiltonian on a uniform_x or q_induced_x grid.

    The operator is

        -mu^2 d^2/dx^2 - 2 mu mu' d/dx - (mu')^2/4 - mu mu''/2 + V_eff(x),

    whose second-order part equals -d/dx (mu^2 d/dx).  Uniform grids use the
    divergence form with mu^2 sampled at cell midpoints (exactly symmetric);
    induced grids use 3-point stencils on the mapped spacings.
    """
    if grid.kind not in ("uniform_x", "q_induced_x"):
        raise ValueError(f"target assembly needs an x grid, got {grid.kind}")
    _guard_mass_nodes(spec.profile, grid)
    n = grid.n
    x = grid.nodes
    mu, mu1, mu2, _ = spec.profile.eval(x)
    diag_pot = -mu1 * mu1 / 4.0 - mu * mu2 / 2.0 + target_potential(spec, x)

    if grid.kind == "uniform_x":
        h = grid.h
        midpoints = grid.a + h * (np.arange(n + 1) + 0.5)
        w = spec.profile.eval(midpoints).mu ** 2
        off = -w[1:-1] / h**2
        return OperatorMatrix(off, (w[:-1] + w[1:]) / h**2 + diag_pot, off)
    pts = grid.points
    hm = x - pts[:-2]
    hp = pts[2:] - x
    span = hm + hp
    a2 = -mu * mu  # coefficient of d^2/dx^2
    a1 = -2.0 * mu * mu1  # coefficient of d/dx
    diag = a2 * (-2.0 / (hm * hp)) + a1 * ((hp - hm) / (hm * hp)) + diag_pot
    upper = a2 * (2.0 / (hp * span)) + a1 * (hm / (hp * span))
    lower = a2 * (2.0 / (hm * span)) + a1 * (-hp / (hm * span))
    return OperatorMatrix(lower[1:], diag, upper[:-1])


def build_eta_matrix(spec: ModelSpec, grid: Grid) -> OperatorMatrix:
    """First-order intertwiner -i(mu d/dx + mu'/2) + F(q(x)) on a uniform x grid.

    Assembled as -i (diag(mu) Dc + Dc diag(mu))/2 + diag(F), which realizes
    the same operator (mu d/dx + mu'/2 = (mu d/dx + d/dx mu)/2) while being
    Hermitian to the last bit.
    """
    if grid.kind != "uniform_x":
        raise ValueError(f"eta assembly needs a uniform_x grid, got {grid.kind}")
    _guard_mass_nodes(spec.profile, grid)
    x = grid.nodes
    mu = spec.profile.eval(x).mu
    f, _ = spec.generator(spec.profile.q_from_x(x))
    coupling = (mu[:-1] + mu[1:]) / (4.0 * grid.h)
    return OperatorMatrix(1j * coupling, f, -1j * coupling)
