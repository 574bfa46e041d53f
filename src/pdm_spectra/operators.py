"""Grids and dense matrix assembly for both operator pictures.

All operators are discretized on interior nodes with Dirichlet truncation:
a grid over (a, b) with n interior nodes has spacing h = (b-a)/(n+1) and
nodes a + i*h, i = 1..n.  Boundary values enter the stencils as zeros.

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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadIntervalError,
    OutOfDomainError,
    SingularEdgeError,
    TooFewNodesError,
    TooLargeError,
)
from .model import AmbiguityOrdering, ConstantMass, MassLike, MassProfile, ModelSpec, generator_eval
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
    "build_ordered_kinetic",
    "export_matrix",
]

# Points of a mass-picture grid must keep c1*x + c2 above this fraction of
# |c1| times the local node spacing; the mass blows up at c1*x + c2 = 0.  The
# local spacing, unlike the grid width, does not grow with the far end of a
# log-mapped grid, so the guard is free of the window's scale.
EDGE_EPSILON_FACTOR = 1e-8

# Largest grid the dense assembly accepts: one complex n x n matrix takes
# 16 n^2 bytes, 1.0 GB at this size.
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
    """Dense complex matrix over a grid, tagged with its role."""

    entries: np.ndarray
    role: str
    grid: Grid
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {entries.shape}")
        if entries.shape[0] != self.grid.n:
            raise ValueError(
                f"matrix size {entries.shape[0]} does not match grid with {self.grid.n} nodes"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _dense_zeros(grid: Grid, dtype=complex) -> np.ndarray:
    """Zeroed n x n matrix for a grid, refused before allocating when too large."""
    n = grid.n
    if n > MAX_DENSE_NODES:
        raise TooLargeError(
            f"dense assembly accepts grids up to {MAX_DENSE_NODES} nodes, got {n} "
            f"({16 * n * n / 1e9:.1f} GB per matrix)"
        )
    return np.zeros((n, n), dtype=dtype)


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
    n = grid.n
    h = grid.h
    m = _dense_zeros(grid)
    np.fill_diagonal(m, 2.0 / h**2 + reference_potential(spec.generator, spec.alpha0, grid.nodes))
    i = np.arange(n - 1)
    m[i, i + 1] = -1.0 / h**2
    m[i + 1, i] = -1.0 / h**2
    return OperatorMatrix(m, "reference_h", grid, {"spec": spec})


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
    mu = np.broadcast_to(np.asarray(mu, float), x.shape)
    mu1 = np.broadcast_to(np.asarray(mu1, float), x.shape)
    mu2 = np.broadcast_to(np.asarray(mu2, float), x.shape)
    diag_pot = -mu1 * mu1 / 4.0 - mu * mu2 / 2.0 + target_potential(spec, x)

    m = _dense_zeros(grid)
    i = np.arange(n - 1)
    if grid.kind == "uniform_x":
        h = grid.h
        midpoints = grid.a + h * (np.arange(n + 1) + 0.5)
        w = np.asarray(spec.profile.eval(midpoints).mu, float)
        w = np.broadcast_to(w, midpoints.shape) ** 2
        np.fill_diagonal(m, (w[:-1] + w[1:]) / h**2 + diag_pot)
        off = -w[1:-1] / h**2
        m[i, i + 1] = off
        m[i + 1, i] = off
    else:
        pts = grid.points
        hm = x - pts[:-2]
        hp = pts[2:] - x
        span = hm + hp
        a2 = -mu * mu  # coefficient of d^2/dx^2
        a1 = -2.0 * mu * mu1  # coefficient of d/dx
        np.fill_diagonal(m, a2 * (-2.0 / (hm * hp)) + a1 * ((hp - hm) / (hm * hp)) + diag_pot)
        upper = a2 * (2.0 / (hp * span)) + a1 * (hm / (hp * span))
        lower = a2 * (2.0 / (hm * span)) + a1 * (-hp / (hm * span))
        m[i, i + 1] = upper[:-1]
        m[i + 1, i] = lower[1:]
    return OperatorMatrix(m, "target_h", grid, {"spec": spec})


def build_eta_matrix(spec: ModelSpec, grid: Grid) -> OperatorMatrix:
    """First-order intertwiner -i(mu d/dx + mu'/2) + F(q(x)) on a uniform x grid.

    Assembled as -i (diag(mu) Dc + Dc diag(mu))/2 + diag(F), which realizes
    the same operator (mu d/dx + mu'/2 = (mu d/dx + d/dx mu)/2) while being
    Hermitian to the last bit.
    """
    if grid.kind != "uniform_x":
        raise ValueError(f"eta assembly needs a uniform_x grid, got {grid.kind}")
    _guard_mass_nodes(spec.profile, grid)
    n = grid.n
    h = grid.h
    x = grid.nodes
    mu = np.broadcast_to(np.asarray(spec.profile.eval(x).mu, float), x.shape)
    f = np.asarray(generator_eval(spec.generator, spec.profile.q_from_x(x))[0], float)
    m = _dense_zeros(grid)
    np.fill_diagonal(m, f)
    i = np.arange(n - 1)
    coupling = (mu[:-1] + mu[1:]) / (4.0 * h)
    m[i, i + 1] += -1j * coupling
    m[i + 1, i] += 1j * coupling
    return OperatorMatrix(m, "eta", grid, {"spec": spec})


def build_ordered_kinetic(
    ordering: AmbiguityOrdering, profile: MassLike, grid: Grid
) -> OperatorMatrix:
    """Symmetrized ordered kinetic operator on a uniform x grid.

    T = -(1/2) [ M^a D M^b D M^g + M^g D M^b D M^a ]

    with D the centered first difference and the mass powers evaluated on the
    diagonal.  With the exponent constraint a + b + g = -1 this realizes the
    divergence-form kinetic term plus the ordering-dependent potential terms.
    """
    if grid.kind != "uniform_x":
        raise ValueError(f"ordered kinetic assembly needs a uniform_x grid, got {grid.kind}")
    if not isinstance(profile, ConstantMass):
        u = profile.c1 * grid.points + profile.c2
        if np.any(u <= 0.0):
            raise OutOfDomainError("grid reaches outside the profile domain c1*x + c2 > 0")
    n = grid.n
    h = grid.h
    x = grid.nodes
    dc = _dense_zeros(grid, dtype=float)
    i = np.arange(n - 1)
    dc[i, i + 1] = 1.0 / (2.0 * h)
    dc[i + 1, i] = -1.0 / (2.0 * h)

    def masspow(exponent) -> np.ndarray:
        vals = profile.mass_power(x, float(exponent))
        return np.broadcast_to(np.asarray(vals, float), x.shape)

    ma = masspow(ordering.alpha)
    mb = masspow(ordering.beta)
    mg = masspow(ordering.gamma)
    first = (ma[:, None] * dc) @ (mb[:, None] * dc) * mg[None, :]
    second = (mg[:, None] * dc) @ (mb[:, None] * dc) * ma[None, :]
    t = -0.5 * (first + second)
    return OperatorMatrix(t.astype(complex), "ordered_kinetic", grid, {"ordering": ordering})


def export_matrix(matrix: OperatorMatrix, path) -> None:
    """Dump a matrix for external cross-checks.

    ``.csv`` writes one line per entry in row-major order with the header
    ``row,col,re,im`` and 17-significant-digit fields; ``.npy`` writes the
    raw complex array via numpy's binary format.
    """
    path = str(path)
    if path.endswith(".npy"):
        np.save(path, np.asarray(matrix.entries))
        return
    if not path.endswith(".csv"):
        raise ValueError(f"unsupported export suffix in {path!r}; use .csv or .npy")
    n = matrix.n
    lines = ["row,col,re,im"]
    for r in range(n):
        for c in range(n):
            z = matrix.entries[r, c]
            lines.append(f"{r},{c},{z.real:.17g},{z.imag:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
