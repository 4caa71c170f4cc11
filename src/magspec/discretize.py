"""Gauge-covariant (Peierls-phase) finite differences on a uniform grid.

The operator is assembled as a generalized Hermitian pencil (H, M): H carries
the flat 5-point stencil with unit-modulus hopping phases and the optional
scalar potential; the diagonal mass M carries the conformal area weight
e^{2 phi} dx dy.  Eigenvalue problem downstream: H u = lambda M u.

A grid function is a plain flat complex array of length `Grid.size`, x-major:
entry i * ny + j holds the value at (xs[i], ys[j]), so `u.reshape(nx, ny)`
matches `Grid.meshgrid()`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import DomainError
from .fieldgeom import Rectangle

__all__ = [
    "Grid",
    "AssembledOperator",
    "assemble",
    "magnetic_form",
    "field_mass",
    "dump_matrix_market",
]


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a uniform grid on a rectangle, Dirichlet boundary."""

    domain: Rectangle
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise DomainError("grid must have at least 8 interior points per axis")

    @property
    def dx(self):
        return self.domain.width / (self.nx + 1)

    @property
    def dy(self):
        return self.domain.height / (self.ny + 1)

    @property
    def size(self):
        return self.nx * self.ny

    @property
    def xs(self):
        return self.domain.x_min + self.dx * np.arange(1, self.nx + 1)

    @property
    def ys(self):
        return self.domain.y_min + self.dy * np.arange(1, self.ny + 1)

    def meshgrid(self):
        return np.meshgrid(self.xs, self.ys, indexing="ij")


@dataclass
class AssembledOperator:
    """Sparse Hermitian stiffness H plus diagonal mass M for the pencil (H, M).

    `floor` is a proven lower bound of the spectrum: the magnetic form is
    positive semidefinite, so every eigenvalue is at least min(0, min V).
    `bottom` = floor + h * max(min b, 0), with b = B / e^{2 phi} at the nodes,
    is Montgomery's estimate of where the spectrum starts (the quadratic-form
    bound h * int b |u|^2 of the continuous operator).  It is not a bound on
    the grid, where coarse grids can put eigenvalues below it; on a grid whose
    plaquette flux exceeds pi, which aliases the field and puts eigenvalues
    far below it, `bottom` is the floor.
    """

    H: sp.csr_matrix
    M: np.ndarray  # diagonal entries
    grid: Grid
    floor: float = 0.0
    bottom: float = 0.0

    @property
    def dim(self):
        return self.grid.size


def assemble(setup, gauge, grid: Grid, h: float, potential=None) -> AssembledOperator:
    """Assemble the Peierls-phase discretization of the magnetic operator.

    `setup` must provide mass_weight(x, y) and B(x, y); `gauge` provides the
    y-edge integrals of A2 (A1 = 0), exact or by quadrature.  `potential` is
    an optional scalar function added as V(x, y) * M on the diagonal;
    min(0, min V) becomes the operator's `floor`, a lower bound of its
    spectrum, and floor + h * max(min b, 0) its `bottom` estimate (the floor
    on an aliased grid).
    """
    if not h > 0:
        raise DomainError(f"h must be positive, got {h}")
    dx, dy = grid.dx, grid.dy
    if h / dx ** 2 > 1e150 or h / dy ** 2 > 1e150:
        raise DomainError("h / dx^2 overflow guard tripped")
    xs, ys = grid.xs, grid.ys
    nx, ny = grid.nx, grid.ny
    w = dx * dy
    cx = h * h / dx ** 2 * w
    cy = h * h / dy ** 2 * w

    X, Y = grid.meshgrid()
    weight = np.broadcast_to(setup.mass_weight(X, Y), X.shape)
    mass = weight * w  # (nx, ny)

    # aliasing guard: plaquette flux should stay below pi; a grid that
    # aliases the field gets no bottom estimate above the floor
    B = setup.B(X, Y)
    aliased = float(np.abs(B).max()) * dx * dy / h > np.pi
    if aliased:
        warnings.warn("flux per plaquette exceeds pi -- refine grid")
    b_min = 0.0 if aliased else float(np.min(B / weight))

    # diagonal: each interior node sees 4 incident edges (Dirichlet outside)
    diag = np.full((nx, ny), 2 * cx + 2 * cy, dtype=complex)
    floor = 0.0
    if potential is not None:
        V = np.asarray(potential(X, Y), dtype=float)
        diag += V * mass
        floor = min(floor, float(V.min()))

    # hops -c e^{i theta}, theta = -(edge integral of A) / h, on five
    # diagonals of the x-major layout: the y-edge p -> p + 1 at offset -1, with
    # a Dirichlet 0 out of each column's last node, and the x-edge p -> p + ny
    # at -ny, phased only by transformed gauges (the native gauge has A1 = 0)
    theta = -gauge.y_edge_integrals(xs, ys) / h  # (nx, ny-1)
    hop_y = np.pad(-cy * np.exp(1j * theta), ((0, 0), (0, 1))).ravel()[:-1]
    x_edge = getattr(gauge, "x_edge_integrals", None)
    if x_edge is None:
        hop_x = np.full(grid.size - ny, -cx, dtype=complex)
    else:
        hop_x = -cx * np.exp(1j * (-x_edge(xs, ys) / h).ravel())
    H = sp.diags([diag.ravel(), hop_x, hop_x.conj(), hop_y, hop_y.conj()],
                 [0, -ny, ny, -1, 1], format="csr")
    return AssembledOperator(H=H, M=mass.reshape(-1), grid=grid, floor=floor,
                             bottom=floor + h * max(b_min, 0.0))


def magnetic_form(op: AssembledOperator, u) -> float:
    """<u, H u>: the discrete magnetic Dirichlet form (assemble without potential)."""
    v = np.asarray(u, dtype=complex)
    if v.size != op.dim:
        raise DomainError("dimension mismatch")
    return float(np.real(np.vdot(v, op.H @ v)))


def field_mass(setup, grid: Grid, u) -> float:
    """Discrete integral of b |u|^2 over the Riemannian area element."""
    v = np.asarray(u, dtype=complex)
    if v.size != grid.size:
        raise DomainError("dimension mismatch")
    X, Y = grid.meshgrid()
    bvals = np.broadcast_to(np.asarray(setup.b(X, Y), dtype=float), X.shape).reshape(-1)
    mass = (setup.mass_weight(X, Y) * grid.dx * grid.dy).reshape(-1)
    return float(np.sum(bvals * np.abs(v) ** 2 * mass))


def dump_matrix_market(op: AssembledOperator, path) -> None:
    """Write H in Matrix Market coordinate format (complex Hermitian, 1-based)."""
    with open(path, "wb") as fh:  # mmwrite alone ignores a missing directory
        scipy.io.mmwrite(fh, op.H.tocoo(), symmetry="hermitian")
