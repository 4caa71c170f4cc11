"""Leading-order quasimodes and the order-2 perturbation operator.

The quasimode is built in the well's scaled frame as an oscillator state in
(x2, xi) and carried back to physical coordinates by undoing the frame chain:
translation x2 = x1 - xi/b0, inverse Fourier transform xi -> y1 (evaluated as
an exact discrete oscillatory quadrature on a Nyquist-safe xi grid), the
sqrt(h) scaling, a C^2 cutoff and M-normalization.  The result is a flat
complex array of length `Grid.size` in the grid's x-major layout, the same
layout as each column of `EigenResult.eigenvectors`, so a quasimode and an
eigenvector compare directly by residual or by M-weighted alignment.

The order-2 operator is assembled exactly in a truncated oscillator tensor
basis using ladder-operator matrices; its diagonal fiber blocks reproduce the
effective harmonic oscillators of each Landau level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import AssembledOperator, Grid
from .errors import DomainError
from .hermite import (OscillatorBasis, momentum_matrix, oscillator_eigenfunction,
                      position_matrix)
from .wellmodel import WellData

__all__ = [
    "QuasimodeSpec",
    "build_leading_quasimode",
    "clipped_cutoff",
    "residual",
    "T2Matrix",
    "assemble_T2",
]


def _default_cutoff(well: WellData, h: float) -> float:
    aniso = max(1.0, (well.b0 ** 2 / min(well.alpha1, well.beta1)) ** 0.25)
    return 6.0 * math.sqrt(h / well.b0) * aniso


def clipped_cutoff(well: WellData, h: float, domain) -> float:
    """Default cutoff radius, clipped so the cutoff ball stays in `domain`."""
    x0, y0 = well.x0
    dist = min(x0 - domain.x_min, domain.x_max - x0,
               y0 - domain.y_min, domain.y_max - y0)
    if dist <= 0:
        raise DomainError("well sits on the domain boundary")
    return min(_default_cutoff(well, h), dist / 1.25 * 0.995)


@dataclass(frozen=True)
class QuasimodeSpec:
    well: WellData
    j: int
    k: int
    h: float
    cutoff_radius: float = None

    def __post_init__(self):
        if not self.h > 0:
            raise DomainError("h must be positive")
        if self.j < 0 or self.k < 0:
            raise DomainError("level indices must be non-negative")
        if self.cutoff_radius is None:
            object.__setattr__(self, "cutoff_radius",
                               _default_cutoff(self.well, self.h))


def _bump(r, r0):
    """C^2 cutoff: 1 for r <= r0, 0 for r >= 1.25 r0, smootherstep between."""
    s = np.clip((r - r0) / (0.25 * r0), 0.0, 1.0)
    return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)


def build_leading_quasimode(spec: QuasimodeSpec, grid: Grid, gauge=None,
                            op_mass=None) -> np.ndarray:
    """Sample the physical-space leading quasimode phi_{jk0} on the grid.

    Returns the M-normalized values as a flat complex array, x-major.

    When the global A1 = 0 gauge is anchored at the well's x-coordinate it
    coincides with the well-frame gauge of the scaled construction, so the
    relating phase factor is identically one; `gauge` is checked for that
    anchoring.  `op_mass` is the diagonal mass used for normalization
    (defaults to the flat dx*dy weight).
    """
    well = spec.well
    h = spec.h
    x0, y0 = well.x0
    if gauge is not None and abs(gauge.x_anchor - x0) > 1e-10:
        raise DomainError(
            f"gauge anchored at x = {gauge.x_anchor}, but the well sits at x = {x0}; "
            "re-anchor the gauge at the well")
    r0 = spec.cutoff_radius
    if not grid.domain.contains((x0 - 1.25 * r0, y0 - 1.25 * r0)) or \
       not grid.domain.contains((x0 + 1.25 * r0, y0 + 1.25 * r0)):
        raise DomainError("cutoff ball extends outside the grid domain")

    sq = math.sqrt(h)
    x1 = (grid.xs - x0) / sq
    y1 = (grid.ys - y0) / sq

    # transverse oscillator (frequency b0) and effective xi-oscillator
    x2_basis = OscillatorBasis(beta=1.0, gamma=well.b0 ** 2)
    xi_basis = OscillatorBasis(beta=(2 * spec.k + 1) * well.beta1,
                               gamma=(2 * spec.k + 1) * well.alpha1 / well.b0 ** 2)
    om_xi = xi_basis.frequency

    # xi grid: cover the Gaussian tail and resolve e^{i y1 xi} up to the cutoff
    xi_max = (math.sqrt(2 * spec.j + 1) + 8.0) / math.sqrt(om_xi)
    y1_max = 1.25 * r0 / sq
    # four xi points per half-period of e^{i y1 xi} at the cutoff edge
    dxi = math.pi / (4.0 * max(y1_max, 1.0))
    n_xi = int(2 * xi_max / dxi) + 1
    if n_xi > 500_000:
        raise DomainError(
            f"xi grid of {n_xi} points needed (cutoff {r0}, h {h}); enlarge h or shrink cutoff")
    xi = np.linspace(-xi_max, xi_max, n_xi)
    dxi = xi[1] - xi[0]

    # u0 on (xi_m, x1_i): psi_k(x1 - xi/b0) * Psi_jk(xi)
    x2 = x1[None, :] - xi[:, None] / well.b0
    U = (oscillator_eigenfunction(x2_basis, spec.k, x2)
         * oscillator_eigenfunction(xi_basis, spec.j, xi)[:, None])

    # inverse Fourier transform xi -> y1 as a direct oscillatory quadrature;
    # the e^{-i y1 xi} chirality matches the orientation of the Peierls phases
    E = np.exp(-1j * np.outer(y1, xi)) * (dxi / math.sqrt(2 * math.pi))
    phi = (E @ U).T  # (nx, ny)

    X, Y = grid.meshgrid()
    r = np.hypot(X - x0, Y - y0)
    phi = phi * _bump(r, r0)

    values = phi.reshape(-1)
    mass = op_mass if op_mass is not None else np.full(grid.size, grid.dx * grid.dy)
    nrm = math.sqrt(float(np.sum(np.abs(values) ** 2 * mass)))
    if not 0 < nrm < math.inf:
        raise DomainError(f"quasimode vanished on the grid (norm {nrm})")
    return values / nrm


def residual(op: AssembledOperator, phi, mu: float) -> float:
    """Discrete weighted residual ||H phi - mu M phi||_{M^{-1}} / ||phi||_M
    of a flat grid function `phi`."""
    v = np.asarray(phi)
    if v.shape != op.M.shape:
        raise DomainError("dimension mismatch")
    nrm = math.sqrt(float(np.sum(np.abs(v) ** 2 * op.M)))
    if nrm == 0:
        raise DomainError("zero grid function")
    r = op.H @ v - mu * (op.M * v)
    return math.sqrt(float(np.sum(np.abs(r) ** 2 / op.M))) / nrm


# ---------------------------------------------------------------------------
# the order-2 operator in the oscillator tensor basis

@dataclass
class T2Matrix:
    """Order-2 perturbation operator in the basis psi_m(x2) (x) Psi_n(xi).

    The xi-basis is the common eigenbasis of every effective level oscillator
    (their width is level-independent), so fiber blocks come out diagonal.
    """

    matrix: np.ndarray
    m_cut: int
    n_cut: int
    b0: float
    alpha: float
    beta: float
    R0: float
    xi_frequency: float

    @property
    def alpha1(self):
        return self.alpha + self.b0 * self.R0 / 12.0

    @property
    def beta1(self):
        return self.beta + self.b0 * self.R0 / 12.0

    def fiber_block(self, k: int) -> np.ndarray:
        """Restriction <psi_k (x) . , T2 (psi_k (x) .)> to the xi factor."""
        if k >= self.m_cut:
            raise DomainError(f"k = {k} outside the x2 cut {self.m_cut}")
        n = self.n_cut
        return self.matrix[k * n:(k + 1) * n, k * n:(k + 1) * n]

    def oscillator_matrix(self, k: int) -> np.ndarray:
        """Analytic matrix of the level-k effective oscillator in the xi basis."""
        a1, b1 = self.alpha1, self.beta1
        const = ((2 * k * k + 2 * k + 1)
                 * (a1 + b1 + 0.5 * self.b0 * self.R0) / (2 * self.b0)
                 - 0.25 * self.R0)
        n_int = self.n_cut + 8
        XI = position_matrix(self.xi_frequency, n_int)
        DXI = momentum_matrix(self.xi_frequency, n_int)
        Hk = ((2 * k + 1) * b1 * (DXI @ DXI)
              + (2 * k + 1) * a1 / self.b0 ** 2 * (XI @ XI)
              + const * np.eye(n_int))
        return Hk[:self.n_cut, :self.n_cut]

    def projected_eigenvalue(self, j: int, k: int) -> float:
        """j-th eigenvalue of the level-k fiber block (the nu_{jk} candidate)."""
        if self.m_cut < max(j, k) + 6 or self.n_cut < max(j, k) + 6:
            raise DomainError("basis cut insufficient: need cuts >= max(j, k) + 6")
        vals = np.linalg.eigvalsh(self.fiber_block(k))
        return float(vals[j])


def assemble_T2(b0: float, alpha: float, beta: float, R0: float,
                m_cut: int = 12, n_cut: int = 12) -> T2Matrix:
    """Assemble the order-2 operator exactly via ladder-operator matrices.

    (alpha, beta) are the quadratic Taylor coefficients of the 2-form
    coefficient B in the well frame; the intensity data are then
    alpha1 = alpha + b0*R0/12, beta1 = beta + b0*R0/12.
    """
    if b0 <= 0:
        raise DomainError("b0 must be positive")
    alpha1 = alpha + b0 * R0 / 12.0
    beta1 = beta + b0 * R0 / 12.0
    if alpha1 > 0 and beta1 > 0:
        om_xi = math.sqrt(alpha1 / beta1) / b0
    else:
        om_xi = 1.0  # trivial operator; any basis width works

    margin = 8
    Mi, Ni = m_cut + margin, n_cut + margin
    Ix = np.eye(Mi)
    Ixi = np.eye(Ni)
    X = position_matrix(b0, Mi).astype(complex)
    DX = momentum_matrix(b0, Mi)
    XI = position_matrix(om_xi, Ni).astype(complex)
    DXI = momentum_matrix(om_xi, Ni)

    def kr(a, b):
        return np.kron(a, b)

    u_op = kr(X, Ixi) + kr(Ix, XI) / b0            # x2 + xi/b0
    v_op = -kr(Ix, DXI) + kr(DX, Ixi) / b0         # -D_xi + D_x2/b0

    L = alpha / b0 ** 2 * (XI @ XI) + beta * (DXI @ DXI)
    M0 = alpha / (3 * b0 ** 3) * (XI @ XI @ XI) + beta / b0 * (XI @ DXI @ DXI)
    M1k = kr(alpha / 3 * (X @ X @ X) + beta / b0 ** 2 * (X @ DX @ DX), Ixi)
    M2k = -2 * beta / b0 ** 2 * kr(DX, XI @ DXI)
    M3k = -2 * beta / b0 * kr(X @ DX, DXI)
    M4k = alpha / b0 * kr(X @ X, XI) + beta / b0 ** 3 * kr(DX @ DX, XI)
    Mk = kr(Ix, M0) + M1k + M2k + M3k + M4k

    Xk = kr(X, Ixi)
    DXk = kr(DX, Ixi)

    T2 = (
        -1j / 6 * R0 / b0 * kr(Ix, XI) @ DXk
        - 1j / 6 * R0 * b0 * Xk @ kr(Ix, DXI)
        + 2 * b0 * kr(X @ X, L)
        + b0 * (Xk @ Mk + Mk @ Xk)
        + R0 / 6 * v_op @ v_op @ (DXk @ DXk)
        + R0 / 6 * u_op @ v_op @ (b0 * (DXk @ Xk + Xk @ DXk))
        + R0 / 6 * u_op @ u_op @ (b0 ** 2 * Xk @ Xk)
        + 1j * R0 / 3 * u_op @ DXk
        - 1j * R0 / 3 * v_op @ (b0 * Xk)
    )

    # restrict to the requested cut; the margin makes this block exact
    idx = (np.arange(m_cut)[:, None] * Ni + np.arange(n_cut)[None, :]).reshape(-1)
    T2 = T2[np.ix_(idx, idx)]
    return T2Matrix(matrix=T2, m_cut=m_cut, n_cut=n_cut, b0=b0,
                    alpha=alpha, beta=beta, R0=R0, xi_frequency=om_xi)
