"""Closed-form semiclassical quantities for a single non-degenerate magnetic well.

Everything here is exact arithmetic on the well's local data: the invariants
(a, d, t) of the half-Hessian of the field intensity at its minimum, the
harmonic-oscillator coefficients mu_{jk} of the two-term eigenvalue expansion
(2k+1) h b0 + h^2 mu_{j,k,2}, and the exact spectrum of the
constant-field-plus-quadratic-potential model.  The gap constant c_k, which
places the spectral gaps of a periodic tiling, is the bottom of the level-k
ladder: c_k = mu_jk2(well, 0, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "WellData",
    "WellInvariants",
    "FlatModelParams",
    "derive_invariants",
    "mu_jk2",
    "flat_model_spectrum",
    "p_flat_spectrum",
]


@dataclass(frozen=True)
class WellData:
    """Local model of the magnetic well.

    b0 is the field minimum, (alpha1, beta1) the eigenvalues of half the
    Hessian of the intensity b at the minimum, R0 the scalar curvature there
    and x0 the location of the minimum.
    """

    b0: float
    alpha1: float
    beta1: float
    R0: float = 0.0
    x0: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (self.b0 > 0):
            raise DomainError(f"b0 must be positive, got {self.b0}")
        if not (self.alpha1 > 0 and self.beta1 > 0):
            raise DomainError("degenerate well: half-Hessian eigenvalues must be positive, "
                              f"got ({self.alpha1}, {self.beta1})")

    @property
    def invariants(self) -> "WellInvariants":
        return derive_invariants(np.diag([self.alpha1, self.beta1]))


@dataclass(frozen=True)
class WellInvariants:
    """a = sqrt(alpha1)+sqrt(beta1), d = alpha1*beta1, t = alpha1+beta1."""

    a: float
    d: float
    t: float


@dataclass(frozen=True)
class FlatModelParams:
    """Constant field b plus quadratic potential with coefficient matrix K."""

    b: float
    K: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        object.__setattr__(self, "K", K)
        if not (self.b > 0):
            raise DomainError(f"b must be positive, got {self.b}")
        if K.shape != (2, 2) or not np.allclose(K, K.T, atol=1e-12 * (1 + abs(K).max())):
            raise DomainError("K must be a symmetric 2x2 matrix")
        if np.linalg.eigvalsh(K).min() < -1e-12 * (1 + abs(K).max()):
            raise DomainError("K must be positive semi-definite")


def _check_spd(hess_half) -> np.ndarray:
    H = np.asarray(hess_half, dtype=float)
    if H.shape != (2, 2) or not np.allclose(H, H.T, atol=1e-12 * (1 + abs(H).max())):
        raise DomainError("degenerate well: half-Hessian must be a symmetric 2x2 matrix")
    ev = np.linalg.eigvalsh(H)
    if ev.min() <= 0:
        raise DomainError(f"degenerate well: half-Hessian eigenvalues {ev} not all positive")
    return ev


def derive_invariants(hess_half) -> WellInvariants:
    """Invariants (a, d, t) of a symmetric positive-definite half-Hessian."""
    lam1, lam2 = _check_spd(hess_half).tolist()
    return WellInvariants(a=math.sqrt(lam1) + math.sqrt(lam2),
                          d=lam1 * lam2, t=lam1 + lam2)


def mu_jk2(well: WellData, j: int, k: int) -> float:
    """Second-order expansion coefficient mu_{j,k,2} (equals nu_{jk}).

    (2j+1)(2k+1) sqrt(d)/b0 + (2k^2+2k+1) t/(2 b0) + (k^2+k) R0/2.

    k indexes the Landau level: the eigenvalues near (2k+1) h b0 follow
    (2k+1) h b0 + h^2 mu_{j,k,2} + o(h^2).  Only k = 0 is the low-lying
    spectrum covered by the paper's expansion; the k >= 1 coefficients belong
    to the excited Landau levels, whose branch sits inside the quasi-dense
    k = 0 background.  For the standard well b = 1 + x^2 + y^2 the k = 1,
    j = 0 remainder is -2.05 h^2 at h = 0.1 and -1.13 h^2 at h = 0.04
    (exact radial reference), and reaches its h^3 regime only below
    h ~ 0.01.
    """
    if j < 0 or k < 0:
        raise DomainError("level indices must be non-negative")
    inv = well.invariants
    return ((2 * j + 1) * (2 * k + 1) * math.sqrt(inv.d) / well.b0
            + (2 * k * k + 2 * k + 1) * inv.t / (2 * well.b0)
            + 0.5 * (k * k + k) * well.R0)


def flat_model_spectrum(params: FlatModelParams, count: int):
    """The `count` smallest levels (2n1+1)s1 + (2n2+1)s2 of the exact model
    spectrum, as an ascending list of (eigenvalue, n1, n2), ties by (n2, n1)."""
    if count < 1:
        raise DomainError("count must be >= 1")
    t_K = float(np.trace(params.K))
    b = params.b
    disc = (t_K + b * b) ** 2 - 4 * float(np.linalg.det(params.K))
    if disc < -1e-12 * (t_K + b * b) ** 2:
        raise AssertionError("negative discriminant for valid flat-model parameters")
    root = math.sqrt(max(disc, 0.0))
    s1 = math.sqrt(max(t_K + b * b - root, 0.0) / 2)
    s2 = math.sqrt((t_K + b * b + root) / 2)
    # the value is non-decreasing in each index, so the `count` smallest
    # levels all have n1, n2 < count; this bound also caps the artificial
    # degeneracy at s1 = 0 (pure Landau levels) at `count` per level
    levels = sorted(((2 * n1 + 1) * s1 + (2 * n2 + 1) * s2, n2, n1)
                    for n2 in range(count + 1) for n1 in range(count + 1))
    return [(lam, n1, n2) for lam, n2, n1 in levels[:count]]


def p_flat_spectrum(h: float, b0: float, hess_half, count: int):
    """Ascending eigenvalues of the shifted semiclassical flat comparison operator.

    h * lambda - h * b0 over the exact model spectrum lambda of
    FlatModelParams(b0, sqrt(h) * hess_half): the comparison operator is h
    times that model, shifted by the Landau energy h * b0.
    """
    if h <= 0:
        raise DomainError(f"h must be positive, got {h}")
    _check_spd(hess_half)
    params = FlatModelParams(b0, math.sqrt(h) * np.asarray(hess_half, dtype=float))
    return [(h * lam - h * b0, n1, n2)
            for lam, n1, n2 in flat_model_spectrum(params, count)]
