"""Hermite polynomials and 1D harmonic-oscillator analytics.

Physicists' convention: H_{k+1} = 2x H_k - 2k H_{k-1}, H_0 = 1.  The
oscillator beta*D^2 + gamma*xi^2 has eigenvalues (2j+1)sqrt(beta*gamma) and
L2-normalized eigenfunctions built from scaled Hermite functions; all moment
identities below are stated for unit-norm states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "hermite_poly",
    "hermite_norm_sq",
    "OscillatorBasis",
    "oscillator_eigenfunction",
    "MomentTable",
    "moment_table",
    "position_matrix",
    "momentum_matrix",
]

_K_MAX = 60


def hermite_poly(k: int, x):
    """H_k(x) by the three-term recurrence; vectorized in x."""
    if k < 0:
        raise DomainError("k must be non-negative")
    if k > _K_MAX:
        raise DomainError(f"k = {k} exceeds the overflow guard ({_K_MAX})")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if k == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2 * x
    for n in range(1, k):
        h, h_prev = 2 * x * h - 2 * n * h_prev, h
    return h if h.ndim else float(h)


def hermite_norm_sq(k: int) -> float:
    """Squared Gaussian-weight norm: integral of H_k^2 e^{-x^2} = 2^k k! sqrt(pi)."""
    return 2.0 ** k * math.factorial(k) * math.sqrt(math.pi)


@dataclass(frozen=True)
class OscillatorBasis:
    """The 1D operator beta*D^2 + gamma*xi^2, D = -i d/dxi."""

    beta: float
    gamma: float

    def __post_init__(self):
        if not (self.beta > 0 and self.gamma > 0):
            raise DomainError("oscillator coefficients must be positive")

    @property
    def frequency(self) -> float:
        """Gaussian width parameter: eigenfunctions go like e^{-freq*xi^2/2}."""
        return math.sqrt(self.gamma / self.beta)


def oscillator_eigenfunction(basis: OscillatorBasis, j: int, xi):
    """L2-normalized j-th eigenfunction of beta*D^2 + gamma*xi^2 at xi."""
    if j < 0:
        raise DomainError("j must be non-negative")
    om = basis.frequency
    s = math.sqrt(om) * np.asarray(xi, dtype=float)
    norm = (om / math.pi) ** 0.25 / math.sqrt(2.0 ** j * math.factorial(j))
    out = norm * hermite_poly(j, s) * np.exp(-s * s / 2)
    return out if np.ndim(xi) else float(out)


@dataclass(frozen=True)
class MomentTable:
    """Expectations in the unit-norm level-k state of frequency b0.

    xD is reported as its imaginary part (the expectation is i/2 for every
    level and frequency).
    """

    x2: float
    x4: float
    xD_imag: float
    D2: float
    x2D2: float
    D4: float


def moment_table(k: int, b0: float) -> MomentTable:
    if k < 0 or k > 30:
        raise DomainError("k must be in [0, 30]")
    if b0 <= 0:
        raise DomainError("b0 must be positive")
    return MomentTable(
        x2=(2 * k + 1) / (2 * b0),
        x4=3 * (2 * k * k + 2 * k + 1) / (4 * b0 * b0),
        xD_imag=0.5,
        D2=(2 * k + 1) * b0 / 2,
        x2D2=(2 * k * k + 2 * k - 1) / 4,
        D4=3 * (2 * k * k + 2 * k + 1) * b0 * b0 / 4,
    )


# ---------------------------------------------------------------------------
# ladder-operator matrices, exact in the oscillator basis of frequency omega

def position_matrix(omega: float, n: int) -> np.ndarray:
    """Matrix of multiplication by xi in the first n oscillator states."""
    a = np.sqrt(np.arange(1, n))
    X = np.zeros((n, n))
    X[np.arange(n - 1), np.arange(1, n)] = a
    X[np.arange(1, n), np.arange(n - 1)] = a
    return X / math.sqrt(2 * omega)


def momentum_matrix(omega: float, n: int) -> np.ndarray:
    """Matrix of D = -i d/dxi in the first n oscillator states."""
    a = np.sqrt(np.arange(1, n))
    P = np.zeros((n, n), dtype=complex)
    P[np.arange(n - 1), np.arange(1, n)] = -1j * a  # lowering part
    P[np.arange(1, n), np.arange(n - 1)] = 1j * a   # raising part
    return P * math.sqrt(omega / 2)
