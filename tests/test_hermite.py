"""Hermite polynomials, oscillator eigenfunctions, moment identities."""

import math

import numpy as np
import pytest

from magspec.errors import DomainError
from magspec.hermite import (MomentTable, OscillatorBasis, hermite_norm_sq,
                             hermite_poly, moment_table, momentum_matrix,
                             oscillator_eigenfunction, position_matrix)
from magspec.wellmodel import WellData, mu_jk2

RNG = np.random.default_rng(42)


def H(k, x):
    return hermite_poly(k, x)


class TestRecurrences:
    """The multiplication-operator expansions in the Hermite basis."""

    xs = np.linspace(-3.0, 3.0, 41)

    def _scale(self, k, x):
        return max(1.0, max(abs(H(k + d, x)) for d in range(-min(k, 4), 5)))

    def test_2x(self):
        for k in range(1, 11):
            for x in self.xs:
                lhs = 2 * x * H(k, x)
                rhs = H(k + 1, x) + 2 * k * H(k - 1, x)
                assert abs(lhs - rhs) <= 1e-10 * self._scale(k, x)

    def test_4x2(self):
        for k in range(2, 11):
            for x in self.xs:
                lhs = 4 * x ** 2 * H(k, x)
                rhs = (H(k + 2, x) + 2 * (2 * k + 1) * H(k, x)
                       + 4 * k * (k - 1) * H(k - 2, x))
                assert abs(lhs - rhs) <= 1e-9 * self._scale(k, x)

    def test_8x3(self):
        for k in range(3, 11):
            for x in self.xs:
                lhs = 8 * x ** 3 * H(k, x)
                rhs = (H(k + 3, x) + 6 * (k + 1) * H(k + 1, x)
                       + 12 * k * k * H(k - 1, x)
                       + 8 * k * (k - 1) * (k - 2) * H(k - 3, x))
                assert abs(lhs - rhs) <= 1e-9 * self._scale(k, x)

    def test_16x4(self):
        for k in range(4, 11):
            for x in self.xs:
                lhs = 16 * x ** 4 * H(k, x)
                rhs = (H(k + 4, x) + (8 * k + 12) * H(k + 2, x)
                       + 12 * (2 * k * k + 2 * k + 1) * H(k, x)
                       + 16 * (2 * k * k - 3 * k + 1) * k * H(k - 2, x)
                       + 16 * k * (k - 1) * (k - 2) * (k - 3) * H(k - 4, x))
                assert abs(lhs - rhs) <= 1e-9 * self._scale(k, x)

    def test_base_cases(self):
        assert H(0, 1.7) == 1.0
        assert H(1, 2.0) == 4.0

    def test_guards(self):
        with pytest.raises(DomainError):
            hermite_poly(-1, 0.0)
        with pytest.raises(DomainError):
            hermite_poly(61, 0.0)


def test_norm_identity_against_quadrature():
    # integral of H_k^2 e^{-x^2} = 2^k k! sqrt(pi)
    xs, ws = np.polynomial.hermite.hermgauss(80)
    for k in range(13):
        q = float(np.sum(ws * hermite_poly(k, xs) ** 2))
        exact = hermite_norm_sq(k)
        assert abs(q - exact) <= 1e-10 * exact


class TestOscillator:
    def test_unit_oscillator_ground_state(self):
        basis = OscillatorBasis(1.0, 1.0)
        xi = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(oscillator_eigenfunction(basis, 0, xi),
                                   math.pi ** -0.25 * np.exp(-xi ** 2 / 2),
                                   atol=1e-14)

    def test_effective_level_basis_eigenvalue(self):
        # the level-k oscillator in ladder matrices of its own frequency: its
        # eigenvalue spacing is mu_jk2's step in j on an anisotropic well
        b0, a1, b1 = 1.3, 2.0, 0.7
        well = WellData(b0, a1, b1)
        for k in range(3):
            basis = OscillatorBasis((2 * k + 1) * b1, (2 * k + 1) * a1 / b0 ** 2)
            X = position_matrix(basis.frequency, 14)
            D = momentum_matrix(basis.frequency, 14)
            lam = np.linalg.eigvalsh((basis.beta * D @ D + basis.gamma * X @ X)[:12, :12])
            for j in range(3):
                assert lam[j] - lam[0] == pytest.approx(
                    mu_jk2(well, j, k) - mu_jk2(well, 0, k), rel=1e-13)

    def test_normalization_by_quadrature(self):
        xs, ws = np.polynomial.hermite.hermgauss(60)
        for beta, gamma in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.25)):
            basis = OscillatorBasis(beta, gamma)
            om = basis.frequency
            # substitute s = sqrt(om) xi to reuse Gauss-Hermite nodes
            for j in range(5):
                f = oscillator_eigenfunction(basis, j, xs / math.sqrt(om))
                total = float(np.sum(ws * np.exp(xs ** 2) * f ** 2)) / math.sqrt(om)
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_eigen_equation_by_finite_differences(self):
        beta, gamma = 0.8, 1.7
        basis = OscillatorBasis(beta, gamma)
        om = basis.frequency
        step = 1e-4
        xi = np.linspace(-4 / math.sqrt(om), 4 / math.sqrt(om), 201)
        for j in range(4):
            lam = (2 * j + 1) * math.sqrt(beta * gamma)
            f = lambda t: oscillator_eigenfunction(basis, j, t)
            # 5-point second derivative: error O(step^4)
            d2 = (-f(xi + 2 * step) + 16 * f(xi + step) - 30 * f(xi)
                  + 16 * f(xi - step) - f(xi - 2 * step)) / (12 * step ** 2)
            resid = -beta * d2 + gamma * xi ** 2 * f(xi) - lam * f(xi)
            assert np.abs(resid).max() <= 1e-6

    def test_invalid_coefficients(self):
        with pytest.raises(DomainError):
            OscillatorBasis(0.0, 1.0)
        with pytest.raises(DomainError):
            OscillatorBasis(1.0, -2.0)


class TestMomentTable:
    def quad_moments(self, k, b0):
        """All six expectations by Gauss-Hermite quadrature of the scaled state."""
        xs, ws = np.polynomial.hermite.hermgauss(120)
        s = xs  # s = sqrt(b0) x
        norm = (1.0 / math.pi) ** 0.25 / math.sqrt(2.0 ** k * math.factorial(k))
        Hk = hermite_poly(k, s)
        Hk1 = hermite_poly(k - 1, s) if k >= 1 else np.zeros_like(s)
        # psi(x) = b0^{1/4} norm H_k(s) e^{-s^2/2}; weight e^{-s^2} absorbed
        # u = psi * e^{+s^2/2} / b0^{1/4}: polynomial part of the state
        u = norm * Hk
        # (d/dx) psi = sqrt(b0) * e^{-s^2/2} * norm * (2k H_{k-1} - s H_k)
        du = norm * (2 * k * Hk1 - s * Hk)  # times sqrt(b0), modulo envelope
        x2 = np.sum(ws * (s ** 2) * u ** 2) / b0
        x4 = np.sum(ws * (s ** 4) * u ** 2) / b0 ** 2
        D2 = np.sum(ws * du ** 2) * b0
        D4 = None  # via <psi'', psi''>
        d2u = norm * (4 * k * (k - 1) * (hermite_poly(k - 2, s) if k >= 2 else 0.0)
                      - 2 * s * 2 * k * Hk1 + (s ** 2 - 1) * Hk)
        D4 = np.sum(ws * d2u ** 2) * b0 ** 2
        x2D2 = -np.sum(ws * (s ** 2) * u * d2u)
        return x2, x4, D2, x2D2, D4

    @pytest.mark.parametrize("b0", [1.0, 2.0, 0.7])
    def test_closed_forms_match_quadrature(self, b0):
        for k in range(11):
            mt = moment_table(k, b0)
            x2, x4, D2, x2D2, D4 = self.quad_moments(k, b0)
            assert abs(mt.x2 - x2) <= 1e-12 * (1 + abs(x2))
            assert abs(mt.x4 - x4) <= 1e-12 * (1 + abs(x4))
            assert abs(mt.D2 - D2) <= 1e-12 * (1 + abs(D2))
            assert abs(mt.x2D2 - x2D2) <= 1e-12 * (1 + abs(x2D2))
            assert abs(mt.D4 - D4) <= 1e-12 * (1 + abs(D4))
            assert mt.xD_imag == 0.5

    def test_reference_values(self):
        mt = moment_table(0, 1.0)
        assert (mt.x2, mt.x4, mt.D4) == (0.5, 0.75, 0.75)
        mt = moment_table(1, 1.0)
        assert mt.x2 == 1.5
        assert mt.x2D2 == 0.75
        assert moment_table(2, 2.0).x2 == 1.25

    def test_guards(self):
        with pytest.raises(DomainError):
            moment_table(31, 1.0)
        with pytest.raises(DomainError):
            moment_table(0, 0.0)


class TestLadderMatrices:
    def test_canonical_commutator(self):
        n = 20
        for om in (1.0, 2.5):
            X = position_matrix(om, n)
            P = momentum_matrix(om, n)
            C = X @ P - P @ X
            # exact 1j*I away from the truncation corner
            body = C[:n - 2, :n - 2]
            np.testing.assert_allclose(body, 1j * np.eye(n - 2), atol=1e-13)

    def test_oscillator_diagonalization(self):
        beta, gamma = 0.9, 1.8
        om = math.sqrt(gamma / beta)
        n = 40
        X = position_matrix(om, n)
        P = momentum_matrix(om, n)
        Hmat = beta * (P @ P) + gamma * (X @ X)
        vals = np.sort(np.linalg.eigvalsh(Hmat))[:6]
        expected = [(2 * j + 1) * math.sqrt(beta * gamma) for j in range(6)]
        np.testing.assert_allclose(vals, expected, rtol=1e-12)
