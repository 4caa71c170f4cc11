"""Closed-form well quantities: invariants, expansion coefficients, model spectra."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magspec.errors import DomainError
from magspec.wellmodel import (FlatModelParams, WellData, derive_invariants,
                               flat_model_spectrum, mu_jk2, p_flat_spectrum,
                               two_term_law)


def unit_well(**kw):
    args = dict(b0=1.0, alpha1=1.0, beta1=1.0, R0=0.0)
    args.update(kw)
    return WellData(**args)


class TestInvariants:
    def test_diagonal_half_hessian(self):
        inv = derive_invariants(np.diag([4.0, 1.0]))
        assert inv.a == pytest.approx(3.0)
        assert inv.d == pytest.approx(4.0)
        assert inv.t == pytest.approx(5.0)

    def test_rotation_invariance(self):
        H = np.diag([4.0, 1.0])
        th = 0.3
        Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        inv = derive_invariants(Q @ H @ Q.T)
        assert inv.a == pytest.approx(3.0, rel=1e-12)
        assert inv.d == pytest.approx(4.0, rel=1e-12)
        assert inv.t == pytest.approx(5.0, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError, match="degenerate well"):
            derive_invariants(np.diag([1.0, 0.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            derive_invariants(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestMuJk2:
    def test_ground_level(self):
        assert mu_jk2(unit_well(), 0, 0) == pytest.approx(2.0, abs=1e-14)

    def test_first_landau_level(self):
        assert mu_jk2(unit_well(), 0, 1) == pytest.approx(8.0, abs=1e-14)

    def test_reference_values(self):
        assert mu_jk2(unit_well(), 1, 0) == pytest.approx(4.0, abs=1e-13)
        assert mu_jk2(unit_well(alpha1=4.0), 0, 0) == pytest.approx(4.5, abs=1e-13)

    def test_curvature_term(self):
        assert mu_jk2(unit_well(R0=1.0), 0, 1) == pytest.approx(9.0, abs=1e-14)
        # curvature does not touch k = 0
        assert mu_jk2(unit_well(R0=1.0), 0, 0) == pytest.approx(2.0, abs=1e-14)

    def test_two_term_law(self):
        # h b0 + h^2 mu_{j,0,2}: 0.1 + 0.01 (2j + 2) on the unit well
        for j in range(4):
            assert two_term_law(unit_well(), 0.1, j) == pytest.approx(
                0.1 + 0.01 * (2 * j + 2), rel=1e-14)
        assert two_term_law(unit_well(b0=2.0), 0.1, 0) == (
            0.2 + 0.01 * mu_jk2(unit_well(b0=2.0), 0, 0))

    def test_negative_indices_rejected(self):
        with pytest.raises(DomainError):
            mu_jk2(unit_well(), -1, 0)
        with pytest.raises(DomainError):
            mu_jk2(unit_well(), 0, -1)


class TestWellData:
    def test_invalid_b0(self):
        with pytest.raises(DomainError):
            WellData(b0=0.0, alpha1=1.0, beta1=1.0)

    def test_degenerate_well(self):
        with pytest.raises(DomainError, match="degenerate well"):
            WellData(b0=1.0, alpha1=1.0, beta1=0.0)


class TestFlatModelSpectrum:
    def test_pure_landau_levels(self):
        out = flat_model_spectrum(FlatModelParams(1.0, np.zeros((2, 2))), 8)
        # K = 0: the lowest Landau level is infinitely degenerate, so the
        # 8 smallest eigenvalues are all b = 1, enumerated by the flat index
        assert [lam for lam, _, _ in out] == pytest.approx([1.0] * 8, abs=1e-14)
        assert [(n1, n2) for _, n1, n2 in out] == [(i, 0) for i in range(8)]
        # scaling with the field strength
        out3 = flat_model_spectrum(FlatModelParams(3.0, np.zeros((2, 2))), 2)
        assert out3[0][0] == pytest.approx(3.0, abs=1e-14)

    def test_near_singular_potential_stays_bounded(self):
        # a subnormal eigenvalue of K must not blow up the level enumeration
        out = flat_model_spectrum(FlatModelParams(1.0, np.diag([5e-324, 2.0])), 4)
        assert len(out) == 4
        assert all(lam >= 1.0 for lam, _, _ in out)

    def test_isotropic_ground_state_golden(self):
        vals = flat_model_spectrum(FlatModelParams(1.0, np.eye(2)), 6)
        lam00, n1, n2 = vals[0]
        assert (n1, n2) == (0, 0)
        assert lam00 == pytest.approx(math.sqrt(5.0), abs=1e-14)
        # mode frequencies via level differences: golden-ratio pair
        by_idx = {(a, b): lam for lam, a, b in vals}
        s1 = (by_idx[(1, 0)] - lam00) / 2
        s2 = (by_idx[(0, 1)] - lam00) / 2
        assert s1 == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-13)
        assert s2 == pytest.approx((math.sqrt(5) + 1) / 2, abs=1e-13)

    @given(st.floats(0.2, 5.0), st.floats(0.0, 4.0), st.floats(0.0, 4.0),
           st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_frequency_identities(self, b, k1, k2, rho):
        # random symmetric PSD K with eigenvalues k1, k2
        c, s = math.cos(rho), math.sin(rho)
        Q = np.array([[c, -s], [s, c]])
        K = Q @ np.diag([k1, k2]) @ Q.T
        t_K, d_K = k1 + k2, k1 * k2
        vals = flat_model_spectrum(FlatModelParams(b, K), 8)
        by_idx = {(a, c2): lam for lam, a, c2 in vals}
        lam00 = vals[0][0]
        if (1, 0) not in by_idx or (0, 1) not in by_idx:
            return  # strongly anisotropic: low ladder only, identities untestable
        s1 = (by_idx[(1, 0)] - lam00) / 2
        s2 = (by_idx[(0, 1)] - lam00) / 2
        assert s1 ** 2 + s2 ** 2 == pytest.approx(t_K + b * b, rel=1e-10, abs=1e-10)
        assert (s1 * s2) ** 2 == pytest.approx(d_K, rel=1e-9, abs=1e-9)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            FlatModelParams(-1.0, np.eye(2))
        with pytest.raises(DomainError):
            FlatModelParams(1.0, np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(DomainError):
            FlatModelParams(1.0, -np.eye(2))


class TestPFlatSpectrum:
    def test_reference_values(self):
        # the soft-mode spacing is ~12x smaller than the stiff one, so the
        # first (0, 1) state only shows up a dozen levels into the ladder
        vals = p_flat_spectrum(0.01, 1.0, np.eye(2), 16)
        lam0 = vals[0][0]
        # mode frequencies from level spacings
        by_idx = {(a, b): lam for lam, a, b in vals}
        s1 = (by_idx[(1, 0)] - lam0) / 2
        s2 = (by_idx[(0, 1)] - lam0) / 2
        assert s1 == pytest.approx(0.00091608, abs=5e-8)
        assert s2 == pytest.approx(0.0109164, abs=5e-7)
        # ground level is the zero-point sum of the two mode frequencies
        assert lam0 == pytest.approx(s1 + s2 - 0.01 * 1.0, abs=1e-12)

    def test_matches_50_digit_closed_form(self):
        # h*lambda - h*b0 is O(h^{3/2}) below h*b0; a subtraction there
        # loses up to 1e-9 of it on these cases
        rng = np.random.default_rng(11)
        worst = 0.0
        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(200):
                h = 10 ** rng.uniform(-4, math.log10(0.3))
                b0, a1, a2 = 10 ** rng.uniform(-1, 1, 3)
                t = Decimal(h).sqrt() * (Decimal(a1) + Decimal(a2)) + Decimal(b0) ** 2
                root = (t * t - 4 * Decimal(h) * Decimal(a1) * Decimal(a2)).sqrt()
                s1, s2 = ((t - root) / 2).sqrt(), ((t + root) / 2).sqrt()
                for lam, n1, n2 in p_flat_spectrum(h, b0, np.diag([a1, a2]), 6):
                    ref = Decimal(h) * ((2 * n1 + 1) * s1 + (2 * n2 + 1) * s2 - Decimal(b0))
                    worst = max(worst, float(abs(Decimal(lam) / ref - 1)))
        assert worst <= 1e-13

    def test_ground_state_scaling_limit(self):
        # lambda_0 / h^{3/2} -> a = sqrt(alpha1) + sqrt(beta1) = 2
        h = 1e-4
        lam0 = p_flat_spectrum(h, 1.0, np.eye(2), 1)[0][0]
        assert lam0 / h ** 1.5 == pytest.approx(2.0, rel=0.01)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            p_flat_spectrum(-0.1, 1.0, np.eye(2), 1)
        with pytest.raises(DomainError):
            p_flat_spectrum(0.1, 0.0, np.eye(2), 1)
        with pytest.raises(DomainError):
            p_flat_spectrum(0.1, 1.0, np.diag([1.0, 0.0]), 1)
