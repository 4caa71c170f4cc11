"""Field geometry: minima, curvature, well data, gauge potentials."""

import math

import numpy as np
import pytest
import scipy.integrate

from magspec.errors import ConfigError, DomainError
from magspec.experiments import TiledField
from magspec.fieldgeom import (FieldSetup, Rectangle, TransformedGauge,
                               gauge_from_field, locate_minimum,
                               polynomial_B, scalar_curvature, well_data)

SQUARE2 = Rectangle(-2.0, 2.0, -2.0, 2.0)


class TestRectangle:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Rectangle(1.0, 1.0, 0.0, 2.0)

    def test_contains(self):
        r = Rectangle(0.0, 2.0, -1.0, 1.0)
        assert r.contains((1.0, 0.0))
        assert not r.contains((2.0, 0.0))
        assert not r.contains((1.9, 0.0), margin=0.2)


class TestFieldSetup:
    def test_b_must_be_positive(self):
        with pytest.raises(DomainError, match="not positive"):
            FieldSetup("x", None, SQUARE2)

    def test_non_expression_rejected(self):
        with pytest.raises(ConfigError, match="phi"):
            FieldSetup("1 + x^2 + y^2", 5, SQUARE2)
        with pytest.raises(ConfigError, match="field b"):
            FieldSetup(["1"], None, SQUARE2)

    def test_mass_weight_default_flat(self):
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        assert s.mass_weight(0.3, -0.7) == pytest.approx(1.0)

    def test_two_form_coefficient(self):
        s = FieldSetup("1 + x^2 + y^2", "-(x^2 + y^2)/8", SQUARE2)
        x, y = 0.5, -0.25
        expected = (1 + x * x + y * y) * math.exp(2 * (-(x * x + y * y) / 8))
        assert s.B(x, y) == pytest.approx(expected, rel=1e-14)


class TestLocateMinimum:
    def test_shifted_anisotropic_well(self):
        s = FieldSetup("1 + (x - 0.3)^2 + 2*(y + 0.1)^2", None, SQUARE2)
        x0, y0 = locate_minimum(s)
        assert x0 == pytest.approx(0.3, abs=1e-10)
        assert y0 == pytest.approx(-0.1, abs=1e-10)

    def test_boundary_minimum_rejected(self):
        s = FieldSetup("2 - sin(x)^2", None, Rectangle(-1.0, 1.0, -1.0, 1.0))
        with pytest.raises(DomainError, match="no non-degenerate interior minimum"):
            locate_minimum(s)

    def test_multiple_minima_warn(self):
        s = FieldSetup("2 + (x^2 - 1)^2 + y^2", None, SQUARE2)
        with pytest.warns(UserWarning, match="minimum not unique"):
            locate_minimum(s)


class TestScalarCurvature:
    def test_flat_metric(self):
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        assert scalar_curvature(s, (0.0, 0.0)) == 0.0

    def test_unit_curvature_preset(self):
        s = FieldSetup("1 + x^2 + y^2", "-0.125*(x^2 + y^2)", SQUARE2)
        assert scalar_curvature(s, (0.0, 0.0)) == pytest.approx(1.0, rel=1e-13)

    def test_negative_curvature(self):
        s = FieldSetup("1 + x^2 + y^2", "0.25*(x^2 + y^2)", SQUARE2)
        assert scalar_curvature(s, (0.0, 0.0)) == pytest.approx(-2.0, rel=1e-13)


class TestWellData:
    def test_axis_aligned_coefficients(self):
        w = well_data(FieldSetup("1 + 4*x^2 + y^2", None, SQUARE2))
        assert w.b0 == pytest.approx(1.0, abs=1e-12)
        assert w.alpha1 == pytest.approx(4.0, abs=1e-10)
        assert w.beta1 == pytest.approx(1.0, abs=1e-10)
        assert w.R0 == 0.0
        assert w.x0[0] == pytest.approx(0.0, abs=1e-10)

    def test_curved_preset(self):
        w = well_data(FieldSetup("1 + x^2 + y^2", "-(x^2 + y^2)/8", SQUARE2))
        assert w.R0 == pytest.approx(1.0, rel=1e-12)
        assert w.alpha1 == pytest.approx(1.0, abs=1e-10)
        assert w.beta1 == pytest.approx(1.0, abs=1e-10)

    def test_rotated_well_invariants(self):
        # b = 1 + 2x^2 + 2xy... use hessian with off-diagonal: 1+3x^2+2xy+3y^2
        w = well_data(FieldSetup("1 + 3*x^2 + 2*x*y + 3*y^2", None, SQUARE2))
        # half-Hessian eigenvalues of [[3,1],[1,3]] are 2 and 4
        assert sorted((w.alpha1, w.beta1)) == pytest.approx([2.0, 4.0], abs=1e-9)


class TestGaugeFromField:
    def test_polynomial_antiderivative(self):
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        g = gauge_from_field(s, x_anchor=0.0)
        assert g.exact
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y = rng.uniform(-2, 2, 2)
            expected = x + x ** 3 / 3 + x * y * y
            assert g.a2(x, y) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_a2_x_derivative_recovers_field(self):
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        g = gauge_from_field(s, x_anchor=0.0)
        rng = np.random.default_rng(1)
        d = 1e-3
        for _ in range(100):
            x, y = rng.uniform(-1.8, 1.8, 2)
            # 4th-order central difference: exact for the cubic A2 up to roundoff
            fd = (-g.a2(x + 2 * d, y) + 8 * g.a2(x + d, y)
                  - 8 * g.a2(x - d, y) + g.a2(x - 2 * d, y)) / (12 * d)
            assert abs(fd - s.B(x, y)) <= 1e-10

    def test_y_edge_integrals_match_quadrature(self):
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        g = gauge_from_field(s, x_anchor=0.0)
        xs = np.array([-1.3, 0.2, 1.7])
        ys = np.array([-1.5, -0.4, 0.9, 1.8])
        out = g.y_edge_integrals(xs, ys)
        for i, x in enumerate(xs):
            for j in range(len(ys) - 1):
                q, _ = scipy.integrate.quad(lambda t: g.a2(x, t), ys[j], ys[j + 1],
                                            epsabs=1e-13)
                assert out[i, j] == pytest.approx(q, abs=1e-12)

    def test_nonpolynomial_field_quadrature_path(self):
        s = FieldSetup("2 + sin(x)*cos(y)", None, SQUARE2)
        g = gauge_from_field(s, x_anchor=0.0)
        assert not g.exact
        # A2 = int_0^x B(s, y) ds against adaptive quadrature
        for x, y in ((1.2, -0.7), (-1.6, 0.4)):
            q, _ = scipy.integrate.quad(lambda t: s.B(t, y), 0.0, x, epsabs=1e-12)
            assert g.a2(x, y) == pytest.approx(q, abs=1e-9)
        out = g.y_edge_integrals(np.array([0.8]), np.array([-0.5, 0.5]))
        q, _ = scipy.integrate.quad(lambda t: g.a2(0.8, t), -0.5, 0.5, epsabs=1e-12)
        assert out[0, 0] == pytest.approx(q, abs=1e-9)

    def test_constant_phi_scales_exact_gauges(self):
        # B = b e^{2 phi}: with phi = 0.3 both exact gauges carry e^{0.6}
        s = FieldSetup("1 + x^2 + y^2", "0.3", SQUARE2)
        g = gauge_from_field(s, x_anchor=0.0)
        assert g.exact
        d = 1e-3
        for gauge in (g, TiledField(s, 1).gauge()):
            for x, y in ((0.4, -0.7), (-1.3, 1.1), (1.6, 0.2)):
                fd = (-gauge.a2(x + 2 * d, y) + 8 * gauge.a2(x + d, y)
                      - 8 * gauge.a2(x - d, y) + gauge.a2(x - 2 * d, y)) / (12 * d)
                b = 1 + x * x + y * y
                assert float(fd) == pytest.approx(b * math.exp(0.6), rel=1e-10)

    def test_polynomial_B(self):
        assert polynomial_B(FieldSetup("1 + x^2", "0.3", SQUARE2)) == pytest.approx(
            {(0, 0): math.exp(0.6), (2, 0): math.exp(0.6)})
        assert polynomial_B(FieldSetup("2 + sin(x)", None, SQUARE2)) is None
        assert polynomial_B(FieldSetup("1 + x^2", "-(x^2 + y^2)/8", SQUARE2)) is None

    def test_default_anchor_is_the_well(self):
        s = FieldSetup("1 + (x - 0.3)^2 + 2*(y + 0.1)^2", None, SQUARE2)
        g = gauge_from_field(s)
        assert g.x_anchor == pytest.approx(0.3, abs=1e-10)
        assert abs(g.a2(g.x_anchor, 0.77)) <= 1e-13


class TestTransformedGauge:
    def test_edge_integrals_telescope(self):
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        base = gauge_from_field(s, x_anchor=0.0)
        tg = TransformedGauge(base, "0.3*x*y - 0.2*y^2")
        xs = np.linspace(-1.5, 1.5, 5)
        ys = np.linspace(-1.2, 1.2, 6)

        def chi(x, y):
            return 0.3 * x * y - 0.2 * y * y

        ye = tg.y_edge_integrals(xs, ys)
        base_ye = base.y_edge_integrals(xs, ys)
        for i, x in enumerate(xs):
            for j in range(len(ys) - 1):
                expected = base_ye[i, j] + chi(x, ys[j + 1]) - chi(x, ys[j])
                assert ye[i, j] == pytest.approx(expected, rel=1e-13, abs=1e-14)

        xe = tg.x_edge_integrals(xs, ys)
        for i in range(len(xs) - 1):
            for j, y in enumerate(ys):
                expected = chi(xs[i + 1], y) - chi(xs[i], y)
                assert xe[i, j] == pytest.approx(expected, rel=1e-13, abs=1e-14)

    def test_preserves_anchor(self):
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        base = gauge_from_field(s, x_anchor=0.0)
        assert TransformedGauge(base, "x*y").x_anchor == base.x_anchor
