"""Field geometry: minima, curvature, well data, gauge potentials."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

import magspec.fieldgeom as fg
from magspec.discretize import Grid
from magspec.errors import ConfigError, DomainError
from magspec.experiments import TiledField, curved_well, standard_well
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
        assert w.phi0 == 0.0

    def test_conformal_factor_at_the_well(self):
        w = well_data(FieldSetup("1 + x^2 + y^2", "0.3 + x^2", SQUARE2))
        assert w.phi0 == pytest.approx(0.3, abs=1e-12)

    def test_rotated_well_invariants(self):
        # b = 1 + 2x^2 + 2xy... use hessian with off-diagonal: 1+3x^2+2xy+3y^2
        w = well_data(FieldSetup("1 + 3*x^2 + 2*x*y + 3*y^2", None, SQUARE2))
        # half-Hessian eigenvalues of [[3,1],[1,3]] are 2 and 4
        assert sorted((w.alpha1, w.beta1)) == pytest.approx([2.0, 4.0], abs=1e-9)


class TestGaugeFromField:
    def test_polynomial_antiderivative(self):
        # A2 = x + x^3/3 + x y^2, integrated over each y-edge in closed form
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        g = gauge_from_field(s, x_anchor=0.0)
        assert g.exact
        rng = np.random.default_rng(7)
        xs = rng.uniform(-2, 2, 20)
        ys = np.sort(rng.uniform(-2, 2, 12))
        out = g.y_edge_integrals(xs, ys)
        y0, y1 = ys[None, :-1], ys[None, 1:]
        x = xs[:, None]
        expected = (x + x ** 3 / 3) * (y1 - y0) + x * (y1 ** 3 - y0 ** 3) / 3
        np.testing.assert_allclose(out, expected, rtol=1e-13)

    def test_a2_x_derivative_recovers_field(self):
        # d/dx of an edge integral is the integral of B along that edge
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        g = gauge_from_field(s, x_anchor=0.0)
        rng = np.random.default_rng(1)
        d = 1e-3
        for _ in range(20):
            x, y = rng.uniform(-1.8, 1.8, 2)
            ys = np.array([y, y + 0.1])
            I = g.y_edge_integrals(x + d * np.array([2, 1, -1, -2]), ys)[:, 0]
            # 4th-order central difference: exact for the cubic A2 up to roundoff
            fd = (-I[0] + 8 * I[1] - 8 * I[2] + I[3]) / (12 * d)
            q, _ = scipy.integrate.quad(lambda t: s.B(x, t), *ys, epsabs=1e-14)
            assert abs(fd - q) <= 1e-11

    def test_y_edge_integrals_match_quadrature(self):
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        self._check_fluxes(s, gauge_from_field(s, x_anchor=0.3), 0.3)

    def test_nonpolynomial_field_quadrature_path(self):
        s = FieldSetup("2 + sin(x)*cos(y)", None, SQUARE2)
        g = gauge_from_field(s, x_anchor=0.0)
        assert not g.exact
        self._check_fluxes(s, g, 0.0)

    @staticmethod
    def _check_fluxes(s, g, x_anchor):
        # I[i, j] is the flux of B through [x_anchor, xs[i]] x [ys[j], ys[j+1]]
        xs = np.array([-1.3, 0.2, 1.7])
        ys = np.array([-1.5, -0.4, 0.9, 1.8])
        out = g.y_edge_integrals(xs, ys)
        for i, x in enumerate(xs):
            for j in range(len(ys) - 1):
                q, _ = scipy.integrate.dblquad(lambda t, u: s.B(u, t), x_anchor, x,
                                               ys[j], ys[j + 1], epsabs=1e-13, epsrel=1e-13)
                assert out[i, j] == pytest.approx(q, rel=1e-12, abs=1e-13)

    def test_quadrature_edges_match_exact_gauge(self):
        # "+ 0*sin(x)" hides the polynomial, forcing the quadrature gauge
        exact = gauge_from_field(standard_well(), x_anchor=0.0)
        quad = gauge_from_field(FieldSetup("1 + x^2 + y^2 + 0*sin(x)", None, SQUARE2),
                                x_anchor=0.0)
        assert exact.exact and not quad.exact
        grid = Grid(SQUARE2, 120, 120)
        assert not np.any(grid.xs == 0.0)  # the anchor lies between nodes
        diff = (quad.y_edge_integrals(grid.xs, grid.ys)
                - exact.y_edge_integrals(grid.xs, grid.ys))
        assert np.abs(diff).max() <= 1e-13

    @pytest.mark.parametrize("x_anchor", [0.0, 2.6])
    def test_quadrature_edges_on_coarse_nonuniform_nodes(self, x_anchor):
        # both sides of the anchor, a duplicate, a node at x = 0 and edges
        # wider than one quadrature segment; the anchor 2.6 lies past every node
        s = curved_well()
        g = gauge_from_field(s, x_anchor=x_anchor)
        xs = np.array([-1.9, -0.7, 0.0, 0.45, 0.45, 1.3, 2.0])
        ys = np.array([-1.8, -1.5, -0.2, 0.1, 1.9])
        out = g.y_edge_integrals(xs, ys)
        assert out.shape == (xs.size, ys.size - 1)
        for i, x in enumerate(xs):
            for j in range(ys.size - 1):
                q, _ = scipy.integrate.dblquad(lambda t, u: s.B(u, t), x_anchor, x,
                                               ys[j], ys[j + 1], epsabs=1e-13, epsrel=1e-13)
                assert abs(out[i, j] - q) <= 1e-12

    def test_quadrature_edges_evaluate_few_points(self):
        # per-edge nested quadrature costs ~1,000 evaluations of B per edge
        s = curved_well()
        points = []
        B = s.B
        s.B = lambda x, y: points.append(np.broadcast(x, y).size) or B(x, y)
        g = gauge_from_field(s, x_anchor=0.0)
        grid = Grid(s.domain, 200, 200)
        g.y_edge_integrals(grid.xs, grid.ys)
        assert sum(points) < 100 * grid.nx * (grid.ny - 1)

    def test_constant_phi_scales_exact_gauges(self):
        # B = b e^{2 phi}: with phi = 0.3 both exact gauges carry e^{0.6}
        flat = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        s = FieldSetup("1 + x^2 + y^2", "0.3", SQUARE2)
        xs = np.array([-1.3, 0.4, 1.6])
        ys = np.array([-0.7, 0.2, 1.1])
        for make in (lambda f: gauge_from_field(f, x_anchor=0.0),
                     lambda f: TiledField(f, 1).gauge()):
            g = make(s)
            assert g.exact
            np.testing.assert_allclose(g.y_edge_integrals(xs, ys),
                                       math.exp(0.6) * make(flat).y_edge_integrals(xs, ys),
                                       rtol=1e-14)

    def test_polynomial_B(self):
        assert polynomial_B(FieldSetup("1 + x^2", "0.3", SQUARE2)) == pytest.approx(
            {(0, 0): math.exp(0.6), (2, 0): math.exp(0.6)})
        assert polynomial_B(FieldSetup("2 + sin(x)", None, SQUARE2)) is None
        assert polynomial_B(FieldSetup("1 + x^2", "-(x^2 + y^2)/8", SQUARE2)) is None

    def test_default_anchor_is_the_well(self):
        s = FieldSetup("1 + (x - 0.3)^2 + 2*(y + 0.1)^2", None, SQUARE2)
        g = gauge_from_field(s)
        assert g.x_anchor == pytest.approx(0.3, abs=1e-10)
        edges = g.y_edge_integrals([g.x_anchor], np.linspace(-1.5, 1.7, 9))
        assert np.abs(edges).max() <= 1e-15


def one_shot_edges(Bfun, xs, ys, x0):
    """The quadrature gauge's y-edge integrals with B evaluated at every
    point in one call: the cells of `_cell_rule`, summed from the anchor."""
    xb = np.unique(np.append(xs, x0))
    sx, wx, cx = fg._cell_rule(xb)
    sy, wy, cy = fg._cell_rule(ys)
    vals = Bfun(sx[:, None], sy[None, :]) * wy
    cells = np.add.reduceat(wx[:, None] * np.add.reduceat(vals, cy, axis=1), cx, axis=0)
    a = np.searchsorted(xb, x0)
    prim = np.zeros((xb.size, ys.size - 1))
    prim[a + 1:] = np.cumsum(cells[a:], axis=0)
    prim[:a] = -np.cumsum(cells[:a][::-1], axis=0)[::-1]
    return prim[np.searchsorted(xb, xs)]


class TestStreamedQuadrature:
    """B is evaluated on blocks of whole x-intervals, at most _CELL_BLOCK
    points per call: the integrals are those of one call, bit for bit."""

    @staticmethod
    def anchors(xs, x_max):
        k = xs.size // 3
        return {"node": xs[k], "between": 0.5 * (xs[k] + xs[k + 1]),
                "beyond": x_max + 0.3}

    @pytest.mark.parametrize("n", [56, 200, 339, 401])
    @pytest.mark.parametrize("where", ["node", "between", "beyond"])
    def test_blocks_equal_one_call(self, n, where):
        s = curved_well()
        grid = Grid(s.domain, n, n)
        x0 = self.anchors(grid.xs, s.domain.x_max)[where]
        got = gauge_from_field(s, x_anchor=x0).y_edge_integrals(grid.xs, grid.ys)
        np.testing.assert_array_equal(got, one_shot_edges(s.B, grid.xs, grid.ys, x0))

    @pytest.mark.parametrize("block", [1, 100, 2 ** 20])
    @pytest.mark.parametrize("where", ["node", "between", "beyond"])
    def test_coarse_nonuniform_blocks_equal_one_call(self, monkeypatch, block, where):
        # intervals wider than _CELL_SEGMENT hold several segments, so the
        # blocks (one interval each at a limit of 1 point) end unevenly
        s = curved_well()
        xs = np.array([-1.9, -0.7, 0.0, 0.45, 0.45, 1.3, 2.0])
        ys = np.array([-1.8, -1.5, -0.2, 0.1, 1.9])
        assert np.diff(xs).max() > fg._CELL_SEGMENT
        x0 = self.anchors(xs, s.domain.x_max)[where]
        monkeypatch.setattr(fg, "_CELL_BLOCK", block)
        got = gauge_from_field(s, x_anchor=x0).y_edge_integrals(xs, ys)
        np.testing.assert_array_equal(got, one_shot_edges(s.B, xs, ys, x0))

    def test_peak_memory_is_bounded(self):
        # the curved workload's 339 x 339 grid (h = 0.05): one call for all
        # 7.3M points of B peaks at about 170 MB
        s = curved_well()
        g = gauge_from_field(s, x_anchor=0.0)
        grid = Grid(s.domain, 339, 339)
        tracemalloc.start()
        try:
            g.y_edge_integrals(grid.xs, grid.ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48e6


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
