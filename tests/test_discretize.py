"""Gauge-covariant finite differences: assembly, phases, quadratic forms."""

import math

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from magspec.discretize import (Grid, assemble, dump_matrix_market, field_mass,
                                magnetic_form)
from magspec.eigensolve import smallest_eigenpairs
from magspec.errors import DomainError
from magspec.fieldgeom import (FieldSetup, GaugePotential, Rectangle,
                               TransformedGauge, gauge_from_field)


def zero_gauge():
    return GaugePotential(
        x_anchor=0.0,
        _edge_fn=lambda xs, ys: np.zeros((xs.size, ys.size - 1)),
        exact=True)


class TestGrid:
    def test_geometry(self):
        g = Grid(Rectangle(0.0, 1.0, 0.0, 2.0), 9, 19)
        assert g.dx == pytest.approx(0.1)
        assert g.dy == pytest.approx(0.1)
        assert g.size == 9 * 19
        assert g.xs[0] == pytest.approx(0.1)
        assert g.xs[-1] == pytest.approx(0.9)

    def test_too_coarse_rejected(self):
        with pytest.raises(DomainError):
            Grid(Rectangle(0.0, 1.0, 0.0, 1.0), 4, 9)


class TestAssemble:
    def test_dirichlet_laplacian_ground_state(self):
        # zero-field limit: smallest eigenvalue of (H, M) is 1^2 + 1^2 = 2
        s = FieldSetup("1", None, Rectangle(0.0, math.pi, 0.0, math.pi))
        op = assemble(s, zero_gauge(), Grid(s.domain, 31, 31), 1.0)
        res = smallest_eigenpairs(op, 1, tol=1e-10)
        assert res.eigenvalues[0] == pytest.approx(2.0, abs=0.01)

    def test_landau_level(self):
        s = FieldSetup("1", None, Rectangle(-3.0, 3.0, -3.0, 3.0))
        g = gauge_from_field(s, x_anchor=0.0)
        op = assemble(s, g, Grid(s.domain, 160, 160), 0.1)
        res = smallest_eigenpairs(op, 1, tol=1e-8)
        assert res.eigenvalues[0] == pytest.approx(0.1, abs=2e-3)

    def test_plaquette_phase_product(self):
        s = FieldSetup("1", None, Rectangle(-3.0, 3.0, -3.0, 3.0))
        g = gauge_from_field(s, x_anchor=0.0)
        grid = Grid(s.domain, 24, 24)
        h = 0.1
        theta = -g.y_edge_integrals(grid.xs, grid.ys) / h  # (nx, ny-1)
        # going around a plaquette: x-edges carry no phase in this gauge
        product = np.exp(1j * (theta[1:, :] - theta[:-1, :]))
        expected = np.exp(-1j * grid.dx * grid.dy / h)
        assert np.abs(product - expected).max() <= 1e-13

    def test_stencil_entries(self):
        # H link by link: 2 cx + 2 cy + V * mass on the diagonal, and each
        # edge p -> q stored as H[q, p] = -c e^{-i (edge integral of A) / h},
        # H[p, q] its conjugate; the grid is not square, so the layout shows
        s = FieldSetup("1 + x^2 + y^2", "-(x^2 + y^2)/8", Rectangle(-2.0, 2.0, -2.0, 2.0))
        gauge = TransformedGauge(gauge_from_field(s, x_anchor=0.0), "0.3*x*y - 0.2*y^2")
        grid = Grid(s.domain, 9, 8)  # 8 is Grid's least size per axis
        nx, ny, h = grid.nx, grid.ny, 0.3
        xs, ys, w = grid.xs, grid.ys, grid.dx * grid.dy
        cx, cy = h * h / grid.dx ** 2 * w, h * h / grid.dy ** 2 * w
        y_int = gauge.y_edge_integrals(xs, ys)
        x_int = gauge.x_edge_integrals(xs, ys)

        def potential(x, y):
            return x ** 2 - 0.5 * y

        ref = np.zeros((grid.size, grid.size), dtype=complex)

        def link(p, q, c, integral):
            ref[q, p] = -c * np.exp(-1j * integral / h)
            ref[p, q] = np.conj(ref[q, p])

        for i in range(nx):
            for j in range(ny):
                p = i * ny + j
                mass = math.exp(-(xs[i] ** 2 + ys[j] ** 2) / 4) * w
                ref[p, p] = 2 * cx + 2 * cy + potential(xs[i], ys[j]) * mass
                if j + 1 < ny:
                    link(p, p + 1, cy, y_int[i, j])
                if i + 1 < nx:
                    link(p, p + ny, cx, x_int[i, j])

        op = assemble(s, gauge, grid, h, potential=potential)
        H = op.H.toarray()
        assert np.abs(H - ref).max() <= 1e-13 * np.abs(ref).max()
        # Dirichlet: no link from the top of column i to the foot of column i+1
        for i in range(nx - 1):
            top, foot = i * ny + ny - 1, (i + 1) * ny
            assert H[top, foot] == 0 and H[foot, top] == 0
        # one stored entry per node and per direction of each edge
        assert op.H.nnz == nx * ny + 2 * (nx - 1) * ny + 2 * nx * (ny - 1)

    def test_hermitian(self):
        s = FieldSetup("1 + x^2 + y^2", None, Rectangle(-2.0, 2.0, -2.0, 2.0))
        g = gauge_from_field(s, x_anchor=0.0)
        op = assemble(s, g, Grid(s.domain, 20, 20), 0.1)
        diff = np.abs((op.H - op.H.getH()).toarray()).max()
        assert diff <= 1e-15 * np.abs(op.H.toarray()).max()

    def test_gauge_change_is_diagonal_conjugation(self):
        s = FieldSetup("1 + x^2 + y^2", None, Rectangle(-2.0, 2.0, -2.0, 2.0))
        base = gauge_from_field(s, x_anchor=0.0)
        chi_src = "0.4*x^2*y - 0.3*y^3 + x*y"
        tg = TransformedGauge(base, chi_src)
        grid = Grid(s.domain, 16, 16)
        h = 0.1
        H0 = assemble(s, base, grid, h).H
        H1 = assemble(s, tg, grid, h).H
        X, Y = grid.meshgrid()
        chi = 0.4 * X ** 2 * Y - 0.3 * Y ** 3 + X * Y
        U = sp.diags(np.exp(-1j * chi.reshape(-1) / h))
        conj = (U @ H0 @ U.getH()).toarray()
        scale = np.abs(H0.toarray()).max()
        assert np.abs(H1.toarray() - conj).max() <= 1e-12 * scale

    def test_mass_is_conformal_area_density(self):
        s = FieldSetup("1 + x^2 + y^2", "-(x^2 + y^2)/8", Rectangle(-2.0, 2.0, -2.0, 2.0))
        g = gauge_from_field(s, x_anchor=0.0)
        grid = Grid(s.domain, 12, 12)
        op = assemble(s, g, grid, 0.1)
        X, Y = grid.meshgrid()
        expected = np.exp(2 * (-(X ** 2 + Y ** 2) / 8)) * grid.dx * grid.dy
        np.testing.assert_allclose(op.M, expected.reshape(-1), rtol=1e-13)

    def test_potential_term_is_diagonal(self):
        s = FieldSetup("1", None, Rectangle(-8.0, 8.0, -8.0, 8.0))
        g = gauge_from_field(s, x_anchor=0.0)
        grid = Grid(s.domain, 16, 16)
        op0 = assemble(s, g, grid, 1.0)
        opv = assemble(s, g, grid, 1.0, potential=lambda x, y: x ** 2 + y ** 2)
        diff = (opv.H - op0.H).toarray()
        X, Y = grid.meshgrid()
        expected = np.diag(((X ** 2 + Y ** 2) * grid.dx * grid.dy).reshape(-1))
        np.testing.assert_allclose(diff, expected, atol=1e-13)

    def test_floor_is_min_of_zero_and_potential(self):
        s = FieldSetup("1", None, Rectangle(-8.0, 8.0, -8.0, 8.0))
        g = gauge_from_field(s, x_anchor=0.0)
        grid = Grid(s.domain, 16, 16)
        X, Y = grid.meshgrid()
        assert assemble(s, g, grid, 1.0).floor == 0.0
        assert assemble(s, g, grid, 1.0,
                        potential=lambda x, y: x ** 2 + 1.0).floor == 0.0
        opv = assemble(s, g, grid, 1.0, potential=lambda x, y: x ** 2 + y - 3.0)
        assert opv.floor == (X ** 2 + Y - 3.0).min()
        # the floor bounds the spectrum: H - floor * M is positive definite
        shifted = (opv.H - opv.floor * sp.diags(opv.M)).toarray()
        assert np.linalg.eigvalsh(shifted).min() > 0.0

    def test_bottom_is_floor_plus_h_min_b(self):
        # b = B / e^{2 phi} at the nodes, not B itself
        s = FieldSetup("2 + x^2 + y^2", "-(x^2 + y^2)/8",
                       Rectangle(-2.0, 2.0, -2.0, 2.0))
        grid = Grid(s.domain, 16, 16)
        X, Y = grid.meshgrid()
        op = assemble(s, gauge_from_field(s, x_anchor=0.0), grid, 0.1,
                      potential=lambda x, y: x - 3.0)
        assert op.floor == (X - 3.0).min()
        assert op.bottom == pytest.approx(op.floor + 0.1 * (2 + X ** 2 + Y ** 2).min(),
                                          rel=1e-14)

    def test_flux_aliasing_warning(self):
        s = FieldSetup("1", None, Rectangle(-3.0, 3.0, -3.0, 3.0))
        g = gauge_from_field(s, x_anchor=0.0)
        with pytest.warns(UserWarning, match="flux per plaquette"):
            assemble(s, g, Grid(s.domain, 8, 8), 0.01)

    def test_invalid_h(self):
        s = FieldSetup("1", None, Rectangle(-1.0, 1.0, -1.0, 1.0))
        with pytest.raises(DomainError):
            assemble(s, zero_gauge(), Grid(s.domain, 8, 8), 0.0)
        with pytest.raises(DomainError):
            assemble(s, zero_gauge(), Grid(s.domain, 8, 8), float("nan"))


class TestApply:
    def _op(self):
        s = FieldSetup("1 + x^2 + y^2", None, Rectangle(-2.0, 2.0, -2.0, 2.0))
        g = gauge_from_field(s, x_anchor=0.0)
        return assemble(s, g, Grid(s.domain, 14, 14), 0.1)

    def test_quadratic_form_is_real(self):
        op = self._op()
        rng = np.random.default_rng(0)
        h1 = sp.linalg.norm(op.H, 1)
        for _ in range(100):
            u = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            q = np.vdot(u, op.H @ u)
            assert abs(q.imag) <= 1e-12 * np.vdot(u, u).real * h1

    def test_constant_vector_residuals_at_boundary_only(self):
        s = FieldSetup("1", None, Rectangle(0.0, 1.0, 0.0, 1.0))
        op = assemble(s, zero_gauge(), Grid(s.domain, 12, 12), 1.0)
        r = (op.H @ np.ones(op.dim)).reshape(op.grid.nx, op.grid.ny)
        assert np.abs(r[1:-1, 1:-1]).max() <= 1e-14  # interior rows telescope
        assert np.abs(r[0, :]).min() > 0  # Dirichlet edge leaves a residual


class TestQuadraticForms:
    def test_montgomery_inequality_for_gaussian_bump(self):
        s = FieldSetup("1 + x^2 + y^2", None, Rectangle(-2.0, 2.0, -2.0, 2.0))
        g = gauge_from_field(s, x_anchor=0.0)
        grid = Grid(s.domain, 48, 48)
        h = 0.1
        op = assemble(s, g, grid, h)
        X, Y = grid.meshgrid()
        u = np.exp(-((X - 0.2) ** 2 + (Y + 0.3) ** 2) / 0.08).reshape(-1)
        lhs = magnetic_form(op, u)
        rhs = h * field_mass(s, grid, u)
        assert lhs >= rhs - 1e-3 * float(np.vdot(u, u).real)

    def test_zero_function(self):
        s = FieldSetup("1", None, Rectangle(-1.0, 1.0, -1.0, 1.0))
        grid = Grid(s.domain, 10, 10)
        op = assemble(s, zero_gauge(), grid, 1.0)
        z = np.zeros(op.dim)
        assert magnetic_form(op, z) == 0.0
        assert field_mass(s, grid, z) == 0.0

    def test_dimension_mismatch(self):
        s = FieldSetup("1", None, Rectangle(-1.0, 1.0, -1.0, 1.0))
        grid = Grid(s.domain, 10, 10)
        op = assemble(s, zero_gauge(), grid, 1.0)
        with pytest.raises(DomainError):
            magnetic_form(op, np.zeros(7))
        with pytest.raises(DomainError):
            field_mass(s, grid, np.zeros(7))


def test_matrix_market_round_trip(tmp_path):
    s = FieldSetup("1 + x^2 + y^2", None, Rectangle(-2.0, 2.0, -2.0, 2.0))
    g = gauge_from_field(s, x_anchor=0.0)
    op = assemble(s, g, Grid(s.domain, 10, 10), 0.1)
    path = tmp_path / "H.mtx"
    dump_matrix_market(op, path)
    back = scipy.io.mmread(str(path)).tocsr()
    assert np.abs((back - op.H).toarray()).max() <= 1e-15
