"""Leading-order quasimodes and the order-2 perturbation operator."""

import math

import numpy as np
import pytest

from magspec.discretize import Grid, assemble
from magspec.eigensolve import smallest_eigenpairs
from magspec.errors import DomainError
from magspec.experiments import standard_well
from magspec.fieldgeom import gauge_from_field, well_data
from magspec.quasimode import (assemble_T2, build_leading_quasimode,
                               clipped_cutoff, residual)
from magspec.wellmodel import WellData, mu_jk2


@pytest.fixture(scope="module")
def std():
    setup = standard_well()
    well = well_data(setup)
    gauge = gauge_from_field(setup, x_anchor=well.x0[0])
    return setup, well, gauge


def build(std, j, k, h, n):
    setup, well, gauge = std
    grid = Grid(setup.domain, n, n)
    return grid, build_leading_quasimode(well, h, grid, gauge, j=j, k=k)


class TestConstruction:
    def test_matches_explicit_gaussian(self, std):
        # for alpha1 = beta1 = b0 = 1 the transform chain of the ground state
        # evaluates in closed form to exp(-r^2/(4h)) * exp(-i x y / (2h))
        setup, well, gauge = std
        h = 0.05
        grid, phi = build(std, 0, 0, h, 160)
        X, Y = grid.meshgrid()
        g = np.exp(-(X ** 2 + Y ** 2) / (4 * h)) * np.exp(-1j * X * Y / (2 * h))
        g = g.reshape(-1)
        g /= math.sqrt(float(np.sum(np.abs(g) ** 2)) * grid.dx * grid.dy)
        overlap = abs(np.sum(np.conj(g) * phi)) * grid.dx * grid.dy
        assert overlap >= 0.99

    def test_unit_mass_normalization(self, std):
        grid, phi = build(std, 0, 0, 0.05, 120)
        total = float(np.sum(np.abs(phi) ** 2)) * grid.dx * grid.dy
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_near_orthogonality_of_neighboring_levels(self, std):
        # distinct oscillator levels are orthogonal in the continuum; on the
        # grid the overlap sits at roundoff, far inside the 0.2 requirement
        for h in (0.1, 0.05):
            grid, p00 = build(std, 0, 0, h, 140)
            _, p10 = build(std, 1, 0, h, 140)
            overlap = abs(np.sum(np.conj(p00) * p10)
                          * grid.dx * grid.dy)
            assert overlap <= 1e-10
            assert overlap <= 0.2

    def test_non_finite_norm_rejected(self, std):
        setup, well, gauge = std
        grid = Grid(setup.domain, 32, 32)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="vanished"):
                build_leading_quasimode(well, 0.1, grid, gauge,
                                        op_mass=np.full(grid.size, bad))

    def test_misanchored_gauge_rejected(self, std):
        setup, well, gauge = std
        bad = gauge_from_field(setup, x_anchor=0.5)
        grid = Grid(setup.domain, 32, 32)
        with pytest.raises(DomainError, match="anchored"):
            build_leading_quasimode(well, 0.1, grid, bad)

    def test_xi_grid_overload_reports_requirement(self, std):
        # the clipped cutoff keeps y1 at its edge near 7.5 aniso / sqrt(b0)
        # for every h, so only a strongly anisotropic well needs more than
        # 500,000 xi points: 1,442,234 at alpha1 = 1e-16, 144,224 at 1e-12
        grid = Grid(std[0].domain, 16, 16)
        with pytest.raises(DomainError, match="xi grid of 1442234 points"):
            build_leading_quasimode(WellData(1.0, 1e-16, 1.0), 0.1, grid)
        phi = build_leading_quasimode(WellData(1.0, 1e-12, 1.0), 0.1, grid)
        assert np.all(np.isfinite(phi))

    def test_clipped_cutoff(self, std):
        setup, well, _ = std
        r_small = clipped_cutoff(well, 0.01, setup.domain)
        assert 1.25 * r_small <= 2.0
        assert r_small == pytest.approx(6.0 * math.sqrt(0.01), rel=1e-12)
        r_big = clipped_cutoff(well, 0.1, setup.domain)
        assert 1.25 * r_big < 2.0  # clipped to keep the ball inside
        boundary_well = WellData(1.0, 1.0, 1.0, x0=(2.0, 0.0))
        with pytest.raises(DomainError):
            clipped_cutoff(boundary_well, 0.1, setup.domain)

    @pytest.mark.parametrize("h", [0.0, -0.1, float("nan")])
    def test_h_must_be_positive(self, std, h):
        with pytest.raises(DomainError, match="h must be positive"):
            build_leading_quasimode(std[1], h, Grid(std[0].domain, 16, 16))

    @pytest.mark.parametrize("j, k", [(-1, 0), (0, -1)])
    def test_level_indices_must_be_non_negative(self, std, j, k):
        with pytest.raises(DomainError, match="level indices must be non-negative"):
            build_leading_quasimode(std[1], 0.1, Grid(std[0].domain, 16, 16),
                                    j=j, k=k)


class TestResidual:
    def test_eigenvector_residual_at_its_eigenvalue(self, std):
        setup, well, gauge = std
        op = assemble(setup, gauge, Grid(setup.domain, 48, 48), 0.05)
        res = smallest_eigenpairs(op, 2, tol=1e-9)
        r = residual(op, res.eigenvectors[:, 0], float(res.eigenvalues[0]))
        assert r <= 1e-8

    def test_quasimode_residual_decreases_with_h(self, std):
        setup, well, gauge = std
        values = {}
        for h in (0.1, 0.05):
            grid, phi = build(std, 0, 0, h, 180)
            op = assemble(setup, gauge, grid, h)
            values[h] = residual(op, phi, h * well.b0)
        assert values[0.05] < values[0.1]
        assert values[0.1] < 0.2

    def test_shifted_target_triangle_inequality(self, std):
        setup, well, gauge = std
        h = 0.035
        grid, phi = build(std, 0, 0, h, 220)
        op = assemble(setup, gauge, grid, h)
        r0 = residual(op, phi, h * well.b0)
        r1 = residual(op, phi, h * well.b0 + 0.01)
        assert abs(r1 - r0) <= 0.01 + 1e-12
        assert r1 >= 0.01 - r0 - 1e-12
        assert r1 > r0  # here the shift dominates the intrinsic residual

    @pytest.mark.filterwarnings("ignore:flux per plaquette")
    def test_zero_function_rejected(self, std):
        setup, well, gauge = std
        grid = Grid(setup.domain, 16, 16)
        op = assemble(setup, gauge, grid, 0.1)
        with pytest.raises(DomainError):
            residual(op, np.zeros(op.dim), 0.1)


class TestT2:
    def test_trivial_parameters_give_zero(self):
        t2 = assemble_T2(1.0, 0.0, 0.0, 0.0)
        assert np.abs(t2.matrix).max() == 0.0

    @pytest.mark.parametrize("params", [(1.0, 1.0, 1.0, 0.0),
                                        (1.0, 11.0 / 12, 11.0 / 12, 1.0),
                                        (2.0, 3.0, 0.5, -0.8)])
    def test_hermitian(self, params):
        t2 = assemble_T2(*params)
        assert np.abs(t2.matrix - t2.matrix.conj().T).max() <= 1e-10

    @pytest.mark.parametrize("params", [(1.0, 1.0, 1.0, 0.0),
                                        (1.0, 11.0 / 12, 11.0 / 12, 1.0)])
    def test_fiber_blocks_are_the_level_oscillators(self, params):
        t2 = assemble_T2(*params)
        for k in range(3):
            diff = np.abs(t2.fiber_block(k) - t2.oscillator_matrix(k)).max()
            assert diff <= 1e-8

    def test_flat_projection_recovers_ladder_coefficients(self):
        t2 = assemble_T2(1.0, 1.0, 1.0, 0.0)
        well = WellData(1.0, 1.0, 1.0, 0.0)
        for j in range(3):
            for k in range(3):
                val = t2.projected_eigenvalue(j, k)
                assert val == pytest.approx(mu_jk2(well, j, k), abs=1e-8)
        assert t2.projected_eigenvalue(0, 0) == pytest.approx(2.0, abs=1e-8)

    def test_curved_projection_includes_curvature_term(self):
        # field coefficients alpha = alpha1 - b0*R0/12 for the unit-curvature preset
        t2 = assemble_T2(1.0, 11.0 / 12, 11.0 / 12, 1.0)
        assert t2.alpha1 == pytest.approx(1.0, rel=1e-14)
        well = WellData(1.0, 1.0, 1.0, 1.0)
        for j in range(3):
            for k in range(3):
                val = t2.projected_eigenvalue(j, k)
                assert val == pytest.approx(mu_jk2(well, j, k), abs=1e-8)
        assert t2.projected_eigenvalue(0, 1) == pytest.approx(9.0, abs=1e-8)

    def test_insufficient_cut_rejected(self):
        t2 = assemble_T2(1.0, 1.0, 1.0, 0.0, m_cut=6, n_cut=6)
        with pytest.raises(DomainError, match="basis cut insufficient"):
            t2.projected_eigenvalue(2, 2)
