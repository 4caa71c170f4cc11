"""Generalized eigenpairs of the pencil (H, M): the shift-invert core against
a dense reference, its contracts, certification and invariance."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import magspec.eigensolve as es
from magspec.discretize import Grid, assemble
from magspec.eigensolve import (eigenpairs_near, nearest_eigenvalue,
                                smallest_eigenpairs)
from magspec.errors import DomainError
from magspec.fieldgeom import (FieldSetup, Rectangle, TransformedGauge,
                               gauge_from_field)

SQUARE2 = Rectangle(-2.0, 2.0, -2.0, 2.0)


def std_operator(n, h=0.1, domain=SQUARE2):
    s = FieldSetup("1 + x^2 + y^2", None, domain)
    g = gauge_from_field(s, x_anchor=0.0)
    return assemble(s, g, Grid(domain, n, n), h)


def dense_reference(op, m):
    """The m smallest eigenvalues by a dense solve of the symmetrized pencil."""
    d = 1.0 / np.sqrt(op.M)
    Hs = (sp.diags(d) @ op.H @ sp.diags(d)).toarray()
    return np.sort(scipy.linalg.eigvalsh(Hs))[:m]


class TestSmallestEigenpairs:
    def test_dense_agrees_with_reference(self):
        # 100 unknowns: shift-invert on a coarse grid, checked densely
        op = std_operator(10)
        res = smallest_eigenpairs(op, 6, tol=1e-10)
        ref = dense_reference(op, 6)
        np.testing.assert_allclose(res.eigenvalues, ref, atol=1e-12)

    def test_coarsest_grid_largest_request(self):
        # 8x8 is the coarsest grid and m = dim/4 the largest request
        op = std_operator(8)
        res = smallest_eigenpairs(op, 16, tol=1e-10)
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 16),
                                   atol=1e-12)
        assert np.all(res.converged)

    def test_krylov_agrees_with_dense(self):
        op = std_operator(40)  # 1600 unknowns
        kry = smallest_eigenpairs(op, 5, tol=1e-10).eigenvalues
        np.testing.assert_allclose(kry, dense_reference(op, 5),
                                   rtol=1e-10, atol=1e-12)

    def test_negative_potential_bottom(self):
        # V = -1 shifts the spectrum by exactly -1; a shift at 0 would
        # return the eigenvalues nearest 0 instead of the smallest
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        g = gauge_from_field(s, x_anchor=0.0)
        grid = Grid(SQUARE2, 56, 56)
        op0 = assemble(s, g, grid, 0.1)
        opv = assemble(s, g, grid, 0.1, potential=lambda x, y: -1.0 + 0.0 * x)
        assert opv.floor == -1.0
        lam0 = smallest_eigenpairs(op0, 4, tol=1e-10).eigenvalues
        res = smallest_eigenpairs(opv, 4, tol=1e-10)
        assert np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, lam0 - 1.0, atol=1e-10)

    def test_iterations_count_shift_invert_solves(self):
        op = std_operator(64, h=0.1)
        first = smallest_eigenpairs(op, 6, tol=1e-10, seed=3)
        again = smallest_eigenpairs(op, 6, tol=1e-10, seed=3)
        assert first.iterations > 6 + es._CLUSTER_MARGIN
        assert again.iterations == first.iterations

    def test_contract_on_standard_well(self):
        op = std_operator(64, h=0.05)
        res = smallest_eigenpairs(op, 5, tol=1e-8)
        assert len(res) == 5
        assert np.all(np.diff(res.eigenvalues) >= 0)
        assert np.all(res.converged)
        assert np.all(res.residuals <= 1e-8)

    def test_m_orthonormality(self):
        op = std_operator(40, h=0.1)
        res = smallest_eigenpairs(op, 4, tol=1e-10)
        V = res.eigenvectors
        G = V.conj().T @ (op.M[:, None] * V)
        assert np.abs(G - np.eye(4)).max() <= 1e-10

    def test_domain_enlargement_monotonicity(self):
        # Dirichlet bracketing at matched grid spacing (dx = 0.05 both)
        op_small = std_operator(79, h=0.1, domain=SQUARE2)
        op_big = std_operator(95, h=0.1, domain=Rectangle(-2.4, 2.4, -2.4, 2.4))
        lam_small = smallest_eigenpairs(op_small, 3, tol=1e-10).eigenvalues
        lam_big = smallest_eigenpairs(op_big, 3, tol=1e-10).eigenvalues
        assert np.all(lam_big <= lam_small + 1e-8)

    def test_gauge_invariance_of_spectrum(self):
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        base = gauge_from_field(s, x_anchor=0.0)
        grid = Grid(SQUARE2, 40, 40)
        lam0 = smallest_eigenpairs(assemble(s, base, grid, 0.1), 4).eigenvalues
        tg = TransformedGauge(base, "0.5*x*y - 0.1*x^3")
        lam1 = smallest_eigenpairs(assemble(s, tg, grid, 0.1), 4).eigenvalues
        np.testing.assert_allclose(lam1, lam0, rtol=1e-10)

    def test_bad_arguments(self):
        op = std_operator(10)
        with pytest.raises(DomainError):
            smallest_eigenpairs(op, 0)
        with pytest.raises(DomainError):
            smallest_eigenpairs(op, op.dim)
        with pytest.raises(DomainError):
            smallest_eigenpairs(op, 2, tol=1e-14)


class TestEigenpairsNear:
    def test_matches_dense_window(self):
        op = std_operator(12, h=0.1)
        full = dense_reference(op, op.dim)
        target = float(full[5] + 0.3 * (full[6] - full[5]))
        res = eigenpairs_near(op, target, 4)
        expected = full[np.argsort(np.abs(full - target))[:4]]
        np.testing.assert_allclose(np.sort(res.eigenvalues), np.sort(expected),
                                   atol=1e-11)

    def test_residuals_certify_pairs(self):
        op = std_operator(12, h=0.1)
        res = eigenpairs_near(op, 0.15, 3)
        assert np.all(res.residuals <= 1e-10)


class TestPartialConvergence:
    """ARPACK stopping early with some pairs converged: both entry points
    keep what converged if that is at least m pairs, and fail otherwise."""

    SOLVERS = [lambda op, m: smallest_eigenpairs(op, m),
               lambda op, m: eigenpairs_near(op, 0.3, m)]

    @pytest.fixture
    def stop_early(self, monkeypatch):
        """Make eigsh raise after converging only its first `kept` pairs."""
        real = spla.eigsh
        kept_vals = []

        def install(kept):
            def eigsh(*args, **kwargs):
                vals, vecs = real(*args, **kwargs)
                kept_vals.extend(vals[:kept])
                raise spla.ArpackNoConvergence("stopped early", vals[:kept],
                                               vecs[:, :kept])
            monkeypatch.setattr(spla, "eigsh", eigsh)
            return kept_vals
        return install

    @pytest.mark.parametrize("solve", SOLVERS, ids=["smallest", "near"])
    def test_fewer_than_m_pairs_is_domain_error(self, stop_early, solve):
        stop_early(3)
        with pytest.raises(DomainError, match="converged only 3 of 4"):
            solve(std_operator(12), 4)

    @pytest.mark.parametrize("solve", SOLVERS, ids=["smallest", "near"])
    def test_m_converged_pairs_are_kept_and_certified(self, stop_early, solve):
        kept = stop_early(4)
        res = solve(std_operator(12), 4)
        np.testing.assert_array_equal(np.sort(res.eigenvalues), np.sort(kept))
        assert np.all(res.converged)
        assert np.all(res.residuals <= 1e-10)


class TestNearestEigenvalue:
    def _result(self, vals):
        return es.EigenResult(eigenvalues=np.asarray(vals, dtype=float),
                              eigenvectors=np.empty((0, len(vals))),
                              residuals=np.zeros(len(vals)),
                              iterations=0,
                              converged=np.ones(len(vals), dtype=bool))

    def test_exact_member(self):
        lam, dist = nearest_eigenvalue(self._result([0.1, 0.2, 0.3]), 0.2)
        assert (lam, dist) == (0.2, 0.0)

    def test_between_two(self):
        lam, dist = nearest_eigenvalue(self._result([0.1, 0.2]), 0.17)
        assert lam == pytest.approx(0.2)
        assert dist == pytest.approx(0.03)

    def test_tie_goes_to_smaller(self):
        # exact binary tie: both distances are 0.25
        lam, _ = nearest_eigenvalue(self._result([0.25, 0.75]), 0.5)
        assert lam == pytest.approx(0.25)

    def test_empty_result(self):
        with pytest.raises(DomainError):
            nearest_eigenvalue(self._result([]), 0.0)
