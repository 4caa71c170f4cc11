"""Generalized eigenpairs of the pencil (H, M): the shift-invert core against
a dense reference, its contracts, certification and invariance."""

import dataclasses

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
from magspec.experiments import TiledField, standard_well
from magspec.fieldgeom import (FieldSetup, Rectangle, TransformedGauge,
                               gauge_from_field)

SQUARE2 = Rectangle(-2.0, 2.0, -2.0, 2.0)


def std_operator(n, h=0.1, domain=SQUARE2):
    s = FieldSetup("1 + x^2 + y^2", None, domain)
    g = gauge_from_field(s, x_anchor=0.0)
    return assemble(s, g, Grid(domain, n, n), h)


def symmetrized(op):
    d = 1.0 / np.sqrt(op.M)
    return (sp.diags(d) @ op.H @ sp.diags(d)).tocsc()


def dense_reference(op, m):
    """The m smallest eigenvalues by a dense solve of the symmetrized pencil."""
    return np.sort(scipy.linalg.eigvalsh(symmetrized(op).toarray()))[:m]


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

    @pytest.mark.filterwarnings("error:flux per plaquette")
    @pytest.mark.parametrize("n,h,m", [(10, 0.5, 6), (8, 0.6, 16)],
                             ids=["dim100", "coarsest-largest"])
    def test_unaliased_grid_agrees_with_dense(self, n, h, m):
        # the twins of the two tests above on grids that resolve the field,
        # so the certified runs answer rather than the one at the floor
        op = std_operator(n, h=h)
        res = smallest_eigenpairs(op, m, tol=1e-10)
        assert res.count_shift is not None and np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, m),
                                   atol=1e-12)

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

    @pytest.mark.filterwarnings("ignore:flux per plaquette")
    @pytest.mark.parametrize("solve", [smallest_eigenpairs,
                                       lambda op, m, tol: eigenpairs_near(
                                           op, 0.3, m, tol=tol)],
                             ids=["smallest", "near"])
    def test_nan_tol_is_domain_error(self, solve):
        # a NaN tolerance never converges: both entry points refuse it
        with pytest.raises(DomainError, match="tol"):
            solve(std_operator(10), 2, tol=float("nan"))


class TestCertifiedShift:
    """The smallest pairs are sought just below the bottom estimate; an
    inertia count certifies that shift or sends the request to the floor."""

    def test_inertia_count_matches_dense(self):
        op = std_operator(40)
        Hs = symmetrized(op)
        ev = scipy.linalg.eigvalsh(Hs.toarray())
        # below lambda_1, between levels, and above several levels
        for sigma in (0.5 * ev[0], 0.999 * ev[0], 0.5 * (ev[0] + ev[1]),
                      0.5 * (ev[3] + ev[4]), 0.5 * (ev[10] + ev[11])):
            lu = es._factor(Hs, sigma, inertia=True)
            assert es._count_below(lu) == int(np.sum(ev <= sigma))

    def test_off_diagonal_pivots_give_no_count(self):
        # a zero diagonal forces SuperLU off the diagonal; U's diagonal is
        # then all positive although one eigenvalue (-1) is negative
        A = sp.csc_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 2]],
                                   dtype=complex))
        assert es._count_below(es._factor(A, 0.0, inertia=True)) is None

    def test_standard_well_uses_certified_shift(self):
        # the small request answers, certified by the count above lambda_6:
        # 42 solves where the full request's basis of 80 takes 81
        op = std_operator(40)
        assert op.floor == 0.0 and 0.1 <= op.bottom < 0.101  # h * min b
        res = smallest_eigenpairs(op, 6, tol=1e-10)
        assert op.floor < res.shift < op.bottom
        assert res.iterations <= 50
        assert res.count_shift > res.eigenvalues[-1]
        assert np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 6),
                                   rtol=1e-12, atol=0)

    def test_count_follows_the_krylov_loop(self, monkeypatch):
        # reading lu.U caches copies of both factors: never during a Krylov
        # loop, and on the small request never on its Krylov factor; with a
        # pair missing from the small request, the full one counts at sigma
        events, made, drop = [], [], []
        real_eigsh, real_count, real_factor = (spla.eigsh, es._count_below,
                                               es._factor)

        def factor(Hs, sigma, inertia):
            made.append((real_factor(Hs, sigma, inertia), sigma))
            return made[-1][0]

        def eigsh(*args, **kwargs):
            events.append("loop")
            vals, vecs = real_eigsh(*args, **kwargs)
            events.append("end")
            if drop and kwargs["ncv"] == 2 * kwargs["k"] + 1:
                return vals[1:], vecs[:, 1:]  # the small request misses one
            return vals, vecs

        def count(lu):
            events.append(next(s for f, s in made if f is lu))
            return real_count(lu)
        monkeypatch.setattr(es, "_factor", factor)
        monkeypatch.setattr(spla, "eigsh", eigsh)
        monkeypatch.setattr(es, "_count_below", count)
        op = std_operator(40)
        res = smallest_eigenpairs(op, 4, tol=1e-10)
        tau = res.count_shift
        assert tau > res.eigenvalues[-1] > res.shift
        assert events == ["loop", "end", tau]

        events.clear()
        drop.append(True)
        res = smallest_eigenpairs(op, 4, tol=1e-10)
        assert res.count_shift == res.shift
        assert events[:2] + events[3:] == ["loop", "end"] * 2 + [res.shift]
        assert events[2] > res.eigenvalues[3]  # the rejected count above

    @pytest.fixture
    def runs(self, monkeypatch):
        """(count, discarded, solves) of every ARPACK run."""
        log = []
        real = es._arpack_near

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            log.append((kwargs["count"], out[0] is None, out[2]))
            return out
        monkeypatch.setattr(es, "_arpack_near", spy)
        return log

    def test_estimate_above_spectrum_falls_back_to_floor(self, runs):
        # b = 1 on a coarse (unaliased) grid: the discrete lowest Landau
        # level lies below 0.95 h, so the count is nonzero
        s = FieldSetup("1", None, Rectangle(-3.0, 3.0, -3.0, 3.0))
        op = assemble(s, gauge_from_field(s, x_anchor=0.0),
                      Grid(s.domain, 24, 24), 0.1)
        assert op.bottom == pytest.approx(0.1)
        assert dense_reference(op, 1)[0] < 0.95 * op.bottom
        res = smallest_eigenpairs(op, 6, tol=1e-10)
        assert res.shift == op.floor and res.count_shift is None
        assert [r[:2] for r in runs] == [("above", True), ("sigma", True),
                                         (None, False)]
        assert runs[0][2] > 0 and runs[1][2] > 0
        assert res.iterations == sum(r[2] for r in runs)
        assert np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 6),
                                   rtol=1e-12, atol=0)

    def test_aliased_grid_shifts_at_floor(self, runs):
        # 3x3 tiling on 24x24 at h = 0.05: the grid aliases the field and
        # has eigenvalues far below h min b, so no estimate is made
        tiled = TiledField(standard_well(), 3)
        with pytest.warns(UserWarning, match="flux per plaquette"):
            op = assemble(tiled, tiled.gauge(), Grid(tiled.domain, 24, 24), 0.05)
        assert op.bottom == op.floor
        assert dense_reference(op, 1)[0] < 0.95 * 0.05
        res = smallest_eigenpairs(op, 20, tol=1e-10)
        assert res.shift == op.floor
        # the small request runs at the floor, certified above lambda_20
        assert [r[:2] for r in runs] == [("above", False)]
        assert res.count_shift > res.eigenvalues[-1]
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 20),
                                   rtol=1e-12, atol=0)

    def test_singular_factor_falls_back_to_floor(self, runs, monkeypatch):
        real = es._factor

        def singular(Hs, sigma, inertia=False):
            if inertia:
                raise RuntimeError("Factor is exactly singular")
            return real(Hs, sigma, inertia)
        monkeypatch.setattr(es, "_factor", singular)
        op = std_operator(40)
        res = smallest_eigenpairs(op, 4, tol=1e-10)
        assert res.shift == op.floor and res.count_shift is None
        # the small request's pivoted factor stands, but its count cannot
        assert [r[:2] for r in runs] == [("above", True), ("sigma", True),
                                         (None, False)]
        assert runs[0][2] > 0 and runs[1][2] == 0
        assert res.iterations == runs[0][2] + runs[2][2]
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 4),
                                   rtol=1e-12, atol=0)

    def test_unconverged_uncertified_attempt_falls_back(self, runs, monkeypatch):
        # ARPACK stops early at a shift above the spectrum, in the small and
        # the full request: the stall discards the small one, the nonzero
        # count the full one's partial pairs, and the floor run answers
        op = dataclasses.replace(std_operator(40), bottom=0.3)
        real = spla.eigsh
        calls = []

        def eigsh(*args, **kwargs):
            calls.append(kwargs["sigma"])
            vals, vecs = real(*args, **kwargs)
            if kwargs["sigma"] != 0.0:
                raise spla.ArpackNoConvergence("stopped early", vals[:1],
                                               vecs[:, :1])
            return vals, vecs
        monkeypatch.setattr(spla, "eigsh", eigsh)
        res = smallest_eigenpairs(op, 4, tol=1e-10)
        assert calls == [0.95 * 0.3, 0.95 * 0.3, 0.0] and res.shift == 0.0
        assert res.count_shift is None
        assert [r[:2] for r in runs] == [("above", True), ("sigma", True),
                                         (None, False)]
        assert res.iterations == sum(r[2] for r in runs)
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 4),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dropped", [0, 5])
    def test_count_rejects_a_missed_pair(self, runs, monkeypatch, dropped):
        # the small request loses one of its 8 pairs, below or at lambda_6;
        # every residual still passes, only the count above lambda_6 sees it
        real = spla.eigsh

        def eigsh(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            if kwargs["ncv"] == 2 * kwargs["k"] + 1:
                i = np.argsort(vals)[dropped]
                keep = np.arange(vals.size) != i
                return vals[keep], vecs[:, keep]
            return vals, vecs
        monkeypatch.setattr(spla, "eigsh", eigsh)
        op = std_operator(40)
        res = smallest_eigenpairs(op, 6, tol=1e-10)
        assert [r[:2] for r in runs] == [("above", True), ("sigma", False)]
        assert res.count_shift == res.shift
        assert res.iterations == runs[0][2] + runs[1][2]
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 6),
                                   rtol=0, atol=1e-12)


class TestDegenerateClusters:
    """The 3x3 tiling of the standard well: nine-fold clusters, where a small
    Krylov basis can silently drop cluster members.  Without the count above
    lambda_m, the h = 0.05 requests return a member of the second cluster in
    place of one of the first (7.5% off) for m = 4, 6 and 12."""

    REQUESTS = {(0.1, 96): (8, 10, 14), (0.05, 144): (4, 6, 12)}

    @pytest.fixture(scope="class", params=list(REQUESTS),
                    ids=lambda hn: f"h{hn[0]}-n{hn[1]}")
    def tiling(self, request):
        h, n = request.param
        tiled = TiledField(standard_well(), 3)
        op = assemble(tiled, tiled.gauge(), Grid(tiled.domain, n, n), h)
        ref = smallest_eigenpairs(op, 40, tol=1e-10).eigenvalues
        return op, ref, self.REQUESTS[request.param]

    def test_reference_is_complete(self, tiling):
        op, ref, _ = tiling
        Hs = symmetrized(op)
        for b in (9, 18, 27, 36):
            tau = 0.5 * (ref[b - 1] + ref[b])
            assert es._count_below(es._factor(Hs, tau, inertia=True)) == b

    def test_requests_match_reference(self, tiling):
        op, ref, requests = tiling
        for m in requests:
            res = smallest_eigenpairs(op, m, tol=1e-10)
            assert np.all(res.converged)
            np.testing.assert_allclose(res.eigenvalues, ref[:m], rtol=1e-9,
                                       atol=0)


def oscillator_operator():
    """x^2 + y^2 under the weak field b = 0.05, h = 0.1, on 24 x 24: the
    oscillator shells N = 0..6 hold 16 rotation-even and 12 odd levels."""
    s = FieldSetup("0.05", None, SQUARE2)
    return assemble(s, gauge_from_field(s, x_anchor=0.0), Grid(SQUARE2, 24, 24),
                    0.1, potential=lambda x, y: x ** 2 + y ** 2)


class TestParitySplit:
    """m >= 25 on an operator that commutes with the index reversal P (its
    field is symmetric under the rotation by pi about the domain centre) is
    solved as an even and an odd block of half the size."""

    @pytest.mark.parametrize("m", range(25, 31))
    @pytest.mark.parametrize("n", [12, 11], ids=["dim144", "dim121-centre"])
    def test_agrees_with_dense(self, n, m):
        op = std_operator(n, h=0.5)
        res = smallest_eigenpairs(op, m, tol=1e-10)
        assert res.blocks == 2 and res.count_shift == res.shift > op.floor
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, m),
                                   rtol=1e-12, atol=0)
        assert np.all(res.converged)
        V = res.eigenvectors
        assert V.shape == (op.dim, m) and V.flags.f_contiguous
        G = V.conj().T @ (op.M[:, None] * V)
        assert np.abs(G - np.eye(m)).max() <= 1e-10
        # every column is even or odd under P
        even = np.linalg.norm(V[::-1] - V, axis=0)
        odd = np.linalg.norm(V[::-1] + V, axis=0)
        assert np.all(np.minimum(even, odd) <= 1e-10 * np.linalg.norm(V, axis=0))

    @pytest.mark.parametrize("n", [8, 9])
    def test_parity_blocks_are_exact(self, n):
        # Q^H Hs Q = diag(even, odd) for the parity basis Q: the pairs
        # (e_i +- e_{dim-1-i}) / sqrt(2), and the centre node of an odd dim
        Hs = symmetrized(std_operator(n, h=0.5))
        even, odd = es._parity_blocks(Hs, 1e-10)
        dim, h = Hs.shape[0], Hs.shape[0] // 2
        ne, i = dim - h, np.arange(h)
        Q = np.zeros((dim, dim))
        Q[i, i] = Q[dim - 1 - i, i] = Q[i, ne + i] = 1 / np.sqrt(2)
        Q[dim - 1 - i, ne + i] = -1 / np.sqrt(2)
        if dim % 2:
            Q[h, h] = 1.0
        assert even.shape == (ne, ne) and odd.shape == (h, h)
        np.testing.assert_allclose(
            Q.T @ Hs.toarray() @ Q,
            scipy.linalg.block_diag(even.toarray(), odd.toarray()),
            rtol=0, atol=1e-14 * abs(Hs).max())

    def test_operator_without_symmetry_runs_one_block(self):
        # b + 0.3 x^3 is not symmetric under P: one block, with today's
        # arithmetic (residuals of all columns at once) bit for bit
        s = FieldSetup("1 + x^2 + y^2 + 0.3*x^3", None, SQUARE2)
        op = assemble(s, gauge_from_field(s, x_anchor=0.0),
                      Grid(SQUARE2, 40, 40), 0.1)
        Hs = symmetrized(op)
        assert es._parity_blocks(Hs, 1e-10) is None
        res = smallest_eigenpairs(op, 30, tol=1e-10)
        sigma = op.floor + es._BELOW_BOTTOM * (op.bottom - op.floor)
        vals, vecs, solves, count = es._arpack_near(Hs, sigma, 30, 1e-10, 0,
                                                    count="sigma")
        order = np.argsort(vals)[:30]
        vecs = vecs[:, order] * (1.0 / np.sqrt(op.M))[:, None]
        Mv = op.M[:, None] * vecs
        r = np.linalg.norm(op.H @ vecs - vals[order][None, :] * Mv, axis=0)
        r /= np.linalg.norm(Mv, axis=0)
        assert res.blocks == 1 and res.iterations == solves
        assert res.shift == res.count_shift == count == sigma
        np.testing.assert_array_equal(res.eigenvalues, vals[order])
        np.testing.assert_array_equal(res.residuals, r)

    def test_short_block_reruns_with_m(self, monkeypatch):
        # m = 28, m_b = 15: the even block's 15th value lies in shell 6,
        # and the union up to it holds 15 + 12 < 28 values, so the even
        # block runs again with m_b = 28.  Each first run also loses its
        # first pair beyond the m_b kept, which the even block's answer
        # needs: only pairs the certificate covers may be used.
        op = oscillator_operator()
        calls, real = [], es._arpack_near

        def spy(Hs, sigma, m, tol, seed, count=None):
            vals, vecs, solves, shift = real(Hs, sigma, m, tol, seed, count)
            calls.append((Hs, m, solves))
            if m == 15:
                keep = np.arange(vals.size) != np.argsort(vals)[15]
                vals, vecs = vals[keep], vecs[:, keep]
            return vals, vecs, solves, shift
        monkeypatch.setattr(es, "_arpack_near", spy)
        res = smallest_eigenpairs(op, 28, tol=1e-10)
        assert [c[1] for c in calls] == [15, 15, 28]
        assert calls[2][0] is calls[0][0]  # the even block
        assert res.blocks == 2 and res.count_shift == res.shift
        assert res.iterations == sum(c[2] for c in calls)
        assert np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 28),
                                   rtol=1e-12, atol=0)


class TestRealForm:
    """Each parity block of a field that is also even in y is solved as a
    real symmetric matrix in a basis of vectors fixed by J = K R_y."""

    @pytest.mark.parametrize("m", range(25, 31))
    @pytest.mark.parametrize("n", [12, 11], ids=["dim144", "dim121-centre"])
    def test_real_blocks_agree_with_dense(self, n, m):
        op = std_operator(n, h=0.5)
        res = smallest_eigenpairs(op, m, tol=1e-10)
        assert res.blocks == 2 and res.real
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, m),
                                   rtol=1e-12, atol=0)
        V = res.eigenvectors
        assert V.flags.f_contiguous
        G = V.conj().T @ (op.M[:, None] * V)
        assert np.abs(G - np.eye(m)).max() <= 1e-10
        even = np.linalg.norm(V[::-1] - V, axis=0)
        odd = np.linalg.norm(V[::-1] + V, axis=0)
        assert np.all(np.minimum(even, odd) <= 1e-10 * np.linalg.norm(V, axis=0))

    @pytest.mark.parametrize("nx,ny", [(11, 12), (12, 11)])
    def test_rectangular_grids(self, nx, ny):
        # a middle row without a centre node, and a fixed column in every row
        s = FieldSetup("1 + x^2 + y^2", None, SQUARE2)
        op = assemble(s, gauge_from_field(s, x_anchor=0.0),
                      Grid(SQUARE2, nx, ny), 0.5)
        res = smallest_eigenpairs(op, 25, tol=1e-10)
        assert res.blocks == 2 and res.real and np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 25),
                                   rtol=1e-12, atol=0)

    @staticmethod
    def j_fixed_basis(nx, ny, size, odd):
        """Q built from its definition: for k = i ny + j with i < nx // 2 and
        j < ny-1-j, column k is (e_k + e_Sk)/sqrt(2) and column Sk is
        i (e_k - e_Sk)/sqrt(2), Sk = i ny + ny-1-j; every other k is fixed,
        with column e_k, or i e_k on the odd block's middle row."""
        Q = sp.lil_matrix((size, size), dtype=complex)
        c = 1 / np.sqrt(2)
        for k in range(size):
            i, j = divmod(k, ny)
            Sk = i * ny + ny - 1 - j
            if i >= nx // 2 or Sk == k:
                Q[k, k] = 1j if odd and i == nx // 2 else 1
            elif k < Sk:
                Q[k, k] = Q[Sk, k] = c
                Q[k, Sk], Q[Sk, Sk] = 1j * c, -1j * c
        return Q.tocsc()

    @pytest.mark.parametrize("n", [96, 97])
    def test_real_form_is_the_block_in_the_fixed_basis(self, n):
        tiled = TiledField(standard_well(), 3)
        op = assemble(tiled, tiled.gauge(), Grid(tiled.domain, n, n), 0.05)
        for odd, B in enumerate(es._parity_blocks(symmetrized(op), 1e-8)):
            R, _ = es._real_form(B, 1e-8, op.grid, odd == 1)
            Q = self.j_fixed_basis(n, n, B.shape[0], odd)
            QBQ = Q.conj().T @ B @ Q
            scale = abs(B).max()
            assert R.dtype == np.float64
            assert abs(QBQ.imag).max() <= 1e-12 * scale
            assert abs(R - QBQ.real).max() <= 1e-12 * scale

    def test_rotated_well_keeps_complex_blocks(self):
        # 1 + 3x^2 + 2xy + 2y^2 is symmetric under P but not under the
        # y mirror: two parity blocks, each solved in complex arithmetic
        s = FieldSetup("1 + 3*x^2 + 2*x*y + 2*y^2", None, SQUARE2)
        op = assemble(s, gauge_from_field(s, x_anchor=0.0),
                      Grid(SQUARE2, 40, 40), 0.1)
        res = smallest_eigenpairs(op, 30, tol=1e-10)
        assert res.blocks == 2 and not res.real
        assert np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 30),
                                   rtol=1e-12, atol=0)


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
        """Make eigsh raise after converging only its first `kept` pairs;
        the values kept by its last call are returned."""
        real = spla.eigsh
        kept_vals = []

        def install(kept):
            def eigsh(*args, **kwargs):
                vals, vecs = real(*args, **kwargs)
                kept_vals[:] = vals[:kept]
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

    # the smallest cases again on a grid that resolves the field (h = 0.5),
    # where the certified full request stops early rather than the floor run
    @pytest.mark.filterwarnings("error:flux per plaquette")
    def test_fewer_than_m_pairs_on_unaliased_grid(self, stop_early):
        stop_early(3)
        with pytest.raises(DomainError, match="converged only 3 of 4"):
            smallest_eigenpairs(std_operator(12, h=0.5), 4)

    @pytest.mark.filterwarnings("error:flux per plaquette")
    def test_m_converged_pairs_kept_on_unaliased_grid(self, stop_early):
        kept = stop_early(4)
        res = smallest_eigenpairs(std_operator(12, h=0.5), 4)
        assert res.count_shift is not None
        np.testing.assert_array_equal(np.sort(res.eigenvalues), np.sort(kept))
        assert np.all(res.converged)
        assert np.all(res.residuals <= 1e-10)


class TestNearestEigenvalue:
    def _result(self, vals):
        return es.EigenResult(eigenvalues=np.asarray(vals, dtype=float),
                              eigenvectors=np.empty((0, len(vals))),
                              residuals=np.zeros(len(vals)),
                              iterations=0,
                              converged=np.ones(len(vals), dtype=bool),
                              shift=0.0)

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
