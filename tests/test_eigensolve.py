"""Generalized eigenpairs of the pencil (H, M): the shift-invert core against
a dense reference, its contracts, certification and invariance."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import magspec.eigensolve as es
from magspec.discretize import Grid, assemble
from magspec.eigensolve import eigenpairs_near, smallest_eigenpairs
from magspec.errors import DomainError
from magspec.experiments import (TiledField, curved_well, richardson,
                                 standard_well)
from magspec.fieldgeom import (FieldSetup, Rectangle, TransformedGauge,
                               gauge_from_field, well_data)
from magspec.quasimode import residual
from magspec.wellmodel import mu_jk2

SQUARE2 = Rectangle(-2.0, 2.0, -2.0, 2.0)


def std_operator(n, h=0.1, domain=SQUARE2):
    s = FieldSetup("1 + x^2 + y^2", None, domain)
    g = gauge_from_field(s, x_anchor=0.0)
    return assemble(s, g, Grid(domain, n, n), h)


def symmetrized(op):
    d = 1.0 / np.sqrt(op.M)
    return (sp.diags(d) @ op.H @ sp.diags(d)).tocsc()


def pencil_residual_norms(op, V, vals):
    """||M^{-1/2} (H v - lambda M v)|| / ||M^{1/2} v|| of each column v of V
    and its value lambda in `vals`."""
    w = np.sqrt(op.M)[:, None]
    return (np.linalg.norm((op.H @ V - vals * (op.M[:, None] * V)) / w, axis=0)
            / np.linalg.norm(w * V, axis=0))


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

    def test_count_empties_the_cached_factors(self):
        # reading lu.U caches csc copies of both factors; the count empties
        # them, and the factor still solves
        Hs = symmetrized(std_operator(40))
        lu = es._factor(Hs, 0.1, inertia=True)
        x = lu.solve(np.ones(Hs.shape[0], dtype=Hs.dtype))
        assert es._count_below(lu) == 0
        assert lu.L.nnz == lu.U.nnz == 0
        np.testing.assert_array_equal(
            lu.solve(np.ones(Hs.shape[0], dtype=Hs.dtype)), x)

    def test_off_diagonal_pivots_give_no_count(self):
        # a zero diagonal forces SuperLU off the diagonal; U's diagonal is
        # then all positive although one eigenvalue (-1) is negative
        A = sp.csc_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 2]],
                                   dtype=complex))
        assert es._count_below(es._factor(A, 0.0, inertia=True)) is None

    def test_gap_above_needs_a_margin(self):
        # diag(1, 2, 3, 4) with pairs that omit 2 and hold 3's vector at 2.5
        # (a value that crossed tau) and 4's at 2.9: a count at tau = 2.7 is
        # 2, as many as the returned values below it, so only the margin
        # 2 tol + 4 r on both ends of the gap keeps it from certifying the
        # wrong pairs
        Hs = sp.diags([1.0, 2.0, 3.0, 4.0]).tocsc()
        e = np.eye(4)
        assert es._count_below(es._factor(Hs, 2.7, inertia=True)) == 2
        crossed = (np.array([1.0, 2.5, 2.9]), e[:, [0, 2, 3]])
        assert es._gap_above(Hs, *crossed, 2, 1e-10) is None
        exact = (np.array([3.0, 1.0, 2.0]), e[:, [2, 0, 1]])
        assert es._gap_above(Hs, *exact, 2, 1e-10) == 2.5

    def test_certified_below_needs_a_margin(self):
        # diag(1, 2, 3, 10) counts 2 below tau = 2.995; pairs that omit 2 and
        # hold 3's vector at 2.99 (residual 0.01 <= tol) are as many as the
        # count, all below tau: only the margin 2 tol + 4 r refuses them
        Hs = sp.diags([1.0, 2.0, 3.0, 10.0]).tocsc()
        e, tau, tol = np.eye(4), 2.995, 1e-2
        assert es._count_below(es._factor(Hs, tau, inertia=True)) == 2
        crossed = (np.array([1.0, 2.99]), e[:, [0, 2]])
        assert not es._certified_below(Hs, *crossed, tau, 2, tol)
        assert es._certified_below(Hs, np.array([1.0, 2.0]), e[:, :2], tau, 2,
                                   tol)
        # a pair over tol, or fewer pairs than counted, is refused as well
        assert not es._certified_below(Hs, np.array([1.0, 1.9]), e[:, :2],
                                       tau, 2, tol)
        assert not es._certified_below(Hs, np.array([1.0]), e[:, :1], tau, 2,
                                       tol)

    def test_certified_below_checks_both_sides(self):
        # diag(1, 2, 3, 10) counts 2 below tau = 2.5; a pair above tau within
        # 2 tol + 4 r of it is refused as one below would be, since its value
        # does not tell on which side of tau its eigenvalue lies (here 3's
        # vector at 2.51, residual 0.49)
        Hs = sp.diags([1.0, 2.0, 3.0, 10.0]).tocsc()
        e, tau, tol = np.eye(4), 2.5, 1e-2
        assert es._certified_below(Hs, np.array([1.0, 2.0, 3.0]), e[:, :3],
                                   tau, 2, tol)
        assert not es._certified_below(Hs, np.array([1.0, 2.0, 2.51]),
                                       e[:, :3], tau, 2, tol)

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
        real, made = es._factor, []

        def singular(Hs, sigma, inertia=False):
            made.append(sigma)
            if inertia and len(made) > 1:
                raise RuntimeError("Factor is exactly singular")
            return real(Hs, sigma, inertia)
        monkeypatch.setattr(es, "_factor", singular)
        op = std_operator(40)
        res = smallest_eigenpairs(op, 4, tol=1e-10)
        assert res.shift == op.floor and res.count_shift is None
        # the small request's factor stands, but every later one in
        # symmetric mode is singular: the count above and the full request's
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


    def test_discarded_small_request_hands_its_factor_on(self, monkeypatch):
        # h = 0.05, n = 144, m = 12: the even block's small request finds no
        # gap wide enough above its values and is discarded before any count
        # above, so its factor at sigma serves the full request: 4 factors,
        # where factoring sigma again makes 5, for the same answer
        tiled = TiledField(standard_well(), 3)
        op = assemble(tiled, tiled.gauge(), Grid(tiled.domain, 144, 144), 0.05)
        made, factor, near = [], es._factor, es._arpack_near

        def factor_spy(Hs, sigma, inertia):
            made.append(sigma)
            return factor(Hs, sigma, inertia)
        monkeypatch.setattr(es, "_factor", factor_spy)
        res = smallest_eigenpairs(op, 12, tol=1e-10)
        handed = len(made)
        made.clear()
        monkeypatch.setattr(es, "_arpack_near",
                            lambda *args, spare=None, **kwargs: near(*args,
                                                                     **kwargs))
        again = smallest_eigenpairs(op, 12, tol=1e-10)
        assert handed == 4 and len(made) == 5
        assert res.blocks == 2 and np.all(res.converged)
        assert res.iterations == again.iterations
        np.testing.assert_allclose(res.eigenvalues, again.eigenvalues,
                                   rtol=1e-12, atol=0)


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

    @pytest.mark.parametrize("dim", [64, 72, 81, 99])
    def test_parity_basis(self, dim):
        # orthonormal columns; the two blocks' bases together span every
        # vector; the index reversal fixes the even basis and negates the odd
        Pe, Po = (es._parity_basis(dim, odd).toarray() for odd in (False, True))
        assert Pe.shape == (dim, dim - dim // 2) and Po.shape == (dim, dim // 2)
        for P in (Pe, Po):
            np.testing.assert_allclose(P.T @ P, np.eye(P.shape[1]),
                                       rtol=0, atol=1e-15)
        np.testing.assert_allclose(Pe @ Pe.T + Po @ Po.T, np.eye(dim),
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(Pe[::-1], Pe)
        np.testing.assert_array_equal(Po[::-1], -Po)

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
        r = pencil_residual_norms(op, vecs, vals[order])
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

        def spy(Hs, sigma, m, tol, seed, count=None, **kwargs):
            vals, vecs, solves, shift = real(Hs, sigma, m, tol, seed, count,
                                             **kwargs)
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

    def test_floor_only_request_splits(self):
        # 3x3 tiling on 24x24 at h = 0.05 aliases the field, so the only run
        # is the uncertified one at the floor: m = 30 still splits
        tiled = TiledField(standard_well(), 3)
        with pytest.warns(UserWarning, match="flux per plaquette"):
            op = assemble(tiled, tiled.gauge(), Grid(tiled.domain, 24, 24), 0.05)
        assert op.bottom == op.floor
        res = smallest_eigenpairs(op, 30, tol=1e-10)
        assert res.blocks == 2 and res.shift == op.floor
        assert res.count_shift is None and np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, dense_reference(op, 30),
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


class TestSplitSmallRequest:
    """6 <= m <= 24 on a symmetric operator of at least 4,096 unknowns: each
    real parity block runs the small request, certified by a count above its
    values, and falls back on its own."""

    @pytest.fixture(scope="class", params=[64, 65],
                    ids=["dim4096", "dim4225-centre"])
    def well(self, request):
        # a dense reference takes 20 s at this size; ARPACK's shift-invert
        # of the whole Hs at 0, below the spectrum (b >= 1, no potential),
        # agrees with it within 3.2e-12 relative on both grids
        op = std_operator(request.param, h=0.5)
        vals = spla.eigsh(symmetrized(op), k=30, sigma=0.0, which="LM",
                          tol=1e-14, return_eigenvectors=False)
        return op, np.sort(vals)[:24]

    @pytest.fixture
    def runs(self, monkeypatch):
        """(block, count, discarded, solves) of every ARPACK run."""
        log = []
        real = es._arpack_near

        def spy(Hs, *args, **kwargs):
            out = real(Hs, *args, **kwargs)
            log.append((Hs, kwargs["count"], out[0] is None, out[2]))
            return out
        monkeypatch.setattr(es, "_arpack_near", spy)
        return log

    @pytest.mark.parametrize("m", [6, 7, 12, 24])
    def test_agrees_with_reference(self, well, m):
        op, ref = well
        assert op.dim >= es._SPLIT_SMALL_DIM and m >= es._SPLIT_SMALL_M
        res = smallest_eigenpairs(op, m, tol=1e-10)
        assert res.blocks == 2 and res.real
        assert res.count_shift > res.eigenvalues[-1]
        assert np.all(res.converged)
        # ||Hs|| is about 500 at h = 0.5: the reference is good to about
        # 3e-12 relative here, as is the one-block answer
        np.testing.assert_allclose(res.eigenvalues, ref[:m], rtol=1e-11, atol=0)
        V = res.eigenvectors
        G = V.conj().T @ (op.M[:, None] * V)
        assert np.abs(G - np.eye(m)).max() <= 1e-10
        even = np.linalg.norm(V[::-1] - V, axis=0)
        odd = np.linalg.norm(V[::-1] + V, axis=0)
        assert np.all(np.minimum(even, odd) <= 1e-10 * np.linalg.norm(V, axis=0))

    def test_iterations_sum_both_blocks(self, well, runs):
        op, _ = well
        res = smallest_eigenpairs(op, 6, tol=1e-10)
        assert [r[1:3] for r in runs] == [("above", False)] * 2
        assert runs[0][0] is not runs[1][0]
        assert res.iterations == sum(r[3] for r in runs)

    def test_block_falls_back_alone(self, well, runs, monkeypatch):
        # the even block's small request loses its lowest pair: its count
        # above fails and its full request answers, certified at sigma; the
        # odd block keeps its small request
        op, ref = well
        real = spla.eigsh

        def eigsh(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            if not runs:  # the even block's small request
                keep = np.arange(vals.size) != np.argmin(vals)
                return vals[keep], vecs[:, keep]
            return vals, vecs
        monkeypatch.setattr(spla, "eigsh", eigsh)
        res = smallest_eigenpairs(op, 6, tol=1e-10)
        assert [r[1:3] for r in runs] == [("above", True), ("sigma", False),
                                          ("above", False)]
        assert runs[1][0] is runs[0][0] and runs[2][0] is not runs[0][0]
        assert res.blocks == 2 and res.count_shift == res.shift
        assert res.iterations == sum(r[3] for r in runs)
        assert np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, ref[:6], rtol=1e-11, atol=0)

    def test_curved_metric_splits_in_real_blocks(self):
        # a non-constant metric, even in x and in y, splits the same way
        f = curved_well()
        op = assemble(f, gauge_from_field(f, x_anchor=0.0),
                      Grid(f.domain, 64, 64), 0.2)
        res = smallest_eigenpairs(op, 6, tol=1e-10)
        assert res.blocks == 2 and res.real and np.all(res.converged)
        ref = spla.eigsh(symmetrized(op), k=12, sigma=0.0, which="LM",
                         tol=1e-14, return_eigenvectors=False)
        np.testing.assert_allclose(res.eigenvalues, np.sort(ref)[:6],
                                   rtol=1e-11, atol=0)

    def test_split_solve_holds_only_the_forms(self, monkeypatch):
        # Hs and both complex blocks are garbage once the real forms are
        # built: none is alive at any factor of the split solve
        f = curved_well()
        op = assemble(f, gauge_from_field(f, x_anchor=0.0),
                      Grid(f.domain, 64, 64), 0.2)
        refs, alive = [], []
        parity_blocks, factor = es._parity_blocks, es._factor

        def blocks_spy(Hs, tol):
            blocks = parity_blocks(Hs, tol)
            refs.extend(weakref.ref(A) for A in (Hs, *blocks))
            return blocks

        def factor_spy(A, sigma, inertia):
            alive.append([r() is not None for r in refs])
            return factor(A, sigma, inertia)
        monkeypatch.setattr(es, "_parity_blocks", blocks_spy)
        monkeypatch.setattr(es, "_factor", factor_spy)
        res = smallest_eigenpairs(op, 6, tol=1e-10)
        assert res.blocks == 2 and res.real and np.all(res.converged)
        assert len(refs) == 3 and len(alive) >= 4
        assert not any(any(a) for a in alive), alive

    def test_gate_admits_roundoff_not_a_breaking_entry(self):
        # at n = 192 the roundoff in Hs - P Hs P is 1.1e-12, within tol / 10
        # at the default tol: admitted, and so are the blocks' real forms;
        # a P-breaking entry of size tol is refused
        tiled = TiledField(standard_well(), 3)
        op = assemble(tiled, tiled.gauge(), Grid(tiled.domain, 192, 192), 0.05)
        Hs = symmetrized(op)
        blocks = es._parity_blocks(Hs, 1e-10)
        assert blocks is not None
        for odd, B in enumerate(blocks):
            assert es._real_form(B, 1e-10, op.grid, odd == 1)[1] is not None
        bump = sp.csc_matrix(([1e-10, 1e-10], ([0, 1], [1, 0])),
                             shape=Hs.shape)
        assert es._parity_blocks(Hs + bump, 1e-10) is None

    @pytest.mark.parametrize(
        "n, m, near", [(63, 6, False), (64, 5, False), (63, 6, True),
                       (64, 5, True)],
        ids=["dim3969", "m5", "dim3969-near", "m5-near"])
    def test_below_threshold_runs_one_block(self, n, m, near):
        # 63 x 63 = 3,969 unknowns, or m = 5, below the 4,096 unknowns and 6
        # pairs at which a request for fewer than 25 pairs splits, at the
        # bottom or near a target: one block, bit for bit `_run` on Hs
        op = std_operator(n, h=0.5)
        Hs = symmetrized(op)
        assert es._parity_blocks(Hs, 1e-10) is not None
        if near:
            res = eigenpairs_near(op, 2.7, m, tol=1e-10)
            runs, key = [(2.7, None)], lambda v: np.abs(v - 2.7)
        else:
            res = smallest_eigenpairs(op, m, tol=1e-10)
            sigma = op.floor + es._BELOW_BOTTOM * (op.bottom - op.floor)
            runs = [(sigma, "above"), (sigma, "sigma"), (op.floor, None)]
            key = lambda v: v
        vals, vecs, solves, shift, count, _ = es._run(Hs, runs, m, 1e-10, 0)
        order = np.argsort(key(vals))[:m]
        vecs = vecs[:, order] * (1.0 / np.sqrt(op.M))[:, None]
        r = pencil_residual_norms(op, vecs, vals[order])
        assert res.blocks == 1 and not res.real and res.iterations == solves
        assert res.shift == shift and res.count_shift == count
        np.testing.assert_array_equal(res.eigenvalues, vals[order])
        np.testing.assert_array_equal(res.residuals, r)


class TestShiftedRun:
    """`above`, a point expected above lambda_m: each block runs
    (above, "below") first in its run list, one factor whose count certifies
    every pair below it; a block where it fails goes on down its list, and
    the blocks after it skip it."""

    @staticmethod
    def law(b, n, h, m):
        """The operator of b on SQUARE2 at n x n and the two-term law's
        level m, h b0 + h^2 mu_{m,0}."""
        s = FieldSetup(b, None, SQUARE2)
        w = well_data(s)
        op = assemble(s, gauge_from_field(s, x_anchor=0.0),
                      Grid(SQUARE2, n, n), h)
        return op, h * w.b0 + h * h * mu_jk2(w, m, 0)

    @pytest.fixture
    def shifted(self, monkeypatch):
        """(block dim, solves, failed) of every shifted block run; a block
        that tried it once never tries it again."""
        log, seen, real = [], [], es._arpack_below

        def spy(Hs, *args):
            assert not any(B is Hs for B in seen), "a second shifted run"
            seen.append(Hs)
            out = real(Hs, *args)
            log.append((Hs.shape[0], out[2], out[0] is None))
            return out
        monkeypatch.setattr(es, "_arpack_below", spy)
        return log

    @pytest.fixture
    def block_runs(self, monkeypatch):
        """(block, runs, m, answer) of every `_run` of a block."""
        log, real = [], es._run

        def spy(Hs, runs, m, tol, seed):
            log.append((Hs, list(runs), m, real(Hs, runs, m, tol, seed)))
            return log[-1][3]
        monkeypatch.setattr(es, "_run", spy)
        return log

    @pytest.fixture
    def factors(self, monkeypatch):
        """The shift of every SuperLU factor made."""
        made, real = [], es._factor

        def spy(Hs, sigma, inertia):
            made.append(sigma)
            return real(Hs, sigma, inertia)
        monkeypatch.setattr(es, "_factor", spy)
        return made

    def test_two_factors_not_four(self, shifted, factors):
        # the standard well at h = 0.1 on 143^2, m = 6: two real blocks whose
        # counts at the law's level 6 are 6 and 6
        op, above = self.law("1 + x^2 + y^2", 143, 0.1, 6)
        res = smallest_eigenpairs(op, 6, tol=1e-10, above=above)
        assert factors == [above, above]
        assert [r[2] for r in shifted] == [False, False]
        assert res.blocks == 2 and res.real and np.all(res.converged)
        assert res.shift == res.count_shift == above
        assert res.iterations == sum(r[1] for r in shifted)
        factors.clear()
        today = smallest_eigenpairs(op, 6, tol=1e-10)
        assert len(factors) == 4 and today.count_shift < above
        np.testing.assert_allclose(res.eigenvalues, today.eigenvalues,
                                   rtol=1e-12, atol=0)

    def test_one_complex_block(self, shifted):
        # the curved well at h = 0.2 on 60^2, m = 3: one block, complex
        f = curved_well()
        w = well_data(f)
        op = assemble(f, gauge_from_field(f, x_anchor=w.x0[0]),
                      Grid(f.domain, 60, 60), 0.2)
        above = 0.2 * w.b0 + 0.04 * mu_jk2(w, 3, 0)
        res = smallest_eigenpairs(op, 3, tol=1e-10, above=above)
        assert res.blocks == 1 and not res.real and np.all(res.converged)
        assert res.shift == res.count_shift == above
        assert len(shifted) == 1 and res.iterations == shifted[0][1]
        today = smallest_eigenpairs(op, 3, tol=1e-10)
        np.testing.assert_allclose(res.eigenvalues, today.eigenvalues,
                                   rtol=1e-12, atol=0)

    def falls_back(self, op, m, above, shifted, solves=None):
        """The request at `above` returns today's answer, its iterations
        today's plus those of the shifted runs; the shifted runs' solves."""
        res = smallest_eigenpairs(op, m, tol=1e-10, above=above)
        made = [r[1] for r in shifted]
        today = smallest_eigenpairs(op, m, tol=1e-10)
        np.testing.assert_array_equal(res.eigenvalues, today.eigenvalues)
        assert res.shift == today.shift and res.count_shift == today.count_shift
        assert res.iterations == today.iterations + sum(made)
        assert np.all(res.converged)
        return made

    @staticmethod
    def same_as_plain(call, runs):
        """`call`'s answer is bit for bit its block's run list without the
        shifted entry; that run's solves."""
        Hs, _, m, out = call
        plain = [r for r in runs if r[1] != "below"]
        again = es._run(Hs, plain, m, 1e-10, 0)
        np.testing.assert_array_equal(out[0], again[0])
        np.testing.assert_array_equal(out[1], again[1])
        assert out[3:] == again[3:] and out[5] is None
        return again[2]

    def test_union_keeps_every_pair_below_the_bound(self, factors):
        # diagonal blocks whose 8 values below `above` = 6.5 split 6 and 2,
        # more than the even block's share of 4: its shifted run answers
        # with all 6, and the union's 6 smallest take 5 of them
        even = sp.diags(np.r_[1.0:7.0, 20.0:54.0]).tocsc()
        odd = sp.diags(np.r_[5.5, 6.2, 30.0:68.0]).tocsc()
        runs = [(6.5, "below"), (0.5, "above"), (0.5, "sigma"), (0.0, None)]
        vals, order, kept, solves, shift, count, real = es._union_pairs(
            [(even, None), (odd, None)], runs, 6, 1e-10, 0, key=lambda v: v)
        np.testing.assert_allclose(vals, [1, 2, 3, 4, 5, 5.5], rtol=1e-12)
        assert factors == [6.5, 6.5] and shift == count == 6.5
        assert [k[0].shape[1] for k in kept] == [6, 2] and not real

    def test_too_few_below_above(self, shifted, factors, block_runs):
        # `above` between lambda_5 and lambda_6: both blocks' shifted runs
        # hold, but 5 < 6 pairs lie below it, so each block reruns its list
        # without the shifted entry for 6 pairs
        op, _ = self.law("1 + x^2 + y^2", 64, 0.1, 6)
        lam = smallest_eigenpairs(op, 6, tol=1e-10).eigenvalues
        above = 0.5 * (lam[4] + lam[5])
        factors.clear()
        block_runs.clear()
        res = smallest_eigenpairs(op, 6, tol=1e-10, above=above)
        assert [r[2] for r in shifted] == [False, False]
        assert len(factors) == 6 and factors[:2] == [above, above]
        calls = list(block_runs)
        first, reruns = calls[:2], calls[2:]
        assert [c[3][5] for c in first] == [above, above]
        assert len(reruns) == 2 and {id(c[0]) for c in reruns} == {
            id(c[0]) for c in first}
        for call in reruns:
            assert call[2] == 6 and all(r[1] != "below" for r in call[1])
            assert self.same_as_plain(call, first[0][1]) == call[3][2]
        np.testing.assert_array_equal(res.eigenvalues, np.sort(np.concatenate(
            [np.sort(c[3][0])[:6] for c in reruns]))[:6])
        assert res.count_shift > res.eigenvalues[-1] > above
        assert res.iterations == sum(c[3][2] for c in calls)
        assert np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, lam, rtol=1e-12, atol=0)

    def test_count_over_the_cap(self, shifted):
        # the rotated well at h = 0.1 on 64^2 with `above` at the law's level
        # 20: each block counts 59 pairs below it, whose basis of 119 vectors
        # is over the full request's floor of 80; the even block fails before
        # any solve and the odd block does not try the shifted run
        op, above = self.law("1 + 3*x^2 + 2*x*y + 2*y^2", 64, 0.1, 20)
        even, odd = es._parity_blocks(symmetrized(op), 1e-10)
        for B in (even, odd):
            assert es._count_below(es._factor(B, above, inertia=True)) == 59
        assert self.falls_back(op, 20, above, shifted) == [0]

    def test_cap_is_below_the_basis_floor(self):
        # diag(1, ..., 200): 39 values below tau take a basis of 79 < 80
        # vectors and are found; 40 would take 81 and fail before any solve;
        # on 64 unknowns the basis must also fit in dim (31 found, 32 fail)
        for n, c in ((200, 39), (64, 31)):
            Hs = sp.diags(np.arange(1.0, n + 1)).tocsc()
            vals, vecs, solves, tau = es._arpack_below(Hs, c + 0.5, 1e-10, 0)
            np.testing.assert_allclose(np.sort(vals), np.arange(1.0, c + 1),
                                       rtol=1e-12, atol=0)
            assert solves > 0 and tau == c + 0.5
            assert es._arpack_below(Hs, c + 1.5, 1e-10, 0) == (None, None, 0,
                                                               None)

    @pytest.mark.parametrize("n, blocks, plain", [(64, 2, 4), (40, 1, 2)])
    def test_rotated_well_at_the_law(self, shifted, factors, n, blocks,
                                     plain):
        # the rotated well at h = 0.1, m = 6: 10 pairs in each block below
        # the law's level 6 on 64^2, 22 on one complex block on 40^2; each
        # block's shifted run answers with one factor, where the small
        # request takes two (a shifted run capped at the block's share plus
        # 5 refused these counts and made 5 and 3 factors in all)
        op, above = self.law("1 + 3*x^2 + 2*x*y + 2*y^2", n, 0.1, 6)
        res = smallest_eigenpairs(op, 6, tol=1e-10, above=above)
        assert factors == [above] * blocks
        assert [r[2] for r in shifted] == [False] * blocks
        assert res.blocks == blocks and not res.real
        assert res.shift == res.count_shift == above
        assert res.iterations == sum(r[1] for r in shifted)
        assert np.all(res.converged)
        factors.clear()
        today = smallest_eigenpairs(op, 6, tol=1e-10)
        assert len(factors) == plain
        np.testing.assert_allclose(res.eigenvalues, today.eigenvalues,
                                   rtol=1e-12, atol=0)

    def test_pair_over_tol(self, shifted, monkeypatch):
        # the first block's run returns a vector off by 1e-6 times another:
        # its residual is over tol, so the run fails there
        op, above = self.law("1 + x^2 + y^2", 64, 0.1, 6)
        real = spla.eigsh

        def eigsh(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            if kwargs["which"] == "SA":
                vecs = vecs.copy()
                vecs[:, 0] += 1e-6 * vecs[:, 1]
            return vals, vecs
        monkeypatch.setattr(spla, "eigsh", eigsh)
        made = self.falls_back(op, 6, above, shifted)
        assert len(made) == 1 and made[0] > 0

    def test_far_pairs_converge_within_tol(self, shifted):
        # the standard well at h = 0.5 on 64^2, m = 2: the law's level 2 lies
        # above 6 eigenvalues, the lowest 1.2 below it; at the other runs'
        # Krylov tolerance its residual came out 1.4e-10 > tol, at a tenth of
        # it the run holds with every pair converged
        op, above = self.law("1 + x^2 + y^2", 64, 0.5, 2)
        res = smallest_eigenpairs(op, 2, tol=1e-10, above=above)
        assert len(shifted) == 1 and not shifted[0][2]
        assert res.shift == res.count_shift == above
        assert np.all(res.converged)
        today = smallest_eigenpairs(op, 2, tol=1e-10)
        np.testing.assert_allclose(res.eigenvalues, today.eigenvalues,
                                   rtol=1e-12, atol=0)

    def test_singular_factor(self, shifted, monkeypatch):
        op, above = self.law("1 + x^2 + y^2", 64, 0.1, 6)
        real = es._factor

        def singular(Hs, sigma, inertia):
            if sigma == above:
                raise RuntimeError("Factor is exactly singular")
            return real(Hs, sigma, inertia)
        monkeypatch.setattr(es, "_factor", singular)
        assert self.falls_back(op, 6, above, shifted) == [0]

    def test_arpack_stall(self, shifted, monkeypatch):
        # the shifted Krylov loop stops early in the first block
        op, above = self.law("1 + x^2 + y^2", 64, 0.1, 6)
        real = spla.eigsh

        def eigsh(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            if kwargs["which"] == "SA":
                raise spla.ArpackNoConvergence("stopped early", vals[:1],
                                               vecs[:, :1])
            return vals, vecs
        monkeypatch.setattr(spla, "eigsh", eigsh)
        made = self.falls_back(op, 6, above, shifted)
        assert len(made) == 1 and made[0] > 0

    def test_value_within_the_margin(self, shifted, factors, block_runs):
        # `above` tol above lambda_6: the count holds it, but it lies within
        # 2 tol + 4 r of `above`, so the odd block's shifted run fails and
        # that block answers from the rest of its list; the even block keeps
        # its shifted run and its one factor
        op, _ = self.law("1 + x^2 + y^2", 64, 0.1, 6)
        lam = smallest_eigenpairs(op, 6, tol=1e-10).eigenvalues
        above = lam[5] + 1e-10
        factors.clear()
        block_runs.clear()
        res = smallest_eigenpairs(op, 6, tol=1e-10, above=above)
        assert [r[2] for r in shifted] == [False, True]
        assert len(factors) == 4 and factors[:2] == [above, above]
        assert above not in factors[2:]
        held, failed = list(block_runs)
        assert held[3][5] == above and held[3][2] == shifted[0][1]
        assert (self.same_as_plain(failed, held[1]) + shifted[1][1]
                == failed[3][2])
        np.testing.assert_array_equal(res.eigenvalues, np.sort(np.concatenate(
            [held[3][0], np.sort(failed[3][0])[:failed[2]]]))[:6])
        assert res.iterations == held[3][2] + failed[3][2]
        assert np.all(res.converged)
        np.testing.assert_allclose(res.eigenvalues, lam, rtol=1e-12, atol=0)

    def test_gate_admits_roundoff_at_tol_1e11(self, monkeypatch):
        # the standard well at h = 0.1 on 143^2: the roundoff in Hs - P Hs P
        # is 1.6e-12, over tol / 10 but within tol / 2 at tol = 1e-11, so the
        # request splits in real blocks and agrees with one block
        op = std_operator(143, h=0.1)
        res = smallest_eigenpairs(op, 6, tol=1e-11)
        assert res.blocks == 2 and res.real and np.all(res.converged)
        monkeypatch.setattr(es, "_SPLIT_SMALL_DIM", op.dim + 1)
        one = smallest_eigenpairs(op, 6, tol=1e-11)
        assert one.blocks == 1 and np.all(one.converged)
        np.testing.assert_allclose(res.eigenvalues, one.eigenvalues,
                                   rtol=1e-12, atol=0)


class TestEigenpairsNear:
    def test_matches_dense_window(self):
        op = std_operator(12, h=0.1)
        full = dense_reference(op, op.dim)
        target = float(full[5] + 0.3 * (full[6] - full[5]))
        res = eigenpairs_near(op, target, 4)
        # in order of distance to the target, the nearest first
        expected = full[np.argsort(np.abs(full - target))[:4]]
        np.testing.assert_allclose(res.eigenvalues, expected, atol=1e-11)

    def test_residuals_certify_pairs(self):
        op = std_operator(12, h=0.1)
        res = eigenpairs_near(op, 0.15, 3)
        assert np.all(res.residuals <= 1e-10)

    def test_interior_request_splits_in_real_blocks(self):
        # 4,096 unknowns and m = 6 near 2.7, between the 10th and 11th
        # levels (2.610 and 2.932): two real parity blocks, each keeping its
        # 4 pairs nearest the target, and the union's 6 nearest answer
        op = std_operator(64, h=0.5)
        res = eigenpairs_near(op, 2.7, 6, tol=1e-10)
        assert res.blocks == 2 and res.real and np.all(res.converged)
        assert res.shift == 2.7 and res.count_shift is None
        ref = spla.eigsh(symmetrized(op), k=12, sigma=2.7, which="LM",
                         tol=1e-14, return_eigenvectors=False)
        ref = ref[np.argsort(np.abs(ref - 2.7))[:6]]
        np.testing.assert_allclose(res.eigenvalues, ref, rtol=1e-12, atol=0)
        V = res.eigenvectors
        assert V.flags.f_contiguous
        G = V.conj().T @ (op.M[:, None] * V)
        assert np.abs(G - np.eye(6)).max() <= 1e-10
        even = np.linalg.norm(V[::-1] - V, axis=0)
        odd = np.linalg.norm(V[::-1] + V, axis=0)
        assert np.all(np.minimum(even, odd) <= 1e-10 * np.linalg.norm(V, axis=0))

    def test_short_block_reruns_near_a_shell(self, monkeypatch):
        # m = 25 near 1.30, in oscillator shell 6: each block keeps its 14
        # values nearest the target, and the union up to the nearer block
        # top holds fewer than 25, so that block runs again with m_b = 25;
        # the 25th and 26th nearest levels lie 0.031 apart
        op = oscillator_operator()
        calls, real = [], es._arpack_near

        def spy(Hs, sigma, m, tol, seed, count=None, **kwargs):
            calls.append((Hs, m))
            return real(Hs, sigma, m, tol, seed, count, **kwargs)
        monkeypatch.setattr(es, "_arpack_near", spy)
        res = eigenpairs_near(op, 1.3, 25, tol=1e-10)
        assert [c[1] for c in calls] == [14, 14, 25]
        assert calls[2][0] is calls[0][0] or calls[2][0] is calls[1][0]
        assert res.blocks == 2 and res.real and np.all(res.converged)
        full = dense_reference(op, op.dim)
        dist = np.abs(full - 1.3)
        assert np.sort(dist)[25] - np.sort(dist)[24] > 0.03
        np.testing.assert_allclose(res.eigenvalues,
                                   full[np.argsort(dist)[:25]],
                                   rtol=1e-12, atol=0)


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


class TestVectorsOnDemand:
    """A solve keeps its answer in block form: the residuals are certified
    16 columns at a time, and `eigenvectors` is built on first read."""

    @pytest.fixture(scope="class")
    def tiling(self):
        # 73 pairs of the 3 x 3 tiling on 96^2: a real split of dim 9,216
        tiled = TiledField(standard_well(), 3)
        return assemble(tiled, tiled.gauge(), Grid(tiled.domain, 96, 96), 0.05)

    def test_result_holds_the_blocks_not_the_dense_array(self, tiling):
        # the (dim, m) complex array is 10.3 MiB; built in every solve, it set
        # a traced peak of 17.9 MiB (12.0 MiB without it)
        smallest_eigenpairs(tiling, 73)  # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = smallest_eigenpairs(tiling, 73)
            held, peak = (x - before for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        dense = tiling.dim * 73 * 16
        assert res.blocks == 2 and res.real
        assert held < 0.5 * dense
        assert peak < 1.5 * dense

    @pytest.mark.parametrize("case", ["one-block", "real-split",
                                      "complex-split"])
    def test_vectors_on_first_read(self, case, tiling):
        if case == "one-block":
            op, m = std_operator(48), 6
        elif case == "real-split":
            op, m = tiling, 73
        else:  # the rotated well: complex parity blocks
            s = FieldSetup("1 + 3*x^2 + 2*x*y + 2*y^2", None, SQUARE2)
            op, m = assemble(s, gauge_from_field(s, x_anchor=0.0),
                             Grid(SQUARE2, 40, 40), 0.1), 30
        res = smallest_eigenpairs(op, m, tol=1e-10)
        assert (res.blocks, res.real) == {"one-block": (1, False),
                                          "real-split": (2, True),
                                          "complex-split": (2, False)}[case]
        V = res.eigenvectors
        assert res.eigenvectors is V
        assert V.shape == (op.dim, m) and V.dtype == complex
        assert V.flags.f_contiguous
        r = pencil_residual_norms(op, V, res.eigenvalues)
        np.testing.assert_allclose(r, res.residuals, rtol=1e-12, atol=0)
        # small residuals show the columns unfolded right: each parity
        # block's with its own basis, from its own offset
        assert res.converged.all(), res.residuals


class TestResiduals:
    def test_residuals_are_the_quasimode_residual(self):
        # phi = -(x^2 + y^2)/2 makes M far from constant: there the M^{-1}
        # norm of the residual is 1.09 to 1.48 times ||H v - lambda M v|| /
        # ||M v||
        s = FieldSetup("1 + x^2 + y^2", "-(x^2 + y^2)/2", SQUARE2)
        op = assemble(s, gauge_from_field(s, x_anchor=0.0),
                      Grid(SQUARE2, 96, 96), 0.1)
        res = smallest_eigenpairs(op, 6, tol=1e-10)
        r = [residual(op, res.eigenvectors[:, j], res.eigenvalues[j])
             for j in range(6)]
        np.testing.assert_allclose(res.residuals, r, rtol=1e-12, atol=0)


class TestConformalIsometry:
    """z -> e^z maps the metric e^{2x} (dx^2 + dy^2) isometrically onto the
    flat plane, so the field b(e^z) on it has the flat well b's spectrum, up
    to the exponentially small effect of the two domains' boundaries: an
    exact oracle for the curved path (the conformal factor, the quadrature
    gauge and the mass)."""

    H = 0.05
    FLAT = FieldSetup("1 + (x - 2)^2 + y^2", None,
                      Rectangle(0.0, 4.0, -2.0, 2.0))
    CURVED = FieldSetup("1 + (exp(x)*cos(y) - 2)^2 + (exp(x)*sin(y))^2", "x",
                        Rectangle(np.log(2) - 0.9, np.log(2) + 0.9, -0.8, 0.8))

    def test_well_data(self):
        for setup in (self.FLAT, self.CURVED):
            well = well_data(setup)
            np.testing.assert_allclose([well.b0, well.alpha1, well.beta1], 1.0,
                                       rtol=0, atol=1e-12)
            assert well.R0 == 0
        assert well.phi0 == pytest.approx(np.log(2), abs=1e-12)

    def test_richardson_limits_agree(self):
        # Richardson pairs of spacing 0.0142 and 0.0284 at the well: the
        # curved grid's 0.0071 and 0.0142 times |f'| = e^x = 2 there (its
        # domain is 1.8 x 1.6); the limits differ by 2e-6 to 2e-5 h^2
        limits = []
        for setup, (nx, ny) in ((self.FLAT, (280, 280)),
                                (self.CURVED, (252, 224))):
            gauge = gauge_from_field(setup, x_anchor=well_data(setup).x0[0])
            pair = []
            for grid in (Grid(setup.domain, nx, ny),
                         Grid(setup.domain, nx // 2, ny // 2)):
                res = smallest_eigenpairs(assemble(setup, gauge, grid, self.H),
                                          3, tol=1e-10)
                assert np.all(res.converged)
                pair += [res.eigenvalues, grid.dx]
            limits.append(richardson(*pair))
        assert np.all(np.abs(limits[1] - limits[0]) <= 1e-4 * self.H ** 2)

