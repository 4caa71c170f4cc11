"""Eigenpairs of the generalized Hermitian pencil (H, M), M diagonal.

The diagonal mass makes the symmetrization M^{-1/2} H M^{-1/2} exact.  Every
request goes through one shift-invert Lanczos core (ARPACK, Ericsson & Ruhe
1980) with a deterministic starting vector: the bottom of the spectrum is the
window nearest a shift below the spectrum, an interior window is the one
nearest its target.  `Grid` keeps dim >= 64 and m <= dim/4, so the Krylov
request k always fits below dim.

The bottom is sought at sigma = floor + 0.95 (bottom - floor), just below the
operator's Montgomery estimate `bottom` (floor + h min b, or the floor itself
on a grid that aliases the field), where the transformed eigenvalues
1/(lambda - sigma) of the wanted pairs are well separated; at the floor they
crowd together near 1/(h b0).  An unpivoted factor of Hs - tau I (SuperLU in
symmetric mode, an LDL^H-type factor) counts the eigenvalues at or below tau:
by Sylvester's law they are its nonpositive U-diagonal entries (Grimes, Lewis
& Simon 1994).  Each block tries a run list in order, and the first run whose
certificate holds answers.  At most two Krylov requests are made at sigma:

- The small request, for m <= 24, where the full request's basis would be
  set by its floor of 80 vectors: k = m + 2 pairs in 2k + 1 vectors within
  10 implicit restarts (Lehoucq & Sorensen 1996), on a symmetric-mode factor.
  It is kept only if the count at a tau in a gap above lambda_m
  (`_gap_above`) certifies its pairs (`_certified_below`): as many below tau
  as counted, each more than 2 tol + 4 r from tau (r its residual).  That
  proves none below tau was missed, also none below sigma, so its Krylov
  factor is never counted.  Discarded before tau is factored (a stall, or
  no gap wide enough), it hands its factor to the full request.
- The full request: k = m + 5 pairs in at least 80 vectors, since highly
  degenerate clusters (Landau levels) make ARPACK stagnate in a smaller
  basis.  It runs for m >= 25 and whenever the small request is discarded
  (a stall, no wide enough gap, a count that disagrees, a singular factor
  or pivots off the diagonal).  A count of 0 at sigma, taken after its
  Krylov loop, certifies that its k eigenvalues nearest sigma are the k
  smallest.  A nonzero count (on coarse grids), a singular factor, or pivots
  off the diagonal rerun it at the floor min(0, min V), a proven lower
  bound, with the pivoted factor.

A caller that expects a point `above` to lie above lambda_m (`magspec
solve` passes the two-term law's level m, h b0 + h^2 mu_{m,0}) puts the
shifted run (above, "below") first in the list of a request for m <= 24
(`_arpack_below`): the block is factored once at `above` in symmetric mode,
and that factor's count c comes first.  If 0 < c < 40, so that its basis of
2c + 1 vectors stays below the full request's floor, ARPACK seeks on the
same factor the c algebraically smallest 1/(lambda - above) within 30
restarts, to a tenth of the other runs' tolerance: they are exactly the c
eigenvalues below `above`, certified as the small request's.  The run then
answers with every pair below `above`, its bound, from one factor instead of
two.  A block whose shifted run fails goes on down its list, and the blocks
after it skip that run.  On the curved well at h = 0.05 (two real blocks of
57,461 unknowns, m = 6) the counts at the law's level 6 are 5 and 4; on the
rotated well 1 + 3x^2 + 2xy + 2y^2 at h = 0.1 on 64^2 they are 10 and 10.

The parity split.  The experiments' fields are unchanged by the rotation by
pi about the domain centre, on a centred grid the index reversal F (node
k -> dim-1-k).  If the symmetry gate admits E = Hs - F Hs F, a request for
m >= 25 pairs, or for m >= 6 on at least 4,096 unknowns, is solved as an
even and an odd block of half the size, the projections P^T Hs P onto the
parity bases P (`_parity_basis`, `_parity_blocks`, `blocks` = 2), at the
bottom or near a target alike: the rule reads m and dim, not the request's
runs.  Each block runs the whole run list (shifted run, small request, full
request, floor; or the run at the target) for its m_b = ceil(m/2) + 1 pairs
first in the request's order (smallest, or nearest the target), as one
block keeps m of m + 5.  A block's bound is its m_b-th pair, or `above` if
the shifted run answered it.  The union's pairs up to T, the nearest of the
blocks' bounds, answer if at least m; else the block that set T runs its
list again for m_b = m, without the shifted run.
Other requests are one block, m_b = m, under the same rule.
A split small request makes about 1.7 times the solves of one block, each on
a half-size real block (below), but factors each block twice (the Krylov
factor and the count; once in the shifted run), which on large grids takes
as long as one block's two complex factors: the split pays where the Krylov
loop weighs, at m >= 6.  Split time over one block's on the standard well at
h = 0.1 (2 CPUs, medians of 3 to 7): for m = 6, 1.3 at 256 and 576 unknowns,
0.78-1.13 from 1,024 to 3,600, 0.72-0.86 from 4,096 to 131,044 and 0.78-0.93
at 262,144; for m = 12 and 24, 0.48-0.77 from 4,096 to 262,144; for m = 1 to
5, 0.67-1.02 from 4,096 to 131,044 but 0.95-1.14 at 262,144.
Near a target there is no count: ACCEPTANCE 6's 12 pairs near a rung on
143^2 to 544^2 nodes took 18.6 s split, 22.7 s on one block (medians of 3).

The symmetry gate admits a defect E (Hs - F Hs F, or a block's, below) if
sqrt(||E||_1 ||E||_inf) <= tol/2.  What is solved is the projected operator
A - E/2, and ||E||_2 <= sqrt(||E||_1 ||E||_inf), so by Weyl's inequality
each projection moves every eigenvalue by at most tol/4, and the two (parity,
then the real form below) by at most tol/2.  A count's tau lies more than
tol from the returned values on either side, so none is carried across it;
residuals are measured on H itself.  E is roundoff of the Peierls phases:
1.1e-12 on the 3 x 3 tiling at h = 0.05, n = 192; on the standard well at
h = 0.1 about 1.5e-14 ||Hs||_1, 1.6e-12 at n = 143 (within tol/2 at
tol = 1e-11) and 1.0e-11 at n = 362 (within tol/2 at the default 1e-10).

Real arithmetic.  The experiments' fields are also even in y about the
domain's centre line, and in the A1 = 0 gauge the node mirror R_y
((i, j) -> (i, ny-1-j)) then conjugates Hs: R_y Hs R_y = conj(Hs).  The
antiunitary J = K R_y (K complex conjugation) commutes with F, so on each
block it acts as conjugation after a signed permutation S of the block
index k = i ny + j: k -> i ny + ny-1-j with sign +1 for rows i < nx // 2,
and fixed points on the middle row of an odd nx (sign +1 in the even block,
-1 in the odd one) and at the centre node (+1).  If the gate admits
E = B - conj(S B S), B is solved as the real symmetric R = Re(Q^H B Q) in
the J-fixed basis Q: (e_k + e_Sk)/sqrt(2) and i(e_k - e_Sk)/sqrt(2) for a
pair k < Sk, e_k or i e_k for a fixed k of sign +1 or -1 (`_real_form`).
As conj(Q) = S Q, R is B averaged with conj(S B S) in that basis.  The
factor, the count and `eigsh` (ARPACK's real Lanczos) then run in real
arithmetic, and each kept vector r maps back to Q r.  `EigenResult.real` is
True when every block did.  A field symmetric under F but not under the
mirror (a rotated well, 1 + 3x^2 + 2xy + 2y^2) keeps complex blocks, and the
one-block path stays complex.  A split request holds only the blocks'
forms: Hs and the complex blocks are freed before the first factor, except
a block whose gate refuses, which is its own form.

`EigenResult.shift` records the shift-invert shift of the run that was kept
(of two blocks, the lower), `count_shift` the shift of the count that
certified it (tau, sigma, or `above` for the shifted run; of two blocks, the
lower of their two, since each proves its block complete below its own;
None if any answer is uncertified).  So if the shifted run answered one
block and the small request the other, `shift` is that request's sigma and
`count_shift` the lower of `above` and its tau.  `iterations` counts the
shift-invert solves of every run of every block, a failed shifted run's too.

A solve keeps each block's kept columns and Q, and unfolds 16 columns at a
time (r, Q r, then P Q r) for the residuals (`pencil_residuals`).
`EigenResult.eigenvectors` is built on first read: a Fortran-ordered
(dim, m) complex array of M-orthonormal columns, column i the eigenvector of
eigenvalues[i] as a grid function (`discretize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import AssembledOperator, pencil_residuals
from .errors import DomainError

__all__ = ["EigenResult", "smallest_eigenpairs", "eigenpairs_near",
           "nearest_eigenvalue"]

_CLUSTER_MARGIN = 5
# the full request's smallest Krylov basis
_NCV_FLOOR = 80
# implicit restarts the small request may take before the full one runs
_SMALL_RESTARTS = 10
# implicit restarts the shifted run may take: with 10, as the small request,
# a third of the blocks of 1 to 4 pairs below the shift stalled on the pair
# farthest below it; 30 converged each of them in at most 12 more solves
_SHIFTED_RESTARTS = 30
# fraction of the way from the floor to the bottom estimate at which the
# smallest pairs are sought first
_BELOW_BOTTOM = 0.95
# the fewest pairs and unknowns at which a small request splits into parity
# blocks (module docstring)
_SPLIT_SMALL_M = 6
_SPLIT_SMALL_DIM = 4096


@dataclass
class EigenResult:
    eigenvalues: np.ndarray
    residuals: np.ndarray  # `pencil_residuals` of each pair
    iterations: int  # shift-invert solves (OPinv applications)
    converged: np.ndarray  # bool per pair
    shift: float  # the shift-invert shift of the run that was kept
    # shift of the inertia count that certified the run: tau or `above`
    # above lambda_m, or sigma; of two blocks, the lower of theirs; None for
    # an uncertified run (at the floor, or near a target)
    count_shift: float = None
    blocks: int = 1  # 2 when solved as two parity blocks
    real: bool = False  # every block's Krylov loop ran in real arithmetic
    _columns: callable = field(default=None, repr=False, compare=False)

    def __len__(self):
        return self.eigenvalues.size

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """(dim, m), M-orthonormal columns, built on first read."""
        return self._columns(np.arange(len(self)))


def _factor(Hs, sigma: float, inertia: bool):
    """SuperLU factor of Hs - sigma I.

    Its symmetric-structure ordering roughly halves the fill of the default
    column ordering on the 5-point stencil, which dominates large solves.
    With `inertia` the pivots stay on the diagonal (symmetric mode), so the
    factor can be counted by `_count_below`.
    """
    pivoting = ({"diag_pivot_thresh": 0, "options": {"SymmetricMode": True}}
                if inertia else {})
    return spla.splu(
        (Hs - sigma * sp.identity(Hs.shape[0], dtype=Hs.dtype,
                                  format="csc")).tocsc(),
        permc_spec="MMD_AT_PLUS_A", **pivoting)


def _count_below(lu):
    """Eigenvalues of Hs at or below sigma, from an `inertia` factor of
    Hs - sigma I, or None if its pivots left the diagonal.

    A symmetric permutation makes the factor L D L^H with D = diag(U), and D
    has the inertia of Hs - sigma I (Sylvester).  Reading `lu.U` builds and
    caches csc copies of both factors; they are emptied here, so a count may
    precede the factor's solves without holding them through the loop (and
    a factor is counted once).
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    count = int(np.sum(lu.U.diagonal().real <= 0))
    for f in (lu.L, lu.U):
        f.data, f.indices = f.data[:0].copy(), f.indices[:0].copy()
        f.indptr = np.zeros_like(f.indptr)
    return count


def _residuals(Hs, vals, vecs):
    """||Hs v - lambda v|| / ||v|| of each pair (vals, vecs)."""
    return (np.linalg.norm(Hs @ vecs - vecs * vals, axis=0)
            / np.linalg.norm(vecs, axis=0))


def _gap_above(Hs, vals, vecs, m: int, tol: float):
    """tau, the shift of an inertia count above the m-th smallest of `vals`,
    or None if no gap is wide enough.

    tau is the midpoint of the first gap at or above the m-th value that lies
    more than 2 tol + 4 r from both of its ends, r the residuals of the pairs
    (vals, vecs) of Hs: the margin by which `_certified_below` then checks
    every pair against the count at tau.
    """
    order = np.argsort(vals)
    vals, res = vals[order], _residuals(Hs, vals, vecs)[order]
    margin, mid = 2 * tol + 4 * res, 0.5 * (vals[:-1] + vals[1:])
    wide = np.flatnonzero(((mid - vals[:-1] > margin[:-1])
                           & (vals[1:] - mid > margin[1:]))[m - 1:])
    return None if wide.size == 0 else float(mid[m - 1 + wide[0]])


def _certified_below(Hs, vals, vecs, tau: float, count: int,
                     tol: float) -> bool:
    """Whether the pairs (vals, vecs) of Hs below tau are every eigenpair
    below it, given `count`, the inertia count at tau: as many below tau as
    counted, each with residual r <= tol, and every pair more than 2 tol + 4 r
    from tau, so that none is an eigenvalue carried across tau by a
    residual-sized error."""
    res, below = _residuals(Hs, vals, vecs), vals < tau
    return (np.count_nonzero(below) == count and bool(np.all(res[below] <= tol))
            and bool(np.all(np.abs(vals - tau) > 2 * tol + 4 * res)))


def _lanczos(Hs, lu, sigma: float, k: int, ncv: int, maxiter: int,
             tol: float, seed: int, which: str = "LM"):
    """ARPACK's shift-invert Lanczos on `lu`, a factor of Hs - sigma I:
    (vals, vecs, solves, stopped), solves its OPinv applications and stopped
    the ArpackNoConvergence of a stall (then the pairs are the ones ARPACK
    converged), else None.  `which` refers to 1/(lambda - sigma)."""
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    v0 = np.random.default_rng(seed).standard_normal(Hs.shape[0])
    try:
        vals, vecs = spla.eigsh(Hs, k=k, sigma=sigma, which=which, v0=v0,
                                OPinv=spla.LinearOperator(Hs.shape, matvec=solve,
                                                          dtype=Hs.dtype),
                                ncv=ncv, maxiter=maxiter,
                                tol=max(tol * 1e-1, 1e-12))
    except spla.ArpackNoConvergence as err:
        # dropping its traceback frees ARPACK's workspace before any count
        return (np.real(err.eigenvalues), err.eigenvectors, solves,
                err.with_traceback(None))
    return vals, vecs, solves, None


def _arpack_near(Hs, sigma: float, m: int, tol: float, seed: int,
                 count: str = None, spare: dict = None):
    """ARPACK's converged eigenpairs of Hs nearest sigma, at least m of them,
    the number of shift-invert solves (OPinv applications) it made, and the
    shift of the inertia count that certified the pairs.

    `count` names the request and its certificate: "above" the small request,
    certified by a count at tau above lambda_m (`_gap_above`,
    `_certified_below`) once the Krylov factor is freed; "sigma" the full
    request, certified by a count of 0 at sigma; None the full request,
    uncertified.  A certified request returns (None, None) pairs when it
    stalls (small request only) or its certificate fails.
    A small request discarded before its count above (a stall, or no gap wide
    enough) leaves its factor in `spare`, keyed by sigma, and the next request
    at sigma takes it from there instead of factoring Hs again.
    """
    n = Hs.shape[0]
    small = count == "above"
    if small:
        k = m + 2
        ncv, maxiter = 2 * k + 1, _SMALL_RESTARTS
    else:
        k = min(m + _CLUSTER_MARGIN, n - 2)
        ncv, maxiter = min(n - 1, max(2 * k + 20, _NCV_FLOOR)), 2000
    lu = spare.pop(sigma, None) if spare else None
    if lu is None:
        try:
            lu = _factor(Hs, sigma, inertia=count is not None)
        except RuntimeError:  # exactly singular: sigma is an eigenvalue
            if count is None:
                raise
            return None, None, 0, None
    vals, vecs, solves, stopped = _lanczos(Hs, lu, sigma, k, ncv, maxiter,
                                           tol, seed)
    if count == "sigma" and _count_below(lu) != 0:
        return None, None, solves, None
    if small:
        tau = None if stopped is not None else _gap_above(Hs, vals, vecs, m,
                                                          tol)
        if tau is None:
            if spare is not None:
                spare[sigma] = lu
            return None, None, solves, None
        del lu  # the count above lambda_m factors Hs again
        try:
            counted = _count_below(_factor(Hs, tau, inertia=True))
        except RuntimeError:  # exactly singular: tau is an eigenvalue
            counted = None
        if counted is None or not _certified_below(Hs, vals, vecs, tau,
                                                   counted, tol):
            return None, None, solves, None
        return vals, vecs, solves, tau
    if stopped is not None and vals.size < m:
        raise DomainError(
            f"eigensolver converged only {vals.size} of {m} pairs") from stopped
    return vals, vecs, solves, sigma if count else None


def _arpack_below(Hs, tau: float, tol: float, seed: int):
    """Every eigenpair of Hs below tau from one factor of Hs - tau I: as
    `_arpack_near`'s (vals, vecs, solves, count shift), with (None, None)
    pairs if that run fails.

    The factor's inertia count c comes first: a singular factor, pivots off
    the diagonal, c = 0, or a basis of 2c + 1 vectors that would reach the
    full request's floor `_NCV_FLOOR` (or dim) fail before any solve.  On
    that same factor ARPACK then seeks the c algebraically smallest
    1/(lambda - tau), which are the c eigenvalues below tau; a stall fails,
    and so do pairs that `_certified_below` does not accept.
    """
    try:
        lu = _factor(Hs, tau, inertia=True)
    except RuntimeError:  # exactly singular: tau is an eigenvalue
        return None, None, 0, None
    c = _count_below(lu)
    if c is None or not 0 < c < min(_NCV_FLOOR, Hs.shape[0]) / 2:
        return None, None, 0, None
    # a tenth of the other runs' Krylov tolerance: ARPACK measures a pair in
    # 1/(lambda - tau), and the one farthest below tau met that measure with
    # a residual over tol (1.4e-10 at tol = 1e-10 on the standard well at
    # h = 0.5, 64^2, m = 2); this costs 0 to 4 solves per block
    vals, vecs, solves, stopped = _lanczos(Hs, lu, tau, c, 2 * c + 1,
                                           _SHIFTED_RESTARTS, tol / 10, seed,
                                           which="SA")
    if stopped is not None or not _certified_below(Hs, vals, vecs, tau, c,
                                                   tol):
        return None, None, solves, None
    return vals, vecs, solves, tau


def _run(Hs, runs, m: int, tol: float, seed: int):
    """(vals, vecs, solves, shift, count shift, bound) of the first of `runs`
    whose certificate holds on Hs, the solves summed over every run made.
    A "below" run (`_arpack_below`) returns every pair below its shift, its
    bound; the others return None, and their first m pairs answer."""
    solves, spare = 0, {}  # a discarded small request's factor (`_arpack_near`)
    for sigma, count in runs:
        vals, vecs, more, count_shift = (
            _arpack_below(Hs, sigma, tol, seed) if count == "below" else
            _arpack_near(Hs, sigma, m, tol, seed, count=count, spare=spare))
        solves += more
        if vals is not None:
            return (vals, vecs, solves, sigma, count_shift,
                    sigma if count == "below" else None)


def _symmetric(E, tol: float) -> bool:
    """The symmetry gate: sqrt(||E||_1 ||E||_inf) <= tol / 2."""
    return np.sqrt(spla.norm(E, 1) * spla.norm(E, np.inf)) <= tol / 2


def _parity_basis(dim: int, odd: bool):
    """P, the sparse (dim, dim_b) basis of the even or `odd` parity block:
    column i < h = dim // 2 is (e_i +- e_{dim-1-i}) / sqrt(2), and an odd
    dim's even block adds the centre e_h, its own mirror, as 0.5 + 0.5."""
    k = np.arange((dim + 1 - odd) // 2)
    v = np.where(k == dim - 1 - k, 0.5, np.sqrt(0.5))
    return sp.csc_matrix((np.concatenate([v, -v if odd else v]),
                          (np.concatenate([k, dim - 1 - k]), np.tile(k, 2))))


def _parity_blocks(Hs, tol: float):
    """The even and odd blocks P^T Hs P of Hs, P the `_parity_basis` of
    each, or None if the gate (`_symmetric`) refuses E = Hs - F Hs F, F the
    index reversal."""
    if not _symmetric(Hs - Hs[::-1, ::-1], tol):
        return None
    bases = [_parity_basis(Hs.shape[0], odd) for odd in (False, True)]
    return tuple((P.T @ Hs @ P).tocsc() for P in bases)


def _real_form(B, tol: float, grid, odd: bool):
    """(R, Q): R = Re(Q^H B Q), B averaged with conj(S B S) in the basis Q of
    J-fixed vectors (module docstring), the real symmetric form of the even or
    `odd` parity block B, or (B, None) if the gate refuses E = B - conj(S B S).
    A pair k < S k (sign +1) has columns k and S k, a fixed k column k."""
    ny, k = grid.ny, np.arange(B.shape[0])
    i, j = np.divmod(k, ny)
    Sk = np.where(i < grid.nx // 2, i * ny + ny - 1 - j, k)
    s = np.where((i == grid.nx // 2) & odd, -1.0, 1.0)
    S = sp.csc_matrix((s, (Sk, k)))
    if not _symmetric(B - (S @ B @ S).conj(), tol):
        return B, None
    lo, f, c = k[k < Sk], k[k == Sk], np.sqrt(0.5)
    hi = Sk[lo]
    Q = sp.csc_matrix((np.concatenate([np.repeat([c, c, 1j * c, -1j * c],
                                                 lo.size),
                                       np.where(s[f] > 0, 1, 1j)]),
                       (np.concatenate([lo, hi, lo, hi, f]),
                        np.concatenate([lo, lo, hi, hi, f]))))
    return (Q.conj().T @ B @ Q).real.tocsc(), Q


def _union_pairs(forms, runs, m: int, tol: float, seed: int, key):
    """The m pairs of Hs first by `key(vals)` from its one or two block
    `forms`, by the union rule (module docstring).  Returns their values;
    `order`, the index of each answer in the blocks' kept columns,
    concatenated; each block's kept columns with its form's Q; then the
    solves of every run, the shift and count shift, and whether every block
    ran in real arithmetic."""
    wants = [m] if len(forms) == 1 else [m // 2 + m % 2 + 1] * 2
    plain, out = [r for r in runs if r[1] != "below"], []
    for (form, _), k in zip(forms, wants):
        out.append(_run(form, runs, k, tol, seed))
        if out[-1][5] is None:  # a failed shifted run is not tried again
            runs = plain
    solves = sum(o[2] for o in out)
    while True:
        # every pair up to a block's bound: its shift, or its k-th pair
        kept = [np.argsort(key(o[0]))[:k if o[5] is None else None]
                for o, k in zip(out, wants)]
        tops = [key(o[0][i[-1]] if o[5] is None else o[5])
                for o, i in zip(out, kept)]
        vals = np.concatenate([o[0][i] for o, i in zip(out, kept)])
        below = np.flatnonzero(key(vals) <= min(tops))
        if below.size >= m:
            break
        short = int(np.argmin(tops))
        if wants[short] == m and out[short][5] is None:
            raise DomainError(f"parity blocks gave {below.size} of {m} pairs")
        wants[short], out[short] = m, _run(forms[short][0], plain, m, tol,
                                           seed)
        solves += out[short][2]
    order = below[np.argsort(key(vals[below]), kind="stable")][:m]
    counts = [o[4] for o in out]
    return (vals[order], order,
            [(o[1][:, i], f[1]) for o, i, f in zip(out, kept, forms)],
            solves, min(o[3] for o in out),
            None if None in counts else min(counts),
            all(f[1] is not None for f in forms))


def _shift_invert_pairs(op: AssembledOperator, runs, m: int, tol: float,
                        seed: int, key) -> EigenResult:
    """The m pairs of the pencil nearest the shift of the first of `runs`
    whose certificate holds, ordered by `key(vals)`.

    `runs` are (shift, count) requests for `_run`; the last one is
    uncertified, so it answers if no earlier one does.  `_union_pairs`
    answers from Hs or, by the split rule (module docstring), its blocks.
    Each pair is certified by its residual (`pencil_residuals`) <= tol.
    """
    if not tol >= 1e-13:  # also NaN, which would never converge
        raise DomainError(f"tol must be >= 1e-13 in double precision, got {tol}")
    n = op.dim
    if m < 1 or m > n // 4:
        raise DomainError(f"m must be in [1, dim/4], got {m} for dim {n}")
    d = 1.0 / np.sqrt(op.M)
    Hs = (sp.diags(d) @ op.H @ sp.diags(d)).tocsc()
    split = m >= 25 or (m >= _SPLIT_SMALL_M and n >= _SPLIT_SMALL_DIM)
    blocks = _parity_blocks(Hs, tol) if split else None
    forms = [(Hs, None)] if blocks is None else []
    del Hs  # a split solve holds only the blocks' forms (module docstring)
    forms += [_real_form(B, tol, op.grid, odd == 1)
              for odd, B in enumerate(blocks or ())]
    del blocks
    vals, order, kept, solves, sigma, count_shift, real = _union_pairs(
        forms, runs, m, tol, seed, key)
    del forms  # each block's R; its columns map back through Q alone

    def columns(cols):
        """Answers `cols` as grid functions v = M^{-1/2} u: u = r of one
        block, Q r of a real form, and P u of each of two parity blocks."""
        v = np.empty((n, cols.size), dtype=complex, order="F")
        which = order[cols]  # answer columns counted from block b's first
        for b, (vb, Q) in enumerate(kept):
            part = np.flatnonzero((which >= 0) & (which < vb.shape[1]))
            u = vb[:, which[part]]
            if Q is not None:
                u = Q @ u
            v[:, part] = u if len(kept) == 1 else _parity_basis(n, b) @ u
            which = which - vb.shape[1]
        v *= d[:, None]
        return v

    res = np.empty(m)  # 16 columns at a time bound the temporaries
    for cols in np.array_split(np.arange(m), -(-m // 16)):
        res[cols] = pencil_residuals(op, columns(cols), vals[cols])
    return EigenResult(eigenvalues=vals,
                       residuals=res,
                       iterations=solves,
                       converged=res <= tol,
                       shift=float(sigma),
                       count_shift=count_shift,
                       blocks=len(kept),
                       real=real,
                       _columns=columns)


def smallest_eigenpairs(op: AssembledOperator, m: int, tol: float = 1e-10,
                        seed: int = 0, above: float = None) -> EigenResult:
    """The m algebraically smallest eigenpairs of H v = lambda M v.

    `above`, a point the caller expects above lambda_m, puts the shifted run
    first in a request for m <= 24 pairs: one factor per block at `above`,
    whose count certifies every pair below it (module docstring).  A block
    where it fails, and every block after, shifts just below the operator's
    `bottom` estimate.  The small request there is kept when a count above
    lambda_m certifies it, the full request when a count at the shift
    certifies that no eigenvalue lies below it; otherwise the full request
    runs at the `floor` min(0, min V), a lower bound of the spectrum.  Either
    way the eigenvalues nearest the shift are the smallest.
    """
    sigma = op.floor + _BELOW_BOTTOM * (op.bottom - op.floor)
    # the small request only where the basis floor sets the full one's ncv
    small = 2 * (m + _CLUSTER_MARGIN) + 20 < _NCV_FLOOR
    runs = [(above, "below")] if small and above is not None else []
    runs += [(sigma, "above")] if small else []
    runs += ([(sigma, "sigma"), (op.floor, None)] if sigma > op.floor
             else [(sigma, None)])
    return _shift_invert_pairs(op, runs, m, tol, seed, key=lambda v: v)


def eigenpairs_near(op: AssembledOperator, target: float, m: int,
                    tol: float = 1e-10, seed: int = 0) -> EigenResult:
    """The m eigenpairs of H v = lambda M v closest to `target`.

    Shift-invert at the target reaches eigenvalues deep inside the spectrum
    (e.g. a higher Landau cluster) without computing everything below it.
    Results are sorted by distance to the target.
    """
    return _shift_invert_pairs(op, [(target, None)], m, tol, seed,
                               key=lambda v: np.abs(v - target))


def nearest_eigenvalue(result: EigenResult, target: float):
    """(eigenvalue, distance) of the converged eigenvalue closest to target.

    Ties go to the smaller eigenvalue.
    """
    if len(result) == 0:
        raise DomainError("empty eigenresult")
    vals = result.eigenvalues[result.converged]
    if vals.size == 0:
        raise DomainError("no converged eigenvalues")
    dist = np.abs(vals - target)
    best = np.flatnonzero(dist == dist.min())[0]
    return float(vals[best]), float(dist[best])
