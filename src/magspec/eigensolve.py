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
& Simon 1994).  At most two Krylov requests are made at sigma:

- The small request, for m <= 24, where the full request's basis would be
  set by its floor of 80 vectors: k = m + 2 pairs in 2k + 1 vectors within
  10 implicit restarts (Lehoucq & Sorensen 1996).  It is kept only if the
  count at a tau in a gap above lambda_m (`_count_above`) equals the number
  of returned eigenvalues below tau.  That proves none below tau was missed,
  also none below sigma, so its Krylov factor is never counted.
- The full request: k = m + 5 pairs in at least 80 vectors, since highly
  degenerate clusters (Landau levels) make ARPACK stagnate in a smaller
  basis.  It runs for m >= 25 and whenever the small request is discarded
  (a stall, no wide enough gap, a count that disagrees, a singular factor
  or pivots off the diagonal).  A count of 0 at sigma, taken after its
  Krylov loop, certifies that its k eigenvalues nearest sigma are the k
  smallest.  A nonzero count (on coarse grids), a singular factor, or pivots
  off the diagonal rerun it at the floor min(0, min V), a proven lower
  bound, with the pivoted factor.

The parity split.  The experiments' fields are unchanged by the rotation by
pi about the domain centre, on a centred grid the index reversal P (node
k -> dim-1-k).  If sqrt(||E||_1 ||E||_inf) <= tol/100 for E = Hs - P Hs P, a
request that starts with the full certified run (m >= 25) is solved as an
even and an odd block of half the size (`_parity_blocks`, `blocks` = 2),
each by the full request and its fallback for its m_b = ceil(m/2) + 1
smallest pairs, as one block keeps m of m + 5.  The union's values up to T,
the smaller of the two m_b-th values, answer if at least m; else the block
that set T runs again with m_b = m.  Other requests are one block.

`EigenResult.shift` records the shift-invert shift of the run that was kept
(of two blocks, the lower), `count_shift` the shift of the count that
certified it (tau, sigma if every block counted at sigma, or None), and
`iterations` the shift-invert solves of every run of every block.

`EigenResult.eigenvectors` is one (dim, m) complex array: column i is the
eigenvector of eigenvalues[i], a grid function in the x-major layout of
`discretize`, and the columns are M-orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import AssembledOperator
from .errors import DomainError

__all__ = ["EigenResult", "smallest_eigenpairs", "eigenpairs_near",
           "nearest_eigenvalue"]

_CLUSTER_MARGIN = 5
# the full request's smallest Krylov basis
_NCV_FLOOR = 80
# implicit restarts the small request may take before the full one runs
_SMALL_RESTARTS = 10
# fraction of the way from the floor to the bottom estimate at which the
# smallest pairs are sought first
_BELOW_BOTTOM = 0.95


@dataclass
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (dim, m), M-orthonormal columns
    residuals: np.ndarray
    iterations: int  # shift-invert solves (OPinv applications)
    converged: np.ndarray  # bool per pair
    shift: float  # the shift-invert shift of the run that was kept
    # shift of the inertia count that certified the run: tau above lambda_m,
    # or sigma; None for an uncertified run (at the floor, or near a target)
    count_shift: float = None
    blocks: int = 1  # 2 when solved as two parity blocks

    def __len__(self):
        return self.eigenvalues.size


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
    caches csc copies of both factors, so call it once the factor's solves
    are done.
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.sum(lu.U.diagonal().real <= 0))


def _count_above(Hs, vals, vecs, m: int, tol: float):
    """The shift tau of an inertia count above the m-th smallest of `vals`
    that proves the pairs (vals, vecs) of Hs hold every eigenvalue below tau,
    or None if no such count holds.

    tau is the midpoint of the first gap at or above the m-th value that is
    wider than 2 tol + 4 (r_i + r_{i+1}), r the pairs' residuals, so a
    residual-sized error cannot carry an eigenvalue across tau.
    """
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    res = (np.linalg.norm(Hs @ vecs - vecs * vals, axis=0)
           / np.linalg.norm(vecs, axis=0))
    wide = np.flatnonzero(np.diff(vals)[m - 1:]
                          > 2 * tol + 4 * (res[m - 1:-1] + res[m:]))
    if wide.size == 0:
        return None
    below = m + int(wide[0])  # returned values below tau
    tau = 0.5 * (vals[below - 1] + vals[below])
    try:
        lu = _factor(Hs, tau, inertia=True)
    except RuntimeError:  # exactly singular: tau is an eigenvalue
        return None
    return float(tau) if _count_below(lu) == below else None


def _arpack_near(Hs, sigma: float, m: int, tol: float, seed: int,
                 count: str = None):
    """ARPACK's converged eigenpairs of Hs nearest sigma, at least m of them,
    the number of shift-invert solves (OPinv applications) it made, and the
    shift of the inertia count that certified the pairs.

    `count` names the request and its certificate: "above" the small request,
    certified by `_count_above` once the Krylov factor is freed; "sigma" the
    full request, certified by a count of 0 at sigma; None the full request,
    uncertified.  A certified request returns (None, None) pairs when it
    stalls (small request only) or its certificate fails.
    """
    n = Hs.shape[0]
    small = count == "above"
    if small:
        k = m + 2
        ncv, maxiter = 2 * k + 1, _SMALL_RESTARTS
    else:
        k = min(m + _CLUSTER_MARGIN, n - 2)
        ncv, maxiter = min(n - 1, max(2 * k + 20, _NCV_FLOOR)), 2000
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        lu = _factor(Hs, sigma, inertia=count == "sigma")
    except RuntimeError:  # exactly singular: sigma is an eigenvalue
        if count is None:
            raise
        return None, None, 0, None
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    stopped = None
    try:
        vals, vecs = spla.eigsh(Hs, k=k, sigma=sigma, which="LM", v0=v0,
                                OPinv=spla.LinearOperator(Hs.shape, matvec=solve,
                                                          dtype=Hs.dtype),
                                ncv=ncv, maxiter=maxiter,
                                tol=max(tol * 1e-1, 1e-12))
    except spla.ArpackNoConvergence as err:
        # the pairs carried by the error are the ones ARPACK converged;
        # dropping its traceback frees ARPACK's workspace before any count
        stopped = err.with_traceback(None)
        vals, vecs = np.real(err.eigenvalues), err.eigenvectors
    if count == "sigma" and _count_below(lu) != 0:
        return None, None, solves, None
    del lu  # the count above lambda_m factors Hs again
    if small:
        tau = None if stopped is not None else _count_above(Hs, vals, vecs,
                                                            m, tol)
        if tau is None:
            return None, None, solves, None
        return vals, vecs, solves, tau
    if stopped is not None and vals.size < m:
        raise DomainError(
            f"eigensolver converged only {vals.size} of {m} pairs") from stopped
    return vals, vecs, solves, sigma if count else None


def _run(Hs, runs, m: int, tol: float, seed: int):
    """(vals, vecs, solves, shift, count shift) of the first of `runs` whose
    certificate holds on Hs, the solves summed over every run made."""
    solves = 0
    for sigma, count in runs:
        vals, vecs, more, count_shift = _arpack_near(Hs, sigma, m, tol, seed,
                                                     count=count)
        solves += more
        if vals is not None:
            return vals, vecs, solves, sigma, count_shift


def _parity_blocks(Hs, tol: float):
    """The even and odd blocks of Hs averaged with P Hs P, or None if
    sqrt(||E||_1 ||E||_inf) > tol / 100 for E = Hs - P Hs P.  In the basis
    (e_i +- e_{dim-1-i}) / sqrt(2), i < h = dim // 2, they are A + B and A - B
    for A = Hs[:h, :h] and B = Hs[:h, dim-h:] in reversed column order; an odd
    dim adds the centre e_h to the even block, coupled by sqrt(2) Hs[:h, h]."""
    dim, h, PHP = Hs.shape[0], Hs.shape[0] // 2, Hs[::-1, ::-1]
    E = Hs - PHP
    if np.sqrt(spla.norm(E, 1) * spla.norm(E, np.inf)) > tol / 100:
        return None
    Hs = 0.5 * (Hs + PHP)
    A, B, c = Hs[:h, :h], Hs[:h, dim - h:][:, ::-1], np.sqrt(2.0)
    even = A + B
    if dim % 2:
        even = sp.bmat([[even, c * Hs[:h, h:h + 1]],
                        [c * Hs[h:h + 1, :h], Hs[h:h + 1, h:h + 1]]])
    return even.tocsc(), (A - B).tocsc()


def _split_pairs(blocks, runs, m: int, tol: float, seed: int, dim: int):
    """`_run`'s tuple for the m smallest pairs of Hs from its `_parity_blocks`
    by the union rule (module docstring), vecs one Fortran-ordered (dim, m)
    array: each kept block vector embedded as an even or odd grid function."""
    wants = [m // 2 + m % 2 + 1] * 2
    out = [_run(b, runs, wants[0], tol, seed) for b in blocks]
    solves = out[0][2] + out[1][2]
    while True:
        kept = [np.argsort(o[0])[:k] for o, k in zip(out, wants)]
        tops = [o[0][i[-1]] for o, i in zip(out, kept)]
        vals = np.concatenate([o[0][i] for o, i in zip(out, kept)])
        below, short = np.flatnonzero(vals <= min(tops)), int(np.argmin(tops))
        if below.size >= m:
            break
        if wants[short] == m:
            raise DomainError(f"parity blocks gave {below.size} of {m} pairs")
        wants[short], out[short] = m, _run(blocks[short], runs, m, tol, seed)
        solves += out[short][2]
    order = below[np.argsort(vals[below], kind="stable")][:m]
    h, ne, s = dim // 2, kept[0].size, np.sqrt(0.5)
    vecs = np.zeros((dim, m), dtype=complex, order="F")
    for b, ((_, vb, *_), i) in enumerate(zip(out, kept)):
        cols = np.flatnonzero((order < ne) == (b == 0))
        src = vb[:, i[order[cols] - b * ne]]
        vecs[:h, cols] = s * src[:h]
        vecs[dim - h:, cols] = (1 - 2 * b) * s * src[h - 1::-1]
        if dim % 2 and b == 0:
            vecs[h, cols] = src[h]
    return (vals[order], vecs, solves, min(o[3] for o in out),
            None if None in (out[0][4], out[1][4]) else out[0][4])


def _shift_invert_pairs(op: AssembledOperator, runs, m: int, tol: float,
                        seed: int, key) -> EigenResult:
    """The m pairs of the pencil nearest the shift of the first of `runs`
    whose certificate holds, ordered by `key(vals)`.

    `runs` are (shift, count) requests for `_arpack_near`; the last one is
    uncertified, so it answers if no earlier one does; `_split_pairs` answers
    when the first is the full certified run and Hs has `_parity_blocks`.
    Each pair is certified by its residual ||H v - lambda M v|| / ||M v|| <= tol.
    """
    if not tol >= 1e-13:  # also NaN, which would never converge
        raise DomainError(f"tol must be >= 1e-13 in double precision, got {tol}")
    n = op.dim
    if m < 1 or m > n // 4:
        raise DomainError(f"m must be in [1, dim/4], got {m} for dim {n}")
    d = 1.0 / np.sqrt(op.M)
    Hs = (sp.diags(d) @ op.H @ sp.diags(d)).tocsc()
    blocks = _parity_blocks(Hs, tol) if runs[0][1] == "sigma" else None
    vals, vecs, solves, sigma, count_shift = (
        _run(Hs, runs, m, tol, seed) if blocks is None
        else _split_pairs(blocks, runs, m, tol, seed, n))
    del Hs  # not needed by the back-transform
    if blocks is None:
        order = np.argsort(key(vals))[:m]
        vals, vecs = vals[order], vecs[:, order]
    vals = np.asarray(vals, dtype=float)

    # back-transform: v = M^{-1/2} v_sym is M-orthonormal
    vecs *= d[:, None]
    res = np.empty(m)  # 16 columns at a time bound the temporaries
    for cols in np.array_split(np.arange(m), -(-m // 16)):
        v = vecs[:, cols[0]:cols[-1] + 1]
        Mv = op.M[:, None] * v
        res[cols] = np.linalg.norm(op.H @ v - vals[None, cols] * Mv, axis=0)
        res[cols] /= np.linalg.norm(Mv, axis=0)
    return EigenResult(eigenvalues=vals,
                       eigenvectors=vecs,
                       residuals=res,
                       iterations=solves,
                       converged=res <= tol,
                       shift=float(sigma),
                       count_shift=count_shift,
                       blocks=1 if blocks is None else 2)


def smallest_eigenpairs(op: AssembledOperator, m: int, tol: float = 1e-10,
                        seed: int = 0) -> EigenResult:
    """The m algebraically smallest eigenpairs of H v = lambda M v.

    The shift sits just below the operator's `bottom` estimate.  The small
    request there is kept when a count above lambda_m certifies it, the full
    request when a count at the shift certifies that no eigenvalue lies below
    it; otherwise the full request runs at the `floor` min(0, min V), a lower
    bound of the spectrum.  Either way the eigenvalues nearest the shift are
    the smallest.
    """
    sigma = op.floor + _BELOW_BOTTOM * (op.bottom - op.floor)
    # the small request only where the basis floor sets the full one's ncv
    runs = ([(sigma, "above")]
            if 2 * (m + _CLUSTER_MARGIN) + 20 < _NCV_FLOOR else [])
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
