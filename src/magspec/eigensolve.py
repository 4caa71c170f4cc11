"""Eigenpairs of the generalized Hermitian pencil (H, M), M diagonal.

The diagonal mass makes the symmetrization M^{-1/2} H M^{-1/2} exact.  Every
request goes through one shift-invert Lanczos core (ARPACK, Ericsson & Ruhe
1980) with a deterministic starting vector: the bottom of the spectrum is the
window nearest a shift below the spectrum, an interior window is the one
nearest its target.  `Grid` keeps dim >= 64 and m <= dim/4, so the Krylov
request k always fits below dim.

The bottom is sought first at sigma = floor + 0.95 (bottom - floor), just
below the operator's Montgomery estimate `bottom` (floor + h min b, or the
floor itself on a grid that aliases the field), where the transformed
eigenvalues 1/(lambda - sigma) of the wanted pairs are well separated; at
the floor they crowd together near 1/(h b0).  That factor is unpivoted
(SuperLU in symmetric mode, an LDL^H-type factor), so by Sylvester's law the
number of its nonpositive U-diagonal entries is the number of eigenvalues at
or below sigma (Grimes, Lewis & Simon 1994).  A count of 0, taken after the
Krylov loop, certifies that the k eigenvalues nearest sigma are the k
smallest.  A nonzero count (on coarse grids), a singular factor, or
pivots that left the diagonal discard the attempt, and the request is rerun
at the floor min(0, min V), a proven lower bound, with the pivoted factor.
`EigenResult.shift` records the shift used; `iterations` counts the
shift-invert solves of both runs.

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


def _arpack_near(Hs, sigma: float, m: int, tol: float, seed: int,
                 certify: bool = False):
    """ARPACK's converged eigenpairs of Hs nearest sigma, at least m of them,
    and the number of shift-invert solves (OPinv applications) it made.

    With `certify` the pairs are (None, None) unless the inertia count shows
    no eigenvalue at or below sigma; the factorization lives only for this
    call.
    """
    n = Hs.shape[0]
    k = min(m + _CLUSTER_MARGIN, n - 2)
    # generous subspace: highly degenerate clusters (Landau levels) make
    # ARPACK with the default ncv stagnate
    ncv = min(n - 1, max(2 * k + 20, 80))
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        lu = _factor(Hs, sigma, inertia=certify)
    except RuntimeError:  # exactly singular: sigma is an eigenvalue
        if not certify:
            raise
        return None, None, 0
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
                                ncv=ncv, maxiter=2000,
                                tol=max(tol * 1e-1, 1e-12))
    except spla.ArpackNoConvergence as err:
        # the pairs carried by the error are the ones ARPACK converged;
        # dropping its traceback frees ARPACK's workspace before the count
        stopped = err.with_traceback(None)
        vals, vecs = np.real(err.eigenvalues), err.eigenvectors
    if certify and _count_below(lu) != 0:
        return None, None, solves
    if stopped is not None and vals.size < m:
        raise DomainError(
            f"eigensolver converged only {vals.size} of {m} pairs") from stopped
    return vals, vecs, solves


def _shift_invert_pairs(op: AssembledOperator, sigma: float, m: int,
                        tol: float, seed: int, key,
                        fallback: float = None) -> EigenResult:
    """The m pairs of the pencil nearest `sigma`, ordered by `key(vals)`.

    With a `fallback` shift, the run at `sigma` must be certified by an
    inertia count and is otherwise redone at `fallback`.  Each pair is
    certified by its residual ||H v - lambda M v|| / ||M v|| <= tol.
    """
    n = op.dim
    if m < 1 or m > n // 4:
        raise DomainError(f"m must be in [1, dim/4], got {m} for dim {n}")
    d = 1.0 / np.sqrt(op.M)
    D = sp.diags(d)
    Hs = (D @ op.H @ D).tocsc()
    vals, vecs, solves = _arpack_near(Hs, sigma, m, tol, seed,
                                      certify=fallback is not None)
    if vals is None:
        sigma = fallback
        vals, vecs, more = _arpack_near(Hs, sigma, m, tol, seed)
        solves += more
    del Hs  # not needed by the back-transform
    order = np.argsort(key(vals))[:m]
    vals = np.asarray(vals[order], dtype=float)

    # back-transform: v = M^{-1/2} v_sym is M-orthonormal
    vecs = vecs[:, order] * d[:, None]
    Mv = op.M[:, None] * vecs
    res = np.linalg.norm(op.H @ vecs - vals[None, :] * Mv, axis=0)
    res /= np.linalg.norm(Mv, axis=0)
    return EigenResult(eigenvalues=vals,
                       eigenvectors=vecs,
                       residuals=res,
                       iterations=solves,
                       converged=res <= tol,
                       shift=float(sigma))


def smallest_eigenpairs(op: AssembledOperator, m: int, tol: float = 1e-10,
                        seed: int = 0) -> EigenResult:
    """The m algebraically smallest eigenpairs of H v = lambda M v.

    The shift sits just below the operator's `bottom` estimate when an
    inertia count certifies that no eigenvalue lies below it, and at its
    `floor` min(0, min V), a lower bound of the spectrum, otherwise; either
    way the eigenvalues nearest the shift are the smallest.
    """
    if tol < 1e-13:
        raise DomainError("tol below 1e-13 is not resolvable in double precision")
    sigma = op.floor + _BELOW_BOTTOM * (op.bottom - op.floor)
    return _shift_invert_pairs(op, sigma, m, tol, seed, key=lambda v: v,
                               fallback=op.floor if sigma > op.floor else None)


def eigenpairs_near(op: AssembledOperator, target: float, m: int,
                    tol: float = 1e-10, seed: int = 0) -> EigenResult:
    """The m eigenpairs of H v = lambda M v closest to `target`.

    Shift-invert at the target reaches eigenvalues deep inside the spectrum
    (e.g. a higher Landau cluster) without computing everything below it.
    Results are sorted by distance to the target.
    """
    return _shift_invert_pairs(op, target, m, tol, seed,
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
