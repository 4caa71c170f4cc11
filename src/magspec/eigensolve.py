"""Eigenpairs of the generalized Hermitian pencil (H, M), M diagonal.

The diagonal mass makes the symmetrization M^{-1/2} H M^{-1/2} exact.  Every
request goes through one shift-invert Lanczos core (ARPACK, Ericsson & Ruhe
1980) with a deterministic starting vector: the bottom of the spectrum is the
window nearest a shift at or below the spectrum's floor, an interior window is
the one nearest its target.  `Grid` keeps dim >= 64 and m <= dim/4, so the
Krylov request k always fits below dim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import AssembledOperator, GridFunction
from .errors import DomainError

__all__ = ["EigenResult", "smallest_eigenpairs", "eigenpairs_near",
           "nearest_eigenvalue"]

_CLUSTER_MARGIN = 5


@dataclass
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: list  # list of GridFunction, M-orthonormal
    residuals: np.ndarray
    iterations: int  # shift-invert solves (OPinv applications)
    converged: np.ndarray  # bool per pair

    def __len__(self):
        return self.eigenvalues.size


def _arpack_near(Hs, sigma: float, m: int, tol: float, seed: int):
    """ARPACK's converged eigenpairs of Hs nearest sigma, at least m of them,
    and the number of shift-invert solves (OPinv applications) it made.

    The factorization lives only for this call.  Its symmetric-structure
    ordering roughly halves the fill of the default column ordering on the
    5-point stencil, which dominates large solves.
    """
    n = Hs.shape[0]
    k = min(m + _CLUSTER_MARGIN, n - 2)
    # generous subspace: highly degenerate clusters (Landau levels) make
    # ARPACK with the default ncv stagnate
    ncv = min(n - 1, max(2 * k + 20, 80))
    v0 = np.random.default_rng(seed).standard_normal(n)
    lu = spla.splu(
        (Hs - sigma * sp.identity(n, dtype=Hs.dtype, format="csc")).tocsc(),
        permc_spec="MMD_AT_PLUS_A")
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    try:
        vals, vecs = spla.eigsh(Hs, k=k, sigma=sigma, which="LM", v0=v0,
                                OPinv=spla.LinearOperator(Hs.shape, matvec=solve,
                                                          dtype=Hs.dtype),
                                ncv=ncv, maxiter=2000,
                                tol=max(tol * 1e-1, 1e-12))
    except spla.ArpackNoConvergence as err:
        # the pairs carried by the error are the ones ARPACK converged
        vals, vecs = np.real(err.eigenvalues), err.eigenvectors
        if vals.size < m:
            raise DomainError(
                f"eigensolver converged only {vals.size} of {m} pairs") from err
    return vals, vecs, solves


def _shift_invert_pairs(op: AssembledOperator, sigma: float, m: int,
                        tol: float, seed: int, key) -> EigenResult:
    """The m pairs of the pencil nearest `sigma`, ordered by `key(vals)`.

    Each pair is certified by its residual ||H v - lambda M v|| / ||M v|| <= tol.
    """
    n = op.dim
    if m < 1 or m > n // 4:
        raise DomainError(f"m must be in [1, dim/4], got {m} for dim {n}")
    d = 1.0 / np.sqrt(op.M)
    D = sp.diags(d)
    vals, vecs, solves = _arpack_near((D @ op.H @ D).tocsc(), sigma, m, tol, seed)
    order = np.argsort(key(vals))[:m]
    vals = np.asarray(vals[order], dtype=float)

    # back-transform: v = M^{-1/2} v_sym is M-orthonormal
    vecs = vecs[:, order] * d[:, None]
    Mv = op.M[:, None] * vecs
    res = np.linalg.norm(op.H @ vecs - vals[None, :] * Mv, axis=0)
    res /= np.linalg.norm(Mv, axis=0)
    return EigenResult(eigenvalues=vals,
                       eigenvectors=[GridFunction(vecs[:, i], op.grid)
                                     for i in range(m)],
                       residuals=res,
                       iterations=solves,
                       converged=res <= tol)


def smallest_eigenpairs(op: AssembledOperator, m: int, tol: float = 1e-10,
                        seed: int = 0) -> EigenResult:
    """The m algebraically smallest eigenpairs of H v = lambda M v.

    The shift is the operator's floor min(0, min V), a lower bound of the
    spectrum, so the eigenvalues nearest it are the smallest.
    """
    if tol < 1e-13:
        raise DomainError("tol below 1e-13 is not resolvable in double precision")
    return _shift_invert_pairs(op, op.floor, m, tol, seed, key=lambda v: v)


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
