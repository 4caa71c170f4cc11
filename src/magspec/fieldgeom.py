"""Magnetic field geometry: intensity b(x,y), conformal factor phi(x,y),
the 2-form coefficient B = b*e^{2 phi}, the A1 = 0 gauge potential, scalar
curvature, and the well's local data.

All derivatives are taken symbolically on the parsed expressions; the gauge
potential is an exact polynomial antiderivative whenever b is polynomial and
phi constant, and adaptive Gauss-Legendre quadrature otherwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import expr as ex
from .errors import ConfigError, DomainError
from .wellmodel import WellData

__all__ = [
    "Rectangle",
    "FieldSetup",
    "GaugePotential",
    "TransformedGauge",
    "locate_minimum",
    "well_data",
    "scalar_curvature",
    "gauge_from_field",
    "polynomial_B",
]


@dataclass(frozen=True)
class Rectangle:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise DomainError("empty domain rectangle")

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min

    def contains(self, p, margin=0.0):
        return (self.x_min + margin < p[0] < self.x_max - margin
                and self.y_min + margin < p[1] < self.y_max - margin)

    def sample_grid(self, n=64):
        xs = np.linspace(self.x_min, self.x_max, n)
        ys = np.linspace(self.y_min, self.y_max, n)
        return np.meshgrid(xs, ys, indexing="ij")


def _expression(e, name):
    """`e` parsed if it is a string; anything but an expression is a ConfigError."""
    if isinstance(e, str):
        return ex.parse_expression(e)
    if not isinstance(e, ex.Expression):
        raise ConfigError(f"field {name} must be an expression string, got {e!r}")
    return e


class FieldSetup:
    """Validated pair of expressions (b, phi) on a rectangle.

    The metric is g = e^{2 phi} (dx^2 + dy^2); b must be positive on the
    domain (checked on a sampling grid at construction).
    """

    def __init__(self, b_expr, phi_expr=None, domain=Rectangle(-3.0, 3.0, -3.0, 3.0)):
        self.b_expr = _expression(b_expr, "b")
        self.phi_expr = ex.Num(0.0) if phi_expr is None else _expression(phi_expr, "phi")
        self.domain = domain
        X, Y = domain.sample_grid(64)
        bvals = np.broadcast_to(ex.evaluate(self.b_expr, X, Y), X.shape)
        if not np.all(bvals > 0):
            raise DomainError("field intensity b is not positive everywhere on the domain")

    # pointwise evaluators ---------------------------------------------------
    def b(self, x, y):
        return ex.evaluate(self.b_expr, x, y)

    def phi(self, x, y):
        return ex.evaluate(self.phi_expr, x, y)

    def mass_weight(self, x, y):
        """e^{2 phi}: density of the Riemannian area element."""
        return np.exp(2 * np.asarray(self.phi(x, y), dtype=float))

    def B(self, x, y):
        """Coefficient of dx^dy: B = b * e^{2 phi}."""
        return np.asarray(self.b(x, y), dtype=float) * self.mass_weight(x, y)


def polynomial_B(setup: FieldSetup):
    """Monomial table of B = b e^{2 phi} if b is polynomial and phi constant,
    else None.  Such a B has exact polynomial gauge primitives."""
    bpoly = ex.as_polynomial(setup.b_expr)
    ppoly = ex.as_polynomial(setup.phi_expr)
    if bpoly is None or ppoly is None or not set(ppoly) <= {(0, 0)}:
        return None
    scale = math.exp(2 * ppoly.get((0, 0), 0.0))
    return {k: scale * v for k, v in bpoly.items()}


def locate_minimum(setup: FieldSetup):
    """Find the interior non-degenerate minimum of b by grid scan + Newton."""
    bx = ex.differentiate(setup.b_expr, "x")
    by = ex.differentiate(setup.b_expr, "y")
    bxx = ex.differentiate(bx, "x")
    bxy = ex.differentiate(bx, "y")
    byy = ex.differentiate(by, "y")

    X, Y = setup.domain.sample_grid(64)
    vals = np.broadcast_to(ex.evaluate(setup.b_expr, X, Y), X.shape)
    i0 = np.unravel_index(np.argmin(vals), vals.shape)
    vmin = vals[i0]

    # warn about well-separated coarse minima at the same depth
    near = np.argwhere(vals <= vmin + 1e-6)
    sep = max(setup.domain.width, setup.domain.height) / 8
    p_best = np.array([X[i0], Y[i0]])
    for idx in near:
        q = np.array([X[tuple(idx)], Y[tuple(idx)]])
        if np.linalg.norm(q - p_best) > sep:
            warnings.warn("minimum not unique: multiple coarse-grid minima at the same depth")
            break

    p = p_best.copy()
    for _ in range(60):
        g = np.array([ex.evaluate(bx, *p), ex.evaluate(by, *p)], dtype=float)
        H = np.array([[ex.evaluate(bxx, *p), ex.evaluate(bxy, *p)],
                      [ex.evaluate(bxy, *p), ex.evaluate(byy, *p)]], dtype=float)
        det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
        if abs(det) < 1e-13 * (1 + abs(H).max()) ** 2:
            raise DomainError("no non-degenerate interior minimum found (singular Hessian)")
        step = np.linalg.solve(H, g)
        p = p - step
        if not setup.domain.contains(p):
            raise DomainError("no non-degenerate interior minimum found (Newton left the domain)")
        if np.linalg.norm(step) < 1e-14 * (1 + np.linalg.norm(p)):
            break
    bval = float(ex.evaluate(setup.b_expr, *p))
    g = np.array([ex.evaluate(bx, *p), ex.evaluate(by, *p)], dtype=float)
    if np.linalg.norm(g) > 1e-10 * (1 + abs(bval)):
        raise DomainError("no non-degenerate interior minimum found (Newton did not converge)")
    H = np.array([[ex.evaluate(bxx, *p), ex.evaluate(bxy, *p)],
                  [ex.evaluate(bxy, *p), ex.evaluate(byy, *p)]], dtype=float)
    if np.linalg.eigvalsh(H).min() <= 0:
        raise DomainError("no non-degenerate interior minimum found (Hessian not positive definite)")
    return float(p[0]), float(p[1])


def scalar_curvature(setup: FieldSetup, p) -> float:
    """R(p) = -2 e^{-2 phi} (phi_xx + phi_yy) for the conformal metric."""
    pxx = ex.differentiate(ex.differentiate(setup.phi_expr, "x"), "x")
    pyy = ex.differentiate(ex.differentiate(setup.phi_expr, "y"), "y")
    lap = float(ex.evaluate(pxx, *p)) + float(ex.evaluate(pyy, *p))
    return -2.0 * math.exp(-2.0 * float(ex.evaluate(setup.phi_expr, *p))) * lap


def well_data(setup: FieldSetup) -> WellData:
    """WellData at the located minimum: b0, half-Hessian eigendata, curvature.

    alpha1, beta1 are the eigenvalues of half the coordinate Hessian of the
    intensity b; this equals the paper-normal-form data whenever phi and its
    gradient vanish at the minimum (true for all presets).
    """
    x0 = locate_minimum(setup)
    bx = ex.differentiate(setup.b_expr, "x")
    by = ex.differentiate(setup.b_expr, "y")
    H = np.array([
        [ex.evaluate(ex.differentiate(bx, "x"), *x0), ex.evaluate(ex.differentiate(bx, "y"), *x0)],
        [ex.evaluate(ex.differentiate(by, "x"), *x0), ex.evaluate(ex.differentiate(by, "y"), *x0)],
    ], dtype=float)
    if abs(H[0, 1]) <= 1e-12 * (1 + abs(H).max()):
        # axis-aligned well: keep the x/y association of the coefficients
        alpha1, beta1 = 0.5 * H[0, 0], 0.5 * H[1, 1]
    else:
        alpha1, beta1 = np.linalg.eigvalsh(0.5 * H)
    return WellData(b0=float(ex.evaluate(setup.b_expr, *x0)),
                    alpha1=float(alpha1), beta1=float(beta1),
                    R0=scalar_curvature(setup, x0), x0=x0)


# ---------------------------------------------------------------------------
# gauge potential A = (0, A2), A2(x, y) = int_{x0x}^{x} B(s, y) ds

@lru_cache(maxsize=8)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _gl_integrate_x(fun, x_from: float, x_to, y, n_seg_per_unit=2, order=24):
    """Vectorized int_{x_from}^{x_to[i]} fun(s, y[i]) ds by composite Gauss-Legendre."""
    x_to = np.asarray(x_to, dtype=float)
    y = np.broadcast_to(np.asarray(y, dtype=float), x_to.shape)
    nodes, weights = _leggauss(order)
    span = np.abs(x_to - x_from).max() if x_to.size else 0.0
    nseg = max(1, int(math.ceil(span * n_seg_per_unit)))
    edges = np.linspace(0.0, 1.0, nseg + 1)
    total = np.zeros_like(x_to)
    L = x_to - x_from
    for a, b in zip(edges[:-1], edges[1:]):
        mid = x_from + L * (a + b) / 2
        half = L * (b - a) / 2
        # nodes: shape (order, *x_to.shape)
        s = mid[None, ...] + half[None, ...] * nodes.reshape((-1,) + (1,) * x_to.ndim)
        vals = fun(s, np.broadcast_to(y, s.shape))
        total += half * np.tensordot(weights, vals, axes=(0, 0))
    return total


@dataclass
class GaugePotential:
    """A1 = 0 gauge; A2 anchored at the well's x-coordinate.

    `a2` evaluates A2(x, y); `y_edge_integrals` returns the exact integrals
    of A2 in y over consecutive edges, used for the Peierls phases.
    """

    x_anchor: float
    a2: callable
    _edge_fn: callable = field(repr=False)
    exact: bool = False

    def y_edge_integrals(self, xs, ys):
        """I[i, j] = int_{ys[j]}^{ys[j+1]} A2(xs[i], s) ds."""
        return self._edge_fn(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))


class TransformedGauge:
    """The gauge A + d(chi) for a scalar expression chi(x, y).

    Edge integrals of an exact differential telescope, so the extra phase on
    each lattice edge is exactly chi(end) - chi(start); the spectrum of the
    assembled operator is invariant under this transformation.
    """

    def __init__(self, base: GaugePotential, chi):
        if isinstance(chi, str):
            chi = ex.parse_expression(chi)
        self.base = base
        self.chi = chi
        self.x_anchor = base.x_anchor

    def _chi(self, x, y):
        return np.broadcast_to(ex.evaluate(self.chi, x, y),
                               np.broadcast(np.asarray(x), np.asarray(y)).shape)

    def y_edge_integrals(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        c = self._chi(xs[:, None], ys[None, :])
        return self.base.y_edge_integrals(xs, ys) + (c[:, 1:] - c[:, :-1])

    def x_edge_integrals(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        c = self._chi(xs[:, None], ys[None, :])
        base = getattr(self.base, "x_edge_integrals", None)
        out = c[1:, :] - c[:-1, :]
        return out if base is None else out + base(xs, ys)


def gauge_from_field(setup: FieldSetup, x_anchor=None) -> GaugePotential:
    """Build the A1 = 0 gauge with A2 = int_{x_anchor}^x B(s, y) ds."""
    if x_anchor is None:
        x_anchor = locate_minimum(setup)[0]
    Bpoly = polynomial_B(setup)
    if Bpoly is not None:
        P = ex.poly_antiderivative(Bpoly, "x")  # primitive in x
        # A2(x, y) = P(x, y) - P(x_anchor, y)
        def a2(x, y, P=P, x0=x_anchor):
            return ex.poly_eval(P, x, y) - ex.poly_eval(P, x0, y)

        Q = ex.poly_antiderivative(P, "y")  # primitive of P in y

        def edge_fn(xs, ys, P=P, Q=Q, x0=x_anchor):
            # int of A2 over y in [ys[j], ys[j+1]] at each xs[i]
            Xg = xs[:, None]
            q_hi = ex.poly_eval(Q, Xg, ys[None, 1:]) - ex.poly_eval(Q, Xg, ys[None, :-1])
            q0 = ex.poly_eval(Q, x0, ys[1:]) - ex.poly_eval(Q, x0, ys[:-1])
            return q_hi - q0[None, :]

        return GaugePotential(x_anchor=x_anchor, a2=a2, _edge_fn=edge_fn, exact=True)

    Bfun = setup.B

    def a2(x, y, Bfun=Bfun, x0=x_anchor):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        yv = np.broadcast_to(np.asarray(y, dtype=float), xv.shape)
        out = _gl_integrate_x(Bfun, x0, xv, yv)
        return float(out[0]) if scalar else out

    nodes, weights = _leggauss(12)

    def edge_fn(xs, ys, a2=a2):
        mids = (ys[1:] + ys[:-1]) / 2
        halves = (ys[1:] - ys[:-1]) / 2
        out = np.zeros((xs.size, mids.size))
        Xg = np.broadcast_to(xs[:, None], (xs.size, mids.size))
        for t, w in zip(nodes, weights):
            s = mids[None, :] + halves[None, :] * t
            out += w * a2(Xg, np.broadcast_to(s, Xg.shape))
        return out * halves[None, :]

    return GaugePotential(x_anchor=x_anchor, a2=a2, _edge_fn=edge_fn, exact=False)
