"""Magnetic field geometry: intensity b(x,y), conformal factor phi(x,y),
the 2-form coefficient B = b*e^{2 phi}, the A1 = 0 gauge potential, scalar
curvature, and the well's local data.

All derivatives are taken symbolically on the parsed expressions.  The gauge
is held as its y-edge integrals: corner sums of an exact polynomial double
primitive of B whenever b is polynomial and phi constant, and a fixed
composite Gauss-Legendre rule otherwise: B is integrated over each cell
between consecutive x-breakpoints (nodes and anchor) and y-nodes, 8 x 8 nodes
per segment of at most half a unit, and the y-edge integrals are the cells'
sums outward from the anchor.  B is evaluated on blocks of whole x-intervals
of at most 2^20 points (or one interval, if it holds more), which bounds the
memory on fine grids; each cell is summed as in one call.  They match the exact gauge's on the standard
well, and 2-D adaptive quadrature on coarse nodes of the curved well, to
4e-15 (the integrals reach 0.4).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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

    The metric is g = e^{2 phi} (dx^2 + dy^2), flat for phi None; b must be
    positive on the domain (checked on a sampling grid at construction).
    """

    def __init__(self, b_expr, phi_expr, domain):
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


def _minimum(setup: FieldSetup):
    """`locate_minimum`'s point (x0, y0) and the Hessian of b there."""
    bx, by = ex.differentiate(setup.b_expr, "x"), ex.differentiate(setup.b_expr, "y")
    bxy = ex.differentiate(bx, "y")
    hess = ((ex.differentiate(bx, "x"), bxy), (bxy, ex.differentiate(by, "y")))

    def derivatives(p):
        """Gradient and Hessian of b at p."""
        return (np.array([ex.evaluate(bx, *p), ex.evaluate(by, *p)], dtype=float),
                np.array([[ex.evaluate(d, *p) for d in row] for row in hess], dtype=float))

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
        g, H = derivatives(p)
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
    g, H = derivatives(p)
    if np.linalg.norm(g) > 1e-10 * (1 + abs(bval)):
        raise DomainError("no non-degenerate interior minimum found (Newton did not converge)")
    if np.linalg.eigvalsh(H).min() <= 0:
        raise DomainError("no non-degenerate interior minimum found (Hessian not positive definite)")
    return (float(p[0]), float(p[1])), H


def locate_minimum(setup: FieldSetup):
    """Find the interior non-degenerate minimum of b by grid scan + Newton."""
    return _minimum(setup)[0]


def scalar_curvature(setup: FieldSetup, p) -> float:
    """R(p) = -2 e^{-2 phi} (phi_xx + phi_yy) for the conformal metric."""
    pxx = ex.differentiate(ex.differentiate(setup.phi_expr, "x"), "x")
    pyy = ex.differentiate(ex.differentiate(setup.phi_expr, "y"), "y")
    lap = float(ex.evaluate(pxx, *p)) + float(ex.evaluate(pyy, *p))
    return -2.0 * math.exp(-2.0 * float(ex.evaluate(setup.phi_expr, *p))) * lap


def well_data(setup: FieldSetup) -> WellData:
    """WellData at the located minimum: b0, half-Hessian eigendata, curvature.

    alpha1, beta1 are the eigenvalues of half the Hessian of b in the metric,
    e^{-2 phi(x0)} times the coordinate one: at a critical point of b the
    Christoffel terms drop out, so the gradient of phi does not matter.
    """
    x0, H = _minimum(setup)
    phi0 = float(ex.evaluate(setup.phi_expr, *x0))
    H = H * math.exp(-2.0 * phi0)
    if abs(H[0, 1]) <= 1e-12 * (1 + abs(H).max()):
        # axis-aligned well: keep the x/y association of the coefficients
        alpha1, beta1 = 0.5 * H[0, 0], 0.5 * H[1, 1]
    else:
        alpha1, beta1 = np.linalg.eigvalsh(0.5 * H)
    return WellData(b0=float(ex.evaluate(setup.b_expr, *x0)),
                    alpha1=float(alpha1), beta1=float(beta1),
                    R0=scalar_curvature(setup, x0), x0=x0, phi0=phi0)


# ---------------------------------------------------------------------------
# gauge potential A = (0, A2), A2(x, y) = int_{x_anchor}^{x} B(s, y) ds

_CELL_NODES, _CELL_WEIGHTS = np.polynomial.legendre.leggauss(8)  # per segment
_CELL_SEGMENT = 0.5  # widest segment of a gauge cell
_CELL_BLOCK = 2 ** 20  # most points of B in one call (a block of x-intervals)


def _cell_rule(breaks):
    """Composite Gauss-Legendre rule on each interval of `breaks`, split into
    equal segments no wider than _CELL_SEGMENT: the nodes, their weights and
    the index of each interval's first node (for np.add.reduceat)."""
    widths = np.diff(breaks)
    nseg = np.maximum(1, np.ceil(np.abs(widths) / _CELL_SEGMENT)).astype(int)
    first = np.cumsum(nseg) - nseg
    seg = np.repeat(widths / nseg, nseg)
    lo = np.repeat(breaks[:-1], nseg) + (np.arange(seg.size) - np.repeat(first, nseg)) * seg
    half = seg[:, None] / 2
    return ((lo[:, None] + half * (1 + _CELL_NODES)).ravel(), (half * _CELL_WEIGHTS).ravel(),
            first * _CELL_NODES.size)


@dataclass
class GaugePotential:
    """A1 = 0 gauge with A2(x, y) = int_{x_anchor}^x B(s, y) ds, held as its
    y-edge integrals, the only part of A that the Peierls phases use.

    I[i, j] = int_{ys[j]}^{ys[j+1]} A2(xs[i], s) ds is the flux of B through
    [x_anchor, xs[i]] x [ys[j], ys[j+1]].  `from_primitive` builds the exact
    gauge (`exact` true) from a double primitive of B; otherwise the integrals
    come from the fixed quadrature of `gauge_from_field`.
    """

    x_anchor: float
    _edge_fn: callable = field(repr=False)
    exact: bool = False

    @classmethod
    def from_primitive(cls, Phi, x_anchor):
        """Exact gauge from Phi(x, y) with d_x d_y Phi = B: each edge integral
        is the corner sum of Phi over [x_anchor, x] x [y0, y1]."""
        def edge_fn(xs, ys):
            def dy(x):
                return Phi(x, ys[1:]) - Phi(x, ys[:-1])
            return dy(xs[:, None]) - dy(x_anchor)

        return cls(x_anchor=x_anchor, _edge_fn=edge_fn, exact=True)

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
        """chi's differences alone: the base gauge has A1 = 0."""
        c = self._chi(np.asarray(xs, dtype=float)[:, None], np.asarray(ys, dtype=float)[None, :])
        return c[1:, :] - c[:-1, :]


def gauge_from_field(setup: FieldSetup, x_anchor=None) -> GaugePotential:
    """Build the A1 = 0 gauge with A2 = int_{x_anchor}^x B(s, y) ds."""
    if x_anchor is None:
        x_anchor = locate_minimum(setup)[0]
    Bpoly = polynomial_B(setup)
    if Bpoly is not None:
        Q = ex.poly_antiderivative(ex.poly_antiderivative(Bpoly, "x"), "y")
        return GaugePotential.from_primitive(lambda x, y: ex.poly_eval(Q, x, y), x_anchor)

    def edge_fn(xs, ys, Bfun=setup.B, x0=x_anchor):
        # I[i, j] integrates B over [x0, xs[i]] x [ys[j], ys[j+1]]: integrate
        # B once over each cell between consecutive x-breakpoints and y-nodes,
        # then sum the cells outward from the anchor
        xb = np.unique(np.append(xs, x0))
        sx, wx, cx = _cell_rule(xb)
        sy, wy, cy = _cell_rule(ys)
        # B on whole x-intervals i..k-1 at a time, so each cell's sum is
        # formed as in one call
        starts, rows = np.append(cx, sx.size), max(1, _CELL_BLOCK // sy.size)
        cells = np.empty((cx.size, cy.size))
        i = 0
        while i < cx.size:
            k = max(i + 1, np.searchsorted(starts, starts[i] + rows, "right") - 1)
            lo, hi = starts[i], starts[k]
            vals = Bfun(sx[lo:hi, None], sy[None, :]) * wy
            cells[i:k] = np.add.reduceat(wx[lo:hi, None] * np.add.reduceat(vals, cy, axis=1),
                                         cx[i:k] - lo, axis=0)
            i = k
        a = np.searchsorted(xb, x0)
        prim = np.zeros((xb.size, ys.size - 1))
        prim[a + 1:] = np.cumsum(cells[a:], axis=0)
        prim[:a] = -np.cumsum(cells[:a][::-1], axis=0)[::-1]
        return prim[np.searchsorted(xb, xs)]

    return GaugePotential(x_anchor=x_anchor, _edge_fn=edge_fn)
