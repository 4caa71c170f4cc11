"""Experiment orchestration: h-sweeps, expansion fits, lower-bound checks,
superlattice gap detection, and persistence.

Everything here is deterministic given a configuration and a seed; sweep
records are sorted by (h, j) before output so re-runs produce byte-identical
artifacts.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import expr as ex
from .discretize import Grid, assemble, magnetic_form, field_mass
from .eigensolve import smallest_eigenpairs
from .errors import ConfigError, DomainError, MagspecError
from .fieldgeom import (FieldSetup, GaugePotential, Rectangle, gauge_from_field,
                        polynomial_B, well_data)
from .quasimode import build_leading_quasimode, residual
from .wellmodel import WellData, mu_jk2, two_term_law

__all__ = [
    "SCHEMA",
    "DEFAULTS",
    "SweepConfig",
    "SweepRecord",
    "FitResult",
    "standard_well",
    "curved_well",
    "grid_size",
    "richardson",
    "run_sweep",
    "fit_expansion",
    "montgomery_check",
    "MontgomeryReport",
    "TiledField",
    "GapReport",
    "detect_gaps",
    "run_gap_experiment",
    "write_table",
]


# ---------------------------------------------------------------------------
# configuration: the checks, and one table of every key's check and default,
# read by SweepConfig and every CLI command

def number(value, name: str) -> float:
    """`value` as a float; it must be a finite JSON number."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond floats
        pass
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def integer(value, name: str) -> int:
    """`value` as an int; it must be a whole number (6 or 6.0, not 6.5)."""
    if number(value, name) % 1 != 0:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def number_list(value, name: str) -> tuple:
    """`value` as a tuple of floats; it must be a list of finite numbers."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(number(v, f"{name} entry") for v in value)


def where(check, ok, what: str):
    """`check`, after which ok(value) must hold: "{name} must be {what}"."""
    def checked(value, name: str):
        value = check(value, name)
        if not ok(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value
    return checked


def optional(check):
    """`check` that also takes null (None) for a key that is not set."""
    return lambda value, name: None if value is None else check(value, name)


def as_is(value, name: str):
    """`value` itself: field.b and field.phi are checked by FieldSetup."""
    return value


flag = where(as_is, lambda v: isinstance(v, bool), "true or false")
positive = where(number, lambda v: v > 0, "> 0")
at_least_one = where(integer, lambda v: v >= 1, "at least 1")
non_negative = where(integer, lambda v: v >= 0, "a non-negative integer")
solver_tol = where(number, lambda v: v >= 1e-13, ">= 1e-13 in double precision")


# every key a config file may hold, by dotted path ("sweep.grid.c" is "c" in
# the object "grid" inside "sweep", "seed" is at the top level), with the
# check a given value must pass and the value of a key left out
SCHEMA = {
    "field.b": (as_is, "1 + x^2 + y^2"), "field.phi": (as_is, None),
    "field.domain": (where(number_list, lambda box: len(box) == 4, "four numbers"),
                     (-2.0, 2.0, -2.0, 2.0)),  # (x_min, x_max, y_min, y_max)
    "sweep.h": (where(number_list, lambda hs: all(a > b for a, b in zip(hs, hs[1:] + (0,))),
                      "positive and strictly descending"), (0.1, 0.08, 0.06, 0.05)),
    "sweep.m": (at_least_one, 6),
    "sweep.tol": (positive, 1e-8),
    "sweep.richardson": (flag, True), "sweep.quasimode": (flag, True),
    "sweep.grid.c": (positive, 0.5), "sweep.grid.n_max": (integer, 1024),
    "sweep.grid.n": (optional(integer), None),
    "solve.h": (number, 0.1), "solve.n": (integer, 0), "solve.m": (at_least_one, 6),
    "solve.tol": (solver_tol, 1e-8),
    "quasimode.h": (number, 0.05), "quasimode.j": (non_negative, 0),
    "quasimode.k": (non_negative, 0), "quasimode.n": (integer, 0),
    "gaps.tiling": (integer, 3), "gaps.h": (number, 0.05), "gaps.k": (non_negative, 0),
    "gaps.N": (integer, 2), "gaps.n": (integer, 384),
    "gaps.m": (optional(at_least_one), None), "gaps.tol": (solver_tol, 1e-8),
    "seed": (non_negative, 0)}
DEFAULTS = {path: default for path, (_, default) in SCHEMA.items()}


def _at(doc: dict, path: str) -> dict:
    """The object at the dotted section `path` of `doc`, {} when missing."""
    parts = path.split(".") if path else []
    for i, part in enumerate(parts):
        doc = doc.get(part, {})
        if not isinstance(doc, dict):
            name = ".".join(parts[:i + 1])
            raise ConfigError(f"config section '{name}' must be a JSON object")
    return doc


def check_keys(doc: dict) -> None:
    """Reject a section that is not an object, and a key on no SCHEMA path."""
    known = {}
    for path in SCHEMA:
        parts = path.split(".")
        for i, part in enumerate(parts):
            known.setdefault(".".join(parts[:i]), set()).add(part)
    for name, keys in known.items():
        unknown = sorted(set(_at(doc, name)) - keys)
        if unknown:
            key = f"{name}.{unknown[0]}" if name else unknown[0]
            raise ConfigError(f"unknown config key {key}")


def section(doc: dict, name: str) -> dict:
    """Values of config section `name` ("" is the top level) by dotted key, in
    table order: a given value must pass its check, a missing one is default."""
    sec = _at(doc, name)
    values = {}
    for path, (check, default) in SCHEMA.items():
        parent, _, key = path.rpartition(".")
        if parent == name:
            values[path] = check(sec[key], path) if key in sec else default
    return values


def field_setup(doc: dict) -> FieldSetup:
    """The field of config `doc`'s "field" section."""
    b, phi, domain = section(doc, "field").values()
    return FieldSetup(b, phi, Rectangle(*domain))


def standard_well() -> FieldSetup:
    """Unit-depth quadratic well in a flat metric: b = 1 + x^2 + y^2."""
    return field_setup({})


def curved_well() -> FieldSetup:
    """Same intensity well on a conformal metric with unit curvature at 0."""
    return field_setup({"field": {"phi": "-(x^2 + y^2)/8"}})


# ---------------------------------------------------------------------------
# sweep configuration and records

def _key(path: str):
    return field(default=DEFAULTS[path], metadata={"key": path})


@dataclass(frozen=True)
class SweepConfig:
    b: str = _key("field.b")
    h_list: tuple = _key("sweep.h")
    phi: str = _key("field.phi")
    domain: tuple = _key("field.domain")
    m: int = _key("sweep.m")
    tol: float = _key("sweep.tol")
    grid_c: float = _key("sweep.grid.c")
    n_max: int = _key("sweep.grid.n_max")
    n_fixed: int = _key("sweep.grid.n")
    richardson: bool = _key("sweep.richardson")
    quasimode: bool = _key("sweep.quasimode")
    seed: int = _key("seed")

    def __post_init__(self):
        for f in fields(self):
            key = f.metadata["key"]
            object.__setattr__(self, f.name, SCHEMA[key][0](getattr(self, f.name), key))
        pair = self.richardson and self.n_fixed is None
        if self.n_max < (_PAIR_N if pair else 32):
            raise ConfigError("sweep.grid.n_max must be at least " + (
                f"{_PAIR_N} for a Richardson pair (n, n/2)" if pair else "32"))

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        """Config from the "field" and "sweep" sections and the top-level
        "seed"; a key the config schema does not define is an error."""
        check_keys(doc)
        given = {}
        for name in ("field", "sweep", "sweep.grid", ""):
            given.update(section(doc, name))
        return cls(**{f.name: given[f.metadata["key"]] for f in fields(cls)})


@dataclass
class SweepRecord:
    h: float
    j: int
    lambda_computed: float
    lambda_predicted: float
    solver_residual: float
    quasimode_residual: float
    n: int  # nx, the grid size along x; ny is not recorded
    error: str = None

    def __post_init__(self):
        if self.error is None:
            for name in ("lambda_computed", "lambda_predicted", "solver_residual"):
                if not math.isfinite(getattr(self, name)):
                    raise DomainError(f"non-finite {name} in sweep record")


def grid_size(L: float, h: float, c: float = DEFAULTS["sweep.grid.c"],
              n_max: int = DEFAULTS["sweep.grid.n_max"]) -> int:
    """Grid-h coupling: n = ceil(L / (c*h^{5/4})), clamped to [32, n_max]."""
    if not h > 0:
        raise DomainError(f"h must be positive, got {h}")
    n = int(math.ceil(L / (c * h ** 1.25)))
    return max(32, min(n, n_max))


# h at which the Richardson pair rule meets grid_size; below it the pair is
# coarser, and above it grid_size holds
_PAIR_H = 0.1
# least fine member of a Richardson pair, so that its half keeps grid_size's
# floor of 32 and the two grids differ
_PAIR_N = 64


def _pair_size(L: float, h: float, c: float, n_max: int) -> int:
    """Grid of a Richardson pair's fine member: the extrapolated error in
    units of h^2 scales as dx^4/h^3, so n = ceil(L / (c sqrt(0.1) h^{3/4})),
    which meets grid_size at h = 0.1; never finer than grid_size above its
    floor, clamped to [64, n_max]."""
    n = grid_size(L, h, c, n_max)
    return max(_PAIR_N, min(n, int(math.ceil(L / (c * math.sqrt(_PAIR_H) * h ** 0.75)))))


def _sweep_grid(cfg: SweepConfig, dom: Rectangle, h: float) -> Grid:
    if cfg.n_fixed is not None:
        return Grid(dom, cfg.n_fixed, cfg.n_fixed)
    size = _pair_size if cfg.richardson else grid_size
    return Grid(dom, size(dom.width, h, cfg.grid_c, cfg.n_max),
                size(dom.height, h, cfg.grid_c, cfg.n_max))


def richardson(lam_fine, dx_fine, lam_coarse, dx_coarse):
    """Extrapolate an O(dx^2) discretization error out of a grid pair.

    The weights are 1/dx^2 of the two grids, so lam + c dx^2 on both gives
    lam back for any spacing ratio; a ratio of exactly 2 gives (4 lam_fine -
    lam_coarse) / 3.
    """
    r = (dx_coarse / dx_fine) ** 2
    return (r * lam_fine - lam_coarse) / (r - 1.0)


def _certified(res):
    """`res`, after checking that every pair passed its residual test."""
    bad = int(np.sum(~res.converged))
    if bad:
        raise DomainError(f"{bad} of {len(res)} eigenpairs failed the residual "
                          f"test (largest residual {res.residuals.max():.3g})")
    return res


def _failure(h, message):
    return SweepRecord(h=h, j=-1, lambda_computed=math.nan,
                       lambda_predicted=math.nan, solver_residual=math.nan,
                       quasimode_residual=math.nan, n=0, error=message)


def run_sweep(config: SweepConfig) -> list:
    """Solve the m smallest eigenvalues for each h and compare to the
    two-term prediction h*b0 + h^2 * mu_{j,0,2}.

    Richardson extrapolation over the (n, n/2) grid pair, weighted by the
    grids' real spacings, removes the leading second-order discretization
    error from lambda_computed.  Every pair of both solves must pass its
    residual test.  A failure at one h produces a single failure record and
    does not abort the sweep; a field that is not a valid well gives one
    failure record, a malformed one raises.
    """
    records = []
    try:
        setup = FieldSetup(config.b, config.phi, Rectangle(*config.domain))
        well = well_data(setup)
        gauge = gauge_from_field(setup, x_anchor=well.x0[0])
    except DomainError as err:
        return [_failure(math.nan, str(err))]

    for h in config.h_list:
        try:
            grid = _sweep_grid(config, setup.domain, h)
            op = assemble(setup, gauge, grid, h)
            res = _certified(smallest_eigenpairs(op, config.m, tol=config.tol,
                                                 seed=config.seed))
            lam = res.eigenvalues
            if config.richardson and config.n_fixed is None:
                half = Grid(setup.domain, grid.nx // 2, grid.ny // 2)
                lam_half = _certified(smallest_eigenpairs(
                    assemble(setup, gauge, half, h), config.m,
                    tol=config.tol, seed=config.seed)).eigenvalues
                lam = richardson(lam, grid.dx, lam_half, half.dx)
            qres = math.nan
            if config.quasimode:
                phi = build_leading_quasimode(well, h, grid, gauge, op_mass=op.M)
                qres = residual(op, phi, h * well.b0)
            for j in range(config.m):
                records.append(SweepRecord(
                    h=h, j=j,
                    lambda_computed=float(lam[j]),
                    lambda_predicted=two_term_law(well, h, j),
                    solver_residual=float(res.residuals[j]),
                    quasimode_residual=qres if j == 0 else math.nan,
                    n=grid.nx))
        except MagspecError as err:
            records.append(_failure(h, str(err)))
    records.sort(key=lambda r: (r.h, r.j))
    return records


# ---------------------------------------------------------------------------
# expansion fit

@dataclass(frozen=True)
class FitResult:
    c1: float
    c1_err: float
    c2: float
    c2_err: float
    c52: float
    c52_err: float
    residual_norm: float
    remainder_exponent: float


def fit_expansion(records, j: int = 0) -> FitResult:
    """Weighted least squares of lambda(h) against c1*h + c2*h^2 + c52*h^{5/2}.

    No h^{3/2} term appears in the model (the odd first-order coefficient of
    the eigenvalue expansion vanishes); the h^{5/2} term is a free nuisance
    absorbing the unresolved next order.  Weights h^{-2} equalize the relative
    influence of the sweep points.  The remainder exponent p is fitted from
    |lambda - c1*h - c2*h^2| ~ h^p.
    """
    pts = sorted({(r.h, r.lambda_computed) for r in records
                  if r.error is None and r.j == j})
    if len(pts) < 4:
        raise DomainError(f"need at least 4 distinct h values for level {j}, got {len(pts)}")
    hs = np.array([p[0] for p in pts])
    lam = np.array([p[1] for p in pts])
    A = np.column_stack([hs, hs ** 2, hs ** 2.5])
    w = 1.0 / hs
    coef, *_ = np.linalg.lstsq(A * w[:, None], lam * w, rcond=None)
    resid = lam - A @ coef
    dof = max(len(pts) - 3, 1)
    sigma2 = float(np.sum((resid * w) ** 2)) / dof
    cov = sigma2 * np.linalg.inv((A * w[:, None]).T @ (A * w[:, None]))
    err = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    rem = np.abs(lam - coef[0] * hs - coef[1] * hs ** 2)
    mask = rem > 1e-13 * np.maximum(np.abs(lam), 1.0)
    if mask.sum() >= 2:
        p = float(np.polyfit(np.log(hs[mask]), np.log(rem[mask]), 1)[0])
    else:
        p = math.inf  # remainder at roundoff: the two-term model is exact
    return FitResult(c1=float(coef[0]), c1_err=float(err[0]),
                     c2=float(coef[1]), c2_err=float(err[1]),
                     c52=float(coef[2]), c52_err=float(err[2]),
                     residual_norm=float(np.linalg.norm(resid)),
                     remainder_exponent=p)


# ---------------------------------------------------------------------------
# quadratic-form lower bound

@dataclass(frozen=True)
class MontgomeryReport:
    ratios: tuple
    min_ratio: float
    h: float


def _random_bumps(grid: Grid, count: int, seed: int):
    rng = np.random.default_rng(seed)
    dom = grid.domain
    X, Y = grid.meshgrid()
    out = []
    for _ in range(count):
        cx = dom.x_min + dom.width * rng.uniform(0.3, 0.7)
        cy = dom.y_min + dom.height * rng.uniform(0.3, 0.7)
        s = min(dom.width, dom.height) * rng.uniform(0.03, 0.1)
        out.append(np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * s * s)).reshape(-1))
    return out


def montgomery_check(setup, grid: Grid, h: float, trials=None,
                     n_random: int = 20, seed: int = 0,
                     gauge: GaugePotential = None) -> MontgomeryReport:
    """Ratio magnetic_form(u) / (h * field_mass(u)) for each trial function.

    The continuous quadratic-form bound makes every ratio at least 1; on the
    grid it holds up to discretization slack (tests allow 2%).  Trials default
    to random Gaussian bumps; pass computed eigenvectors (the columns of
    `EigenResult.eigenvectors`, i.e. its `.T`) to probe the near-equality
    regime.
    """
    if gauge is None:
        gauge = gauge_from_field(setup)
    op = assemble(setup, gauge, grid, h)
    vecs = list(trials) if trials is not None else []
    vecs.extend(_random_bumps(grid, n_random, seed))
    ratios = []
    for u in vecs:
        denom = h * field_mass(setup, grid, u)
        if denom <= 0:
            raise DomainError("trial function has zero field mass")
        ratios.append(magnetic_form(op, u) / denom)
    return MontgomeryReport(ratios=tuple(ratios), min_ratio=min(ratios), h=h)


# ---------------------------------------------------------------------------
# superlattice tiling

class TiledField:
    """p x p periodic tiling of a single-well field on an enlarged rectangle.

    The base cell must be centered at the origin with a polynomial b and a
    constant phi; the tiled 2-form coefficient is B(x, y) = B(w(x), w(y)) with
    w the centered wrap into the cell.  The gauge stays exact: its double
    primitive is the cell's polynomial one plus whole-cell fluxes, so no
    quadrature crosses the (merely C^0) cell seams.
    """

    def __init__(self, base: FieldSetup, p: int):
        if p < 1 or p % 2 == 0:
            raise DomainError("tiling order p must be a positive odd integer")
        cell = base.domain
        if abs(cell.x_min + cell.x_max) > 1e-12 or abs(cell.y_min + cell.y_max) > 1e-12:
            raise DomainError("tiling requires a cell centered at the origin")
        Bpoly = polynomial_B(base)
        if Bpoly is None:
            raise DomainError("tiling requires polynomial b and constant phi")
        self.base = base
        self.p = p
        self.ax = cell.x_max
        self.ay = cell.y_max
        self.domain = Rectangle(p * cell.x_min, p * cell.x_max,
                                p * cell.y_min, p * cell.y_max)
        # cell double primitive Qg(x, y) = int_0^x int_0^y B
        self._Qg = ex.poly_antiderivative(ex.poly_antiderivative(Bpoly, "x"), "y")

    def _wrap_x(self, x):
        return np.mod(np.asarray(x, dtype=float) + self.ax, 2 * self.ax) - self.ax

    def _wrap_y(self, y):
        return np.mod(np.asarray(y, dtype=float) + self.ay, 2 * self.ay) - self.ay

    def _in_cell(self, fn, x, y):
        wx, wy = self._wrap_x(x), self._wrap_y(y)
        return np.broadcast_to(fn(wx, wy), np.broadcast(wx, wy).shape)

    def b(self, x, y):
        return self._in_cell(self.base.b, x, y)

    def phi(self, x, y):
        return self._in_cell(self.base.phi, x, y)

    def mass_weight(self, x, y):
        return np.exp(2 * self.phi(x, y))

    def B(self, x, y):
        return np.asarray(self.b(x, y), dtype=float) * self.mass_weight(x, y)

    def gauge(self) -> GaugePotential:
        """Exact A1 = 0 gauge for the tiled field, anchored at x = 0."""
        Qg, ax, ay = self._Qg, self.ax, self.ay

        def Phi(x, y):
            # whole cells in x, then whole cells in y, then the wrapped remainder
            nx, wx = np.floor((x + ax) / (2 * ax)), self._wrap_x(x)

            def Q(v):  # Phi(x, v) for v inside the central row of cells
                qi = ex.poly_eval(Qg, ax, v) - ex.poly_eval(Qg, -ax, v)
                return nx * qi + ex.poly_eval(Qg, wx, v)
            return (Q(ay) - Q(-ay)) * np.floor((y + ay) / (2 * ay)) + Q(self._wrap_y(y))

        return GaugePotential.from_primitive(Phi, 0.0)


# ---------------------------------------------------------------------------
# gap detection

@dataclass(frozen=True)
class GapReport:
    window: tuple
    clusters: tuple  # ((lo, hi, center, width), ...)
    sizes: tuple     # eigenvalues in each cluster
    gaps: tuple      # ((lo, hi), ...)
    passed: bool
    message: str


def detect_gaps(eigenvalues, h: float, well: WellData, k: int = DEFAULTS["gaps.k"],
                N: int = DEFAULTS["gaps.N"]) -> GapReport:
    """Cluster the spectrum inside the level-k window and report the gaps.

    Window: [(2k+1) h b0 + h^2 c_k, (2k+1) h b0 + h^2 C] with the gap
    constant c_k = mu_jk2(well, 0, k), the bottom of the level-k ladder, and
    C = c_k + (2N+2) * 2 sqrt(d)/b0, covering at least N+1 ladder rungs.
    Clusters are maximal runs of eigenvalues separated by more than 5x the
    in-cluster spread (with a floor of 1% of the rung spacing), each reported
    with its span and its number of eigenvalues; the report passes when at
    least N gaps each exceed 3x the widest adjacent cluster.
    When the largest eigenvalue given lies inside the window, its cluster
    may hold only part of its states, so it is left out, and the message
    says so.
    """
    if N < 0:
        raise DomainError("N must be non-negative")
    inv = well.invariants
    ck = mu_jk2(well, 0, k)
    spacing = 2.0 * math.sqrt(inv.d) / well.b0
    lo = (2 * k + 1) * h * well.b0 + h * h * ck
    hi = (2 * k + 1) * h * well.b0 + h * h * (ck + (2 * N + 2) * spacing)
    vals = np.sort(np.asarray(eigenvalues, dtype=float))
    floor = 0.01 * h * h * spacing
    # guard the edges by fractions of the rung spacing: a cluster sitting
    # exactly on an edge must be kept (lower) or dropped (upper) whole
    lo_eff = lo - 0.25 * h * h * spacing
    hi_eff = hi - 0.5 * h * h * spacing
    inside = vals[(vals >= lo_eff) & (vals <= hi_eff)]
    if N == 0:
        return GapReport(window=(lo, hi), clusters=(), sizes=(), gaps=(),
                         passed=True, message="N = 0: nothing to check")
    if inside.size == 0:
        raise DomainError("window empty -- decrease h or enlarge m")

    clusters = []
    start = 0
    for i in range(1, inside.size + 1):
        if i == inside.size:
            clusters.append(inside[start:i])
            break
        spread = inside[i - 1] - inside[start]
        if inside[i] - inside[i - 1] > 5 * max(spread, floor):
            clusters.append(inside[start:i])
            start = i
    cut = clusters.pop() if inside[-1] == vals[-1] else None
    summaries = tuple((float(c[0]), float(c[-1]),
                       float(c.mean()), float(c[-1] - c[0])) for c in clusters)
    gaps = tuple((summaries[i][1], summaries[i + 1][0])
                 for i in range(len(summaries) - 1))
    good = sum(1 for i, (glo, ghi) in enumerate(gaps)
               if ghi - glo >= 3 * max(summaries[i][3], summaries[i + 1][3]))
    passed = good >= N
    msg = (f"{len(summaries)} clusters, {good} dominating gaps (need {N})")
    if cut is not None:
        msg += (f"; left out the top cluster at {cut.mean():.6g} ({cut.size} "
                f"computed), which holds the largest eigenvalue and may be "
                f"incomplete")
    return GapReport(window=(lo, hi), clusters=summaries,
                     sizes=tuple(c.size for c in clusters), gaps=gaps,
                     passed=passed, message=msg)


def run_gap_experiment(base: FieldSetup = None, p: int = DEFAULTS["gaps.tiling"],
                       h: float = DEFAULTS["gaps.h"], k: int = DEFAULTS["gaps.k"],
                       N: int = DEFAULTS["gaps.N"], n: int = DEFAULTS["gaps.n"],
                       m: int = DEFAULTS["gaps.m"], tol: float = DEFAULTS["gaps.tol"],
                       seed: int = DEFAULTS["seed"]) -> GapReport:
    """Assemble the p x p superlattice, solve, and run detect_gaps on the
    eigenvalues; a pair that fails its residual test raises DomainError.
    The message warns if a reported cluster holds other than p^2 values,
    one state per well."""
    if base is None:
        base = standard_well()
    tiled = TiledField(base, p)
    well = well_data(base)
    grid = Grid(tiled.domain, n, n)
    op = assemble(tiled, tiled.gauge(), grid, h)
    if m is None:
        m = (2 * N + 3) * p * p + 10
    res = _certified(smallest_eigenpairs(op, m, tol=tol, seed=seed))
    report = detect_gaps(res.eigenvalues, h, well, k=k, N=N)
    if any(size != p * p for size in report.sizes):
        report = replace(report, message=(
            f"{report.message}; warning: cluster sizes "
            f"{', '.join(map(str, report.sizes))}, expected {p * p} each"))
    return report


# ---------------------------------------------------------------------------
# persistence

def _plain(x):
    """`x` for JSON, which has no NaN: NaN as None, written null."""
    return None if isinstance(x, float) and math.isnan(x) else x


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


def write_table(header, rows, out, fmt: str = "csv") -> None:
    """Write rows under `header` as CSV or as a JSON array of objects.

    `out` is a file path or a writable text stream.  CSV writes floats as
    .17g and None as an empty field, so re-runs are byte-identical; JSON is
    indented by 2, writes NaN as null and ends with a newline.
    """
    own = isinstance(out, (str, bytes)) or hasattr(out, "__fspath__")
    with open(out, "w", newline="") if own else contextlib.nullcontext(out) as fh:
        if fmt == "json":
            json.dump([{key: _plain(v) for key, v in zip(header, row)}
                       for row in rows], fh, indent=2, default=float)
            fh.write("\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)


def record_table(records) -> tuple:
    """(header, rows) of sweep records for write_table, one row per record."""
    header = [f.name for f in fields(SweepRecord)]
    return header, [[getattr(r, c) for c in header] for r in records]

