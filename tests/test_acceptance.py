"""Top-level acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints exactly one line of the form

    ACCEPTANCE <n>: PASS|FAIL -- <measured values>

directly to the terminal (bypassing capture) and then asserts.  The suite is
expensive (several eigensolves on production-size grids); expect 15-25
minutes on one CPU.
"""

import math
import time

import numpy as np
import pytest

from magspec.discretize import Grid, assemble, field_mass, magnetic_form
from magspec.eigensolve import (eigenpairs_near, nearest_eigenvalue,
                                smallest_eigenpairs)
from magspec.experiments import (SweepConfig, fit_expansion, grid_size,
                                 run_gap_experiment, run_sweep, standard_well)
from magspec.fieldgeom import (FieldSetup, Rectangle, TransformedGauge,
                               gauge_from_field, well_data)
from magspec.hermite import (hermite_norm_sq, hermite_poly, moment_table,
                             nu_jk_check)
from magspec.quasimode import (QuasimodeSpec, assemble_T2,
                               build_leading_quasimode, clipped_cutoff)
from magspec.wellmodel import WellData, mu_jk2


def _report(capfd, num, ok, detail):
    with capfd.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}",
              flush=True)
    assert ok, detail


# ---------------------------------------------------------------------------
# shared expensive computations

@pytest.fixture(scope="module")
def std_ctx():
    setup = standard_well()
    well = well_data(setup)
    gauge = gauge_from_field(setup, x_anchor=well.x0[0])
    return setup, well, gauge


@pytest.fixture(scope="module")
def sweep_result(std_ctx):
    """Full production sweep over h in {0.1, 0.08, 0.06, 0.05, 0.04}."""
    t0 = time.monotonic()
    cfg = SweepConfig(b="1 + x^2 + y^2", h_list=(0.1, 0.08, 0.06, 0.05, 0.04),
                      m=2)
    records = run_sweep(cfg)
    return records, time.monotonic() - t0


@pytest.fixture(scope="module")
def std_solve_005(std_ctx):
    """Five lowest eigenpairs of the standard well at h=0.05, rule grid."""
    setup, well, gauge = std_ctx
    n = grid_size(setup.domain.width, 0.05)
    grid = Grid(setup.domain, n, n)
    op = assemble(setup, gauge, grid, 0.05)
    res = smallest_eigenpairs(op, 5, tol=1e-8)
    return grid, op, res


@pytest.fixture(scope="module")
def landau_solve():
    """Constant field b=1 at h=0.1 on [-3,3]^2, lowest Landau cluster."""
    setup = FieldSetup("1", None, Rectangle(-3.0, 3.0, -3.0, 3.0))
    gauge = gauge_from_field(setup, x_anchor=0.0)
    n = grid_size(setup.domain.width, 0.1)
    grid = Grid(setup.domain, n, n)
    op = assemble(setup, gauge, grid, 0.1)
    low = eigenpairs_near(op, 0.1, 6, tol=1e-8)
    return setup, grid, op, low


# ---------------------------------------------------------------------------

def test_acceptance_01_flat_model_oracle(capfd):
    target = math.sqrt(5.0)
    setup = FieldSetup("1", None, Rectangle(-8.0, 8.0, -8.0, 8.0))
    gauge = gauge_from_field(setup, x_anchor=0.0)
    t0 = time.monotonic()
    err = {}
    for n in (256, 512):
        op = assemble(setup, gauge, Grid(setup.domain, n, n), 1.0,
                      potential=lambda x, y: x ** 2 + y ** 2)
        res = smallest_eigenpairs(op, 1, tol=1e-6)
        err[n] = float(res.eigenvalues[0]) - target
    elapsed = time.monotonic() - t0
    ratio = err[256] / err[512]
    ok = (abs(err[256]) <= 1e-3 and 3.5 <= ratio <= 4.5 and elapsed < 120.0)
    _report(capfd, 1, ok,
            f"err(256)={err[256]:.3e} (tol 1e-3), refinement ratio "
            f"{ratio:.2f} (need [3.5,4.5]), {elapsed:.0f}s (limit 120s)")


def test_acceptance_02_landau_levels(capfd, landau_solve):
    setup, grid, op, low = landau_solve
    lam0, dist0 = nearest_eigenvalue(low, 0.1)
    exc = eigenpairs_near(op, 0.3, 6, tol=1e-8)
    lam1, dist1 = nearest_eigenvalue(exc, 0.3)
    ok = dist0 <= 2e-3 and dist1 <= 5e-3
    _report(capfd, 2, ok,
            f"lowest cluster {lam0:.6f} (|d|={dist0:.1e}, tol 2e-3), "
            f"first excited {lam1:.6f} (|d|={dist1:.1e}, tol 5e-3)")


def test_acceptance_03_two_term_expansion(capfd, sweep_result):
    records, elapsed = sweep_result
    fit0 = fit_expansion(records, 0)
    fit1 = fit_expansion(records, 1)
    ok = (abs(fit0.c1 - 1.0) <= 0.02
          and abs(fit0.c2 - 2.0) <= 0.2
          and abs(fit1.c2 - 4.0) <= 0.4
          and fit0.remainder_exponent >= 2.3
          and fit1.remainder_exponent >= 2.3
          and elapsed < 1800.0)
    _report(capfd, 3, ok,
            f"c1={fit0.c1:.4f} (1+-2%), c2(j=0)={fit0.c2:.3f} (2+-10%), "
            f"c2(j=1)={fit1.c2:.3f} (4+-10%), exponents "
            f"{fit0.remainder_exponent:.2f}/{fit1.remainder_exponent:.2f} "
            f"(need >=2.3), {elapsed:.0f}s (limit 1800s)")


def test_acceptance_04_quasimode_residual(capfd, std_ctx, sweep_result,
                                          std_solve_005):
    setup, well, gauge = std_ctx
    records, _ = sweep_result
    pts = sorted((r.h, r.quasimode_residual) for r in records
                 if r.j == 0 and r.error is None)
    slope = float(np.polyfit(np.log([p[0] for p in pts]),
                             np.log([p[1] for p in pts]), 1)[0])
    grid, op, res = std_solve_005
    phi = build_leading_quasimode(
        QuasimodeSpec(well, 0, 0, 0.05,
                      cutoff_radius=clipped_cutoff(well, 0.05, setup.domain)),
        grid, gauge, op_mass=op.M)
    align = abs(np.vdot(phi, op.M * res.eigenvectors[:, 0]))
    ok = slope >= 1.9 and align >= 0.95
    _report(capfd, 4, ok,
            f"residual log-log slope {slope:.2f} (need >=1.9), "
            f"alignment {align:.4f} (need >=0.95)")


def test_acceptance_05_perturbation_operator(capfd):
    worst_fiber = 0.0
    worst_proj = 0.0
    presets = [((1.0, 1.0, 1.0, 0.0), WellData(1.0, 1.0, 1.0, 0.0)),
               ((1.0, 11.0 / 12, 11.0 / 12, 1.0), WellData(1.0, 1.0, 1.0, 1.0))]
    for params, well in presets:
        t2 = assemble_T2(*params)
        for k in range(3):
            d = np.abs(t2.fiber_block(k) - t2.oscillator_matrix(k)).max()
            worst_fiber = max(worst_fiber, float(d))
            for j in range(3):
                d = abs(t2.projected_eigenvalue(j, k) - nu_jk_check(well, j, k))
                worst_proj = max(worst_proj, d)
    ok = worst_fiber <= 1e-8 and worst_proj <= 1e-8
    _report(capfd, 5, ok,
            f"max fiber-block deviation {worst_fiber:.1e}, max projected "
            f"eigenvalue deviation {worst_proj:.1e} (tol 1e-8, flat + curved)")


def test_acceptance_06_excited_ladder_proximity(capfd, std_ctx):
    """Distance of the spectrum to the k=1 ladder prediction, in units of h^2.

    The k=1 rung sits inside the k=0 background, whose local spacing near 3h
    is about 0.57 h^2, so the branch is identified by its alignment with the
    leading (j=0, k=1) quasimode, not by proximity to the target.

    Protocol: shift-invert at the target on two grids per h; on each grid
    select the converged eigenpair of largest alignment |<phi, M v>| and
    require it to dominate every other pair; Richardson-extrapolate the
    selected branch in dx^2 with dx = L/(n+1).  The remainder
    lambda - target is O(h^{5/2}) (README), so |lambda - target|/h^2 must
    shrink from h=0.1 to h=0.04 by at least the factor (0.04/0.1)^{1/2}.
    """
    setup, well, gauge = std_ctx
    pairs = {0.1: (143, 191), 0.04: (448, 544)}
    scaled = {}
    aligns = []
    ok = True
    for h, (nc, nf) in pairs.items():
        target = 3 * h * well.b0 + h * h * mu_jk2(well, 0, 1)
        spec = QuasimodeSpec(well, 0, 1, h,
                             cutoff_radius=clipped_cutoff(well, h, setup.domain))
        branch = {}
        for n in (nc, nf):
            grid = Grid(setup.domain, n, n)
            op = assemble(setup, gauge, grid, h)
            res = eigenpairs_near(op, target, 12, tol=1e-8)
            phi = build_leading_quasimode(spec, grid, gauge, op_mass=op.M)
            align = np.array([abs(np.vdot(phi, op.M * v))
                              for v in res.eigenvectors.T])
            best = int(np.argmax(align))
            runner_up = float(np.delete(align, best).max())
            aligns.append((n, float(align[best]), runner_up))
            ok = (ok and bool(res.converged[best]) and align[best] >= 0.9
                  and runner_up <= 0.1)
            branch[n] = float(res.eigenvalues[best])
        wf = (nf + 1) ** 2
        wc = (nc + 1) ** 2
        extrap = (wf * branch[nf] - wc * branch[nc]) / (wf - wc)
        scaled[h] = (extrap - target) / h ** 2
    bound = math.sqrt(0.04 / 0.1)
    ratio = abs(scaled[0.04]) / abs(scaled[0.1])
    ok = ok and ratio <= bound
    align_txt = ", ".join(f"n={n} {a:.3f}/{r:.1e}" for n, a, r in aligns)
    _report(capfd, 6, ok,
            f"k=1 branch alignment/runner-up {align_txt} (need >=0.9/<=0.1); "
            f"(lambda-target)/h^2 = {scaled[0.1]:+.4f} at h=0.1, "
            f"{scaled[0.04]:+.4f} at h=0.04; ratio {ratio:.3f} "
            f"(need <= (0.04/0.1)^(1/2) = {bound:.3f})")


def test_acceptance_07_hermite_identity_suite(capfd):
    xs = np.linspace(-3.0, 3.0, 31)
    worst_rec = 0.0
    for k in range(11):
        scale = max(1.0, float(np.abs(hermite_poly(k + 4, xs)).max()))
        H = lambda i: (hermite_poly(i, xs) if i >= 0 else np.zeros_like(xs))
        checks = [
            2 * xs * H(k) - (H(k + 1) + 2 * k * H(k - 1)),
            4 * xs ** 2 * H(k) - (H(k + 2) + 2 * (2 * k + 1) * H(k)
                                  + 4 * k * (k - 1) * H(k - 2)),
            8 * xs ** 3 * H(k) - (H(k + 3) + 6 * (k + 1) * H(k + 1)
                                  + 12 * k * k * H(k - 1)
                                  + 8 * k * (k - 1) * (k - 2) * H(k - 3)),
            16 * xs ** 4 * H(k) - (H(k + 4) + (8 * k + 12) * H(k + 2)
                                   + 12 * (2 * k * k + 2 * k + 1) * H(k)
                                   + 16 * (2 * k * k - 3 * k + 1) * k * H(k - 2)
                                   + 16 * k * (k - 1) * (k - 2) * (k - 3) * H(k - 4)),
        ]
        for c in checks:
            worst_rec = max(worst_rec, float(np.abs(c).max()) / scale)

    # six moment closed forms against Gauss-Hermite quadrature
    nodes, weights = np.polynomial.hermite.hermgauss(120)
    worst_mom = 0.0
    for k in range(11):
        mt = moment_table(k, 1.0)
        norm = (1.0 / math.pi) ** 0.25 / math.sqrt(2.0 ** k * math.factorial(k))
        u = norm * hermite_poly(k, nodes)
        du = norm * (2 * k * (hermite_poly(k - 1, nodes) if k else 0.0)
                     - nodes * hermite_poly(k, nodes))
        d2u = norm * (4 * k * (k - 1) * (hermite_poly(k - 2, nodes) if k >= 2 else 0.0)
                      - 4 * k * nodes * (hermite_poly(k - 1, nodes) if k else 0.0)
                      + (nodes ** 2 - 1) * hermite_poly(k, nodes))
        quad = {
            "x2": float(np.sum(weights * nodes ** 2 * u ** 2)),
            "x4": float(np.sum(weights * nodes ** 4 * u ** 2)),
            "xD_imag": 0.5,
            "D2": float(np.sum(weights * du ** 2)),
            "x2D2": -float(np.sum(weights * nodes ** 2 * u * d2u)),
            "D4": float(np.sum(weights * d2u ** 2)),
        }
        for name, q in quad.items():
            worst_mom = max(worst_mom, abs(getattr(mt, name) - q))

    worst_norm = 0.0
    for k in range(13):
        exact = 2.0 ** k * math.factorial(k) * math.sqrt(math.pi)
        worst_norm = max(worst_norm,
                         abs(hermite_norm_sq(k) - exact) / exact)
    ok = worst_rec <= 1e-9 and worst_mom <= 1e-12 and worst_norm <= 1e-10
    _report(capfd, 7, ok,
            f"recurrences {worst_rec:.1e} (tol 1e-9), moments {worst_mom:.1e} "
            f"(tol 1e-12), norms {worst_norm:.1e} (tol 1e-10)")


def test_acceptance_08_quadratic_form_lower_bound(capfd, std_ctx,
                                                  std_solve_005, landau_solve):
    setup, well, gauge = std_ctx
    grid, op, res = std_solve_005
    ratios = [magnetic_form(op, v)
              / (0.05 * field_mass(setup, grid, v))
              for v in res.eigenvectors.T]
    lsetup, lgrid, lop, low = landau_solve
    v0 = low.eigenvectors[:, 0]
    const_ratio = magnetic_form(lop, v0) / (0.1 * field_mass(lsetup, lgrid, v0))
    ok = min(ratios) >= 0.98 and abs(const_ratio - 1.0) <= 0.02
    _report(capfd, 8, ok,
            f"min eigenvector ratio {min(ratios):.4f} (need >=0.98), "
            f"constant-field ground ratio {const_ratio:.4f} (1+-2%)")


def test_acceptance_09_superlattice_gaps(capfd):
    t0 = time.monotonic()
    report = run_gap_experiment(p=3, h=0.05, k=0, N=2, n=384)
    elapsed = time.monotonic() - t0
    ok = report.passed and len(report.gaps) >= 2 and elapsed < 1200.0
    _report(capfd, 9, ok,
            f"{report.message}, {len(report.clusters)} clusters in window, "
            f"{elapsed:.0f}s (limit 1200s)")


def test_acceptance_10_gauge_invariance(capfd, std_ctx):
    setup, well, gauge = std_ctx
    grid = Grid(setup.domain, 48, 48)
    base = smallest_eigenpairs(assemble(setup, gauge, grid, 0.1), 6).eigenvalues
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(3):
        c = rng.uniform(-1.0, 1.0, 6)
        chi = (f"{c[0]:.6f}*x + {c[1]:.6f}*y + {c[2]:.6f}*x^2 + "
               f"{c[3]:.6f}*x*y + {c[4]:.6f}*y^2 + {c[5]:.6f}*x^2*y")
        lam = smallest_eigenpairs(
            assemble(setup, TransformedGauge(gauge, chi), grid, 0.1),
            6).eigenvalues
        worst = max(worst, float(np.abs((lam - base) / base).max()))
    ok = worst <= 1e-10
    _report(capfd, 10, ok,
            f"max relative spectral shift over 3 random polynomial gauge "
            f"changes {worst:.1e} (tol 1e-10)")
