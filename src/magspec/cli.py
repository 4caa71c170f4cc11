"""Command-line interface.

Subcommands: oracle, solve, sweep, quasimode, gaps, check-identities.
Data goes to stdout (or --out); diagnostics go to stderr.  Exit codes:
0 success, 1 domain error (bad mathematical input or a failed check),
2 configuration/parse error or a path that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .discretize import Grid, assemble, dump_matrix_market
from .eigensolve import smallest_eigenpairs
from .errors import ConfigError, DomainError, ParseError
from .experiments import (STANDARD_FIELD, SweepConfig, bounds, check_keys,
                          fit_expansion, grid_size, integer, number, number_list,
                          record_table, run_gap_experiment, run_sweep,
                          section, write_table)
from .fieldgeom import FieldSetup, Rectangle, gauge_from_field, well_data
from .hermite import hermite_norm_sq, hermite_poly, moment_table
from .quasimode import (QuasimodeSpec, assemble_T2, build_leading_quasimode,
                        clipped_cutoff, residual)
from .wellmodel import (FlatModelParams, flat_model_spectrum, mu_jk2,
                        p_flat_spectrum)

__all__ = ["main"]


def _load_config(path):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON in {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"config root in {path} must be a JSON object")
    return doc


def _setup_from(doc):
    field = doc.get("field", {})
    domain, = section(doc, "field", domain=(bounds, STANDARD_FIELD["domain"]))
    return FieldSetup(field.get("b", STANDARD_FIELD["b"]), field.get("phi"),
                      Rectangle(*domain))


def _operator(args, doc, h, n):
    """Well, gauge, grid and operator of a single-well solve on an n x n
    grid; n = 0 sizes each axis from its own side and h."""
    setup = _setup_from(doc)
    dom = setup.domain
    well = well_data(setup)
    gauge = gauge_from_field(setup, x_anchor=well.x0[0])
    grid = Grid(dom, n or grid_size(dom.width, h), n or grid_size(dom.height, h))
    op = assemble(setup, gauge, grid, h)
    if args.dump_matrix:
        dump_matrix_market(op, args.dump_matrix)
    return well, gauge, grid, op


def _cmd_oracle(args, doc):
    hs, = section(doc, "sweep", h=(number_list, SweepConfig.h_list))
    if not hs:
        raise ConfigError("sweep.h is empty; oracle takes its h from sweep.h[0]")
    well = well_data(_setup_from(doc))
    rows = [("well", "b0", "", float(well.b0)),
            ("well", "alpha1", "", float(well.alpha1)),
            ("well", "beta1", "", float(well.beta1)),
            ("well", "R0", "", float(well.R0) + 0.0)]
    for j in range(4):
        for k in range(4):
            rows.append(("mu_jk2", j, k, mu_jk2(well, j, k)))
    for k in range(4):
        rows.append(("c_k", k, "", mu_jk2(well, 0, k)))
    K = np.diag([2 * well.alpha1, 2 * well.beta1])
    for lam, n1, n2 in flat_model_spectrum(FlatModelParams(well.b0, K), 6):
        rows.append(("flat_model", n1, n2, lam))
    for lam, n1, n2 in p_flat_spectrum(hs[0], well.b0,
                                       np.diag([well.alpha1, well.beta1]), 6):
        rows.append(("p_flat", n1, n2, lam))
    return ["table", "i", "k", "value"], rows, 0


def _cmd_solve(args, doc):
    h, n, m, tol = section(doc, "solve", h=(number, 0.1), n=(integer, 0),
                           m=(integer, 6), tol=(number, 1e-8))
    well, gauge, grid, op = _operator(args, doc, h, n)
    res = smallest_eigenpairs(op, m, tol=tol, seed=doc["seed"])
    rows = [(j, float(res.eigenvalues[j]),
             h * well.b0 + h * h * mu_jk2(well, j, 0),
             float(res.residuals[j]), bool(res.converged[j]))
            for j in range(m)]
    return ["j", "lambda", "lambda_predicted", "residual", "converged"], rows, 0


def _cmd_sweep(args, doc):
    cfg = SweepConfig.from_dict(doc)
    records = run_sweep(cfg)
    for j in range(cfg.m):
        try:
            fit = fit_expansion(records, j)
        except DomainError as err:
            print(f"fit j={j}: {err}", file=sys.stderr)
            continue
        print(f"fit j={j}: c1={fit.c1:.6g}+-{fit.c1_err:.2g} "
              f"c2={fit.c2:.6g}+-{fit.c2_err:.2g} "
              f"remainder_exponent={fit.remainder_exponent:.3g}",
              file=sys.stderr)
    return *record_table(records), 0


def _cmd_quasimode(args, doc):
    h, j, k, n = section(doc, "quasimode", h=(number, 0.05), j=(integer, 0),
                         k=(integer, 0), n=(integer, 0))
    well, gauge, grid, op = _operator(args, doc, h, n)
    spec = QuasimodeSpec(well, j, k, h,
                         cutoff_radius=clipped_cutoff(well, h, grid.domain))
    phi = build_leading_quasimode(spec, grid, gauge, op_mass=op.M)
    r = residual(op, phi, (2 * k + 1) * h * well.b0)
    print(f"residual at mu=(2k+1)*h*b0: {r:.6e}", file=sys.stderr)
    X, Y = grid.meshgrid()
    return ["x", "y", "re", "im"], list(zip(X.reshape(-1), Y.reshape(-1),
                                            phi.real, phi.imag)), 0


def _cmd_gaps(args, doc):
    p, h, k, N, n, m, tol = section(
        doc, "gaps", tiling=(integer, 3), h=(number, 0.05), k=(integer, 0),
        N=(integer, 2), n=(integer, 384), m=(integer, None), tol=(number, 1e-8))
    report = run_gap_experiment(base=_setup_from(doc), p=p, h=h, k=k, N=N,
                                n=n, m=m, tol=tol, seed=doc["seed"])
    rows = [("window", report.window[0], report.window[1], "")]
    for lo, hi, center, width in report.clusters:
        rows.append(("cluster", lo, hi, width))
    for lo, hi in report.gaps:
        rows.append(("gap", lo, hi, hi - lo))
    print(report.message, file=sys.stderr)
    return ["kind", "lo", "hi", "extra"], rows, 0 if report.passed else 1


def _cmd_check_identities(args, doc):
    xs, ws = np.polynomial.hermite.hermgauss(80)
    checks = []

    def check(name, ok):
        checks.append((name, "ok" if ok else "FAIL"))

    for k in range(11):
        # orthogonality and norm against Gauss-Hermite quadrature
        q = float(np.sum(ws * hermite_poly(k, xs) ** 2))
        check(f"hermite_norm k={k}", abs(q - hermite_norm_sq(k)) <= 1e-9 * q)
    for k in range(11):
        mt = moment_table(k, 1.0)
        psi = (1.0 / math.pi) ** 0.25 / math.sqrt(2.0 ** k * math.factorial(k)) \
            * hermite_poly(k, xs)
        x2 = float(np.sum(ws * xs ** 2 * psi ** 2))
        check(f"moment_x2 k={k}", abs(x2 - mt.x2) <= 1e-10 * (1 + abs(mt.x2)))
    for (b0, a, b, R0) in ((1.0, 1.0, 1.0, 0.0), (1.0, 11.0 / 12, 11.0 / 12, 1.0)):
        t2 = assemble_T2(b0, a, b, R0)
        herm = np.abs(t2.matrix - t2.matrix.conj().T).max()
        check(f"T2_hermitian R0={R0}", herm <= 1e-10)
        for k in range(3):
            d = np.abs(t2.fiber_block(k) - t2.oscillator_matrix(k)).max()
            check(f"T2_fiber k={k} R0={R0}", d <= 1e-8)
    failures = sum(status == "FAIL" for _, status in checks)
    if failures:
        print(f"{failures} identity checks failed", file=sys.stderr)
    return ["check", "status"], checks, 1 if failures else 0


_COMMANDS = {
    "oracle": _cmd_oracle,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "quasimode": _cmd_quasimode,
    "gaps": _cmd_gaps,
    "check-identities": _cmd_check_identities,
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="magspec",
        description="Spectral laboratory for 2D magnetic Schrodinger wells")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--dump-matrix", help="write the assembled matrix "
                                         "(Matrix Market) to this path")
    p.add_argument("--seed", type=int, help="default: the config's seed, else 0")
    return p


def _check_writable(path):
    """Fail before any work when `path` cannot be an output file.  Nothing
    is created, so an existing file survives a failed command."""
    if path is None:
        return
    if os.path.isdir(path):
        raise ConfigError(f"output path is a directory: {path}")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ConfigError(f"output directory does not exist: {path}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_writable(args.out)
        _check_writable(args.dump_matrix)
        doc = {"seed": 0, **_load_config(args.config)}
        check_keys(doc)
        doc["seed"] = integer(doc["seed"] if args.seed is None else args.seed, "seed")
        header, rows, code = _COMMANDS[args.command](args, doc)
        write_table(header, rows, args.out or sys.stdout, args.format)
        return code
    except (ConfigError, ParseError, OSError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1 if isinstance(err, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
