"""Command-line interface.

Subcommands: oracle, solve, sweep, quasimode, gaps, check-identities.
Data goes to stdout (or --out); diagnostics go to stderr.  Exit codes:
0 success, 1 domain error (bad mathematical input or a failed check),
2 configuration/parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .discretize import Grid, assemble, dump_matrix_market
from .eigensolve import smallest_eigenpairs
from .errors import ConfigError, DomainError, ParseError
from .experiments import (SweepConfig, detect_gaps, fit_expansion, grid_size,
                          run_gap_experiment, run_sweep, standard_well,
                          write_records_csv, write_records_json)
from .fieldgeom import FieldSetup, Rectangle, gauge_from_field, well_data
from .hermite import hermite_norm_sq, hermite_poly, moment_table
from .quasimode import (QuasimodeSpec, assemble_T2, build_leading_quasimode,
                        clipped_cutoff, residual)
from .wellmodel import (FlatModelParams, flat_model_spectrum, gap_constant_ck,
                        mu_jk2, p_flat_spectrum)

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
    fld = doc.get("field")
    if fld is None:
        return standard_well()
    try:
        return FieldSetup(fld["b"], fld.get("phi"),
                          Rectangle(*fld.get("domain", (-2.0, 2.0, -2.0, 2.0))))
    except (KeyError, TypeError) as err:
        raise ConfigError(f"invalid field configuration: {err}") from err


class _Output:
    """Rows -> CSV or JSON on stdout or a file, chosen by CLI flags."""

    def __init__(self, args):
        self.fmt = args.format
        self.path = args.out

    def emit(self, header, rows):
        if self.fmt == "json":
            doc = [dict(zip(header, row)) for row in rows]
            text = json.dumps(doc, indent=2, default=float) + "\n"
        else:
            import io
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow(["" if v is None else
                            (f"{v:.17g}" if isinstance(v, float) else v)
                            for v in row])
            text = buf.getvalue()
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _cmd_oracle(args, doc):
    setup = _setup_from(doc)
    well = well_data(setup)
    h = float(doc.get("sweep", {}).get("h", [0.1])[0])
    rows = [("well", "b0", "", float(well.b0)),
            ("well", "alpha1", "", float(well.alpha1)),
            ("well", "beta1", "", float(well.beta1)),
            ("well", "R0", "", float(well.R0) + 0.0)]
    for j in range(4):
        for k in range(4):
            rows.append(("mu_jk2", j, k, mu_jk2(well, j, k)))
    for k in range(4):
        rows.append(("c_k", k, "", gap_constant_ck(well, k)))
    K = np.diag([2 * well.alpha1, 2 * well.beta1])
    for lam, n1, n2 in flat_model_spectrum(FlatModelParams(well.b0, K), 6):
        rows.append(("flat_model", n1, n2, lam))
    for lam, n1, n2 in p_flat_spectrum(h, well.b0,
                                       np.diag([well.alpha1, well.beta1]), 6):
        rows.append(("p_flat", n1, n2, lam))
    _Output(args).emit(["table", "i", "k", "value"], rows)
    return 0


def _solve_once(doc, args):
    setup = _setup_from(doc)
    sv = doc.get("solve", {})
    h = float(sv.get("h", 0.1))
    n = int(sv.get("n", 0)) or grid_size(setup.domain.width, h)
    m = int(sv.get("m", 6))
    tol = float(sv.get("tol", 1e-8))
    well = well_data(setup)
    gauge = gauge_from_field(setup, x_anchor=well.x0[0])
    grid = Grid(setup.domain, n, n)
    op = assemble(setup, gauge, grid, h)
    if args.dump_matrix:
        dump_matrix_market(op, args.dump_matrix)
    return setup, well, gauge, grid, op, h, m, tol


def _cmd_solve(args, doc):
    setup, well, gauge, grid, op, h, m, tol = _solve_once(doc, args)
    res = smallest_eigenpairs(op, m, tol=tol, seed=args.seed)
    rows = [(j, float(res.eigenvalues[j]),
             h * well.b0 + h * h * mu_jk2(well, j, 0),
             float(res.residuals[j]), bool(res.converged[j]))
            for j in range(m)]
    _Output(args).emit(
        ["j", "lambda", "lambda_predicted", "residual", "converged"], rows)
    return 0


def _cmd_sweep(args, doc):
    cfg_doc = dict(doc)
    cfg_doc.setdefault("field", {"b": "1 + x^2 + y^2",
                                 "domain": (-2.0, 2.0, -2.0, 2.0)})
    cfg_doc.setdefault("seed", args.seed)
    cfg = SweepConfig.from_dict(cfg_doc)
    records = run_sweep(cfg)
    writer = write_records_json if args.format == "json" else write_records_csv
    writer(records, args.out or sys.stdout)
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
    return 0


def _cmd_quasimode(args, doc):
    setup = _setup_from(doc)
    qm = doc.get("quasimode", {})
    h = float(qm.get("h", 0.05))
    j, k = int(qm.get("j", 0)), int(qm.get("k", 0))
    n = int(qm.get("n", 0)) or grid_size(setup.domain.width, h)
    well = well_data(setup)
    gauge = gauge_from_field(setup, x_anchor=well.x0[0])
    grid = Grid(setup.domain, n, n)
    op = assemble(setup, gauge, grid, h)
    spec = QuasimodeSpec(well, j, k, h,
                         cutoff_radius=clipped_cutoff(well, h, setup.domain))
    phi = build_leading_quasimode(spec, grid, gauge, op_mass=op.M)
    r = residual(op, phi, (2 * k + 1) * h * well.b0)
    print(f"residual at mu=(2k+1)*h*b0: {r:.6e}", file=sys.stderr)
    X, Y = grid.meshgrid()
    v = phi.values
    rows = list(zip(X.reshape(-1), Y.reshape(-1), v.real, v.imag))
    _Output(args).emit(["x", "y", "re", "im"], rows)
    return 0


def _cmd_gaps(args, doc):
    setup = _setup_from(doc)
    gp = doc.get("gaps", {})
    report = run_gap_experiment(
        base=setup,
        p=int(gp.get("tiling", 3)),
        h=float(gp.get("h", 0.05)),
        k=int(gp.get("k", 0)),
        N=int(gp.get("N", 2)),
        n=int(gp.get("n", 384)),
        m=gp.get("m"),
        tol=float(gp.get("tol", 1e-8)),
        seed=args.seed)
    rows = [("window", report.window[0], report.window[1], "")]
    for lo, hi, center, width in report.clusters:
        rows.append(("cluster", lo, hi, width))
    for lo, hi in report.gaps:
        rows.append(("gap", lo, hi, hi - lo))
    _Output(args).emit(["kind", "lo", "hi", "extra"], rows)
    print(report.message, file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_check_identities(args, doc):
    xs, ws = np.polynomial.hermite.hermgauss(80)
    failures = []
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        if not ok:
            failures.append(name)

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
    rows = [(name, "ok" if ok else "FAIL") for name, ok in checks]
    _Output(args).emit(["check", "status"], rows)
    if failures:
        print(f"{len(failures)} identity checks failed", file=sys.stderr)
        return 1
    return 0


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
    p.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _load_config(args.config)
        return _COMMANDS[args.command](args, doc)
    except (ConfigError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
