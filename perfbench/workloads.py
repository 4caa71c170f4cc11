"""The four benchmark workloads and the checks on their outputs.

Each workload is built from the run's seed (the ARPACK starting-vector seed,
and for `small` the gauge-change coefficients); magspec receives only the
generated inputs.  `setup` builds the field, its well data and gauge and
pays the first-solve warm-up; `run` is one repetition, from config in to
checked output out, and returns an `Outcome`.

Why these four (see also BENCHMARK.json):
  sweep   the paper's main experiment through `magspec sweep`: eight
          shift-invert solves for few pairs; eigensolve dominates.
  gaps    `magspec gaps` on a 3x3 superlattice: one solve for 78 pairs,
          where Krylov work, back-transform and memory dominate.
  curved  `magspec solve` with a non-constant metric: the only workload
          whose gauge goes through quadrature, so fieldgeom/expr work.
  small   library calls on a 48x48 grid: the dense eigensolver branch and
          the only x-edge phases (random polynomial gauge changes).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from magspec import cli
from magspec.discretize import Grid, assemble
from magspec.eigensolve import smallest_eigenpairs
from magspec.errors import DomainError
from magspec.expr import to_source
from magspec.experiments import (SweepConfig, TiledField, curved_well,
                                 fit_expansion, standard_well)
from magspec.fieldgeom import TransformedGauge, gauge_from_field, well_data
from magspec.wellmodel import mu_jk2

# Inputs per workload; "smoke" is a reduced size for the benchmark's own test.
SIZES = {
    "full": {
        "sweep": {},
        "gaps": {"tiling": 3, "h": 0.05, "N": 2, "n": 192},
        "curved": {"h": 0.05, "m": 6, "tol": 1e-8},
        "small": {"n": 48, "h": 0.1, "m": 6, "tol": 1e-8, "changes": 3},
    },
    "smoke": {
        "sweep": {"h": [0.2, 0.16, 0.13, 0.11], "m": 2},
        "gaps": {"tiling": 3, "h": 0.05, "N": 2, "n": 96},
        "curved": {"h": 0.2, "m": 3, "tol": 1e-8},
        "small": {"n": 24, "h": 0.1, "m": 3, "tol": 1e-8, "changes": 1},
    },
}

# Seconds per repetition on a 2-CPU reference sandbox; sets the count.
NOMINAL_REP_S = {
    "full": {"sweep": 15.0, "gaps": 20.0, "curved": 11.0, "small": 24.0},
    "smoke": dict.fromkeys(SIZES["smoke"], 1.0),
}

GAUGE_SHIFT_TOL = 1e-10  # ACCEPTANCE 10


@dataclass
class Outcome:
    """Checks and reference distance of one repetition."""

    checks: dict = field(default_factory=dict)  # name -> passed
    pairs: int = 0        # eigenpairs certified by residual and convergence
    ref_err: float = math.nan
    out_bytes: int = 0


def gate_solves(outcome: Outcome, probe) -> None:
    """One check per eigensolve call: every pair converged with residual <= tol."""
    for i, (tol, residuals, converged, _) in enumerate(probe.solves):
        ok = [c and r <= tol for r, c in zip(residuals, converged)]
        outcome.checks[f"solve{i}"] = all(ok)
        outcome.pairs += sum(ok)


def ground_err(well, h, lam0):
    """|lambda_0 - (h b0 + h^2 mu_00)| / h^2: distance to the two-term form."""
    return abs(lam0 - (h * well.b0 + h * h * mu_jk2(well, 0, 0))) / h ** 2


def _warm_up(setup, gauge, h):
    """Pay the first-call costs of both solver branches (shift-invert, dense)."""
    for n in (56, 24):
        smallest_eigenpairs(assemble(setup, gauge, Grid(setup.domain, n, n), h), 2)


def _run_cli(probe, argv, out_path):
    err = io.StringIO()
    with probe.span("cli", "main"), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected argv
            code = exc.code
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out_path.read_bytes() if out_path.exists() else b""


def _csv_rows(data: bytes):
    return list(csv.DictReader(io.StringIO(data.decode())))


class _CliWorkload:
    def __init__(self, size, seed, outdir):
        self.params = SIZES[size][self.name]
        self.seed = seed
        stem = outdir / f"{self.name}-{size}-s{seed}"
        self.cfg_path = stem.with_suffix(".cfg.json")
        self.out_path = stem.with_suffix(".csv")

    def _invoke(self, probe, doc):
        self.cfg_path.write_text(json.dumps(doc))
        self.out_path.unlink(missing_ok=True)
        return _run_cli(probe, [self.command, "--config", str(self.cfg_path),
                                "--out", str(self.out_path),
                                "--seed", str(self.seed)], self.out_path)


class Sweep(_CliWorkload):
    name = command = "sweep"

    def setup(self):
        f = standard_well()
        self.well = well_data(f)
        _warm_up(f, gauge_from_field(f, x_anchor=self.well.x0[0]), 0.1)
        self.doc = {"sweep": self.params} if self.params else {}
        cfg = SweepConfig.from_dict({"field": {"b": to_source(f.b_expr)}, **self.doc})
        self.m, self.records = cfg.m, cfg.m * len(cfg.h_list)
        self.digest_path = self.out_path.with_suffix(".sha256")
        self.digests = set()

    def run(self, probe) -> Outcome:
        code, data = self._invoke(probe, self.doc)
        out = Outcome(out_bytes=len(data))
        out.checks["exit"] = code == 0
        gate_solves(out, probe)
        rows = _csv_rows(data)
        m = self.m
        out.checks["records"] = (len(rows) == self.records
                                 and all(r["error"] == "" for r in rows))
        out.checks["identical"] = self._same_bytes(data)
        recs = [SimpleNamespace(h=float(r["h"]), j=int(r["j"]), error=None,
                                lambda_computed=float(r["lambda_computed"]))
                for r in rows if r["error"] == ""]
        try:
            fits = [fit_expansion(recs, j) for j in range(min(m, 2))]
        except DomainError:  # too few records to fit
            out.checks["fit"] = False
            return out
        exact = [mu_jk2(self.well, j, 0) for j in range(len(fits))]
        # ACCEPTANCE 3 tolerances
        out.checks["fit"] = (abs(fits[0].c1 - self.well.b0) <= 0.02 * self.well.b0
                             and all(abs(f.c2 - c) <= 0.1 * c
                                     for f, c in zip(fits, exact))
                             and all(f.remainder_exponent >= 2.3 for f in fits))
        out.ref_err = max(abs(f.c2 - c) / c for f, c in zip(fits, exact))
        return out

    def _same_bytes(self, data: bytes) -> bool:
        """The CSV matches every earlier one for this seed, in this run or a
        previous run in the same checkout."""
        digest = hashlib.sha256(data).hexdigest()
        if not self.digests and self.digest_path.exists():
            self.digests.add(self.digest_path.read_text().strip())
        self.digests.add(digest)
        if len(self.digests) == 1:
            self.digest_path.write_text(digest + "\n")
        return len(self.digests) == 1


class Gaps(_CliWorkload):
    name = command = "gaps"

    def setup(self):
        base = standard_well()
        tiled = TiledField(base, self.params["tiling"])
        self.well = well_data(base)
        _warm_up(tiled, tiled.gauge(), self.params["h"])

    def run(self, probe) -> Outcome:
        code, data = self._invoke(probe, {"gaps": self.params})
        out = Outcome(out_bytes=len(data))
        out.checks["exit"] = code == 0
        gate_solves(out, probe)
        rows = _csv_rows(data)
        widths = [float(r["extra"]) for r in rows if r["kind"] == "cluster"]
        gaps = [float(r["extra"]) for r in rows if r["kind"] == "gap"]
        dominating = sum(g >= 3 * max(widths[i], widths[i + 1])
                         for i, g in enumerate(gaps))
        out.checks["gaps"] = dominating >= 2
        out.ref_err = ground_err(self.well, self.params["h"],
                                 min(low for *_, low in probe.solves))
        return out


class Curved(_CliWorkload):
    name, command = "curved", "solve"

    def setup(self):
        f = curved_well()
        self.well = well_data(f)
        _warm_up(f, gauge_from_field(f, x_anchor=self.well.x0[0]), self.params["h"])
        d = f.domain
        self.doc = {"field": {"b": to_source(f.b_expr), "phi": to_source(f.phi_expr),
                              "domain": [d.x_min, d.x_max, d.y_min, d.y_max]},
                    "solve": self.params}

    def run(self, probe) -> Outcome:
        code, data = self._invoke(probe, self.doc)
        out = Outcome(out_bytes=len(data))
        out.checks["exit"] = code == 0
        gate_solves(out, probe)
        rows = _csv_rows(data)
        out.checks["pairs"] = (len(rows) == self.params["m"] and all(
            r["converged"] == "True" and float(r["residual"]) <= self.params["tol"]
            for r in rows))
        out.ref_err = ground_err(self.well, self.params["h"],
                                 float(rows[0]["lambda"]))
        return out


class Small:
    name = "small"

    def __init__(self, size, seed, outdir):
        self.params = SIZES[size][self.name]
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.chis = []
        for _ in range(self.params["changes"]):
            c = rng.uniform(-1.0, 1.0, 6)
            self.chis.append(f"{c[0]:.6f}*x + {c[1]:.6f}*y + {c[2]:.6f}*x^2 + "
                             f"{c[3]:.6f}*x*y + {c[4]:.6f}*y^2 + {c[5]:.6f}*x^2*y")

    def setup(self):
        self.field = standard_well()
        self.well = well_data(self.field)
        self.gauge = gauge_from_field(self.field, x_anchor=self.well.x0[0])
        _warm_up(self.field, self.gauge, self.params["h"])

    def run(self, probe) -> Outcome:
        p = self.params
        solve = probe.wrap(smallest_eigenpairs)
        build = probe.wrap(assemble)
        grid = Grid(self.field.domain, p["n"], p["n"])

        def spectrum(gauge):
            op = build(self.field, gauge, grid, p["h"])
            return solve(op, p["m"], tol=p["tol"], seed=self.seed).eigenvalues

        base = spectrum(self.gauge)
        out = Outcome()
        for i, chi in enumerate(self.chis):
            lam = spectrum(TransformedGauge(self.gauge, chi))
            shift = float(np.abs((lam - base) / base).max())
            out.checks[f"gauge{i}"] = shift <= GAUGE_SHIFT_TOL
        gate_solves(out, probe)
        out.ref_err = ground_err(self.well, p["h"], base[0])
        return out


WORKLOADS = {w.name: w for w in (Sweep, Gaps, Curved, Small)}
