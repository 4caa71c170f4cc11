"""Sweep orchestration, expansion fits, lower-bound checks, tilings, gaps."""

import dataclasses
import io
import json
import math
import pathlib
import re

import numpy as np
import pytest
import scipy.integrate

from magspec import experiments
from magspec.discretize import Grid
from magspec.eigensolve import EigenResult
from magspec.errors import ConfigError, DomainError
from magspec.experiments import (DEFAULTS, SCHEMA, GapReport, SweepConfig,
                                 SweepRecord, TiledField, check_keys,
                                 curved_well, detect_gaps,
                                 fit_expansion, grid_size, montgomery_check,
                                 record_table, richardson, run_gap_experiment,
                                 run_sweep, section, standard_well, write_table)
from magspec.fieldgeom import FieldSetup, Rectangle, gauge_from_field
from magspec.wellmodel import WellData, mu_jk2


class TestGridSize:
    def test_formula(self):
        assert grid_size(4.0, 0.05) == math.ceil(4.0 / (0.5 * 0.05 ** 1.25))

    def test_clamps(self):
        assert grid_size(4.0, 10.0) == 32
        assert grid_size(4.0, 1e-4, n_max=500) == 500

    def test_monotone_in_h(self):
        sizes = [grid_size(4.0, h) for h in (0.1, 0.08, 0.06, 0.05, 0.04)]
        assert sizes == sorted(sizes)


class TestSweepGrid:
    # the fine member of each Richardson pair; `_sweep_grid` is square here
    STD = standard_well().domain

    def sizes(self, hs=(0.1, 0.08, 0.06, 0.05), **kw):
        cfg = SweepConfig(b="1 + x^2 + y^2", h_list=hs, **kw)
        return [experiments._sweep_grid(cfg, self.STD, h).nx for h in hs]

    def test_default_pair_grids(self):
        # n ~ h^{-3/4} below h = 0.1, against grid_size's 143/189/270/339
        assert self.sizes() == [143, 169, 209, 240]

    def test_grid_size_at_and_above_point_one(self):
        # down to the pair's floor of 64, so that its half keeps 32
        hs = (0.4, 0.2, 0.16, 0.13, 0.1)
        assert self.sizes(hs) == [max(64, grid_size(4.0, h)) for h in hs]

    def test_single_grids_keep_grid_size(self):
        hs = (0.1, 0.08, 0.06, 0.05)
        assert self.sizes(richardson=False) == [grid_size(4.0, h) for h in hs]
        assert self.sizes(n_fixed=64) == [64] * 4
        assert self.sizes(n_fixed=64, richardson=False) == [64] * 4

    def test_never_finer_than_grid_size(self):
        hs = tuple(np.geomspace(0.5, 0.005, 40))
        for got, h in zip(self.sizes(hs), hs):
            assert 64 <= got <= max(64, grid_size(4.0, h))

    def test_c_scales_and_n_max_caps(self):
        # c scales n by 1/c (up to the ceiling); n_max caps it
        assert self.sizes(grid_c=0.25) == [285, 337, 418, 479]
        assert self.sizes(n_max=200) == [143, 169, 200, 200]
        assert self.sizes((0.05, 0.01), n_max=300) == [240, 300]
        assert self.sizes((10.0,)) == [64]
        assert self.sizes((10.0,), richardson=False) == [32]


class TestSweepConfig:
    def test_from_dict_round_trip(self):
        doc = {"field": {"b": "1 + x^2 + y^2", "domain": [-2, 2, -2, 2]},
               "sweep": {"h": [0.1, 0.05], "m": 3, "tol": 1e-9,
                         "grid": {"c": 0.4, "n_max": 256}},
               "seed": 5}
        cfg = SweepConfig.from_dict(doc)
        assert cfg.b == "1 + x^2 + y^2"
        assert cfg.h_list == (0.1, 0.05)
        assert cfg.m == 3 and cfg.tol == 1e-9
        assert cfg.grid_c == 0.4 and cfg.n_max == 256
        assert cfg.seed == 5

    def test_h_list_must_descend(self):
        with pytest.raises(ConfigError, match="sweep.h"):
            SweepConfig(b="1", h_list=(0.05, 0.1))
        with pytest.raises(ConfigError, match="sweep.h"):
            SweepConfig(b="1", h_list=(0.1, -0.05))

    def test_bad_grid_policy(self):
        with pytest.raises(ConfigError, match="sweep.grid.c"):
            SweepConfig(b="1", h_list=(0.1,), grid_c=0.0)
        with pytest.raises(ConfigError, match="sweep.grid.n_max"):
            SweepConfig(b="1", h_list=(0.1,), n_max=8)

    def test_from_dict_keeps_defaults_and_whole_floats(self):
        # keys left out take the dataclass defaults; 6.0 is a whole number
        cfg = SweepConfig.from_dict({"field": {"b": "1 + x^2 + y^2"},
                                     "sweep": {"m": 4.0}})
        assert cfg == SweepConfig(b="1 + x^2 + y^2", m=4)
        assert isinstance(cfg.m, int)
        assert cfg.h_list == (0.1, 0.08, 0.06, 0.05)

    def test_from_dict_missing_b_takes_default(self):
        # field.b defaults key by key, as field.domain does
        assert SweepConfig.from_dict({"sweep": {}}) == SweepConfig()
        assert SweepConfig.from_dict({"field": {"phi": "0"}}).b == "1 + x^2 + y^2"

    @pytest.mark.parametrize("doc, key", [
        ({"sweep": {"hh": [0.1]}}, "sweep.hh"),
        ({"sweep": {"grid": {"c": 0.5, "nmax": 64}}}, "sweep.grid.nmax"),
        ({"sovle": {}}, "sovle"),
        ({"field": {"b": "1 + x^2 + y^2", "metric": "0"}}, "field.metric"),
    ])
    def test_from_dict_rejects_unknown_keys(self, doc, key):
        doc = {"field": {"b": "1 + x^2 + y^2"}, **doc}
        with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
            SweepConfig.from_dict(doc)

    @pytest.mark.parametrize("bad, key", [
        ({"h_list": ("a",)}, "sweep.h"),
        ({"h_list": (0.1,), "n_fixed": "x"}, "sweep.grid.n"),
        ({"h_list": (0.1,), "domain": ("a", 2, -2, 2)}, "field.domain"),
        ({"h_list": (0.1,), "m": "6"}, "sweep.m"),
        ({"h_list": (0.1,), "m": 2.5}, "sweep.m"),
        ({"h_list": (0.1,), "tol": "x"}, "sweep.tol"),
        ({"h_list": (0.1,), "tol": -1.0}, "sweep.tol"),
        ({"h_list": (0.1,), "tol": float("nan")}, "sweep.tol"),
        ({"h_list": (0.1,), "grid_c": "a"}, "sweep.grid.c"),
        ({"h_list": (0.1,), "n_max": "big"}, "sweep.grid.n_max"),
        ({"h_list": (0.1,), "seed": "s"}, "seed"),
        ({"h_list": (float("nan"),)}, "sweep.h"),
        ({"h_list": (0.1,), "tol": float("inf")}, "sweep.tol"),
        ({"h_list": (0.1,), "m": True}, "sweep.m"),
        ({"h_list": (0.1,), "domain": ("-2", "2", "-2", "2")}, "field.domain")],
        ids=["h_list", "n_fixed", "domain", "m", "m-fraction",
             "tol", "tol-negative", "tol-nan", "grid_c",
             "n_max", "seed", "h_list-nan", "tol-inf",
             "m-bool", "domain-strings"])
    def test_non_numeric_entries_are_config_errors(self, bad, key):
        # constructed directly, not only through from_dict; a number out of
        # its range (a fractional m, a tol that is not finite and positive)
        # is rejected with the non-numbers, and the error names the config key
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}\b"):
            SweepConfig(b="1", **bad)

    def test_negative_seed_is_a_config_error(self):
        # numpy's generators take only non-negative seeds
        with pytest.raises(ConfigError, match="^seed must be a non-negative"):
            SweepConfig(seed=-1)


def _flatten(doc, prefix=""):
    """{dotted key: value} of a config; lists become tuples."""
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = tuple(value) if isinstance(value, list) else value
    return flat


def test_readme_schema_block_is_the_table():
    # the JSON block under "Config schema" documents every key's default
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"Config schema.*?```json\n(.*?)```", readme.read_text(),
                      re.S).group(1)
    doc = json.loads(block)
    flat = _flatten(doc)
    assert set(flat) == set(SCHEMA)
    assert flat == DEFAULTS
    check_keys(doc)
    for name in {path.rpartition(".")[0] for path in SCHEMA}:
        assert section(doc, name) == section({}, name)
    assert SweepConfig.from_dict(doc) == SweepConfig()


class TestRichardson:
    def test_recovers_limit_on_real_spacings(self):
        # the default sweep's h = 0.06 pair: spacing ratio^2 = 3.9706, not 4
        dx_f, dx_c = 4.0 / 271, 4.0 / 136
        lam, c = 0.0637, 1.7
        got = richardson(lam + c * dx_f ** 2, dx_f, lam + c * dx_c ** 2, dx_c)
        assert got == pytest.approx(lam, rel=1e-14)
        # the halving formula keeps about 1% of the c dx_f^2 error there
        old = (4 * (lam + c * dx_f ** 2) - (lam + c * dx_c ** 2)) / 3
        assert abs(old - lam) > 1e-3 * c * dx_f ** 2

    def test_exact_halving_is_the_classical_formula(self):
        # dx = 4/340 and 4/170: the ratio is exactly 2
        assert richardson(0.3, 4.0 / 340, 0.7, 4.0 / 170) == (4 * 0.3 - 0.7) / 3


class TestRunSweep:
    def test_empty_h_list_yields_no_records(self):
        assert run_sweep(SweepConfig(b="1 + x^2 + y^2", h_list=())) == []

    def test_single_h_brackets_ground_state(self):
        cfg = SweepConfig(b="1 + x^2 + y^2", h_list=(0.1,), n_fixed=48, m=2)
        recs = run_sweep(cfg)
        assert [(r.h, r.j) for r in recs] == [(0.1, 0), (0.1, 1)]
        r0 = recs[0]
        assert r0.error is None
        assert 0.1 * 1.0 < r0.lambda_computed < r0.lambda_predicted
        assert r0.lambda_predicted == pytest.approx(0.12)
        assert r0.solver_residual <= 1e-8
        assert math.isfinite(r0.quasimode_residual)
        assert math.isnan(recs[1].quasimode_residual)
        assert r0.n == 48

    def test_quasimode_toggle_off(self):
        cfg = SweepConfig(b="1 + x^2 + y^2", h_list=(0.1,), n_fixed=48,
                          m=1, quasimode=False)
        (r,) = run_sweep(cfg)
        assert math.isnan(r.quasimode_residual)

    def test_n_column_is_the_x_axis(self, monkeypatch):
        # a 4 x 8 domain solves on 64 x 120 (and 32 x 60); the n column
        # holds nx, so it reads 64
        grids, solve = [], experiments.smallest_eigenpairs

        def spy(op, m, **kwargs):
            grids.append((op.grid.nx, op.grid.ny))
            return solve(op, m, **kwargs)
        monkeypatch.setattr(experiments, "smallest_eigenpairs", spy)
        cfg = SweepConfig.from_dict({"field": {"domain": [-2, 2, -4, 4]},
                                     "sweep": {"h": [0.2], "m": 1,
                                               "quasimode": False}})
        (r,) = run_sweep(cfg)
        assert grids == [(64, 120), (32, 60)]
        assert r.error is None and r.n == 64

    def test_degenerate_field_produces_failure_record(self):
        recs = run_sweep(SweepConfig(b="x", h_list=(0.1,)))
        assert len(recs) == 1
        assert recs[0].error is not None
        assert math.isnan(recs[0].h)

    def test_solver_failures_recorded_per_h(self):
        # a tolerance below the solver floor fails inside the per-h loop;
        # each h still gets its own failure record instead of aborting
        cfg = SweepConfig(b="1 + x^2 + y^2", h_list=(0.1, 0.05), n_fixed=32,
                          m=1, tol=1e-14)
        recs = run_sweep(cfg)
        assert [r.h for r in recs] == [0.05, 0.1]
        assert all(r.error is not None for r in recs)
        assert all(math.isnan(r.lambda_computed) for r in recs)


class TestGapExperiment:
    def test_clusters_hold_one_state_per_well(self):
        rep = run_gap_experiment(p=3, h=0.05, N=2, n=96)
        assert len(rep.sizes) >= 3 and set(rep.sizes) == {9}
        assert "warning" not in rep.message

    def test_missing_state_is_flagged(self, monkeypatch):
        # the standard well's nine-fold rungs h + h^2 (2, 4, 6, 8), one state
        # of the second missing
        h = 0.05
        vals = np.delete(np.repeat(h + h * h * np.array([2.0, 4, 6, 8]), 9), 9)

        def solve(op, m, **kwargs):
            return EigenResult(eigenvalues=vals, residuals=np.zeros(vals.size),
                               iterations=0, converged=np.ones(vals.size, bool),
                               shift=0.0)
        monkeypatch.setattr(experiments, "smallest_eigenpairs", solve)
        rep = run_gap_experiment(p=3, h=h, N=2, n=96)
        assert rep.sizes == (9, 8, 9) and rep.passed
        assert rep.message.endswith("; warning: cluster sizes 9, 8, 9, "
                                    "expected 9 each")


def _uncertify(monkeypatch, fail_dim):
    """Make the solver report its last pair unconverged at dimension
    `fail_dim`."""
    solve = experiments.smallest_eigenpairs

    def patched(op, m, **kwargs):
        res = solve(op, m, **kwargs)
        if op.dim == fail_dim:
            res.converged[-1] = False
        return res
    monkeypatch.setattr(experiments, "smallest_eigenpairs", patched)


class TestCertification:
    # full grids 64 (the pair's floor) and 80, half grids 32 and 40: four
    # distinct dimensions
    CFG = dict(b="1 + x^2 + y^2", h_list=(0.2, 0.16), m=2, quasimode=False)

    def test_unconverged_pair_fails_its_h(self, monkeypatch):
        n = max(64, grid_size(4.0, 0.2))
        _uncertify(monkeypatch, fail_dim=n * n)
        recs = run_sweep(SweepConfig(**self.CFG))
        assert [(r.h, r.j) for r in recs] == [(0.16, 0), (0.16, 1), (0.2, -1)]
        assert "1 of 2 eigenpairs failed the residual test" in recs[-1].error

    def test_unconverged_half_grid_pair_fails_its_h(self, monkeypatch):
        n = grid_size(4.0, 0.16) // 2
        _uncertify(monkeypatch, fail_dim=n * n)
        recs = run_sweep(SweepConfig(**self.CFG))
        assert [(r.h, r.j) for r in recs] == [(0.16, -1), (0.2, 0), (0.2, 1)]
        assert "failed the residual test" in recs[0].error


class TestFitExpansion:
    def _records(self, hs, lam_fn):
        return [SweepRecord(h=h, j=0, lambda_computed=lam_fn(h),
                            lambda_predicted=0.0, solver_residual=0.0,
                            quasimode_residual=0.0, n=0) for h in hs]

    def test_exact_model_recovered(self):
        hs = (0.1, 0.08, 0.06, 0.05, 0.04)
        recs = self._records(hs, lambda h: 1.3 * h + 2.7 * h ** 2 + 0.4 * h ** 2.5)
        fit = fit_expansion(recs)
        assert fit.c1 == pytest.approx(1.3, abs=1e-10)
        assert fit.c2 == pytest.approx(2.7, abs=1e-8)
        assert fit.c52 == pytest.approx(0.4, abs=1e-6)
        assert fit.remainder_exponent == math.inf or fit.remainder_exponent > 2.4

    def test_planted_remainder_exponent(self):
        hs = tuple(np.geomspace(0.1, 0.02, 8))
        recs = self._records(hs, lambda h: h + 2.0 * h ** 2 + 0.7 * h ** 2.5)
        fit = fit_expansion(recs)
        assert fit.remainder_exponent == pytest.approx(2.5, abs=0.05)

    def test_needs_four_distinct_h(self):
        recs = self._records((0.1, 0.08, 0.06), lambda h: h)
        with pytest.raises(DomainError, match="at least 4 distinct h"):
            fit_expansion(recs)

    def test_failure_records_excluded(self):
        recs = self._records((0.1, 0.08, 0.06, 0.05), lambda h: h + h ** 2)
        recs.append(SweepRecord(h=0.04, j=-1, lambda_computed=math.nan,
                                lambda_predicted=math.nan,
                                solver_residual=math.nan,
                                quasimode_residual=math.nan, n=0, error="boom"))
        fit = fit_expansion(recs)
        assert fit.c1 == pytest.approx(1.0, abs=1e-9)


class TestMontgomeryCheck:
    def test_random_bumps_respect_lower_bound(self):
        setup = standard_well()
        grid = Grid(setup.domain, 64, 64)
        rep = montgomery_check(setup, grid, 0.05, n_random=10)
        assert len(rep.ratios) == 10
        assert rep.min_ratio == min(rep.ratios)
        assert rep.min_ratio >= 0.98

    def test_deterministic_in_seed(self):
        setup = standard_well()
        grid = Grid(setup.domain, 32, 32)
        a = montgomery_check(setup, grid, 0.1, n_random=4, seed=3)
        b = montgomery_check(setup, grid, 0.1, n_random=4, seed=3)
        assert a.ratios == b.ratios

    @pytest.mark.filterwarnings("ignore:flux per plaquette")
    def test_zero_mass_trial_rejected(self):
        setup = standard_well()
        grid = Grid(setup.domain, 16, 16)
        with pytest.raises(DomainError, match="zero field mass"):
            montgomery_check(setup, grid, 0.1, trials=[np.zeros(grid.size)],
                             n_random=0)


class TestTiledField:
    def test_even_order_rejected(self):
        with pytest.raises(DomainError, match="odd"):
            TiledField(standard_well(), 2)

    def test_offcenter_cell_rejected(self):
        s = FieldSetup("1 + (x - 0.5)^2 + y^2", None, Rectangle(0.0, 2.0, -1.0, 1.0))
        with pytest.raises(DomainError, match="centered"):
            TiledField(s, 3)

    def test_nonpolynomial_field_rejected(self):
        s = FieldSetup("2 + sin(x)*cos(y)", None, Rectangle(-2.0, 2.0, -2.0, 2.0))
        with pytest.raises(DomainError, match="polynomial"):
            TiledField(s, 3)

    def test_nonconstant_phi_rejected(self):
        with pytest.raises(DomainError, match="constant phi"):
            TiledField(curved_well(), 3)

    def test_periodicity(self):
        tf = TiledField(standard_well(), 3)
        assert tf.domain.width == pytest.approx(12.0)
        pts = [(0.3, 0.2), (-1.7, 1.1), (1.9, -1.9)]
        for x, y in pts:
            assert float(tf.B(x + 4.0, y)) == pytest.approx(float(tf.B(x, y)), rel=1e-14)
            assert float(tf.B(x, y - 8.0)) == pytest.approx(float(tf.B(x, y)), rel=1e-14)

    def test_trivial_tiling_gauge_matches_base(self):
        s = standard_well()
        g1 = TiledField(s, 1).gauge()
        g0 = gauge_from_field(s, x_anchor=0.0)
        xs = np.linspace(-1.9, 1.9, 7)
        ys = np.linspace(-1.8, 1.8, 6)
        diff = np.abs(g1.y_edge_integrals(xs, ys) - g0.y_edge_integrals(xs, ys))
        assert diff.max() <= 1e-13

    def test_gauge_exact_across_seams(self):
        tf = TiledField(standard_well(), 3)
        g = tf.gauge()
        xs = np.array([1.7, 2.3])  # straddling the x = 2 cell seam
        ys = np.array([1.8, 2.2])  # edge crossing the y = 2 seam
        out = g.y_edge_integrals(xs, ys)
        for i, x in enumerate(xs):
            # flux of B through [0, x] x [1.8, 2.2], split at the seams
            q = sum(scipy.integrate.dblquad(lambda t, u: float(tf.B(u, t)), x0, x1,
                                            y0, y1, epsabs=1e-13, epsrel=1e-13)[0]
                    for x0, x1 in ((0.0, min(x, 2.0)), (2.0, max(x, 2.0)))
                    for y0, y1 in ((1.8, 2.0), (2.0, 2.2)))
            assert out[i, 0] == pytest.approx(q, rel=1e-12, abs=1e-13)

    def test_gauge_derivative_recovers_tiled_field(self):
        # I[i+1, j] - I[i, j] is the flux of B through the cell between
        # the two edges; checked in three different tiles
        tf = TiledField(standard_well(), 3)
        g = tf.gauge()
        for x0, y0 in ((0.4, -0.7), (2.6, 1.2), (-3.8, 3.1)):
            xs, ys = np.array([x0, x0 + 0.15]), np.array([y0, y0 + 0.1])
            I = g.y_edge_integrals(xs, ys)
            q, _ = scipy.integrate.dblquad(lambda t, u: float(tf.B(u, t)), *xs, *ys,
                                           epsabs=1e-13, epsrel=1e-13)
            assert I[1, 0] - I[0, 0] == pytest.approx(q, rel=1e-11)


class TestDetectGaps:
    WELL = WellData(1.0, 1.0, 1.0)

    def _synthetic(self, h, centers, spread, per=9):
        vals = []
        for c in centers:
            vals.extend(np.linspace(c - spread / 2, c + spread / 2, per))
        return np.array(vals)

    def test_clean_clusters_pass(self):
        h = 0.05
        centers = [h + h * h * (2 + 2 * k) for k in range(4)]
        vals = self._synthetic(h, centers, spread=1e-4 * h * h)
        rep = detect_gaps(vals, h, self.WELL, k=0, N=2)
        assert rep.passed
        assert len(rep.clusters) >= 3
        # gaps are disjoint, ordered, and inside the window
        lo, hi = rep.window
        last = lo
        for glo, ghi in rep.gaps:
            assert lo <= glo < ghi <= hi
            assert glo >= last
            last = ghi

    def test_wide_clusters_fail(self):
        h = 0.05
        centers = [h + h * h * (2 + 2 * k) for k in range(4)]
        # densely sampled wide clusters merge with their neighbors: the
        # inter-cluster gap (0.8 h^2) never reaches 5x the in-cluster spread
        vals = self._synthetic(h, centers, spread=1.2 * h * h, per=40)
        rep = detect_gaps(vals, h, self.WELL, k=0, N=2)
        assert not rep.passed

    def test_truncated_top_cluster_left_out(self):
        # m stops one state into the fourth nine-fold cluster, which lies
        # inside the window: it is left out instead of reported with width 0
        h = 0.05
        centers = [h + h * h * (2 + 2 * k) for k in range(4)]
        vals = self._synthetic(h, centers, spread=1e-4 * h * h)[:28]
        rep = detect_gaps(vals, h, self.WELL, k=0, N=2)
        assert len(rep.clusters) == 3 and len(rep.gaps) == 2
        assert all(width > 0 for *_, width in rep.clusters)
        assert rep.clusters[-1][1] < centers[3]
        assert rep.passed
        assert rep.message.startswith("3 clusters, 2 dominating gaps")
        assert "left out the top cluster" in rep.message and "(1 computed)" in rep.message

    def test_cluster_sizes(self):
        # the second rung lacks one of its nine states; the top cluster,
        # which holds the largest value, is left out
        h = 0.05
        centers = [h + h * h * (2 + 2 * k) for k in range(4)]
        vals = np.delete(self._synthetic(h, centers, spread=1e-4 * h * h), 9)
        rep = detect_gaps(vals, h, self.WELL, k=0, N=2)
        assert rep.sizes == (9, 8, 9)

    def test_cluster_below_a_computed_value_is_kept(self):
        # a value computed above the window completes the top cluster inside
        h = 0.05
        centers = [h + h * h * (2 + 2 * k) for k in range(4)]
        vals = np.append(self._synthetic(h, centers, spread=1e-4 * h * h),
                         h + h * h * 20)
        rep = detect_gaps(vals, h, self.WELL, k=0, N=2)
        assert len(rep.clusters) == 4 and len(rep.gaps) == 3
        assert "left out" not in rep.message

    def test_window_starts_at_gap_constant(self):
        # the lower edge is (2k+1) h b0 + h^2 c_k with c_k = mu_{0,k,2}
        well = WellData(2.0, 3.0, 0.5, R0=0.7)
        h = 0.05
        for k in range(3):
            rep = detect_gaps(np.array([]), h, well, k=k, N=0)
            assert rep.window[0] == (2 * k + 1) * h * well.b0 + h * h * mu_jk2(well, 0, k)

    def test_trivial_request_passes(self):
        rep = detect_gaps(np.array([]), 0.05, self.WELL, k=0, N=0)
        assert rep.passed and rep.clusters == ()

    def test_empty_window_is_an_error(self):
        with pytest.raises(DomainError, match="window empty"):
            detect_gaps(np.array([10.0, 20.0]), 0.05, self.WELL, k=0, N=2)

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            detect_gaps(np.array([0.1]), 0.05, self.WELL, N=-1)


class TestPersistence:
    def _records(self):
        recs = [SweepRecord(h=0.1, j=0, lambda_computed=0.11511230046014553,
                            lambda_predicted=0.12, solver_residual=3.1e-14,
                            quasimode_residual=0.0853, n=48),
                SweepRecord(h=0.05, j=-1, lambda_computed=math.nan,
                            lambda_predicted=math.nan, solver_residual=math.nan,
                            quasimode_residual=math.nan, n=0, error="boom")]
        return recs

    def test_csv_reruns_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            write_table(*record_table(self._records()), p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_shape_and_error_column(self):
        buf = io.StringIO()
        write_table(*record_table(self._records()), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].split(",")[:3] == ["h", "j", "lambda_computed"]
        assert lines[0].split(",")[-1] == "error"
        assert lines[1].startswith("0.10000000000000001,0,0.11511230046014553")
        assert lines[2].endswith(",boom")

    def test_json_round_trip(self, tmp_path):
        import json
        p = tmp_path / "r.json"
        write_table(*record_table(self._records()), p, "json")
        q = tmp_path / "r2.json"
        write_table(*record_table(self._records()), q, "json")
        assert p.read_bytes() == q.read_bytes()
        doc = json.loads(p.read_text().replace("NaN", "null"))
        assert doc[0]["lambda_computed"] == 0.11511230046014553
        assert doc[1]["error"] == "boom"
