"""Command-line interface: exit codes, output formats, determinism."""

import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import magspec
from magspec import cli, experiments
from magspec.cli import main
from magspec.discretize import Grid, assemble
from magspec.fieldgeom import gauge_from_field


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestOracle:
    def test_default_field_tables(self, capsys):
        code, out, _ = run(capsys, "oracle")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["table", "i", "k", "value"]
        table = {(r[0], r[1], r[2]): r[3] for r in rows[1:]}
        assert float(table[("well", "b0", "")]) == 1.0
        assert float(table[("well", "R0", "")]) == 0.0
        assert float(table[("mu_jk2", "0", "0")]) == pytest.approx(2.0)
        assert float(table[("mu_jk2", "0", "1")]) == pytest.approx(8.0)
        assert float(table[("c_k", "0", "")]) == pytest.approx(2.0)
        assert any(r[0] == "flat_model" for r in rows[1:])
        assert any(r[0] == "p_flat" for r in rows[1:])

    def test_gap_constants_are_mu_j0(self, capsys):
        # c_k is the bottom of the level-k ladder: the same bytes as mu_{0,k,2}
        _, out, _ = run(capsys, "oracle")
        rows = csv_rows(out)
        ck = [r[3] for r in rows if r[0] == "c_k"]
        mu0 = [r[3] for r in rows if r[0] == "mu_jk2" and r[1] == "0"]
        assert len(ck) == 4 and ck == mu0

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "oracle", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        mu00 = [d for d in doc if d["table"] == "mu_jk2"
                and d["i"] == 0 and d["k"] == 0]
        assert mu00[0]["value"] == pytest.approx(2.0)


class TestErrorHandling:
    def test_missing_config_exits_2(self, capsys):
        code, _, err = run(capsys, "oracle", "--config", "/nonexistent/x.json")
        assert code == 2
        assert "error:" in err and "not found" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "oracle", "--config", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_non_object_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "oracle", "--config", str(path))
        assert code == 2

    def test_unparseable_field_exits_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"field": {"b": "1 + (x"}})
        code, _, err = run(capsys, "oracle", "--config", cfg)
        assert code == 2

    @pytest.mark.filterwarnings("ignore:minimum not unique")
    def test_degenerate_field_exits_1(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"field": {"b": "1 + x^2"}})
        code, _, err = run(capsys, "oracle", "--config", cfg)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("command, doc, code", [
        ("solve", {"solve": {"h": "abc"}}, 2),
        ("solve", {"solve": []}, 2),
        ("oracle", {"sweep": {"h": 0.1}}, 2),
        ("gaps", {"gaps": {"tiling": "x"}}, 2),
        ("sweep", {"sweep": []}, 2),
        ("solve", {"solve": {"h": -0.1}}, 1),
        ("solve", {"solve": {"h": 0}}, 1),
        ("quasimode", {"quasimode": {"h": -0.1}}, 1),
        ("quasimode", {"quasimode": {"h": 0}}, 1),
        ("sweep", {"sweep": {"grid": {"n": "abc"}}}, 2),
        ("sweep", {"sweep": {"richardson": "false"}}, 2),
        ("sweep", {"sweep": {"quasimode": "no"}}, 2),
        ("sweep", {"sweep": {"richardson": 1}}, 2),
        ("oracle", {"field": {"b": "1 + x^2 + y^2", "phi": 5}}, 2),
        ("sweep", {"field": {"b": "1 + x^2 + y^2", "phi": 5}}, 2),
        ("sweep", {"field": {"b": "1 + (x"}}, 2),
        ("sweep", {"field": {"b": "1 + x^2 + y^2", "domain": [-2, 2, -2]}}, 2),
        ("sweep", {"field": {"b": "1 + x^2 + y^2", "domain": ["a", "b", "c", "d"]}}, 2),
        ("solve", {"solve": {"m": 2.7}}, 2),
        ("solve", {"solve": {"m": True}}, 2),
        ("solve", {"solve": {"tol": float("nan")}}, 2),
        ("solve", {"solve": {"h": "0.1"}}, 2),
        ("gaps", {"gaps": {"tiling": 3.9}}, 2),
        ("sweep", {"sweep": {"m": 2.7}}, 2),
        ("sweep", {"field": {"b": "1 + x^2 + y^2",
                             "domain": ["-2", "2", "-2", "2"]}}, 2),
        ("sweep", {"sweep": {"h": [float("nan")]}}, 2),
        ("oracle", {"sweep": {"h": []}}, 2),
        ("solve", {"solve": {"m": 10 ** 400}}, 2),
        ("solve", {"solve": {"mm": 2, "n": 40, "tolerance": 1e-3}, "sovle": {}}, 2),
        ("solve", {"solve": {"mm": 2, "n": 40}}, 2),
        ("sweep", {"sweep": {"grid": {"c": 0.5, "N": 64}}}, 2),
        ("oracle", {"field": {"b": "1 + x^2 + y^2", "metric": "0"}}, 2),
        ("gaps", {"gaps": {"p": 3}}, 2),
        ("quasimode", {"quasimode": {"m": 2}}, 2),
        ("oracle", {"solve": {"h": 0.1}, "gaps": []}, 2),
        ("solve", {"seed": -1}, 2),
        ("sweep", {"seed": -3}, 2),
        ("gaps", {"seed": -3}, 2),
        # a range that depends on the grid is the solver's: m > dim/4
        ("solve", {"solve": {"n": 32, "m": 300}}, 1),
    ])
    def test_bad_section_values_exit_with_message(self, capsys, tmp_path,
                                                  command, doc, code):
        cfg = write_config(tmp_path, doc)
        got, out, err = run(capsys, command, "--config", cfg)
        assert got == code
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("command, doc, key", [
        ("solve", {"solve": {"mm": 2, "n": 40, "tolerance": 1e-3}, "sovle": {}},
         "unknown config key sovle"),
        ("sweep", {"solve": {"mm": 2}}, "unknown config key solve.mm"),
        ("oracle", {"sweep": {"grid": {"nn": 64}}}, "unknown config key sweep.grid.nn"),
        ("sweep", {"sweep": {"h": [0.1, float("nan")]}}, "sweep.h entry"),
        ("sweep", {"sweep": {"h": [0.05, 0.1]}}, "sweep.h must"),
        ("sweep", {"sweep": {"m": 2.7}}, "sweep.m must"),
        ("sweep", {"sweep": {"grid": {"c": "a"}}}, "sweep.grid.c must"),
        ("sweep", {"sweep": {"grid": {"c": 0}}}, "sweep.grid.c must"),
        ("sweep", {"sweep": {"grid": {"n_max": "big"}}}, "sweep.grid.n_max must"),
        ("sweep", {"sweep": {"grid": {"n_max": 8}}}, "sweep.grid.n_max must"),
        ("sweep", {"sweep": {"grid": {"n": "abc"}}}, "sweep.grid.n must"),
        ("sweep", {"sweep": {"richardson": 1}}, "sweep.richardson must"),
        ("sweep", {"field": {"b": "1 + x^2 + y^2", "domain": [-2, 2, -2]}},
         "field.domain must"),
        ("sweep", {"sweep": {"h": [0.2], "grid": {"n_max": 32}}},
         "sweep.grid.n_max must be at least 64 for a Richardson pair"),
        ("oracle", {"sweep": {"h": [-0.1]}}, "sweep.h must be positive"),
        ("oracle", {"sweep": {"h": [0.05, 0.1]}},
         "sweep.h must be positive and strictly descending"),
        ("solve", {"solve": {"tol": -1}}, "solve.tol must be >= 1e-13"),
        ("solve", {"solve": {"tol": 1e-14}}, "solve.tol must be >= 1e-13"),
        ("solve", {"solve": {"m": 0}}, "solve.m must be at least 1"),
        ("gaps", {"gaps": {"m": 0}}, "gaps.m must be at least 1"),
        ("gaps", {"gaps": {"tol": -1}}, "gaps.tol must be >= 1e-13"),
        ("gaps", {"gaps": {"k": -1}}, "gaps.k must be a non-negative integer"),
        ("quasimode", {"quasimode": {"j": -1}},
         "quasimode.j must be a non-negative integer"),
        ("quasimode", {"quasimode": {"k": -1}},
         "quasimode.k must be a non-negative integer"),
    ])
    def test_errors_name_the_config_key(self, capsys, tmp_path, command, doc, key):
        cfg = write_config(tmp_path, doc)
        got, out, err = run(capsys, command, "--config", cfg)
        assert got == 2 and out == ""
        assert err.startswith(f"error: {key}")

    def test_negative_seed_flag_exits_2(self, capsys):
        # the --seed flag passes the config's check of "seed"
        code, out, err = run(capsys, "solve", "--seed", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error: seed must be a non-negative integer")

    def test_oracle_accepts_a_full_sweep_section(self, capsys, tmp_path):
        # oracle reads only sweep.h, but every sweep key is a known key
        cfg = write_config(tmp_path, {"sweep": {
            "h": [0.1, 0.05], "m": 3, "tol": 1e-9, "richardson": False,
            "quasimode": False, "grid": {"c": 0.4, "n_max": 256, "n": 64}}})
        code, out, _ = run(capsys, "oracle", "--config", cfg)
        assert code == 0 and out.startswith("table,i,k,value")

    def test_seed_flag_wins_over_config_seed(self, capsys, tmp_path,
                                             monkeypatch):
        seeds = []
        solve = cli.smallest_eigenpairs

        def spy(op, m, **kwargs):
            seeds.append(kwargs["seed"])
            return solve(op, m, **kwargs)
        monkeypatch.setattr(cli, "smallest_eigenpairs", spy)
        monkeypatch.setattr(experiments, "smallest_eigenpairs", spy)
        sec = {"solve": {"h": 0.2, "n": 32, "m": 2},
               "sweep": {"h": [0.2], "m": 1, "quasimode": False,
                         "grid": {"n": 32}}}
        plain = write_config(tmp_path, sec, "plain.json")
        seeded = write_config(tmp_path, {**sec, "seed": 5}, "seeded.json")
        _, by_flag, _ = run(capsys, "solve", "--config", plain, "--seed", "5")
        _, by_config, _ = run(capsys, "solve", "--config", seeded)
        run(capsys, "solve", "--config", seeded, "--seed", "7")
        run(capsys, "solve", "--config", plain)
        run(capsys, "sweep", "--config", seeded, "--seed", "7")
        run(capsys, "sweep", "--config", seeded)
        assert by_config == by_flag
        assert seeds == [5, 5, 7, 0, 7, 5]

    @pytest.mark.filterwarnings("ignore:flux per plaquette")
    def test_unconverged_gap_solve_exits_1(self, capsys, tmp_path, monkeypatch):
        solve = experiments.smallest_eigenpairs

        def uncertified(op, m, **kwargs):
            res = solve(op, m, **kwargs)
            res.converged[-1] = False
            return res
        monkeypatch.setattr(experiments, "smallest_eigenpairs", uncertified)
        cfg = write_config(tmp_path, {"gaps": {"tiling": 1, "h": 0.2, "N": 1,
                                               "n": 32, "m": 8}})
        code, out, err = run(capsys, "gaps", "--config", cfg)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "residual test" in err

    @pytest.mark.parametrize("flag", ["--dump-matrix", "--out", "--config"])
    def test_unusable_path_exits_2(self, capsys, tmp_path, flag, monkeypatch):
        # the path is rejected before any assembly or eigensolve work
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before the path was checked")
        monkeypatch.setattr(cli, "assemble", must_not_run)
        monkeypatch.setattr(cli, "smallest_eigenpairs", must_not_run)
        cfg = write_config(tmp_path, {"solve": {"h": 0.2, "n": 32, "m": 2}})
        path = {"--dump-matrix": str(tmp_path / "missing" / "m.mtx"),
                "--out": str(tmp_path / "missing" / "x.csv"),
                "--config": str(tmp_path)}[flag]
        args = ["solve", flag, path] + (["--config", cfg] if flag != "--config" else [])
        code, _, err = run(capsys, *args)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_failed_command_keeps_existing_out_file(self, capsys, tmp_path):
        dest = tmp_path / "x.csv"
        dest.write_text("previous\n")
        cfg = write_config(tmp_path, {"solve": {"h": -0.1, "n": 32, "m": 2}})
        code, _, _ = run(capsys, "solve", "--config", cfg, "--out", str(dest))
        assert code == 1
        assert dest.read_text() == "previous\n"

    def test_out_is_a_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "oracle", "--out", str(tmp_path))
        assert code == 2 and err.startswith("error:")

    def test_unknown_flag_exits_2(self, capsys):
        # --threads was removed: it could not limit BLAS once numpy had loaded
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--threads", "2"])
        assert exc.value.code == 2


class TestSolve:
    def test_rows_and_matrix_dump(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"solve": {"h": 0.1, "n": 40, "m": 3}})
        mtx = tmp_path / "H.mtx"
        code, out, _ = run(capsys, "solve", "--config", cfg,
                           "--dump-matrix", str(mtx))
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["j", "lambda", "lambda_predicted", "residual",
                           "converged"]
        assert len(rows) == 4
        lam0 = float(rows[1][1])
        assert 0.1 < lam0 < float(rows[1][2])
        assert mtx.exists()
        assert mtx.read_text().startswith("%%MatrixMarket")

    def test_out_file(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"solve": {"h": 0.1, "n": 40, "m": 2}})
        dest = tmp_path / "eig.csv"
        code, out, _ = run(capsys, "solve", "--config", cfg, "--out", str(dest))
        assert code == 0 and out == ""
        assert csv_rows(dest.read_text())[0][0] == "j"

    def test_prediction_on_a_constant_conformal_factor(self, capsys, tmp_path):
        # phi = 0.3 scales the metric Hessian of b by e^{-0.6}: the h^2 terms
        # are (2j + 2) e^{-0.6}, not 2j + 2; the gaps left are third order
        h = 0.05
        cfg = write_config(tmp_path, {"field": {"phi": "0.3"},
                                      "solve": {"h": h, "m": 3}})
        code, out, err = run(capsys, "solve", "--config", cfg)
        assert code == 0, err
        for row in csv_rows(out)[1:]:
            assert abs(float(row[1]) - float(row[2])) <= 0.5 * h * h, row


    def test_solve_shifts_at_the_law_level_m(self, capsys, tmp_path,
                                              monkeypatch):
        # the two-term law's level m lies above lambda_m: the shifted run
        # answers, with the same rows as the request without it
        results, solve = [], cli.smallest_eigenpairs

        def spy(op, m, **kwargs):
            results.append((kwargs.get("above"), solve(op, m, **kwargs)))
            return results[-1][1]
        monkeypatch.setattr(cli, "smallest_eigenpairs", spy)
        cfg = write_config(tmp_path, {"solve": {"h": 0.1, "n": 40, "m": 3}})
        code, out, err = run(capsys, "solve", "--config", cfg)
        assert code == 0, err
        (above, res), = results
        assert above == pytest.approx(0.1 + 0.01 * 8)  # h b0 + h^2 (2m + 2)
        assert res.shift == res.count_shift == above
        rows = csv_rows(out)[1:]
        assert [float(r[2]) for r in rows] == pytest.approx(
            [0.1 + 0.01 * (2 * j + 2) for j in range(3)])
        monkeypatch.setattr(cli, "smallest_eigenpairs",
                            lambda op, m, above, **kwargs: solve(op, m, **kwargs))
        _, today, _ = run(capsys, "solve", "--config", cfg)
        for row, old in zip(rows, csv_rows(today)[1:]):
            assert float(row[1]) == pytest.approx(float(old[1]), rel=1e-12)
            assert float(row[3]) <= 1e-8 and row[4] == "True"

    def test_cli_import_leaves_scipy_io_out(self):
        # only --dump-matrix writes Matrix Market: every other command runs
        # without importing scipy.io
        src = pathlib.Path(magspec.__file__).parents[1]
        probe = ("import sys, magspec.cli; "
                 "print('scipy.io' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"

    def test_dump_matrix_is_mmwrite_of_the_operator(self, capsys, tmp_path):
        import scipy.io
        cfg = write_config(tmp_path, {"solve": {"h": 0.1, "n": 40, "m": 2}})
        mtx = tmp_path / "H.mtx"
        code, _, _ = run(capsys, "solve", "--config", cfg,
                         "--dump-matrix", str(mtx))
        assert code == 0
        setup = experiments.field_setup({})
        op = assemble(setup, gauge_from_field(setup, x_anchor=0.0),
                      Grid(setup.domain, 40, 40), 0.1)
        ref = io.BytesIO()
        scipy.io.mmwrite(ref, op.H.tocoo(), symmetry="hermitian")
        assert mtx.read_bytes() == ref.getvalue()


@pytest.mark.parametrize("command, sec", [
    ("solve", {"solve": {"h": 0.5, "m": 2}}),
    ("sweep", {"sweep": {"h": [0.5], "m": 2, "quasimode": False}}),
])
def test_field_b_defaults_key_by_key(capsys, tmp_path, command, sec):
    # a field section without b takes the documented b, as it takes domain
    field = {"domain": [-3, 3, -3, 3]}
    bare = write_config(tmp_path, {"field": field, **sec}, "bare.json")
    full = write_config(tmp_path, {"field": {**field, "b": "1 + x^2 + y^2"},
                                   **sec}, "full.json")
    code, out, err = run(capsys, command, "--config", bare)
    assert code == 0, err
    assert out == run(capsys, command, "--config", full)[1]


class TestSweep:
    CFG = {"field": {"b": "1 + x^2 + y^2", "domain": [-2, 2, -2, 2]},
           "sweep": {"h": [0.1, 0.08], "m": 2, "quasimode": False,
                     "grid": {"n": 32}}}

    def test_reruns_byte_identical(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        outs = []
        for name in ("a.csv", "b.csv"):
            dest = tmp_path / name
            code, _, _ = run(capsys, "sweep", "--config", cfg, "--out", str(dest))
            assert code == 0
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]

    def test_ground_level_increases_with_h(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        rows = csv_rows(out)
        lam = {float(r[0]): float(r[2]) for r in rows[1:] if r[1] == "0"}
        assert lam[0.08] < lam[0.1]
        assert "fit j=0" in err  # fit diagnostics go to stderr, not stdout

    def test_fit_line(self, capsys, tmp_path):
        # four h values leave the fit a degree of freedom, so it succeeds
        cfg = write_config(tmp_path, {"sweep": {"h": [0.2, 0.16, 0.13, 0.11], "m": 2,
                                                "quasimode": False, "grid": {"n": 32}}})
        code, _, err = run(capsys, "sweep", "--config", cfg)
        assert code == 0, err
        assert "fit j=0: c1=" in err

    def test_json_output(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        dest = tmp_path / "r.json"
        code, _, _ = run(capsys, "sweep", "--config", cfg,
                         "--format", "json", "--out", str(dest))
        assert code == 0
        doc = json.loads(dest.read_text())
        assert {d["j"] for d in doc} == {0, 1}

    def test_json_output_has_no_nan(self, capsys, tmp_path):
        # JSON (RFC 8259) has no NaN: the residual of j >= 1 is written null
        cfg = write_config(tmp_path, {"sweep": {"h": [0.2], "m": 2,
                                                "grid": {"n": 32}}})
        code, out, err = run(capsys, "sweep", "--config", cfg, "--format", "json")
        assert code == 0, err

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        rows = json.loads(out, parse_constant=reject)
        assert [r["j"] for r in rows] == [0, 1]
        assert rows[0]["quasimode_residual"] > 0
        assert rows[1]["quasimode_residual"] is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_coarse_h_pair_is_two_grids(self, capsys, tmp_path):
        # grid_size gives 32 at h = 0.5; the pair is (64, 32), not (32, 32),
        # which would extrapolate 0/0
        cfg = write_config(tmp_path, {"sweep": {"h": [0.5], "m": 2,
                                                "quasimode": False}})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert code == 0, err
        rows = csv_rows(out)[1:]
        assert [r[1] for r in rows] == ["0", "1"]
        assert all(r[-1] == "" and math.isfinite(float(r[2])) for r in rows)
        assert {r[6] for r in rows} == {"64"}


class TestQuasimode:
    def test_field_dump(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"quasimode": {"h": 0.1, "n": 40}})
        code, out, err = run(capsys, "quasimode", "--config", cfg)
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["x", "y", "re", "im"]
        assert len(rows) == 1 + 40 * 40
        assert "residual" in err

    def test_each_axis_sized_from_its_own_side(self, capsys, tmp_path):
        # grid_size(4, 0.2) = 60 and grid_size(8, 0.2) = 120
        cfg = write_config(tmp_path, {"field": {"domain": [-2, 2, -4, 4]},
                                      "quasimode": {"h": 0.2}})
        code, out, err = run(capsys, "quasimode", "--config", cfg)
        assert code == 0, err
        assert len(csv_rows(out)) == 1 + 60 * 120

    def test_state_sized_by_the_coordinate_field(self, capsys, tmp_path):
        # with phi = 0.3 the well's coordinate field is e^{0.6} b0; a state
        # sized by b0 left a residual of 9.9e-2, against 1.9e-2 at phi = 0
        cfg = write_config(tmp_path, {"field": {"phi": "0.3"},
                                      "quasimode": {"h": 0.05, "n": 128}})
        code, _, err = run(capsys, "quasimode", "--config", cfg)
        assert code == 0, err
        assert float(re.search(r"residual at \S+ (\S+)", err).group(1)) <= 2.5e-2


def test_gaps_rows(capsys, tmp_path):
    cfg = write_config(tmp_path, {"gaps": {"tiling": 3, "h": 0.05, "N": 2, "n": 96}})
    code, out, err = run(capsys, "gaps", "--config", cfg)
    assert code == 0, err
    rows = csv_rows(out)
    assert rows[0] == ["kind", "lo", "hi", "extra"]
    assert rows[1][0] == "window"
    gaps = [r for r in rows[2:] if r[0] == "gap"]
    assert gaps
    for _, lo, hi, extra in gaps:
        assert float(extra) == float(hi) - float(lo)
    assert "dominating gaps" in err


def test_check_identities(capsys):
    code, out, _ = run(capsys, "check-identities")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["check", "status"]
    assert all(r[1] == "ok" for r in rows[1:])


def test_version_matches_pyproject():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
    assert magspec.__version__ == declared.group(1)
