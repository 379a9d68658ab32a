"""The dfsearch command: exit codes, output files, reproducible reruns."""

import os
import subprocess
import sys

import numpy as np
import pytest

import dfsearch
import dfsearch.cli as cli
from dfsearch.errors import NumericalError


def _write(path, text):
    path.write_text(text)
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


class TestCurvesCommand:
    def test_writes_tables_sidecar_and_svg(self, tmp_path):
        cfg = _write(tmp_path / "c.txt", "regime=null\nlambda_count=11\nactive_count=5\n")
        out = tmp_path / "run"
        assert cli.main(["curves", "--config", cfg, "--out", str(out), "--svg"]) == 0
        for name in (
            "curves-subset.csv",
            "curves-lasso.csv",
            "curves-by-active.csv",
            "resolved-config.txt",
            "curves-subset.svg",
            "curves-by-active.svg",
        ):
            assert (out / name).exists()
        assert (out / "curves-subset.svg").read_text().lstrip().startswith("<svg")

    def test_null_regime_matches_closed_form_row(self, tmp_path):
        from dfsearch.closedform import df_subset_orthogonal

        cfg = _write(tmp_path / "c.txt", "regime=null\nlambda_count=11\n")
        out = tmp_path / "run"
        assert cli.main(["curves", "--config", cfg, "--out", str(out)]) == 0
        schema, header, rows = _read_csv(out / "curves-subset.csv")
        assert schema == "# schema: curves-v1"
        assert header == ["lambda", "t", "expected_active", "df", "sdf"]
        row = next(r for r in rows if float(r[0]) == 0.5)
        cp = df_subset_orthogonal(np.zeros(100), 1.0, 0.5)
        assert float(row[3]) == pytest.approx(cp.df, abs=1e-12)
        assert float(row[4]) == pytest.approx(cp.sdf, abs=1e-12)

    def test_rerun_from_sidecar_is_byte_identical(self, tmp_path):
        cfg = _write(tmp_path / "c.txt", "regime=sparse\nsparsity=4\np=30\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["curves", "--config", cfg, "--out", str(out1)]) == 0
        side = out1 / "resolved-config.txt"
        assert cli.main(["curves", "--config", str(side), "--out", str(out2)]) == 0
        for name in ("curves-subset.csv", "curves-lasso.csv", "curves-by-active.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert side.read_bytes() == (out2 / "resolved-config.txt").read_bytes()

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.txt", "p=10\n")
        assert cli.main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = _write(tmp_path / "c.txt", "regime=null\nbogus=1\n")
        assert cli.main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_value_exits_2(self, tmp_path):
        cfg = _write(tmp_path / "c.txt", "regime=null\np=ten\n")
        assert cli.main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.txt")
        assert cli.main(["curves", "--config", missing, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("sparsity", [-1, 31])
    def test_sparsity_out_of_range_exits_2(self, tmp_path, capsys, sparsity):
        cfg = _write(tmp_path / "c.txt", f"regime=sparse\np=30\nsparsity={sparsity}\n")
        assert cli.main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "sparsity must lie in [0, 30]" in capsys.readouterr().err


class TestSimulateCommand:
    def _cfg(self, tmp_path, extra=""):
        text = (
            "procedures=lasso,relaxed-lasso\n"
            "n=10\np=4\nblock_sizes=2,2\nsupport=0,1\n"
            "lambda_grid=0.4,1.2\nreps=8\nseed=1\n" + extra
        )
        return _write(tmp_path / "sim.txt", text)

    def test_runs_and_reruns_identically(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1), "--svg"]) == 0
        schema, header, rows = _read_csv(out1 / "simulate.csv")
        assert schema == "# schema: simulate-v1"
        assert header == [
            "procedure", "lambda", "mean_active", "df_hat", "se", "sdf_hat", "sdf_se",
        ]
        assert len(rows) == 4  # 2 procedures x 2 lambdas
        side = out1 / "resolved-config.txt"
        assert cli.main(["simulate", "--config", str(side), "--out", str(out2)]) == 0
        assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(
            ["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"]
        ) == 0
        assert (out1 / "simulate.csv").read_bytes() != (out2 / "simulate.csv").read_bytes()
        assert "seed=99" in (out2 / "resolved-config.txt").read_text()

    def test_auto_lambda_grid_recorded_in_sidecar(self, tmp_path):
        text = "procedures=lasso\nn=10\np=4\nblock_sizes=2,2\nsupport=0,1\nreps=4\nseed=0\n"
        cfg = _write(tmp_path / "sim.txt", text)
        out = tmp_path / "a"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        side = (out / "resolved-config.txt").read_text()
        grid_line = next(l for l in side.splitlines() if l.startswith("lambda_grid="))
        assert len(grid_line.split("=")[1].split(",")) == 10

    def test_best_subset_beyond_capacity_exits_3(self, tmp_path, capsys):
        text = (
            "procedures=best-subset\nn=30\np=26\ndesign=orthogonal\n"
            "signal=null\nreps=4\nseed=0\nlambda_grid=0.5,1.0\n"
        )
        cfg = _write(tmp_path / "sim.txt", text)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "capacity" in capsys.readouterr().err

    def test_best_subset_plan_beyond_capacity_exits_3(self, tmp_path, capsys):
        # 2^22 supports x 30 floats: a 960 MB plan
        text = (
            "procedures=best-subset\nn=30\np=22\nblock_sizes=11,11\n"
            "signal=null\nreps=4\nseed=0\nlambda_grid=0.5,1.0\n"
        )
        cfg = _write(tmp_path / "sim.txt", text)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "capacity" in capsys.readouterr().err

    def test_bad_support_index_exits_2(self, tmp_path):
        cfg = self._cfg(tmp_path, extra="")
        text = (tmp_path / "sim.txt").read_text().replace("support=0,1", "support=0,9")
        cfg = _write(tmp_path / "sim2.txt", text)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("support", ["-1,0", "0,4"])
    def test_support_index_out_of_range_exits_2(self, tmp_path, capsys, support):
        self._cfg(tmp_path)
        text = (tmp_path / "sim.txt").read_text().replace("support=0,1", f"support={support}")
        cfg = _write(tmp_path / "sim2.txt", text)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "support indices must lie in [0, 3]" in capsys.readouterr().err


class TestSteinCheckCommand:
    def test_library_mode_residuals_tiny(self, tmp_path):
        cfg = _write(
            tmp_path / "st.txt",
            "mode=library\nmus=-1,0.5\nsigmas=0.8,1.5\n",
        )
        out = tmp_path / "run"
        assert cli.main(["stein-check", "--config", cfg, "--out", str(out)]) == 0
        schema, header, rows = _read_csv(out / "stein-univariate.csv")
        assert schema == "# schema: stein-univariate-v1"
        assert header == ["case", "lhs", "rhs", "residual"]
        assert not (out / "stein-decompose.csv").exists()
        residuals = np.array([float(r[3]) for r in rows])
        assert residuals.max() < 1e-8

    def test_library_mode_makes_one_call_per_function_and_side(self, tmp_path, monkeypatch):
        # each call covers every (mu, sigma) pair; its rows equal scalar calls
        sides = {name: getattr(cli, name)
                 for name in ("stein_lhs_univariate", "stein_rhs_univariate")}
        calls = []
        for name, side in sides.items():
            def spy(f, mu, sigma, name=name, side=side):
                calls.append((name, np.shape(mu)))
                return side(f, mu, sigma)
            monkeypatch.setattr(cli, name, spy)
        cfg = _write(tmp_path / "st.txt", "mode=library\nmus=-1,0.5,4\nsigmas=0.25,3\n")
        out = tmp_path / "run"
        assert cli.main(["stein-check", "--config", cfg, "--out", str(out)]) == 0
        library = dfsearch.function_library()
        assert sorted(calls) == sorted((name, (6,)) for name in sides for _ in library)
        expected = []
        for label, f in library:
            for mu in (-1.0, 0.5, 4.0):
                for s in (0.25, 3.0):
                    lhs = sides["stein_lhs_univariate"](f, mu, s)
                    rhs = sides["stein_rhs_univariate"](f, mu, s)
                    expected.append([f"{label} mu={mu:g} sigma={s:g}", "%.17g" % lhs,
                                     "%.17g" % rhs, "%.17g" % abs(lhs - rhs)])
        assert _read_csv(out / "stein-univariate.csv")[2] == expected

    def test_decompose_mode_writes_table(self, tmp_path):
        cfg = _write(
            tmp_path / "st.txt",
            "mode=decompose\nn=3\nprocedures=hard-threshold,ridge\n"
            "threshold=1.0\nlambda=0.5\nreps=6\nseed=2\n",
        )
        out = tmp_path / "run"
        assert cli.main(["stein-check", "--config", cfg, "--out", str(out)]) == 0
        schema, header, rows = _read_csv(out / "stein-decompose.csv")
        assert schema == "# schema: stein-decompose-v1"
        assert [r[0] for r in rows] == ["hard-threshold", "ridge"]
        for r in rows:
            assert r[4] != ""  # closed form available in both cases
        ridge = rows[1]
        assert float(ridge[2]) == pytest.approx(0.0, abs=1e-12)
        assert float(ridge[1]) == pytest.approx(float(ridge[4]), abs=1e-6)

    def test_rerun_from_sidecar_is_byte_identical(self, tmp_path):
        cfg = _write(
            tmp_path / "st.txt",
            "mode=both\nn=3\nprocedures=hard-threshold\nmus=0\nsigmas=1\nreps=5\nseed=3\n",
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["stein-check", "--config", cfg, "--out", str(out1)]) == 0
        side = out1 / "resolved-config.txt"
        assert cli.main(["stein-check", "--config", str(side), "--out", str(out2)]) == 0
        for name in ("stein-univariate.csv", "stein-decompose.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_former_thread_variable_is_ignored(self, tmp_path, monkeypatch):
        # the package reads no environment variable, so a value that once
        # failed the run changes no byte
        cfg = _write(tmp_path / "st.txt", "mode=both\nn=3\nprocedures=hard-threshold\nreps=5\n")
        monkeypatch.delenv("DFSEARCH_THREADS", raising=False)
        assert cli.main(["stein-check", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("DFSEARCH_THREADS", "abc")
        assert cli.main(["stein-check", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        for name in ("stein-univariate.csv", "stein-decompose.csv", "resolved-config.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("grid_points", [0, 1, 15])
    def test_grid_points_below_16_exits_2(self, tmp_path, capsys, grid_points):
        cfg = _write(
            tmp_path / "st.txt",
            f"mode=decompose\nn=3\nprocedures=hard-threshold\nreps=3\n"
            f"grid_points={grid_points}\n",
        )
        out = tmp_path / "o"
        assert cli.main(["stein-check", "--config", cfg, "--out", str(out)]) == 2
        assert "grid_points must be at least 16" in capsys.readouterr().err
        assert not (out / "stein-decompose.csv").exists()

    def test_close_jumps_on_a_correlated_design_decompose(self, tmp_path):
        # a 4096-point scan finds two jumps in one cell on this design and
        # exits 4; the exact jump paths have no grid to resolve
        cfg = _write(
            tmp_path / "st.txt",
            "mode=decompose\nn=12\np=8\ndesign=block\nblock_sizes=4,4\n"
            "procedures=best-subset,relaxed-lasso\nreps=20\n",
        )
        out = tmp_path / "o"
        assert cli.main(["stein-check", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        _, _, rows = _read_csv(out / "stein-decompose.csv")
        assert [r[0] for r in rows] == ["best-subset", "relaxed-lasso"]
        assert all(float(r[2]) > 0 for r in rows)

    def test_block_design_requires_sizes(self, tmp_path):
        cfg = _write(tmp_path / "st.txt", "mode=decompose\ndesign=block\nreps=4\n")
        assert cli.main(["stein-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("extra", ["grid_points=15\n", "design=block\n"])
    def test_failing_decomposition_in_both_mode_writes_nothing(self, tmp_path, capsys, extra):
        # the library table is computed first, but nothing may be written
        # when the decomposition stage fails afterwards
        cfg = _write(
            tmp_path / "st.txt",
            "mode=both\nn=3\nprocedures=hard-threshold\nreps=3\nmus=0\nsigmas=1\n" + extra,
        )
        out = tmp_path / "o"
        assert cli.main(["stein-check", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "grid_points" in err or "block design requires block_sizes" in err
        assert not out.exists() or not any(out.iterdir())


class TestPenaltyErrors:
    @pytest.mark.parametrize("command,text,key", [
        ("stein-check", "mode=both\nprocedures=hard-threshold\nthreshold=-1\n", "threshold"),
        ("stein-check", "mode=both\nprocedures=lasso\nlambda=-0.5\n", "lambda"),
        ("stein-check", "mode=decompose\nprocedures=relaxed-lasso,ridge\nlambda=0\n", "lambda"),
        ("simulate", "procedures=lasso,ridge\nlambda_grid=0,1\n", "lambda_grid"),
        ("simulate", "procedures=best-subset\nlambda_grid=-1,1\n", "lambda_grid"),
    ])
    def test_names_the_key_before_any_work(self, tmp_path, monkeypatch, capsys, command, text,
                                           key):
        def no_work(*args):
            raise AssertionError("work started before the penalty was checked")

        monkeypatch.setattr(cli, "function_library", no_work)
        monkeypatch.setattr(cli, "_build_design", no_work)
        cfg = _write(tmp_path / "c.txt", text + "n=4\nreps=3\n")
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r}" in err and "lam " not in err
        assert not out.exists()


class TestFailingRunWritesNothing:
    @pytest.mark.parametrize("command,text", [
        ("curves", "regime=null\nlambda_count=3\nactive_count=2\n"),
        ("simulate", "procedures=ridge\nn=6\np=3\nblock_sizes=3\nreps=4\nlambda_count=2\n"),
    ])
    def test_plot_failure_leaves_no_table(self, tmp_path, monkeypatch, command, text):
        def boom(*args, **kwargs):
            raise ValueError("series values must be finite")

        monkeypatch.setattr(cli, "svg_plot", boom)
        cfg = _write(tmp_path / "c.txt", text)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--svg"]) == 2
        assert not out.exists()


class TestParserFlags:
    @pytest.mark.parametrize("command,flag,text", [
        ("curves", ["--seed", "1"], "regime=null\nlambda_count=3\nactive_count=2\n"),
        ("stein-check", ["--svg"], "mode=library\nmus=0\nsigmas=1\n"),
    ], ids=["curves-seed", "stein-check-svg"])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys,
                                                              command, flag, text):
        cfg = _write(tmp_path / "c.txt", text)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg, "--out", str(out), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodeMapping:
    def test_numerical_error_exits_4(self, tmp_path, monkeypatch, capsys):
        def boom(config, out_dir, svg=False):
            raise NumericalError("synthetic failure", diagnostic={"where": "test"})

        monkeypatch.setitem(cli._COMMANDS, "curves", boom)
        cfg = _write(tmp_path / "c.txt", "regime=null\n")
        assert cli.main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert "numerical failure" in err[0]
        assert err[1] == '{"where": "test"}'
        assert not (tmp_path / "o").exists()

    def test_success_returns_zero(self, tmp_path):
        cfg = _write(tmp_path / "c.txt", "regime=null\nlambda_count=2\nactive_count=2\n")
        assert cli.main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


class TestSimulateSharing:
    """simulate makes one grid call: one draw, one lasso path."""

    _TEXT = ("n=12\np=5\nblock_sizes=3,2\nsupport=0,3\n"
             "lambda_grid=0.05,0.3,1.0\nreps=30\nseed=2\n")

    def _count(self, monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_one_draw_and_one_lasso_fit_per_lambda(self, tmp_path, monkeypatch):
        from dfsearch import fitters, montecarlo

        draws = self._count(monkeypatch, montecarlo, "draw_responses")
        paths = self._count(monkeypatch, fitters, "_lasso_path")
        refits = self._count(monkeypatch, fitters, "refit_on_active_sets")
        refits += self._count(monkeypatch, montecarlo, "refit_on_active_sets")
        grid_calls = self._count(monkeypatch, cli, "run_grid")
        cfg = _write(tmp_path / "c.txt", "procedures=lasso,relaxed-lasso,ridge\n" + self._TEXT)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(grid_calls) == len(draws) == 1
        # one lasso path walk serves the whole grid
        assert [list(args[2]) for args in paths] == [[0.05, 0.3, 1.0]]
        # the relaxed fit (the lasso's sdf refit too) and the ridge sdf refit;
        # a relaxed sdf refit only where a refit coefficient is exactly zero
        assert len(refits) <= 2 * 3

    @pytest.mark.parametrize("procedures", ["lasso,relaxed-lasso,ridge", "relaxed-lasso"])
    def test_lasso_failure_names_its_grid_index(self, tmp_path, monkeypatch, capsys, procedures):
        from dfsearch import fitters, montecarlo

        walk = fitters._lasso_walk

        def short_at_0_3(cache, Y, XtY, grid, signs):
            # a walk that stops short of lambda = 0.3 leaves all-zero signs there
            walk(cache, Y, XtY, grid, signs)
            signs[grid == 0.3] = 0

        monkeypatch.setattr(fitters, "_lasso_walk", short_at_0_3)
        grid_calls = self._count(monkeypatch, cli, "run_grid")
        cfg = _write(tmp_path / "c.txt", f"procedures={procedures}\n" + self._TEXT)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "grid index 1 (lambda=0.3): lasso stationarity check failed" in err
        assert not out.exists()
        assert len(grid_calls) == 1
        with pytest.raises(NumericalError, match=r"grid index 1 \(lambda=0\.3\)") as info:
            montecarlo.run_grid(*grid_calls[0])
        diag = info.value.diagnostic
        assert set(diag) == {"replication", "kkt_residual", "grid_index", "lam"}
        assert (diag["grid_index"], diag["lam"]) == (1, 0.3)


class TestLassoBelowFullRank:
    def test_n_below_p_grid_exits_0(self, tmp_path):
        # at the smallest lambdas the lasso's active sets reach n = 8
        # columns; every grid value must still be fit exactly
        cfg = _write(tmp_path / "c.txt", "procedures=lasso\nn=8\np=12\nblock_sizes=6,6\n"
                                         "support=0,6\nreps=300\n")
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = _read_csv(out / "simulate.csv")
        assert len(rows) == 10
        assert all(0.0 <= float(row[2]) <= 8.0 for row in rows)


class TestNearCollinearSupportFill:
    def test_svd_fallback_and_qr_fill_agree_end_to_end(self, tmp_path, monkeypatch):
        # the CI's near-collinear lasso and relaxed-lasso config: every fit
        # passes the KKT gate, the table sends at least one support to the
        # SVD, and the curves agree with those of a table that sends every
        # support there
        from dfsearch import fitters

        cfg = _write(tmp_path / "c.txt", "procedures=lasso,relaxed-lasso\nn=30\np=12\n"
                                         "block_sizes=6,6\ncorr_low=0.999\ncorr_high=0.9999\n"
                                         "reps=50\n")
        sent, svd = [], fitters._svd_factors

        def recording(X, cols):
            sent.extend(cols.tolist())
            return svd(X, cols)

        monkeypatch.setattr(fitters, "_PLAN_CACHE", None)
        monkeypatch.setattr(fitters, "_svd_factors", recording)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "qr")]) == 0
        assert sent
        monkeypatch.setattr(fitters, "_PLAN_CACHE", None)
        monkeypatch.setattr(fitters, "_QR_COND", 0.0)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "svd")]) == 0
        _, _, rows = _read_csv(tmp_path / "qr" / "simulate.csv")
        _, _, want = _read_csv(tmp_path / "svd" / "simulate.csv")
        assert [row[0] for row in rows] == [row[0] for row in want]
        np.testing.assert_allclose(np.array([row[1:] for row in rows], dtype=float),
                                   np.array([row[1:] for row in want], dtype=float),
                                   rtol=1e-9, atol=0)


def _run_python(code):
    """Run code in a fresh interpreter that imports the package from source."""
    src = os.path.dirname(os.path.dirname(dfsearch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


class TestImports:
    def test_import_and_simulate_leave_scipy_unloaded(self, tmp_path):
        cfg = _write(tmp_path / "c.txt",
                     "procedures=lasso,best-subset,relaxed-lasso,ridge\nn=10\np=4\n"
                     "block_sizes=2,2\nsupport=0\nreps=20\nlambda_count=3\n")
        code = (
            "import sys\n"
            "import dfsearch.cli\n"
            "assert 'scipy' not in sys.modules, 'loaded by the import'\n"
            f"assert dfsearch.cli.main(['simulate', '--config', {cfg!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, 'loaded by simulate'\n"
        )
        done = _run_python(code)
        assert done.returncode == 0, done.stderr

    def test_stein_check_and_curves_run_without_scipy(self, tmp_path):
        stein_cfg = _write(tmp_path / "s.txt",
                           "mode=both\nn=4\nprocedures=hard-threshold,best-subset,"
                           "relaxed-lasso\nreps=4\n")
        curves_cfg = _write(tmp_path / "c.txt",
                            "regime=dense\np=50\nlambda_count=11\nactive_count=5\n")
        stein_out, curves_out = tmp_path / "stein", tmp_path / "curves"
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now raises\n"
            "import dfsearch.cli\n"
            f"code = dfsearch.cli.main(['stein-check', '--config', {stein_cfg!r}, "
            f"'--out', {str(stein_out)!r}])\n"
            "assert code == 0, f'stein-check exited {code}'\n"
            f"code = dfsearch.cli.main(['curves', '--config', {curves_cfg!r}, "
            f"'--out', {str(curves_out)!r}])\n"
            "assert code == 0, f'curves exited {code}'\n"
        )
        done = _run_python(code)
        assert done.returncode == 0, done.stderr
        for path in (stein_out / "stein-univariate.csv", stein_out / "stein-decompose.csv",
                     curves_out / "curves-subset.csv", curves_out / "curves-lasso.csv",
                     curves_out / "curves-by-active.csv"):
            assert _read_csv(path)[2], path

    def test_no_command_loads_numpy_ma(self, tmp_path):
        # numpy imports numpy.ma lazily, on a plain np.unique among others,
        # at a cost of 10-20 ms per process
        configs = {
            "simulate": "procedures=lasso,best-subset,relaxed-lasso,ridge\nn=10\np=4\n"
                        "block_sizes=2,2\nsupport=0\nreps=20\nlambda_count=3\n",
            "stein-check": "mode=both\nn=4\nprocedures=hard-threshold,best-subset,"
                           "relaxed-lasso\nreps=4\n",
            "curves": "regime=dense\np=50\nlambda_count=11\nactive_count=5\n",
        }
        code = ("import sys\nimport dfsearch.cli\n"
                "assert 'numpy.ma' not in sys.modules, 'loaded by the import'\n")
        for command, text in configs.items():
            cfg = _write(tmp_path / f"{command}.txt", text)
            code += (
                f"assert dfsearch.cli.main([{command!r}, '--config', {cfg!r}, "
                f"'--out', {str(tmp_path / command)!r}]) == 0\n"
                f"assert 'numpy.ma' not in sys.modules, 'loaded by {command}'\n"
            )
        done = _run_python(code)
        assert done.returncode == 0, done.stderr
