"""Command-line harness: closed-form curves, simulation grids, Stein checks.

Three subcommands, each driven by a flat key=value config file:

  dfsearch curves      --config c.txt --out dir [--svg]
  dfsearch simulate    --config c.txt --out dir [--seed N] [--svg]
  dfsearch stein-check --config c.txt --out dir [--seed N]

Every run writes ``resolved-config.txt`` (all defaults filled in) next to
its outputs; re-running from that sidecar reproduces the CSVs byte for
byte.  Exit codes: 0 success, 2 config error, 3 capacity error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import closedform as cf
from .config import (
    Option,
    format_resolved,
    parse_choice,
    parse_float,
    parse_float_list,
    parse_int,
    parse_int_list,
    read_config,
    resolve_options,
)
from .errors import CapacityError, ConfigError, NumericalError
from .fitters import FitProcedure, check_subset_capacity
from .model import DesignMatrix, RngSpec, SignalSpec, gen_block_design, gen_orthogonal_design
from .montecarlo import ExperimentGrid, estimate_df, run_grid
from .stein import (
    function_library,
    stein_decompose_df,
    stein_lhs_univariate,
    stein_rhs_univariate,
)
from .svgplot import svg_plot

__all__ = ["cmd_curves", "cmd_simulate", "cmd_stein_check", "main"]


def _cell_format(kind: type) -> str:
    """The %-format of a CSV cell of this type: str as is, an integer in
    decimal, anything else as a float to 17 significant digits."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.17g"


def _csv_cell(v) -> str:
    return _cell_format(type(v)) % (v,)


def _write_csv(path: str, schema: str, header, rows):
    lines = [f"# schema: {schema}", ",".join(header)]
    formats = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(map(_cell_format, kinds))
        lines.append(fmt % row)
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_outputs(out_dir: str, tables, sidecar: str, plots=()) -> list:
    """Write the CSV tables (name, schema, header, rows), then
    resolved-config.txt holding sidecar, then the (name, text) plots into
    out_dir.  Returns the paths in that order."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, schema, header, rows in tables:
        paths.append(os.path.join(out_dir, name))
        _write_csv(paths[-1], schema, header, rows)
    paths.append(os.path.join(out_dir, "resolved-config.txt"))
    _write_text(paths[-1], sidecar)
    for name, text in plots:
        paths.append(os.path.join(out_dir, name))
        _write_text(paths[-1], text)
    return paths


def _parse_procedures(allowed):
    inner = parse_choice(*allowed)

    def parse(s: str):
        parts = tuple(p.strip() for p in s.split(",") if p.strip())
        if not parts:
            raise ConfigError("expected at least one procedure")
        seen = []
        for p in parts:
            inner(p)
            if p in seen:
                raise ConfigError(f"procedure {p!r} listed twice")
            seen.append(p)
        return tuple(seen)

    return parse


def _check_penalty(kind: str, key: str, value: float) -> float:
    """value, if FitProcedure takes it as kind's penalty; else a ConfigError
    naming the config key it came from (parsed values are finite)."""
    if value < 0 or (kind == "ridge" and value == 0):
        sign = "positive" if kind == "ridge" else "nonnegative"
        raise ConfigError(f"key {key!r}: {kind} needs a {sign} value, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# curves: closed-form orthogonal-design tables
# ---------------------------------------------------------------------------

_CURVES_OPTIONS = [
    Option("regime", parse_choice("null", "sparse", "dense")),
    Option("p", parse_int, 100),
    Option("sigma", parse_float, 1.0),
    Option("rho", parse_float, 1.0),
    Option("sparsity", parse_int, 10),
    Option("lambda_min", parse_float, 0.0),
    Option("lambda_max", parse_float, 5.0),
    Option("lambda_count", parse_int, 201),
    Option("active_min", parse_float, 0.5),
    Option("active_max", parse_float, None),
    Option("active_count", parse_int, 50),
]


def _coefficients(regime: str, p: int, rho: float, support) -> np.ndarray:
    """Coefficients of a null, dense (rho everywhere) or sparse (rho on the
    support indices) signal."""
    beta = np.zeros(p)
    if regime == "dense":
        beta[:] = rho
    elif regime == "sparse":
        if any(j < 0 or j >= p for j in support):
            raise ConfigError(f"support indices must lie in [0, {p - 1}]")
        beta[list(support)] = rho
    return beta


def cmd_curves(config: dict, out_dir: str, svg: bool = False) -> list:
    """Write closed-form df/sdf curve tables for the orthogonal case."""
    resolved = resolve_options(config, _CURVES_OPTIONS, "curves")
    p = resolved["p"]
    sigma = resolved["sigma"]
    if p < 1:
        raise ConfigError("p must be positive")
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    if resolved["active_max"] is None:
        resolved["active_max"] = float(p) - 0.5 if p > 1 else float(p)
    if resolved["lambda_count"] < 2 or resolved["active_count"] < 2:
        raise ConfigError("lambda_count and active_count must be at least 2")
    if not 0 <= resolved["lambda_min"] < resolved["lambda_max"]:
        raise ConfigError("need 0 <= lambda_min < lambda_max")
    if not 0 < resolved["active_min"] <= resolved["active_max"] <= p:
        raise ConfigError(f"need 0 < active_min <= active_max <= p={p}")

    if resolved["regime"] == "sparse" and not 0 <= resolved["sparsity"] <= p:
        raise ConfigError(f"sparsity must lie in [0, {p}]")
    xtmu = _coefficients(resolved["regime"], p, resolved["rho"], range(resolved["sparsity"]))
    lams = np.linspace(resolved["lambda_min"], resolved["lambda_max"], resolved["lambda_count"])
    targets = np.linspace(resolved["active_min"], resolved["active_max"], resolved["active_count"])

    header = ("lambda", "t", "expected_active", "df", "sdf")
    sub = cf.df_subset_orthogonal(xtmu, sigma, lams)
    rel = cf.df_relaxed_lasso_orthogonal(xtmu, sigma, lams)
    subset_rows = list(zip(sub.lam, sub.t, sub.expected_active, sub.df, sub.sdf))
    lasso_rows = list(zip(rel.lam, rel.t, rel.expected_active, rel.df, rel.sdf))
    t = cf.threshold_for_expected_active(xtmu, sigma, targets)
    lam_subset = 0.5 * t * t
    cp = cf.df_subset_orthogonal(xtmu, sigma, lam_subset)
    by_active_rows = list(zip(cp.expected_active, t, lam_subset, t, cp.df, cp.sdf))

    # plots are drawn before anything is written, so a failing run leaves
    # no partial output
    plots = {}
    if svg:
        sub = np.array(subset_rows)
        plots["curves-subset.svg"] = svg_plot(
            [
                {"label": "df", "x": sub[:, 0], "y": sub[:, 3]},
                {"label": "sdf", "x": sub[:, 0], "y": sub[:, 4]},
                {"label": "expected active", "x": sub[:, 0], "y": sub[:, 2]},
            ],
            title=f"best subset, {resolved['regime']} signal, p={p}",
            xlabel="lambda", ylabel="degrees of freedom",
        )
        ba = np.array(by_active_rows)
        plots["curves-by-active.svg"] = svg_plot(
            [{"label": "sdf", "x": ba[:, 0], "y": ba[:, 5]}],
            title=f"search cost vs selected size, {resolved['regime']} signal",
            xlabel="expected active-set size", ylabel="sdf",
        )

    tables = [
        ("curves-subset.csv", "curves-v1", header, subset_rows),
        ("curves-lasso.csv", "curves-v1", header, lasso_rows),
        ("curves-by-active.csv", "curves-by-active-v1",
         ("expected_active", "t", "lambda_subset", "lambda_lasso", "df", "sdf"), by_active_rows),
    ]
    return _write_outputs(out_dir, tables, format_resolved(resolved, _CURVES_OPTIONS, "curves"),
                          plots.items())


# ---------------------------------------------------------------------------
# simulate: Monte Carlo df/sdf grids
# ---------------------------------------------------------------------------

_SIM_PROCEDURES = ("lasso", "best-subset", "relaxed-lasso", "ridge")

_SIM_OPTIONS = [
    Option("procedures", _parse_procedures(_SIM_PROCEDURES),
           ("lasso", "best-subset", "relaxed-lasso")),
    Option("n", parse_int, 20),
    Option("p", parse_int, 10),
    Option("design", parse_choice("block", "orthogonal"), "block"),
    Option("block_sizes", parse_int_list, (4, 6)),
    Option("corr_low", parse_float, 0.6),
    Option("corr_high", parse_float, 0.9),
    Option("design_seed", parse_int, 7),
    Option("signal", parse_choice("null", "sparse", "dense"), "sparse"),
    Option("support", parse_int_list, (0, 1, 2, 3, 4)),
    Option("rho", parse_float, 1.0),
    Option("sigma", parse_float, 1.0),
    Option("lambda_grid", parse_float_list, None),
    Option("lambda_count", parse_int, 10),
    Option("reps", parse_int, 100),
    Option("seed", parse_int, 0),
]


def _build_design(resolved: dict) -> tuple[DesignMatrix, SignalSpec]:
    """The run's design and its signal, from the resolved config."""
    n, p = resolved["n"], resolved["p"]
    if resolved["design"] == "orthogonal":
        design = gen_orthogonal_design(n, p)
    else:
        design = gen_block_design(
            n, p, resolved["block_sizes"], resolved["corr_low"], resolved["corr_high"],
            RngSpec(seed=resolved["design_seed"], stream_id=0),
        )
    beta = _coefficients(resolved["signal"], p, resolved["rho"], resolved["support"])
    return design, SignalSpec.from_coefficients(design, beta, resolved["sigma"])


def _auto_lambda_grid(design: DesignMatrix, signal: SignalSpec, count: int) -> tuple:
    """Log-spaced grid up to the smallest penalty that zeroes a noiseless
    fit; under a null signal that scale is set by the noise level instead."""
    lam_max = float(np.abs(design.values.T @ signal.mu).max())
    if lam_max <= 0:
        col_scale = float(np.sqrt((design.values ** 2).sum(axis=0)).max())
        lam_max = signal.sigma * np.sqrt(2.0 * np.log(design.p)) * col_scale
        if lam_max <= 0:
            lam_max = 1.0
    return tuple(float(v) for v in np.geomspace(0.01 * lam_max, lam_max, count))


def cmd_simulate(config: dict, out_dir: str, svg: bool = False) -> list:
    """Run the Monte Carlo df/sdf grid of every requested procedure on
    shared draws."""
    resolved = resolve_options(config, _SIM_OPTIONS, "simulate")
    for kind in resolved["procedures"]:
        for lam in resolved["lambda_grid"] or ():
            _check_penalty(kind, "lambda_grid", lam)
    if "best-subset" in resolved["procedures"]:
        check_subset_capacity(resolved["n"], resolved["p"])
    design, signal = _build_design(resolved)
    if resolved["lambda_grid"] is None:
        if resolved["lambda_count"] < 2:
            raise ConfigError("lambda_count must be at least 2")
        resolved["lambda_grid"] = _auto_lambda_grid(design, signal, resolved["lambda_count"])

    header = ("procedure", "lambda", "mean_active", "df_hat", "se", "sdf_hat", "sdf_se")
    grids = [
        ExperimentGrid(
            kind=kind,
            lambda_grid=resolved["lambda_grid"],
            design=design,
            signal=signal,
            reps=resolved["reps"],
            seed=resolved["seed"],
        )
        for kind in resolved["procedures"]
    ]
    # one call: the responses are drawn once and the lasso path fit once
    tables = dict(zip(resolved["procedures"], run_grid(grids)))
    rows = [(kind, r.lam, r.mean_active, r.df, r.df_se, r.sdf, r.sdf_se)
            for kind, table in tables.items() for r in table.rows]

    plots = {}  # drawn before anything is written, like the table
    if svg:
        series = [
            {
                "label": kind,
                "x": tables[kind].column("mean_active"),
                "y": tables[kind].column("df"),
                "kind": "points",
            }
            for kind in resolved["procedures"]
        ]
        plots["simulate.svg"] = svg_plot(
            series,
            title=f"df vs selected size (n={design.n}, p={design.p}, "
                  f"reps={resolved['reps']})",
            xlabel="mean active-set size", ylabel="estimated df",
            diagonal=True,
        )

    return _write_outputs(out_dir, [("simulate.csv", "simulate-v1", header, rows)],
                          format_resolved(resolved, _SIM_OPTIONS, "simulate"), plots.items())


# ---------------------------------------------------------------------------
# stein-check: univariate identity report and df decompositions
# ---------------------------------------------------------------------------

_STEIN_PROCEDURES = (
    "hard-threshold", "soft-threshold", "lasso", "relaxed-lasso", "best-subset", "ridge",
)

_STEIN_OPTIONS = [
    Option("mode", parse_choice("library", "decompose", "both"), "both"),
    Option("mus", parse_float_list, (-2.0, 0.0, 3.0)),
    Option("sigmas", parse_float_list, (0.5, 1.0, 2.0)),
    Option("procedures", _parse_procedures(_STEIN_PROCEDURES),
           ("hard-threshold", "lasso", "best-subset", "relaxed-lasso")),
    Option("n", parse_int, 10),
    Option("p", parse_int, None),
    Option("design", parse_choice("orthogonal", "block"), "orthogonal"),
    Option("block_sizes", parse_int_list, ()),
    Option("corr_low", parse_float, 0.4),
    Option("corr_high", parse_float, 0.9),
    Option("design_seed", parse_int, 7),
    Option("signal", parse_choice("null", "sparse", "dense"), "null"),
    Option("support", parse_int_list, (0,)),
    Option("rho", parse_float, 1.0),
    Option("sigma", parse_float, 1.0),
    Option("lambda", parse_float, 0.5),
    Option("threshold", parse_float, 1.0),
    Option("reps", parse_int, 400),
    Option("grid_points", parse_int, 4096),
    Option("seed", parse_int, 0),
]


def _closed_form_df(kind: str, design: DesignMatrix, signal: SignalSpec, lam: float):
    """Exact df where a formula exists; None (blank CSV cell) otherwise."""
    if kind == "ridge":
        X = design.values
        G = X.T @ X + lam * np.eye(design.p)
        return float(np.trace(X @ np.linalg.solve(G, X.T)))
    if not design.orthogonal:
        return None
    xtmu = design.values.T @ signal.mu
    sigma = signal.sigma
    if kind == "hard-threshold":
        return cf.df_hard_threshold(xtmu, sigma, lam)
    if kind in ("soft-threshold", "lasso"):
        return cf.expected_active_hard(xtmu, sigma, lam)
    if kind == "best-subset":
        return cf.df_subset_orthogonal(xtmu, sigma, lam).df
    if kind == "relaxed-lasso":
        return cf.df_relaxed_lasso_orthogonal(xtmu, sigma, lam).df
    return None


def cmd_stein_check(config: dict, out_dir: str) -> list:
    """Univariate identity residuals and Monte Carlo df decompositions."""
    resolved = resolve_options(config, _STEIN_OPTIONS, "stein-check")
    if resolved["p"] is None:
        resolved["p"] = resolved["n"]
    if any(s <= 0 for s in resolved["sigmas"]):
        raise ConfigError("sigmas must be positive")
    lams = {}
    if resolved["mode"] in ("decompose", "both"):
        for kind in resolved["procedures"]:
            key = "threshold" if kind.endswith("threshold") else "lambda"
            lams[kind] = _check_penalty(kind, key, resolved[key])

    # every table is computed before anything is written, so a failing run
    # leaves no partial output
    tables = []
    if resolved["mode"] in ("library", "both"):
        rows = []
        pairs = [(mu, s) for mu in resolved["mus"] for s in resolved["sigmas"]]
        mus, sigmas = np.array(pairs).T
        for name, f in function_library():
            # one quadrature run per side over every (mu, sigma) pair
            lhs = stein_lhs_univariate(f, mus, sigmas).tolist()
            rhs = stein_rhs_univariate(f, mus, sigmas).tolist()
            for (mu, s), l, r in zip(pairs, lhs, rhs):
                rows.append((f"{name} mu={mu:g} sigma={s:g}", l, r, abs(l - r)))
        tables.append(("stein-univariate.csv", "stein-univariate-v1",
                       ("case", "lhs", "rhs", "residual"), rows))

    if resolved["mode"] in ("decompose", "both"):
        if resolved["design"] == "block" and not resolved["block_sizes"]:
            raise ConfigError("block design requires block_sizes")
        design, signal = _build_design(resolved)
        rows = []
        for kind in resolved["procedures"]:
            lam = lams[kind]
            proc = FitProcedure(kind=kind, lam=lam, design=design)
            dec = stein_decompose_df(
                proc, signal, resolved["reps"], resolved["seed"],
                grid_points=resolved["grid_points"],
            )
            df = estimate_df(proc, signal, resolved["reps"], resolved["seed"] + 1)
            closed = _closed_form_df(kind, design, signal, lam)
            rows.append((
                kind, dec.divergence, dec.boundary, df.value,
                "" if closed is None else _csv_cell(closed),
                dec.total_se, df.std_error,
            ))
        tables.append((
            "stein-decompose.csv", "stein-decompose-v1",
            ("procedure", "divergence_term", "boundary_term", "df_hat",
             "closed_form_if_available", "decomposition_se", "df_se"),
            rows,
        ))

    return _write_outputs(out_dir, tables, format_resolved(resolved, _STEIN_OPTIONS, "stein-check"))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "curves": cmd_curves,
    "simulate": cmd_simulate,
    "stein-check": cmd_stein_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsearch",
        description="Degrees of freedom and search cost of adaptive regression "
                    "procedures: closed-form curves, Monte Carlo grids, and "
                    "Stein identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in (
        ("curves", "closed-form df/sdf curve tables (orthogonal design)", ("svg",)),
        ("simulate", "Monte Carlo df/sdf estimates over a tuning grid", ("seed", "svg")),
        ("stein-check", "Stein identity residuals and df decompositions", ("seed",)),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="key=value config file")
        sp.add_argument("--out", required=True, help="output directory")
        if "seed" in flags:
            sp.add_argument("--seed", type=int, default=None,
                            help="override the config's seed")
        if "svg" in flags:
            sp.add_argument("--svg", action="store_true", help="also write SVG plots")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = read_config(args.config)
        if getattr(args, "seed", None) is not None:
            raw["seed"] = str(args.seed)
        kwargs = {"svg": args.svg} if hasattr(args, "svg") else {}
        try:
            _COMMANDS[args.command](raw, args.out, **kwargs)
        except ValueError as err:
            raise ConfigError(str(err)) from err
    except ConfigError as err:
        print(f"dfsearch: config error: {err}", file=sys.stderr)
        return 2
    except CapacityError as err:
        print(f"dfsearch: capacity error: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        import json  # only on failure, so it stays off the start-up path

        print(f"dfsearch: numerical failure: {err}", file=sys.stderr)
        print(json.dumps(err.diagnostic, sort_keys=True), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
