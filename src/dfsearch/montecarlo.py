"""Monte Carlo estimators for degrees of freedom and related quantities.

Degrees of freedom of a procedure f is the summed covariance between fitted
values and the response, scaled by the noise variance.  The estimators here
draw replicated responses from a SignalSpec, fit all of them through the
batched fitting path, and form the empirical covariance across replications.
Standard errors come from a delete-one jackknife over replications, computed
in closed form from the accumulated sums rather than by refitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitters import FitProcedure, _batch_refit, _design_cache, fit_path, refit_on_active_sets
from .model import DesignMatrix, RngSpec, SignalSpec

__all__ = [
    "DfEstimate",
    "OptimismEstimate",
    "ExperimentGrid",
    "CurveRow",
    "CurveTable",
    "draw_responses",
    "estimate_df",
    "estimate_sdf",
    "estimate_excess_df",
    "estimate_optimism",
    "run_grid",
]


def draw_responses(signal: SignalSpec, reps: int, seed: int, stream_offset: int = 0) -> np.ndarray:
    """Draw reps independent responses, shape (reps, n).

    Replication r uses the counter-based stream (seed, stream_offset + r),
    so draws are reproducible independently of execution order and disjoint
    stream blocks never collide.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    RngSpec(seed=seed, stream_id=stream_offset + reps - 1)  # the range check of the last id
    g = RngSpec(seed=seed, stream_id=stream_offset).generator()
    state = g.bit_generator.state  # a fresh counter and buffer, rekeyed per replication
    Y = np.empty((reps, signal.n))
    for r in range(reps):
        state["state"]["key"][1] = stream_offset + r
        g.bit_generator.state = state
        Y[r] = signal.mu + signal.sigma * g.standard_normal(signal.n)
    return Y


# ---------------------------------------------------------------------------
# covariance accumulation and jackknife
# ---------------------------------------------------------------------------

def _cov_df_terms(Y: np.ndarray, F: np.ndarray, sigma: float, mu=None):
    """The df estimate for fitted values F plus its delete-one values.

    With mu=None the covariance is centered at sample means with 1/(R-1)
    normalization; otherwise it is the known-mean form averaging
    f(y)(y - mu) with 1/R.  Leave-one-out values follow from the sums, so
    the jackknife costs O(Rn) rather than R refits.  With R=2 a deleted
    sample leaves a single point, whose sample covariance is taken as 0.
    """
    R = Y.shape[0]
    s2 = sigma * sigma
    if mu is None:
        Sy = Y.sum(axis=0)
        Sf = F.sum(axis=0)
        S1 = (F * Y).sum(axis=0)
        value = float((S1 - Sf * Sy / R).sum() / ((R - 1) * s2))
        if R == 2:
            loo = np.zeros(2)
        else:
            covs = (S1 - F * Y) - (Sf - F) * (Sy - Y) / (R - 1)
            loo = covs.sum(axis=1) / ((R - 2) * s2)
    else:
        t = (F * (Y - mu)).sum(axis=1)
        value = float(t.sum() / (R * s2))
        loo = (t.sum() - t) / ((R - 1) * s2)
    return value, loo


def _jackknife_se(loo: np.ndarray) -> float:
    R = loo.shape[0]
    dev = loo - loo.mean()
    return float(np.sqrt((R - 1) / R * np.sum(dev * dev)))


def _delete_one_means(v: np.ndarray) -> np.ndarray:
    R = v.shape[0]
    return (v.sum() - v) / (R - 1)


def _check_center(center: str):
    if center not in ("sample", "signal"):
        raise ValueError("center must be 'sample' or 'signal'")


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DfEstimate:
    """A Monte Carlo estimate with its jackknife standard error, plus the
    average active-set size and average active-design rank over
    replications."""

    value: float
    std_error: float
    reps: int
    mean_active: float
    mean_rank: float


def _require_reps(reps: int):
    if reps < 2:
        raise ValueError("reps must be at least 2")


def _estimate(proc: FitProcedure, signal: SignalSpec, reps: int, seed: int,
              center: str, include_sdf: bool) -> CurveRow:
    """proc's estimates as run_grid computes them for a one-value grid:
    draw reps responses, fit them all, and estimate at proc.lam."""
    _require_reps(reps)
    _check_center(center)
    Y = draw_responses(signal, reps, seed)
    sets = _ActiveSets(proc.design.values, Y, signal.sigma,
                       signal.mu if center == "signal" else None)
    fit = proc.fit_many(Y)
    sets.next_value([fit])
    return _curve_row(proc.lam, fit, sets, include_sdf)


def estimate_df(proc: FitProcedure, signal: SignalSpec, reps: int, seed: int,
                *, center: str = "sample") -> DfEstimate:
    """Estimate the degrees of freedom of proc under the given signal.

    Draws reps responses, fits each, and sums the per-coordinate empirical
    covariances between fitted value and response, divided by sigma^2.
    center='sample' centers at sample means (1/(reps-1)); center='signal'
    centers the response at the known mean (1/reps), a lower-variance
    variant.
    """
    row = _estimate(proc, signal, reps, seed, center, include_sdf=False)
    return DfEstimate(value=row.df, std_error=row.df_se, reps=reps,
                      mean_active=row.mean_active, mean_rank=row.mean_rank)


def estimate_sdf(proc: FitProcedure, signal: SignalSpec, reps: int, seed: int,
                 *, center: str = "sample") -> DfEstimate:
    """Estimate the search degrees of freedom of proc.

    Each replication's active set is refit by least squares, the df
    estimator runs on the refitted values, and the average rank of the
    active design is subtracted.  Selection and covariance accumulation use
    the same draws; the definition couples them.
    """
    row = _estimate(proc, signal, reps, seed, center, include_sdf=True)
    return DfEstimate(value=row.sdf, std_error=row.sdf_se, reps=reps,
                      mean_active=row.mean_active, mean_rank=row.mean_rank)


def estimate_excess_df(proc: FitProcedure, signal: SignalSpec, reps: int, seed: int,
                       *, center: str = "sample") -> DfEstimate:
    """Estimate df minus the expected active-set size, with the standard
    error of the paired difference (the two terms share draws, so their
    difference is far less noisy than either term alone)."""
    row = _estimate(proc, signal, reps, seed, center, include_sdf=False)
    return DfEstimate(value=row.df - row.mean_active, std_error=row.excess_se, reps=reps,
                      mean_active=row.mean_active, mean_rank=row.mean_rank)


@dataclass(frozen=True)
class OptimismEstimate:
    """optimism, the estimated out-of-sample minus in-sample squared error,
    and expected = 2 sigma^2 times the df estimate from the same draws.
    optimism_se is the jackknife standard error of optimism and gap_se
    that of optimism - expected.
    """

    optimism: float
    expected: float
    optimism_se: float
    gap_se: float
    reps: int


def estimate_optimism(proc: FitProcedure, signal: SignalSpec, reps: int, seed: int,
                      *, center: str = "sample") -> OptimismEstimate:
    """Estimate optimism directly and via the df route, for comparison.

    Per replication, an independent copy y' of the response is drawn
    (streams reps..2*reps-1) and the gap ||y' - f(y)||^2 - ||y - f(y)||^2
    is averaged into optimism; expected is 2 sigma^2 times the df
    estimate computed from the same y draws.
    """
    _require_reps(reps)
    _check_center(center)
    Y = draw_responses(signal, reps, seed)
    Yp = draw_responses(signal, reps, seed, stream_offset=reps)
    fits = proc.fit_many(Y)
    gap = ((Yp - fits.fitted) ** 2).sum(axis=1) - ((Y - fits.fitted) ** 2).sum(axis=1)
    optimism = float(gap.mean())
    mu = signal.mu if center == "signal" else None
    df_value, df_loo = _cov_df_terms(Y, fits.fitted, signal.sigma, mu)
    scale = 2.0 * signal.sigma ** 2
    gap_loo = _delete_one_means(gap)
    return OptimismEstimate(
        optimism=optimism,
        expected=scale * df_value,
        optimism_se=_jackknife_se(gap_loo),
        gap_se=_jackknife_se(gap_loo - scale * df_loo),
        reps=reps,
    )


# ---------------------------------------------------------------------------
# grids of tuning values
# ---------------------------------------------------------------------------

_GRID_KINDS = (
    "lasso",
    "best-subset",
    "relaxed-lasso",
    "ridge",
    "hard-threshold",
    "soft-threshold",
)


@dataclass(frozen=True)
class ExperimentGrid:
    """One procedure swept over a grid of tuning values with shared draws."""

    kind: str
    lambda_grid: tuple
    design: DesignMatrix
    signal: SignalSpec
    reps: int
    seed: int
    include_sdf: bool = True
    center: str = "sample"

    def __post_init__(self):
        if self.kind not in _GRID_KINDS:
            raise ValueError(f"unsupported grid procedure kind {self.kind!r}")
        grid = tuple(float(l) for l in self.lambda_grid)
        if len(grid) == 0:
            raise ValueError("lambda_grid must be nonempty")
        if any(l < 0 or not np.isfinite(l) for l in grid):
            raise ValueError("lambda_grid values must be finite and nonnegative")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be strictly increasing")
        object.__setattr__(self, "lambda_grid", grid)
        _require_reps(self.reps)
        _check_center(self.center)
        if self.signal.n != self.design.n:
            raise ValueError("signal length must match design rows")


@dataclass(frozen=True)
class CurveRow:
    """Estimates at one grid value."""

    lam: float
    mean_active: float
    mean_rank: float
    df: float
    df_se: float
    sdf: float
    sdf_se: float
    excess_se: float


@dataclass(frozen=True)
class CurveTable:
    """Rows of run_grid output, one per tuning value, in grid order."""

    kind: str
    reps: int
    seed: int
    rows: tuple

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


@dataclass(eq=False)
class _Entry:
    """One active-set mask array of _ActiveSets with what has been computed
    on it: the ranks of its supports, the least-squares refit on them, and
    that refit's covariance terms."""

    masks: np.ndarray
    ranks: np.ndarray | None = None
    refit: np.ndarray | None = None
    terms: tuple | None = None


class _ActiveSets:
    """Ranks, least-squares refits and covariance terms of the active-set
    masks met along one grid of tuning values, each computed once per
    distinct mask array (compared with array_equal).  Procedures fit to the
    same draws often select the same masks: the relaxed lasso's masks are
    the lasso's unless a refit coefficient is exactly zero.  A fit that is
    least squares on its solved_on masks (best subset, the relaxed lasso's
    refit) is recorded as their refit, so it is never refit.  An entry whose
    masks recur at the next grid value (ridge's all-column masks, best
    subset's empty supports at large lambda) keeps its rank, refit and
    terms; entries unused at a grid value are dropped."""

    def __init__(self, X: np.ndarray, Y: np.ndarray, sigma: float, mu):
        self.X, self.Y, self.sigma, self.mu = X, Y, sigma, mu
        self._seen: list = []  # entries used at the current grid value
        self._last: list = []  # entries used at the previous one

    def next_value(self, fits):
        """Start a grid value whose fits are fits, recording each fit that
        is least squares on its solved_on masks as their refit."""
        self._last, self._seen = self._seen, []
        for fit in fits:
            if fit.solved_on is not None:
                entry = self._entry(fit.solved_on)
                if entry.refit is None:
                    entry.refit = fit.fitted

    def _entry(self, masks: np.ndarray) -> _Entry:
        for entry in self._seen:
            if np.array_equal(entry.masks, masks):
                return entry
        for i, entry in enumerate(self._last):
            if np.array_equal(entry.masks, masks):
                self._seen.append(self._last.pop(i))
                return entry
        self._seen.append(_Entry(masks))
        return self._seen[-1]

    def ranks(self, masks: np.ndarray) -> np.ndarray:
        entry = self._entry(masks)
        if entry.ranks is None:
            entry.ranks = _design_cache(self.X).ranks(masks)
        return entry.ranks

    def refit_terms(self, masks: np.ndarray):
        """_cov_df_terms of the least-squares refit on masks."""
        entry = self._entry(masks)
        if entry.terms is None:
            if entry.refit is None:
                entry.refit = refit_on_active_sets(self.X, self.Y, masks)[1]
            entry.terms = _cov_df_terms(self.Y, entry.refit, self.sigma, self.mu)
        return entry.terms

    def fit_terms(self, fit):
        """_cov_df_terms of fit's fitted values, shared with the refit on
        its solved_on masks when it has them."""
        if fit.solved_on is not None:
            return self.refit_terms(fit.solved_on)
        return _cov_df_terms(self.Y, fit.fitted, self.sigma, self.mu)


def _curve_row(lam: float, fits, sets: _ActiveSets, include_sdf: bool) -> CurveRow:
    """Every estimate at one tuning value from the fits of the draws of sets.

    df is the covariance estimate on the fitted values; the excess df's
    standard error pairs it with the active-set size.  The search df
    refits each active set by least squares, takes the refit's df and
    subtracts the mean rank of the active design (NaN unless include_sdf).
    Ranks, refits and covariance terms come from sets, shared by every
    procedure along the grid.
    """
    df_value, df_loo = sets.fit_terms(fits)
    active_counts = fits.active.sum(axis=1).astype(float)
    ranks = sets.ranks(fits.active)
    sdf = sdf_se = float("nan")
    if include_sdf:
        refit_value, refit_loo = sets.refit_terms(fits.active)
        sdf = refit_value - float(ranks.mean())
        sdf_se = _jackknife_se(refit_loo - _delete_one_means(ranks))
    return CurveRow(
        lam=float(lam),
        mean_active=float(active_counts.mean()),
        mean_rank=float(ranks.mean()),
        df=df_value,
        df_se=_jackknife_se(df_loo),
        sdf=sdf,
        sdf_se=sdf_se,
        excess_se=_jackknife_se(df_loo - _delete_one_means(active_counts)),
    )


def _shared_setup(grids: tuple) -> ExperimentGrid:
    """The first grid, once every grid is known to share its draws and
    lambda path: the same design, signal, lambda grid, reps, seed and
    center, and a kind of its own."""
    if not grids:
        raise ValueError("run_grid needs at least one grid")
    if len({(g.lambda_grid, g.reps, g.seed, g.center, g.signal.sigma, g.design.values.shape,
             g.design.values.tobytes(), g.signal.mu.tobytes()) for g in grids}) > 1:
        raise ValueError("grids run together must share design, signal, "
                         "lambda grid, reps, seed and center")
    if len({g.kind for g in grids}) < len(grids):
        raise ValueError("grids run together must have distinct kinds")
    return grids[0]


def _path_rows(base: str, grids: tuple, Y: np.ndarray, mu) -> dict:
    """Each grid's rows from one fit path of kind base: base's own rows,
    and for the relaxed lasso (base "lasso") the least-squares refit of the
    lasso's active sets, which is also the lasso's sdf refit.  One
    _ActiveSets serves the whole path; one lambda's derived fits are alive
    at a time, beside the active-set entries of the lambda before."""
    first = grids[0]
    X = first.design.values
    rows = {g.kind: [] for g in grids}
    sets = _ActiveSets(X, Y, first.signal.sigma, mu)
    path = fit_path(base, first.design, Y, first.lambda_grid)
    for lam, fit in zip(first.lambda_grid, path):
        fits = {base: fit}
        if "relaxed-lasso" in rows:
            fits["relaxed-lasso"] = _batch_refit(X, Y, fit.active)
        sets.next_value(fits.values())
        for g in grids:
            rows[g.kind].append(_curve_row(lam, fits[g.kind], sets, g.include_sdf))
    return rows


# kinds whose fits derive from another kind's path
_PATH_BASE = {"relaxed-lasso": "lasso"}


def run_grid(grids):
    """Estimate df (and sdf unless disabled) at every grid value.

    grids is one ExperimentGrid, giving one CurveTable, or a sequence of
    them, giving a tuple of tables in the same order.  Grids run together
    must differ only in kind and include_sdf.  The responses are drawn once
    and every grid value shares them (common random numbers), so curves are
    smooth in lambda and differences across lambda and across procedures
    are paired.  The lasso path is fit once for the lasso and the relaxed
    lasso.  Every distinct active-set mask array is ranked and refit once,
    and kept while it recurs from one grid value to the next; a fit that
    is least squares on its own supports is their refit.  Covariance terms
    are computed once per distinct fitted array.  Everything downstream of
    the draws is deterministic, so a grid's table is bit-identical however
    it is run.
    """
    single = isinstance(grids, ExperimentGrid)
    grids = (grids,) if single else tuple(grids)
    first = _shared_setup(grids)
    Y = draw_responses(first.signal, first.reps, first.seed)
    mu = first.signal.mu if first.center == "signal" else None
    rows = {}
    for base in dict.fromkeys(_PATH_BASE.get(g.kind, g.kind) for g in grids):
        served = tuple(g for g in grids if _PATH_BASE.get(g.kind, g.kind) == base)
        rows.update(_path_rows(base, served, Y, mu))
    tables = tuple(CurveTable(kind=g.kind, reps=g.reps, seed=g.seed, rows=tuple(rows[g.kind]))
                   for g in grids)
    return tables[0] if single else tables
