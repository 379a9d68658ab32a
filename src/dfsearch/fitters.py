"""Fitting procedures: thresholding, lasso, best subset, relaxed lasso, ridge.

Each procedure is a deterministic map y -> (coefficients, active set, fitted
values).  Two call surfaces are provided: single-response functions matching
the mathematical definitions (`lasso_solve`, `best_subset_solve`, ...), and a
batched path (`FitProcedure.fit_many`, `fit_path`) that fits many responses
against the same design at once.  Each single-response function is one
`FitProcedure(...).fit(y)` call, so `FitProcedure` is the one place a fit
request (kind, lambda, support, responses) is validated.  The Monte Carlo
estimators lean on the batched path; a plain Python loop over 10^4
replications would dominate the runtime budget otherwise.  One row-wise
support kernel does every least-squares solve, from a per-design table of
pseudoinverses.  One homotopy kernel moves the lasso knot to knot, each
step one support kernel call: down each response's path in lambda (once
for a whole grid; the exact solve on the supports it finds is the fit),
and along coordinate lines of the response, both ways from each
replication's own fit, where the relaxed lasso jumps at its knots, for the
Stein boundary term.  Best subset's and hard thresholding's jumps along
those lines are worked out in closed form.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import CapacityError, NumericalError
from .model import DesignMatrix

__all__ = [
    "FitProcedure",
    "FitOutput",
    "BatchFit",
    "soft_threshold",
    "hard_threshold",
    "least_squares_on_support",
    "lasso_solve",
    "lasso_kkt_residual",
    "best_subset_solve",
    "check_subset_capacity",
    "relaxed_lasso_fit",
    "ridge_fit",
    "refit_on_active_sets",
    "fit_path",
]

KINDS = (
    "least-squares-on-support",
    "lasso",
    "best-subset",
    "relaxed-lasso",
    "ridge",
    "hard-threshold",
    "soft-threshold",
)

# Best-subset capacity: the enumeration plan keeps one length-n vector per
# support, 2^p * n floats, and must fit in this many bytes.
SUBSET_PLAN_MAX_BYTES = 512 << 20

# Floats in the best-subset score table: all supports against
# _BLOCK_FLOATS // 2^p responses (at least one).  8 MB stays in cache at
# small p.
_BLOCK_FLOATS = 1 << 20

# Floats in one working table, 1 MB: one chunk of a plan level's rows per
# temporary of the build, one chunk of a level's scores gathered for the
# winner search, the best-subset envelope walk's (all supports against
# _WALK_FLOATS // 2^p lines; a step holds about twenty), a lasso walk
# block's event table (4 p per row), one stacked support-table fill's input
# (n k per support), and one chunk of pseudoinverses the support kernel
# gathers.
_WALK_FLOATS = 1 << 17

# Bytes of pseudoinverses the support table of a design may hold; past this
# the table starts over empty.
_SUPPORT_TABLE_BYTES = 32 << 20


@dataclass(frozen=True)
class FitOutput:
    """Result of fitting one response: coefficients, their support, fitted
    values X beta, and the attained objective value (loss plus penalty where
    the procedure has one, otherwise half the residual sum of squares)."""

    beta: np.ndarray
    active_set: np.ndarray
    fitted: np.ndarray
    objective: float


@dataclass(frozen=True)
class BatchFit:
    """Row-per-replication fits: beta (R, p), fitted (R, n), boolean active
    mask (R, p), objective (R,).  A relaxed-lasso fit also keeps the
    signs (R, p, int8) of the lasso fit it refits, where its exact line
    walks start.  A fit that is least squares on given supports (best
    subset, a refit) keeps their masks (R, p) as solved_on, so its fitted
    values serve as the least-squares refit on them; active differs from
    solved_on where a solved coefficient is exactly zero."""

    beta: np.ndarray
    fitted: np.ndarray
    active: np.ndarray
    objective: np.ndarray
    signs: np.ndarray | None = None
    solved_on: np.ndarray | None = None

    def row(self, r: int) -> FitOutput:
        return FitOutput(
            beta=self.beta[r],
            active_set=np.flatnonzero(self.active[r]),
            fitted=self.fitted[r],
            objective=float(self.objective[r]),
        )


# ---------------------------------------------------------------------------
# scalar/vector threshold operators
# ---------------------------------------------------------------------------

def soft_threshold(v, t: float):
    """Componentwise sign(v) * max(|v| - t, 0); exact zeros at |v| <= t."""
    if not t >= 0:  # a NaN fails too
        raise ValueError("t must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def hard_threshold(v, t: float):
    """Componentwise v * 1{|v| >= t}.  The boundary |v| = t is kept."""
    if not t >= 0:  # a NaN fails too
        raise ValueError("t must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.where(np.abs(v) >= t, v, 0.0)


# ---------------------------------------------------------------------------
# least squares on a fixed support
# ---------------------------------------------------------------------------

def _support_indices(S, p: int) -> tuple:
    """The distinct column indices in S, sorted.  Each must be an integer
    (anything operator.index accepts, so numpy integers too) in [0, p)."""
    try:
        items = sorted({operator.index(i) for i in S})
    except TypeError:
        raise ValueError("support indices must be integers") from None
    if items and (items[0] < 0 or items[-1] >= p):
        raise ValueError(f"support indices out of range for p={p}")
    return tuple(items)


def _rowwise(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """A @ M one row of A (..., m) at a time (a stack of vector-matrix
    products), so no row's bits depend on the other rows of A."""
    return np.matmul(A[..., None, :], M)[..., 0, :]


def _on_supports(cache: _DesignCache, Y: np.ndarray, masks: np.ndarray, signs=None, lam=None):
    """Least squares of each row of Y (R, n), or of a stack (s, R, n) of
    sides, on its active columns (masks), beta_S = pinv(X_S) y, or with
    signs (R, p) and lam ((R,) or (s, R)) the lasso on that support and
    signs, pinv(X_S)(y - lam pinv(X_S)' z_S), exact where X_S has full
    column rank.  Each row's pinv(X_S), gathered from one table lookup per
    cardinality in chunks of _WALK_FLOATS floats, and pinv(X_S)' z_S serve
    all its sides, each multiplied alone, as X does beta, so no row's bits
    depend on the others.  Returns (beta (..., R, p), fitted (..., R, n),
    rank of X_S per row)."""
    (n, p), R = cache.X.shape, masks.shape[0]
    beta, rank = np.zeros(Y.shape[:-1] + (p,)), np.empty(R)
    for g in cache.lookup(masks):
        rank[g.rows] = g.rank
        cols = np.nonzero(masks[g.rows])[1].reshape(g.rows.size, g.k)
        step = max(1, _WALK_FLOATS // (max(g.k, 1) * n))
        for c in range(0, g.rows.size, step):
            r, S = g.rows[c:c + step], cols[c:c + step]
            P, y = g.pinv[g.slot[c:c + step]], Y[..., r, :, None]
            if signs is not None:
                z = np.matmul(P.transpose(0, 2, 1), signs[r[:, None], S, None])
                y = y - lam[..., r, None, None] * z
            beta[..., r[:, None], S] = np.matmul(P, y)[..., 0]
    return beta, _rowwise(beta, cache.X.T), rank


def refit_on_active_sets(X: np.ndarray, Y: np.ndarray, masks: np.ndarray):
    """Least-squares refit of every response row on its own active set.

    Each row is solved alone through its support's pseudoinverse, so its
    bits do not depend on the other rows.  Y (R, n) must be finite and
    masks a boolean array (R, p).  Returns (beta (R, p), fitted (R, n)).
    """
    Y, masks = _responses(Y, X.shape[0]), np.asarray(masks)
    if masks.dtype != bool or masks.shape != (Y.shape[0], X.shape[1]):
        raise ValueError(f"masks must be a boolean array of shape {(Y.shape[0], X.shape[1])}")
    return _on_supports(_design_cache(X), Y, masks)[:2]


def _batch_refit(X: np.ndarray, Y: np.ndarray, masks: np.ndarray) -> BatchFit:
    """Least squares of each row of Y on its active set, with half the
    residual sum of squares as the objective.  Goes through the public
    refit_on_active_sets, so a wrapper on that name sees every relaxed-lasso
    and fixed-support refit."""
    beta, fitted = refit_on_active_sets(X, Y, masks)
    objective = 0.5 * np.sum((Y - fitted) ** 2, axis=1)
    return BatchFit(beta=beta, fitted=fitted, active=beta != 0, objective=objective,
                    solved_on=masks)


def _batch_relaxed(X: np.ndarray, Y: np.ndarray, lasso: BatchFit) -> BatchFit:
    """The relaxed lasso: the least-squares refit on the lasso fit's active
    sets, keeping the signs of the lasso fit."""
    return replace(_batch_refit(X, Y, lasso.active), signs=np.sign(lasso.beta).astype(np.int8))


def least_squares_on_support(X: DesignMatrix, y: np.ndarray, S) -> FitOutput:
    """Project y onto the span of the columns indexed by S.

    The coefficient vector restricted to S is the minimum-norm least squares
    solution, so rank-deficient (even duplicated) columns are handled.
    """
    return FitProcedure("least-squares-on-support", 0.0, X, support=S).fit(y)


# ---------------------------------------------------------------------------
# lasso by its exact path in lambda
# ---------------------------------------------------------------------------

def _kkt_residuals(beta: np.ndarray, c: np.ndarray, lam: float) -> np.ndarray:
    """Worst violation of the lasso stationarity conditions per row, from
    beta (R, p) and c = X'(y - X beta) (R, p): |c_j - lam sign(beta_j)| on
    the support, |c_j| - lam off it, and 0 at best.  Infinite where beta or
    c is not finite, so a NaN fit never passes."""
    V = np.abs(c - lam * np.sign(beta))
    V[beta == 0] -= lam
    finite = np.all(np.isfinite(beta) & np.isfinite(c), axis=1)
    return np.where(finite, V.max(axis=1, initial=0.0), np.inf)


def lasso_kkt_residual(X: DesignMatrix, y: np.ndarray, lam: float, beta: np.ndarray) -> float:
    """Worst violation of the lasso stationarity conditions at beta.

    Zero at the exact minimizer: |X_j'(y - X beta)| <= lam off the support
    and = lam with matching sign on it.  Infinite when beta or the gradient
    is not finite, so a NaN fit never passes.
    """
    Xv, beta = X.values, np.asarray(beta, dtype=float)[None, :]
    with np.errstate(invalid="ignore", over="ignore"):  # inf gives inf or NaN: both fail
        c = (np.asarray(y, dtype=float) - _rowwise(beta, Xv.T)) @ Xv
    return float(_kkt_residuals(beta, c, lam)[0])


def _homotopy(cache, y, lam, z, dy, dlam, live, visit):
    """Move the lasso state of the rows live, the response y, lam and the
    signs z (int8, 0 off the active set A), in place along the direction
    (dy, dlam), knot to knot, in blocks of _WALK_FLOATS // (n + 4 p) rows.
    On A, beta_A = pinv(X_A)(y - lam pinv(X_A)' z_A) moves by
    w = pinv(X_A)(dy - dlam pinv(X_A)' z_A) per unit step, both from one
    support kernel call on the stack [y; dy] per step, and c = X'(y - X beta)
    by dc = X'(dy - X w), each row alone.  At a knot some beta_j, j in A,
    reaches 0 (j leaves, at u = -beta_j / w_j where z_j w_j < 0) or some
    c_j, j not in A, reaches sigma lam (j enters with sign sigma, at
    u = (lam - sigma c_j) / (sigma dc_j - dlam) where that denominator is
    > 0).  A variable that has just entered does not leave at once, nor one
    that has just left re-enter at once on its old side.  A column enters
    only where the support table's rank of A + {j} is above the step's rank
    of A: a row whose pick would bring in a column that keeps the rank has
    that event barred and picks again, one table lookup of the rows'
    candidate supports per round, until no pick is barred.  A + {j} is the
    support the next step looks up when j does enter.  No column enters
    once n are active, which spares the table supports of more than n.

    Each step calls visit(live, u, kind, j, zl): the live rows, how far
    each is from its next knot (inf if none), that knot's event (kind 0: j
    leaves; 1 or 2: j enters with sign +1 or -1) and the signs zl up to it.
    visit returns which rows go through their knot.  Returns the rows still
    going after _MAX_LINE_STEPS steps."""
    n, p = cache.X.shape
    bar = np.full(y.shape[0], 3 * p)  # kind * p + j of the event the last knot rules out
    sig = np.array([1.0, -1.0])[:, None]
    block = max(1, _WALK_FLOATS // (n + 4 * p))
    stuck = []
    for r0 in range(0, live.size, block):
        rows = live[r0:r0 + block]
        for _ in range(_MAX_LINE_STEPS):
            if not rows.size:
                break
            m, zl = rows.size, z[rows]
            A = zl != 0
            ys = np.stack((y[rows], dy[rows]))
            (beta, w), fitted, rank = _on_supports(cache, ys, A, zl,
                                                   np.stack((lam[rows], np.full(m, dlam))))
            c, dc = _rowwise(ys - fitted, cache.X)
            # u[row, kind, j]: how far the row moves before j leaves (kind 0)
            # or enters with sign +1 (kind 1) or -1 (kind 2); kind 3 is the
            # empty bar
            u = np.full((m, 4, p), np.inf)
            den = sig * dc[:, None] - dlam
            np.divide(-beta, w, out=u[:, 0], where=A & (zl * w < 0))
            np.divide(lam[rows, None, None] - sig * c[:, None], den, out=u[:, 1:3],
                      where=(den > 0) & ~A[:, None])
            u[A.sum(axis=1) >= n, 1:3] = np.inf  # no column enters once n are active
            u = np.maximum(u, 0.0).reshape(m, 4 * p)
            u[np.arange(m), bar[rows]] = np.inf
            kind, j = np.divmod(np.argmin(u, axis=1), p)
            pick = np.flatnonzero(kind > 0)
            while pick.size:
                cand = A[pick]
                cand[np.arange(pick.size), j[pick]] = True
                pick = pick[cache.ranks(cand) <= rank[pick]]
                u[pick, kind[pick] * p + j[pick]] = np.inf
                kind[pick], j[pick] = np.divmod(np.argmin(u[pick], axis=1), p)
                pick = pick[kind[pick] > 0]
            step = u.min(axis=1)
            go = visit(rows, step, kind, j, zl)
            rows, kind, j, step = rows[go], kind[go], j[go], step[go]
            lam[rows] += step * dlam
            y[rows] += step[:, None] * dy[rows]
            bar[rows] = np.where(kind > 0, j, (1 + (z[rows, j] < 0)) * p + j)
            z[rows, j] = np.array([0, 1, -1], dtype=np.int8)[kind]
        stuck.append(rows)
    return np.concatenate(stuck) if stuck else live


def _lasso_walk(cache, Y, XtY, grid, signs):
    """Walk each row's lasso path down from |X'y|_inf (the kernel with
    dy = 0, dlam = -1), writing its signs at each grid value (positive,
    descending) a step passes into signs (grid.size, rows, p).  A grid
    value within n eps max_j |X_j|'|y| of |X'y|_inf, twice the rounding
    bound of a length-n dot product, keeps zero signs, so the fit there is
    zero whichever summation order computed |X'y|_inf.  Rows not done in
    _MAX_LINE_STEPS steps keep zero signs where they did not reach."""
    lam = np.abs(XtY).max(axis=1, initial=0.0)
    n = Y.shape[1]
    slack = n * np.finfo(float).eps * _rowwise(np.abs(Y), np.abs(cache.X)).max(axis=1, initial=0.0)
    nxt = np.searchsorted(-grid, slack - lam, side="right")  # the next grid value to record

    def record(live, u, kind, j, zl):
        new = lam[live] - u
        stop = np.maximum(nxt[live], np.searchsorted(-grid, -new, side="right"))
        for k in range(int(nxt[live].min()), int(stop.max())):
            rec = (nxt[live] <= k) & (k < stop)
            signs[k, live[rec]] = zl[rec]
        nxt[live] = stop
        return stop < grid.size

    _homotopy(cache, Y.copy(), lam, np.zeros(XtY.shape, dtype=np.int8), np.zeros_like(Y), -1.0,
              np.flatnonzero(nxt < grid.size), record)


def _lasso_path(X: np.ndarray, Y: np.ndarray, lams) -> list[BatchFit]:
    """The lasso at every lambda of lams (any order, repeats allowed) for
    each row of Y: the exact lasso on the support and signs of the row's
    walk, all rows through one support kernel, solved again without any
    coefficient that comes out zero or of the other sign (a knot, to
    rounding).  KKT gate 1e-8 * max(1, |X'y|_inf, lam) per row; lam = 0 gives pinv(X) y."""
    R, p = Y.shape[0], X.shape[1]
    cache = _design_cache(X)
    grid = np.array(sorted({lam for lam in lams if lam > 0}, reverse=True))
    XtY = _rowwise(Y, X)
    scale = np.maximum(1.0, np.abs(XtY).max(axis=1, initial=0.0))
    signs = np.zeros((grid.size, R, p), dtype=np.int8)
    if grid.size:
        _lasso_walk(cache, Y, XtY, grid, signs)
    B = np.zeros((grid.size, R, p))
    for g, Z in enumerate(signs):
        todo = np.arange(R)
        while todo.size:
            masks = Z[todo] != 0
            B[g, todo], _, rank = _on_supports(cache, Y[todo], masks, Z[todo],
                                               np.full(todo.size, grid[g]))
            B[g, todo[rank < masks.sum(axis=1)]] = np.nan  # fails the KKT check
            flip = (Z != 0) & np.where(Z > 0, B[g] <= 0, B[g] >= 0)
            Z[flip] = 0
            todo = np.flatnonzero(flip.any(axis=1))
    del XtY, signs
    fits = {}
    for lam in dict.fromkeys(lams):
        beta = B[np.searchsorted(-grid, -lam)] if lam else _on_supports(
            cache, Y, np.ones((R, p), bool))[0]
        fitted = _rowwise(beta, X.T)
        E = Y - fitted
        res, gate = _kkt_residuals(beta, _rowwise(E, X), lam), 1e-8 * np.maximum(scale, lam)
        bad = np.flatnonzero(~(res <= gate)) if lam else ()
        if len(bad):
            r = bad[0]
            raise NumericalError(
                f"grid index {lams.index(lam)} (lambda={lam:g}): lasso stationarity check failed "
                f"for replication {r}: KKT residual {res[r]:.3e} > {gate[r]:.3e}",
                diagnostic={"replication": int(r), "kkt_residual": float(res[r]),
                            "grid_index": lams.index(lam), "lam": float(lam)})
        objective = 0.5 * np.sum(E ** 2, axis=1) + lam * np.sum(np.abs(beta), axis=1)
        fits[lam] = BatchFit(beta=beta, fitted=fitted, active=beta != 0, objective=objective)
    return [fits[lam] for lam in lams]


def lasso_solve(X: DesignMatrix, y: np.ndarray, lam: float) -> FitOutput:
    """Minimize (1/2)||y - X beta||^2 + lam * ||beta||_1.

    The exact piecewise-linear path in lambda (LARS with the lasso
    modification) is walked down from |X'y|_inf to lam; the exact lasso on
    the support and signs it reaches, checked against the stationarity
    conditions at 1e-8 * max(1, |X'y|_max, lam) (else NumericalError), is
    the result.  lam = 0 gives minimum-norm least squares.
    """
    return FitProcedure("lasso", lam, X).fit(y)


# ---------------------------------------------------------------------------
# best subset selection by exhaustive enumeration
# ---------------------------------------------------------------------------

_TIE_TOL = 1e-12
_DEP_TOL = 1e-10
# A plan row whose one-step residual keeps less than this share of its
# column's norm is recomputed against its whole ancestor chain.
_REORTH_RATIO = 0.1
# Rows of a best-subset level laid side by side when it is reduced, so each
# step of the reduction runs over _WIDE_ROWS * R floats instead of R.
_WIDE_ROWS = 64


def check_subset_capacity(n: int, p: int) -> None:
    """Raise CapacityError unless the best-subset plan of an n x p design
    (one length-n vector per support, 2^p * n floats) fits in
    SUBSET_PLAN_MAX_BYTES."""
    if 8 * n * (1 << p) > SUBSET_PLAN_MAX_BYTES:
        raise CapacityError(
            f"best subset enumeration over 2^{p} supports with n={n} needs "
            f"{8 * n * (1 << p) / 2**20:.0f} MB of plan, more than "
            f"{SUBSET_PLAN_MAX_BYTES >> 20} MB"
        )


@dataclass(frozen=True)
class _SubsetPlan:
    """The design-only part of best subset selection, built once per design.

    Supports are rows in (cardinality, lexicographic) order, the tie-break
    order; cardinality k occupies rows starts[k]:starts[k+1].  Row i
    appends column last[i] to support parent[i] (row 0 is the empty
    support), and q[i] is the unit vector that column adds to the parent's
    orthonormal basis (zero when the column is dependent), so the support's
    half residual sum of squares is its parent's minus (q[i]'y)^2 / 2.
    Every nonzero q[i] is orthogonal to the q of each ancestor of row i to
    working precision (see _build_subset_plan).
    """

    q: np.ndarray
    parent: np.ndarray
    last: np.ndarray
    starts: np.ndarray

    def masks(self, rows: np.ndarray) -> np.ndarray:
        """Boolean support masks (len(rows), p) of the given plan rows,
        walking every row's parent chain at once."""
        i = np.array(rows, dtype=np.intp)
        out = np.zeros((i.size, self.starts.size - 2), dtype=bool)
        live = np.flatnonzero(i)
        while live.size:
            out[live, self.last[i[live]]] = True
            i[live] = self.parent[i[live]]
            live = live[i[live] != 0]
        return out

    def accumulate(self, T: np.ndarray, scale: float | None = None) -> np.ndarray:
        """Sum T along every support's parent chain, in place: row i of
        the result is T[i] (times scale, if given; row 0 is never scaled)
        plus the result at parent[i].  Returns T."""
        for k in range(1, self.starts.size - 1):
            blk = slice(self.starts[k], self.starts[k + 1])
            if scale is not None:
                T[blk] *= scale
            T[blk] += T.take(self.parent[blk], axis=0)
        return T

    @cached_property
    def curvature(self) -> np.ndarray:
        """q * q summed along each parent chain (2^p, n): the line walks' C_S."""
        return self.accumulate(self.q * self.q)

    def half_rss(self, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half residual sum of squares of every support (rows) against
        every response (columns, one per row of Y), written into out (a
        C-contiguous (2^p, len(Y)) array) when given: the scores
        -(q'y)^2 / 2, with 0.5 |y|^2 at the empty support, summed along the
        parent chains.  The -1/2 is applied one level at a time inside the
        sum; as x 0.5 is exact, the bits are those of scaling first."""
        half = np.matmul(self.q, Y.T, out=out)
        half *= half
        half[0] = 0.5 * np.sum(Y * Y, axis=1)
        return self.accumulate(half, -0.5)

    def block_min(self, half: np.ndarray) -> np.ndarray:
        """Columnwise minimum of half over each cardinality, shape (p+1, R).

        A level's first _WIDE_ROWS * (rows // _WIDE_ROWS) rows are reduced
        as a wide view, _WIDE_ROWS rows side by side, then folded to
        (_WIDE_ROWS, R) and reduced again; the other rows are reduced
        apart.  A minimum is exact, so the bits are those of one
        min(axis=0) over the level, and a NaN still propagates."""
        R = half.shape[1]
        out = np.empty((self.starts.size - 1, R))
        for k in range(self.starts.size - 1):
            level = half[self.starts[k]:self.starts[k + 1]]
            m = level.shape[0] - level.shape[0] % _WIDE_ROWS
            out[k] = level[m:].min(axis=0, initial=np.inf)
            if m:
                wide = level[:m].reshape(-1, _WIDE_ROWS * R).min(axis=0)
                np.minimum(out[k], wide.reshape(_WIDE_ROWS, R).min(axis=0), out=out[k])
        return out

    def winners(self, half: np.ndarray, block_min: np.ndarray, lams) -> np.ndarray:
        """Row of the winning support per lambda in lams and column of half,
        shape (len(lams), R): minimal objective, ties within 1e-12 broken by
        cardinality then lexicographic order.  block_min[k] is the columnwise
        minimum of cardinality k's rows.  Each cardinality that some
        (lambda, column) pair chose is scanned once for all such pairs, at
        most max(R, _WALK_FLOATS // rows) pairs per gather of its rows."""
        R = half.shape[1]
        pen = np.asarray(lams, dtype=float)[:, None] * np.arange(block_min.shape[0])
        M = block_min + pen[:, :, None]
        vmin = M.min(axis=1)
        if not np.all(np.isfinite(vmin)):
            raise NumericalError("best subset objective is not finite")
        thr = vmin + _TIE_TOL
        card = np.argmax(M <= thr[:, None], axis=1).ravel()  # pair l R + r
        win = np.empty(thr.shape, dtype=np.intp)
        # the cardinalities present, without np.unique, whose first call
        # imports numpy.ma (10-20 ms)
        for k in np.flatnonzero(np.bincount(card)):
            level = half[self.starts[k]:self.starts[k + 1]]
            pairs = np.flatnonzero(card == k)
            step = max(R, _WALK_FLOATS // level.shape[0])
            for s in range(0, pairs.size, step):
                l, r = np.divmod(pairs[s:s + step], R)
                blk = level[:, r]
                blk += pen[l, k]
                win[l, r] = self.starts[k] + np.argmax(blk <= thr[l, r], axis=0)
        return win


def _build_subset_plan(X: np.ndarray) -> _SubsetPlan:
    """Orthonormal increments of all 2^p supports, one cardinality at a time.

    The children of a support append each column after its last one, in
    increasing order, so the rows come out in lexicographic order within a
    cardinality.  Row S = P + {j} takes its residual from one row of the
    level before, T = parent(P) + {j} (for P empty it is x_j), by one
    Gram-Schmidt step:

        w_S = w_T - q_P (q_P'w_T),   w_T = nu_T q_T,

    nu_T being T's residual norm (0 when T is dependent).  The step is
    exact because q_P is orthogonal to the span of parent(P).  Where the
    column cancels heavily, |w_S| < _REORTH_RATIO |x_j|, w_S is recomputed
    from x_j by two classical Gram-Schmidt passes against the q of every
    ancestor of S ("twice is enough"), so the basis stays orthonormal to
    working precision.  A column counts as dependent when what remains is
    within _DEP_TOL of zero relative to its norm, or when the parent's
    basis already has min(n, p) vectors.  Each level runs in chunks of at
    most _WALK_FLOATS floats per temporary; every row is computed alone, so
    the chunk size does not change a bit of the plan.
    """
    n, p = X.shape
    rank_cap = min(n, p)
    col_norms = np.sqrt(np.sum(X * X, axis=0))
    starts = np.cumsum([0] + [math.comb(p, k) for k in range(p + 1)])
    q = np.zeros((1 << p, n))
    parent = np.zeros(1 << p, dtype=np.intp)
    last = np.full(1 << p, -1, dtype=np.intp)
    rank = np.zeros(1, dtype=np.intp)  # per row of level k-1
    nu = np.zeros(1)  # residual norm per row of level k-1, 0 where dependent
    step = max(1, _WALK_FLOATS // n)
    for k in range(1, p + 1):
        first = last[starts[k - 1]:starts[k]] + 1
        par = np.repeat(np.arange(first.size), p - first)
        j = np.arange(par.size) - np.repeat(np.cumsum(p - first) - p, p - first)
        rows = np.arange(starts[k], starts[k + 1])
        parent[rows] = starts[k - 1] + par
        last[rows] = j
        # T = parent(P) + {j} sits j - last(P) rows after P among its siblings
        tpar = par + j - last[parent[rows]]
        new_rank = np.empty(rows.size, dtype=np.intp)
        new_nu = np.zeros(rows.size)
        for s in range(0, rows.size, step):
            r, jj = rows[s:s + step], j[s:s + step]
            if k == 1:
                w = X[:, jj].T.copy()
            else:
                t = tpar[s:s + step]
                w = q[starts[k - 1] + t]
                w *= nu[t, None]
                qP = q[parent[r]]
                c = np.einsum("bn,bn->b", qP, w)
                w -= np.multiply(qP, c[:, None], out=qP)
                del qP  # not alive during the next chunk's gathers
            nrm = np.sqrt(np.einsum("bn,bn->b", w, w))
            base = rank[par[s:s + step]]
            live = base < rank_cap
            heavy = np.flatnonzero(live & (nrm < _REORTH_RATIO * col_norms[jj]))
            if k > 1 and heavy.size:
                wh = _reorthogonalize(X, q, parent, r[heavy], jj[heavy], k)
                nrm[heavy] = np.sqrt(np.einsum("bn,bn->b", wh, wh))
                w[heavy] = wh
            indep = (nrm > _DEP_TOL * col_norms[jj]) & live
            w[~indep] = 0.0
            q[r[0]:r[-1] + 1] = np.divide(w, nrm[:, None], out=w, where=indep[:, None])
            new_nu[s:s + step] = np.where(indep, nrm, 0.0)
            new_rank[s:s + step] = base + indep
        rank, nu = new_rank, new_nu
    return _SubsetPlan(q=q, parent=parent, last=last, starts=starts)


def _reorthogonalize(X, q, parent, rows, j, k):
    """Residuals of columns j against the bases of the parents of plan
    rows (cardinality k): two classical Gram-Schmidt passes against the q
    of every ancestor, levels 1..k-1 in order, in chunks of at most
    _WALK_FLOATS floats."""
    n = X.shape[0]
    out = X[:, j].T.copy()
    step = max(1, _WALK_FLOATS // ((k - 1) * n))
    for s in range(0, rows.size, step):
        i = parent[rows[s:s + step]]
        chain = np.empty((i.size, k - 1), dtype=np.intp)
        for d in range(k - 2, -1, -1):
            chain[:, d] = i
            i = parent[i]
        A = q[chain]
        w = out[s:s + step]
        for _ in range(2):
            w -= np.einsum("bkn,bk->bn", A, np.einsum("bkn,bn->bk", A, w))
    return out


def _svd_factors(X: np.ndarray, cols: np.ndarray):
    """(pinv, rank) of X_S for each support S of cols (m, k), from one
    stacked SVD as np.linalg.pinv and matrix_rank compute them, bit for bit."""
    A = np.moveaxis(X[:, cols], 0, 1)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    s_max = np.max(s, axis=-1, keepdims=True, initial=0.0)  # s >= 0; 0 only when k = 0
    rank = np.count_nonzero(s > s_max * (max(A.shape[-2:]) * np.finfo(float).eps), axis=-1)
    large = s > 1e-15 * s_max
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    pinv = np.matmul(np.swapaxes(vt, -1, -2), s[..., None] * np.swapaxes(u, -1, -2))
    return pinv, rank


# Largest |X_S|_F |pinv(X_S)|_F at which a support keeps its QR fill.  The
# product bounds cond(X_S), so matrix_rank surely gives k, and the pinv is
# within about _QR_COND eps (relative) of the SVD's.
_QR_COND = 1e6


def _support_factors(X: np.ndarray, cols: np.ndarray):
    """(pinv, rank) of X_S for each support S of cols (m, k).  Where
    0 < k <= n a stacked QR, X_S = QR, gives pinv = R^-1 Q' and rank k,
    kept where certified: R's diagonal is nonzero, the pinv is finite and
    |X_S|_F |pinv|_F <= _QR_COND.  Every other support goes to
    _svd_factors, so which fill a support gets, and its bits, depend on X
    and S alone."""
    (n, _), (m, k) = X.shape, cols.shape
    if not 0 < k <= n:
        return _svd_factors(X, cols)
    q, r = np.linalg.qr(np.moveaxis(X[:, cols], 0, 1))
    fro = np.sqrt(np.sum(X * X, axis=0)[cols].sum(axis=1))
    # |pinv|_F >= |R^-1|_2 >= 1 / min |r_ii|.  An R that fails this is
    # replaced by I before the stacked inverse, which one singular R would
    # fail as a whole
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1)
    qr = (diag > 0) & (fro <= _QR_COND * diag)
    r[~qr] = np.eye(k)
    pinv = np.matmul(np.linalg.inv(r), np.swapaxes(q, 1, 2))
    flat = pinv.reshape(m, -1)
    qr &= fro * np.sqrt(np.sum(flat * flat, axis=1)) <= _QR_COND  # False if not finite
    rank = np.full(m, k)
    if not qr.all():
        pinv[~qr], rank[~qr] = _svd_factors(X, cols[~qr])
    return pinv, rank


# The rows of cardinality k in a lookup: rows[i] has pinv[slot[i]] and rank[i].
_SupportGroup = namedtuple("_SupportGroup", "k rows pinv slot rank")


class _Entries:
    """One cardinality's support-table entries, in the order they went in:
    the first `size` rows of the stacks of pinv (k, n) and rank.  A full
    stack grows by half into a new array, so an entry never moves within a
    stack, and a stack a caller holds keeps its entries as they are, also
    after the table that held it starts over."""

    def __init__(self, pinv, rank):
        self.pinv, self.rank = pinv, rank
        self.size = len(rank)

    @classmethod
    def empty(cls, k: int, n: int) -> _Entries:
        return cls(np.empty((0, k, n)), np.empty(0, np.intp))

    def append(self, pinv: np.ndarray, rank: np.ndarray) -> None:
        """Add entries at the slots from size on."""
        start, end = self.size, self.size + len(rank)
        if end > len(self.rank):
            cap = max(end, len(self.rank) * 3 // 2)
            for name in ("pinv", "rank"):
                old = getattr(self, name)
                grown = np.empty((cap,) + old.shape[1:], old.dtype)
                grown[:start] = old[:start]
                setattr(self, name, grown)
        self.pinv[start:end], self.rank[start:end] = pinv, rank
        self.size = end


class _DesignCache:
    """Everything fits on one design share: the best-subset plan, built on
    first use, and the support table: per cardinality k, the sorted packed
    masks of the supports met so far, the slot of each in that
    cardinality's _Entries, and the entries, pinv (k, n) and rank.  That
    rank is the one the search df subtracts, the lasso's solves check and
    a lasso walk's entry rule reads (a column enters only where it raises
    it).  Whenever it holds more than _SUPPORT_TABLE_BYTES of pinvs it
    starts over empty, so after every lookup it holds at most that.
    Threads may share it: a lookup holds its lock, and entries are only
    appended past the filled ones under it."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self._plan = None
        self._lock = threading.Lock()
        self._table: dict = {}  # k -> (sorted keys, their slots, _Entries)
        self._nbytes = 0

    def plan(self) -> _SubsetPlan:
        plan = self._plan
        if plan is None:
            plan = self._plan = _build_subset_plan(self.X)
        return plan

    def ranks(self, masks: np.ndarray) -> np.ndarray:
        """rank(X_S) of each row's support S (masks (R, p)), one float per row."""
        ranks = np.empty(masks.shape[0])
        for g in self.lookup(masks):
            ranks[g.rows] = g.rank
        return ranks

    def lookup(self, masks: np.ndarray) -> list[_SupportGroup]:
        """One _SupportGroup per cardinality of masks (R, p), in increasing k.
        A cardinality's misses are filled _WALK_FLOATS // (n k) per stacked
        fill and go in together, each charged its pinv's 8 n k bytes.  If
        the table then holds more than the budget it starts over empty: the
        group already built keeps its own stack, and later cardinalities
        fill the empty table."""
        n, budget = self.X.shape[0], _SUPPORT_TABLE_BYTES
        packed = np.ascontiguousarray(np.packbits(masks, axis=1))
        keys = packed.view(f"V{packed.shape[1]}").ravel()
        card = masks.sum(axis=1)
        out = []
        with self._lock:
            # the cardinalities present, without np.unique (see _SubsetPlan.winners)
            for k in np.flatnonzero(np.bincount(card)).tolist():
                rows = np.flatnonzero(card == k)
                q = keys[rows]
                tkeys, tslot, entries = self._table.get(k) or (
                    keys[:0], np.empty(0, np.intp), _Entries.empty(k, n))
                at = np.searchsorted(tkeys, q)
                miss = tkeys[np.minimum(at, tkeys.size - 1)] != q if tkeys.size else (
                    np.ones(q.size, dtype=bool))
                if miss.any():
                    new, first = np.unique(q[miss], return_index=True)
                    cols = np.nonzero(masks[rows[miss][first]])[1].reshape(new.size, k)
                    fill = max(1, _WALK_FLOATS // (n * max(k, 1)))
                    for c in range(0, new.size, fill):
                        entries.append(*_support_factors(self.X, cols[c:c + fill]))
                    pos = np.searchsorted(tkeys, new)
                    tkeys = np.insert(tkeys, pos, new)
                    tslot = np.insert(tslot, pos, np.arange(entries.size - new.size, entries.size))
                    at = np.searchsorted(tkeys, q)
                    self._table[k] = (tkeys, tslot, entries)
                    self._nbytes += 8 * k * n * new.size
                    if self._nbytes > budget:
                        self._table, self._nbytes = {}, 0
                slot = tslot[at]
                out.append(_SupportGroup(k, rows, entries.pinv, slot, entries.rank[slot]))
        return out


# The most recent design's cache, as one (key, _DesignCache) pair: a caller
# may fit from threads of its own, and a single assignment is atomic.
_PLAN_CACHE = None


def _design_cache(X: np.ndarray) -> _DesignCache:
    global _PLAN_CACHE
    key = (X.shape, X.tobytes())
    cached = _PLAN_CACHE
    if cached is not None and cached[0] == key:
        return cached[1]
    cache = _DesignCache(X)
    _PLAN_CACHE = (key, cache)
    return cache


def _batch_best_subset_grid(X: np.ndarray, Y: np.ndarray, lams) -> list[BatchFit]:
    """Fit best subset selection for every lambda in lams.  One plan serves
    the design, and one 2^p x block score table, allocated once and
    rewritten for each block of responses, serves every lambda (the scores
    depend on lambda only through the cardinality penalty): each block's
    winners for the whole grid come from one scan per chosen cardinality.
    The capacity guard and the lambdas are checked by FitProcedure."""
    cache = _design_cache(X)
    plan = cache.plan()
    R, N = Y.shape[0], 1 << X.shape[1]
    step = max(1, _BLOCK_FLOATS // N)
    table = np.empty(N * min(step, R))  # every block's scores, in turn
    win = np.empty((len(lams), R), dtype=np.intp)
    for s in range(0, R, step):
        Yb = Y[s:s + step]
        half = plan.half_rss(Yb, out=table[:N * Yb.shape[0]].reshape(N, Yb.shape[0]))
        block_min = plan.block_min(half)
        win[:, s:s + step] = plan.winners(half, block_min, lams)
    out = []
    for lam, w in zip(lams, win):
        masks = plan.masks(w)
        beta, fitted = _on_supports(cache, Y, masks)[:2]
        active = beta != 0
        objective = 0.5 * np.sum((Y - fitted) ** 2, axis=1) + lam * active.sum(axis=1)
        out.append(BatchFit(beta=beta, fitted=fitted, active=active, objective=objective,
                            solved_on=masks))
    return out


def best_subset_solve(X: DesignMatrix, y: np.ndarray, lam: float) -> FitOutput:
    """Minimize (1/2)||y - X beta||^2 + lam * ||beta||_0 exactly.

    All 2^p supports are scored through the design's cached enumeration
    plan (guarded by check_subset_capacity: 2^p * n floats within
    SUBSET_PLAN_MAX_BYTES); the winning support's coefficients are exact
    least squares on those columns.  Among supports whose objectives agree
    to 1e-12, the smallest cardinality wins, then the lexicographically
    smallest index set.
    """
    return FitProcedure("best-subset", lam, X).fit(y)


# ---------------------------------------------------------------------------
# relaxed lasso and ridge
# ---------------------------------------------------------------------------

def relaxed_lasso_fit(X: DesignMatrix, y: np.ndarray, lam: float) -> FitOutput:
    """Least squares refit on the lasso active set at the same lambda."""
    return FitProcedure("relaxed-lasso", lam, X).fit(y)


def _batch_ridge(X: np.ndarray, Y: np.ndarray, lam: float) -> BatchFit:
    p = X.shape[1]
    M = np.linalg.solve(X.T @ X + lam * np.eye(p), X.T)
    B = _rowwise(Y, M.T)
    fitted = _rowwise(B, X.T)
    objective = 0.5 * np.sum((Y - fitted) ** 2, axis=1) + 0.5 * lam * np.sum(B * B, axis=1)
    active = np.ones_like(B, dtype=bool)
    return BatchFit(beta=B, fitted=fitted, active=active, objective=objective)


def ridge_fit(X: DesignMatrix, y: np.ndarray, lam: float) -> FitOutput:
    """beta = (X'X + lam I)^{-1} X'y.  The active set is all p indices by
    convention: ridge never excludes a variable, and exact zeros occur with
    probability zero."""
    return FitProcedure("ridge", lam, X).fit(y)


def _batch_threshold(X: np.ndarray, Y: np.ndarray, t: float, hard: bool) -> BatchFit:
    V = _rowwise(Y, X)
    B = hard_threshold(V, t) if hard else soft_threshold(V, t)
    fitted = _rowwise(B, X.T)
    objective = 0.5 * np.sum((Y - fitted) ** 2, axis=1)
    return BatchFit(beta=B, fitted=fitted, active=B != 0, objective=objective)


# ---------------------------------------------------------------------------
# the procedure abstraction
# ---------------------------------------------------------------------------

# Kinds whose fits along a grid share work: best subset one score table,
# the lasso one walk down each response's path, the relaxed lasso that walk.
_PATH_KINDS = ("best-subset", "lasso", "relaxed-lasso")


def _path(kind: str, X: np.ndarray, Y: np.ndarray, lams: list) -> list[BatchFit]:
    """The fits of a kind of _PATH_KINDS at every lambda of lams, one
    BatchFit each, in order; the lambdas are checked by FitProcedure."""
    if kind == "best-subset":
        return _batch_best_subset_grid(X, Y, lams)
    path = _lasso_path(X, Y, lams)
    return path if kind == "lasso" else [_batch_relaxed(X, Y, fit) for fit in path]


def _responses(Y, n: int) -> np.ndarray:
    """Y as a finite float array of shape (R, n): NaN or infinite responses
    would otherwise yield silently wrong fits (all-zero best subsets)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != n:
        raise ValueError(f"Y must have shape (R, {n})")
    if not np.all(np.isfinite(Y)):
        raise ValueError("responses must be finite")
    return Y


@dataclass(frozen=True)
class FitProcedure:
    """A fitting procedure as a deterministic function of the response.

    ``kind`` selects the algorithm; ``lam`` is the penalty level, or the
    threshold level for the two thresholding kinds.  Thresholding kinds
    require a design with exactly orthonormal columns (they threshold X'y),
    and ``support`` applies only to least-squares-on-support.
    """

    kind: str
    lam: float
    design: DesignMatrix
    support: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown procedure kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and nonnegative")
        if self.kind == "ridge" and not self.lam > 0:
            raise ValueError("ridge requires lam > 0")
        if self.kind in ("hard-threshold", "soft-threshold") and not self.design.orthogonal:
            raise ValueError("thresholding procedures require an orthogonal design")
        if self.kind == "least-squares-on-support":
            if self.support is None:
                raise ValueError("least-squares-on-support requires a support")
            object.__setattr__(self, "support", _support_indices(self.support, self.design.p))
        elif self.support is not None:
            raise ValueError(f"support is not a parameter of kind {self.kind!r}")
        if self.kind == "best-subset":
            check_subset_capacity(self.design.n, self.design.p)

    def fit_many(self, Y: np.ndarray) -> BatchFit:
        """Fit every row of Y (shape (R, n)) against the shared design."""
        Y = _responses(Y, self.design.n)
        X = self.design.values
        if self.kind in _PATH_KINDS:
            return _path(self.kind, X, Y, [self.lam])[0]
        if self.kind == "least-squares-on-support":
            masks = np.zeros((Y.shape[0], self.design.p), dtype=bool)
            masks[:, list(self.support)] = True
            return _batch_refit(X, Y, masks)
        if self.kind == "ridge":
            return _batch_ridge(X, Y, self.lam)
        return _batch_threshold(X, Y, self.lam, hard=self.kind == "hard-threshold")

    def fit(self, y: np.ndarray) -> FitOutput:
        return self.fit_many(np.asarray(y, dtype=float)[None, :]).row(0)


def fit_path(kind: str, design: DesignMatrix, Y: np.ndarray, lam_grid, support=None) -> list[BatchFit]:
    """Fit one procedure across a whole lambda grid with shared work.

    Best subset scores every support once per block of responses and picks
    each lambda's winners from that one table.  The lasso and the relaxed
    lasso walk each response's lasso path once, through every grid value
    (a NumericalError names the grid index and lambda it failed at).  Other
    kinds loop.  Returns one BatchFit per grid value, in order.
    """
    Y, X = _responses(Y, design.n), design.values
    procs = [FitProcedure(kind=kind, lam=float(lam), design=design, support=support)
             for lam in lam_grid]
    if procs and kind in _PATH_KINDS:
        return _path(kind, X, Y, [proc.lam for proc in procs])
    return [proc.fit_many(Y) for proc in procs]


# ---------------------------------------------------------------------------
# exact jumps along coordinate lines
# ---------------------------------------------------------------------------

# Steps of one envelope walk or homotopy: each step passes a winner switch
# or a lasso knot, so only a degenerate line comes near this.
_MAX_LINE_STEPS = 10_000


def _line_error(message: str, rep, coord, line: int, diagnostic=None) -> NumericalError:
    rep, coord = int(rep[line]), int(coord[line])
    return NumericalError(
        f"{message} (replication {rep}, coordinate {coord})",
        diagnostic={**(diagnostic or {}), "replication": rep, "coordinate": coord},
    )


def _first_crossing(a0, a1, a2):
    """Smallest u > 0 at which a0 + a1 u + a2 u^2 falls below zero, where
    a0 >= 0 (a0 = 0 marks a tie whose a1, a2 already favor the current
    winner), elementwise; inf where it never does.  The roots come from the
    cancellation-free pair qq / a2 and a0 / qq."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq = np.sqrt(a1 * a1 - 4.0 * a2 * a0)
        qq = -0.5 * (a1 + np.copysign(sq, a1))
        r1 = qq / a2
        r2 = a0 / qq
    return np.minimum(np.where(r1 > 0, r1, np.inf), np.where(r2 > 0, r2, np.inf))


def _envelope_walk(A, B, C, pen, lo, hi, lines, rep, coord):
    """Walk the lower envelope of the best-subset objectives along a
    coordinate line, one column per line.

    Support S (row) has objective pen_S - A_S/2 - s B_S - s^2 C_S / 2 at
    coordinate value s, up to a term shared by all supports, and fitted
    value B_S + s C_S at the coordinate.  Just right of any point the
    winner has the least objective, then the least slope, then the least
    curvature, then the earliest plan row (cardinality, then lexicographic
    order); objectives within 1e-12 relative count as equal.  Each step
    moves every line to the first root at which another support falls
    below its winner.  Returns (line, location, left, right) of every
    winner switch; line k is replication rep[k], coordinate coord[k]."""
    s = lo.astype(float)
    prev = np.zeros(s.size, dtype=np.intp)
    left = np.empty(s.size)
    live = np.arange(s.size)
    out = []
    for step in range(_MAX_LINE_STEPS):
        a, b, c = A[:, live], B[:, live], C[:, live]
        sl = s[live]
        v = pen - 0.5 * a - sl * b - (0.5 * sl * sl) * c
        g = -b - sl * c
        vmin = v.min(axis=0)
        tied = v <= vmin + _TIE_TOL * (1.0 + np.abs(vmin))
        gt = np.where(tied, g, np.inf)
        best = tied & (gt == gt.min(axis=0))
        ct = np.where(best, c, -np.inf)
        best &= ct == ct.max(axis=0)
        w = np.argmax(best, axis=0)
        r = np.arange(live.size)
        bw, cw = b[w, r], c[w, r]
        if step:
            moved = w != prev[live]
            k = live[moved]
            out.append((lines[k], sl[moved], left[k], bw[moved] + sl[moved] * cw[moved]))
        u = _first_crossing(np.where(tied, 0.0, v - v[w, r]), g - g[w, r],
                            0.5 * (cw - c)).min(axis=0)
        t = np.maximum(sl + u, np.nextafter(sl, np.inf))
        go = t <= hi[live]
        prev[live] = w
        live = live[go]
        s[live] = t[go]
        left[live] = bw[go] + t[go] * cw[go]
        if not live.size:
            return out
    raise _line_error("best-subset envelope walk did not finish", rep, coord, lines[live[0]])


def _subset_line_jumps(plan: _SubsetPlan, Y0, rep, coord, lo, hi, lam):
    """Best-subset winner switches along every line.  Along the line with
    coordinate i set to s, support S keeps the plan's unit vectors q_a,
    so q_a'y = q_a'y0 + s q_a[i] (y0 is the response with coordinate i
    zeroed); summing over the parent chain as half_rss does gives
    A_S = sum (q_a'y0)^2, B_S = sum (q_a'y0) q_a[i] and C_S = sum q_a[i]^2.
    Each line's q_a'y0 are one vector-matrix product of its own, so no
    line's bits depend on the other lines."""
    N = plan.q.shape[0]
    card = np.repeat(np.arange(plan.starts.size - 1), np.diff(plan.starts))
    pen = (lam * card)[:, None]
    Cq = plan.curvature
    out = []
    step = max(1, _WALK_FLOATS // N)
    for start in range(0, Y0.shape[0], step):
        lines = np.arange(start, min(start + step, Y0.shape[0]))
        d = plan.q[:, coord[lines]]
        c = _rowwise(Y0[lines], plan.q.T).T
        out += _envelope_walk(plan.accumulate(c * c), plan.accumulate(c * d),
                              Cq[:, coord[lines]], pen, lo[lines], hi[lines], lines, rep, coord)
    return out


def _hard_line_jumps(X, Y0, coord, lo, hi, t):
    """Hard-threshold switches along every line: X'y moves as
    v0 + s X[i, :], so coefficient j switches where v_j = +-t, at
    s = (+-t - v0_j) / X_ij, and fitted[i] moves by X_ij times its
    change."""
    V0 = _rowwise(Y0, X)
    Xi = X[coord]
    with np.errstate(divide="ignore", invalid="ignore"):
        loc = (np.array([-t, t])[:, None, None] - V0) / Xi
    side, line, j = np.nonzero((Xi != 0) & (loc >= lo[:, None]) & (loc <= hi[:, None]))
    s = loc[side, line, j]
    k = np.arange(s.size)
    V = V0[line] + s[:, None] * Xi[line]
    coef = np.where(np.abs(V) >= t, V, 0.0)
    coef[k, j] = 0.0
    base = np.sum(coef * Xi[line], axis=1)
    xj = Xi[line, j]
    step = (2 * side - 1) * t * xj  # X_ij times the switching coefficient, +-t
    enters = (2 * side - 1) * xj > 0  # |v_j| grows with s
    return [(line, s, base + np.where(enters, 0.0, step), base + np.where(enters, step, 0.0))]


def _relaxed_line_jumps(proc: FitProcedure, Y, rep, coord, lo, hi, signs=None):
    """Relaxed-lasso jumps along every line, by the lasso homotopy in the
    response (the kernel with dlam = 0) from the gated lasso fit of the
    line's replication at s = y_ri (its signs, fit here unless given): up
    to hi with dy = e_i and down to lo with dy = -e_i, in one kernel call.
    Only knots in [lo, hi] count; a knot at y_ri is passed by one walk
    only, and one passed going down has its sides swapped.  At each knot
    fitted[i] jumps from (P_A y)_i to (P_A' y)_i, A and A' the active sets
    left and right of it, from one support kernel call after the walk.
    Returns (line, location, left, right) of every knot."""
    lam, X, m = proc.lam, proc.design.values, rep.size
    cache = _design_cache(X)
    if signs is None:
        signs = np.sign(_lasso_path(X, Y, (lam,))[0].beta).astype(np.int8)
    z = signs[rep]
    up = np.arange(2 * m) < m  # rows m.. walk the same lines down
    s = np.tile(Y[rep, coord], 2)
    dy = np.zeros((2 * m, X.shape[0]))
    dy[np.arange(2 * m), np.tile(coord, 2)] = np.where(up, 1.0, -1.0)
    lo, hi = np.tile(lo, 2), np.tile(hi, 2)
    knots = []

    def record(live, u, kind, j, zl):
        t = np.where(up[live], s[live] + u, s[live] - u)
        go = np.where(up[live], t <= hi[live], t >= lo[live])
        s[live[go]] = t[go]
        k = go & (t >= lo[live]) & (t <= hi[live])
        knots.append((live[k], t[k], zl[k] != 0, kind[k], j[k]))
        return go

    stuck = _homotopy(cache, np.tile(Y[rep], (2, 1)), np.full(2 * m, lam), np.tile(z, (2, 1)),
                      dy, 0.0, np.flatnonzero(np.where(up, s <= hi, s >= lo)), record)
    if stuck.size:
        raise _line_error("lasso homotopy did not finish", rep, coord, stuck[0] % m)
    if not knots:
        return []
    row, loc, before, kind, j = (np.concatenate(col) for col in zip(*knots))
    K, line = row.size, row % m
    after = before.copy()
    after[np.arange(K), j] = kind > 0
    down = ~up[row, None]
    masks = np.concatenate((np.where(down, after, before), np.where(down, before, after)))
    ys = Y[rep[line]]
    ys[np.arange(K), coord[line]] = loc
    _, fitted, rank = _on_supports(cache, np.concatenate((ys, ys)), masks)
    bad = np.flatnonzero(rank < masks.sum(axis=1))
    if bad.size:
        raise _line_error("singular lasso Gram matrix on the active set "
                          f"{np.flatnonzero(masks[bad[0]]).tolist()}", rep, coord, line[bad[0] % K])
    limits = fitted[np.arange(2 * K), np.tile(coord[line], 2)]
    return [(line, loc, limits[:K], limits[K:])]


def _line_jumps(proc: FitProcedure, Y: np.ndarray, lo: np.ndarray, hi: np.ndarray, lines=None,
                signs=None):
    """Every switch of the coordinate maps of a built-in procedure, exactly.

    For each row y of Y (a replication) and each coordinate i, the line
    r * n + i is y with coordinate i set to s, for s in [lo[i], hi[i]], and
    its map is s -> fitted[i]; lines (increasing, default all R * n) picks
    the lines walked; signs, the relaxed lasso's BatchFit.signs of Y if the
    caller has them, spares fitting its lasso again.  Returns arrays (rep,
    coord, loc, left, right), ordered by replication, coordinate and
    location, where left and right are the one-sided limits of the map at
    loc.  Switches whose two sides agree (to the last bits) are included.
    Continuous kinds, and the relaxed lasso at lam = 0 (least squares on
    every column), return empty arrays without fitting.
    """
    Y = _responses(Y, proc.design.n)
    R, n = Y.shape
    X = proc.design.values
    rep, coord = np.divmod(np.arange(R * n) if lines is None else lines, n)
    Y0 = Y[rep]
    Y0[np.arange(rep.size), coord] = 0.0
    lo, hi = np.broadcast_to(lo, n)[coord], np.broadcast_to(hi, n)[coord]
    if proc.kind == "best-subset":
        parts = _subset_line_jumps(_design_cache(X).plan(), Y0, rep, coord, lo, hi, proc.lam)
    elif proc.kind == "hard-threshold":
        parts = _hard_line_jumps(X, Y0, coord, lo, hi, proc.lam)
    elif proc.kind == "relaxed-lasso" and proc.lam > 0:
        parts = _relaxed_line_jumps(proc, Y, rep, coord, lo, hi, signs)
    else:
        parts = []
    parts = parts or [(np.empty(0, dtype=np.intp),) + (np.empty(0),) * 3]
    line, loc, left, right = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((loc, line))
    line = line[order]
    return rep[line], coord[line], loc[order], left[order], right[order]
