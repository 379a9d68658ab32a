"""Stein-type identities for fits with jumps, and their numerical checks.

For a univariate function that is absolutely continuous between finitely
many breakpoints, the normal integration-by-parts identity picks up one
extra term per breakpoint: the density there times the jump height.  This
module verifies that identity by quadrature, locates the discontinuities of
black-box fitting procedures along single response coordinates, and splits
a procedure's degrees of freedom into a derivative (divergence) part and a
jump (boundary) part estimated by Monte Carlo.

The boundary term of a built-in procedure comes from its exact jumps along
each coordinate line, worked out in closed form by ``fitters`` (the
best-subset objective envelope, hard-threshold crossings, the relaxed
lasso's homotopy knots; continuous kinds have none).  Any other object with
``design.n`` and ``fit_many`` is scanned instead.  The scanner samples the
coordinate map on a grid: fits of the procedures in this package are
piecewise linear in the response, so away from active-set changes the
coordinate maps have locally constant slope, a cell whose increment
deviates from its neighbors marks a kink or a jump, and one-sided limits
distinguish the two.  The scanner also serves the tests as an independent
check of the exact paths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .closedform import normal_pdf
from .errors import NumericalError
from .fitters import FitProcedure, _line_jumps
from .model import SignalSpec
from .montecarlo import draw_responses

__all__ = [
    "PiecewiseScalarFunction",
    "JumpRecord",
    "JumpViolation",
    "SteinDecomposition",
    "identity_function",
    "constant_function",
    "hard_threshold_function",
    "soft_threshold_function",
    "sign_function",
    "step_function",
    "clipped_linear_function",
    "polynomial_jump_function",
    "negative_jump_function",
    "removable_break_function",
    "function_library",
    "stein_lhs_univariate",
    "stein_rhs_univariate",
    "verify_stein_univariate",
    "scan_discontinuities",
    "stein_decompose_df",
    "check_jump_positivity",
]

_QUAD_SPAN = 12.0
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-11
_QUAD_LIMIT = 200  # subintervals per panel
_QUAD_ERR_BUDGET = 1e-9
_LIMIT_OFFSET = 1e-7
_BISECT_WIDTH = 1e-9
_SUBCELLS = 8
_FD_STEP = 1e-5  # divergence step, in units of sigma
_JUMP_THRESHOLD = 1e-4  # smaller one-sided differences count as kinks
_SPAN = 8.0  # decomposition scans cover mu_i +/- _SPAN * sigma


# ---------------------------------------------------------------------------
# univariate piecewise functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseScalarFunction:
    """A scalar function that is absolutely continuous between breakpoints.

    ``fn`` evaluates the function, ``dfn`` its derivative (anything may be
    returned exactly at a breakpoint; that set has measure zero).  One-sided
    limits at breakpoints are stored exactly when known; otherwise they are
    approximated by evaluation a hair to the side (1e-9 * max(1, |d|)
    away, so the offset moves the argument at any magnitude).

    ``elementwise`` says that ``fn`` and ``dfn`` also take a float array and
    return the values at each of its points (or one value for all of them),
    bit for bit as on each point alone.  The quadrature then evaluates
    every node of a round in one call; otherwise it calls ``evaluate`` and
    ``derivative`` once per node.
    """

    breakpoints: tuple
    fn: object
    dfn: object
    left_values: tuple | None = None
    right_values: tuple | None = None
    elementwise: bool = False

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        if any(not np.isfinite(b) for b in bps):
            raise ValueError("breakpoints must be finite")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        for vals in (self.left_values, self.right_values):
            if vals is not None and len(vals) != len(bps):
                raise ValueError("one-sided value tuples must match breakpoints")

    def evaluate(self, x: float) -> float:
        return float(self.fn(x))

    def derivative(self, x: float) -> float:
        return float(self.dfn(x))

    def _bp_index(self, d: float) -> int:
        for k, b in enumerate(self.breakpoints):
            if b == d:
                return k
        raise ValueError(f"{d!r} is not a breakpoint")

    def left_limit(self, d: float) -> float:
        k = self._bp_index(d)
        if self.left_values is not None:
            return float(self.left_values[k])
        return self.evaluate(d - 1e-9 * max(1.0, abs(d)))

    def right_limit(self, d: float) -> float:
        k = self._bp_index(d)
        if self.right_values is not None:
            return float(self.right_values[k])
        return self.evaluate(d + 1e-9 * max(1.0, abs(d)))

    def jumps(self) -> list:
        out = []
        for b in self.breakpoints:
            left = self.left_limit(b)
            right = self.right_limit(b)
            out.append(JumpRecord(location=b, left=left, right=right, jump=right - left))
        return out


@dataclass(frozen=True)
class JumpRecord:
    """One discontinuity: location, one-sided values, and their difference."""

    location: float
    left: float
    right: float
    jump: float


# ---------------------------------------------------------------------------
# built-in function library
# ---------------------------------------------------------------------------
#
# Every library function is elementwise: its one form serves ``evaluate``
# on a float and the quadrature on a node array, so both see the same bits.

def identity_function() -> PiecewiseScalarFunction:
    return PiecewiseScalarFunction((), lambda x: x, lambda x: 1.0, elementwise=True)


def constant_function(c: float = 1.5) -> PiecewiseScalarFunction:
    return PiecewiseScalarFunction((), lambda x: c, lambda x: 0.0, elementwise=True)


def hard_threshold_function(t: float) -> PiecewiseScalarFunction:
    """x kept when |x| >= t, zeroed otherwise; jumps of +t at -t and +t."""
    if not t >= 0:  # a NaN fails too
        raise ValueError("t must be nonnegative")
    if t == 0:
        return identity_function()

    def fn(x):
        return np.where(np.abs(x) >= t, x, 0.0)

    def dfn(x):
        return np.where(np.abs(x) > t, 1.0, 0.0)

    return PiecewiseScalarFunction(
        (-t, t), fn, dfn,
        left_values=(-t, 0.0), right_values=(0.0, t), elementwise=True,
    )


def soft_threshold_function(t: float) -> PiecewiseScalarFunction:
    """Shrink toward zero by t; continuous, with kinks at -t and t."""
    if not t >= 0:  # a NaN fails too
        raise ValueError("t must be nonnegative")

    def fn(x):
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    def dfn(x):
        return np.where(np.abs(x) > t, 1.0, 0.0)

    bps = (-t, t) if t > 0 else ()
    left = (0.0, 0.0) if t > 0 else None
    return PiecewiseScalarFunction(
        bps, fn, dfn, left_values=left, right_values=left, elementwise=True,
    )


def sign_function() -> PiecewiseScalarFunction:
    return PiecewiseScalarFunction(
        (0.0,), np.sign, lambda x: 0.0,
        left_values=(-1.0,), right_values=(1.0,), elementwise=True,
    )


def step_function(at: float = 0.0) -> PiecewiseScalarFunction:
    return PiecewiseScalarFunction(
        (at,), lambda x: np.where(x >= at, 1.0, 0.0), lambda x: 0.0,
        left_values=(0.0,), right_values=(1.0,), elementwise=True,
    )


def clipped_linear_function(lo: float, hi: float) -> PiecewiseScalarFunction:
    """x clipped to [lo, hi]; continuous with kinks at the clip points."""
    if not lo < hi:
        raise ValueError("need lo < hi")

    def dfn(x):
        return np.where((lo < x) & (x < hi), 1.0, 0.0)

    return PiecewiseScalarFunction(
        (lo, hi), lambda x: np.minimum(np.maximum(x, lo), hi), dfn,
        left_values=(lo, hi), right_values=(lo, hi), elementwise=True,
    )


def polynomial_jump_function() -> PiecewiseScalarFunction:
    """x^2 below 1, x^3 + 1 at and above 1: a unit jump between polynomial
    pieces."""

    def fn(x):
        # x * x * x, not x ** 3: numpy's array power and Python's float
        # power can round the cube differently
        return np.where(x < 1.0, x * x, x * x * x + 1.0)

    def dfn(x):
        return np.where(x < 1.0, 2.0 * x, 3.0 * x * x)

    return PiecewiseScalarFunction(
        (1.0,), fn, dfn, left_values=(1.0,), right_values=(2.0,), elementwise=True,
    )


def negative_jump_function() -> PiecewiseScalarFunction:
    """x below 0, x - 2 at and above 0: a downward jump of -2."""

    def fn(x):
        return np.where(x < 0.0, x, x - 2.0)

    return PiecewiseScalarFunction(
        (0.0,), fn, lambda x: 1.0,
        left_values=(0.0,), right_values=(-2.0,), elementwise=True,
    )


def removable_break_function() -> PiecewiseScalarFunction:
    """The identity with a declared breakpoint whose jump is zero."""
    return PiecewiseScalarFunction(
        (0.3,), lambda x: x, lambda x: 1.0,
        left_values=(0.3,), right_values=(0.3,), elementwise=True,
    )


def function_library() -> list:
    """Named test functions covering the classes the identity must handle:
    smooth, kinked, and genuinely discontinuous with either jump sign."""
    return [
        ("identity", identity_function()),
        ("constant", constant_function()),
        ("hard-threshold", hard_threshold_function(1.0)),
        ("soft-threshold", soft_threshold_function(1.0)),
        ("sign", sign_function()),
        ("unit-step", step_function(0.0)),
        ("clipped-linear", clipped_linear_function(-1.0, 2.0)),
        ("polynomial-jump", polynomial_jump_function()),
        ("negative-jump", negative_jump_function()),
        ("removable-break", removable_break_function()),
    ]


# ---------------------------------------------------------------------------
# univariate identity by quadrature
# ---------------------------------------------------------------------------

# qk15's abscissae on [0, 1] (xgk; the odd entries and 0 are the 7-point
# Gauss nodes), Kronrod weights (wgk) and Gauss weights (wg), mirrored onto
# the 15 nodes of [-1, 1]
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
])
_GK_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_GK_WEIGHTS = np.concatenate((_WGK, _WGK[-2::-1]))
_GAUSS_WEIGHTS = np.concatenate((_WG, _WG[-2::-1]))
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _panels(f: PiecewiseScalarFunction, lo: float, hi: float):
    cuts = [lo] + [b for b in f.breakpoints if lo < b < hi] + [hi]
    return list(zip(cuts[:-1], cuts[1:]))


def _rowsum(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j a[k, j] * w[j] for every row k.  An elementwise product and a
    per-row sum, not a matrix-vector product: BLAS rounds a row's dot
    product differently with the number of rows."""
    return (a * w).sum(axis=1)


def _gk15(fx: np.ndarray, half: np.ndarray):
    """QUADPACK's qk15 on intervals of half-width half[k] from the integrand
    at their 15 nodes, fx[k]: the Kronrod value and its resasc-scaled error
    estimate (Piessens et al., QUADPACK, 1983)."""
    kronrod, gauss = _rowsum(fx, _GK_WEIGHTS), _rowsum(fx, _GAUSS_WEIGHTS)
    resabs = _rowsum(np.abs(fx), _GK_WEIGHTS) * half  # a < b, so half > 0
    resasc = _rowsum(np.abs(fx - 0.5 * kronrod[:, None]), _GK_WEIGHTS) * half
    err = np.abs((kronrod - gauss) * half)
    scale = (resasc != 0) & (err != 0)
    err[scale] = resasc[scale] * np.minimum(1.0, (200 * err[scale] / resasc[scale]) ** 1.5)
    floor = resabs > _TINY / (50 * _EPS)
    err[floor] = np.maximum(50 * _EPS * resabs[floor], err[floor])
    return kronrod * half, err


def _adaptive_gk15(integrand, a, b, mu, sigma):
    """(integral, error estimate) over every panel [a[k], b[k]] by adaptive
    GK15, of integrand(x, mu[k], sigma[k]).

    Each round evaluates the open subintervals of all panels in one
    integrand call, on node rows x with their panel's mu and sigma as
    columns.  A subinterval is accepted when its error is within its
    width's share of max(epsabs, epsrel * |its panel's current estimate|);
    the rest are bisected.  When bisecting would pass a panel's subdivision
    limit, that panel's open subintervals are accepted as they are and
    their errors count in its estimate.  Each panel sums its subintervals
    in their own order (np.bincount adds in index order), so its result
    does not depend on which other panels share the call.
    """
    n = a.size
    total, err, count = np.zeros(n), np.zeros(n), np.ones(n, dtype=np.intp)
    k, lo, hi = np.arange(n), a, b
    while k.size:
        half = (hi - lo) / 2
        x = ((lo + hi) / 2)[:, None] + half[:, None] * _GK_NODES
        val, e = _gk15(integrand(x, mu[k, None], sigma[k, None]), half)
        estimate = total + np.bincount(k, val, n)
        tol = np.maximum(_QUAD_EPSABS, _QUAD_EPSREL * np.abs(estimate))
        done = e * (b - a)[k] <= tol[k] * (hi - lo)
        still_open = np.bincount(k[~done], minlength=n)
        full = count + still_open > _QUAD_LIMIT
        done |= full[k]
        total += np.bincount(k[done], val[done], n)
        err += np.bincount(k[done], e[done], n)
        count += still_open
        k, lo, hi = k[~done], lo[~done], hi[~done]
        mid = (lo + hi) / 2
        k, lo, hi = np.concatenate((k, k)), np.concatenate((lo, mid)), np.concatenate((mid, hi))
    return total, err


def _cases(mu, sigma):
    """mu and sigma broadcast to one float array shape; sigma must be
    positive (NaN is not)."""
    mu, sigma = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                    np.asarray(sigma, dtype=float))
    if not np.all(sigma > 0):
        raise ValueError("sigma must be positive")
    return mu, sigma


def _nodes(f: PiecewiseScalarFunction, array_form, point_form, x: np.ndarray):
    """A function on the node array x: in one call when f is elementwise,
    otherwise one Python call per node."""
    if f.elementwise:
        return array_form(x)
    return np.array([point_form(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _integrate(integrand, f: PiecewiseScalarFunction, mu: np.ndarray,
               sigma: np.ndarray) -> np.ndarray:
    """integrand(x, mu, sigma) integrated over mu -/+ _QUAD_SPAN * sigma
    for every case (mu[i], sigma[i]), panels split at f's breakpoints, all
    cases in one adaptive run.  A case whose error estimate exceeds the
    budget raises NumericalError, the first such case by index."""
    mus, sigmas = mu.ravel(), sigma.ravel()
    lo, hi = mus - _QUAD_SPAN * sigmas, mus + _QUAD_SPAN * sigmas
    case, a, b = [], [], []
    for i, (lo_i, hi_i) in enumerate(zip(lo.tolist(), hi.tolist())):
        for a_k, b_k in _panels(f, lo_i, hi_i):
            case.append(i)
            a.append(a_k)
            b.append(b_k)
    case = np.array(case, dtype=np.intp)
    val, e = _adaptive_gk15(integrand, np.array(a), np.array(b), mus[case], sigmas[case])
    total, err = np.bincount(case, val, mus.size), np.bincount(case, e, mus.size)
    bad = np.flatnonzero(~(err <= _QUAD_ERR_BUDGET))  # NaN fails too
    if bad.size:
        i = int(bad[0])
        message = f"quadrature error estimate {err[i]:.3e} exceeds {_QUAD_ERR_BUDGET:.1e}"
        if mu.ndim == 0:
            raise NumericalError(message, diagnostic={"error_estimate": float(err[i])})
        index = tuple(int(j) for j in np.unravel_index(i, mu.shape))
        index = index[0] if mu.ndim == 1 else index
        raise NumericalError(
            f"{message} at case {index} (mu={mus[i]:.6g}, sigma={sigmas[i]:.6g})",
            diagnostic={"error_estimate": float(err[i]), "case": index,
                        "mu": float(mus[i]), "sigma": float(sigmas[i])},
        )
    return total.reshape(mu.shape)


def _float_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def stein_lhs_univariate(f: PiecewiseScalarFunction, mu, sigma):
    """The covariance side: E[(X - mu) f(X)] / sigma^2 for X ~ N(mu, sigma^2),
    by adaptive quadrature with panels split at the breakpoints.

    mu and sigma may be arrays; they broadcast, and every (mu, sigma) case
    is integrated in one quadrature run.  Scalars give a float, arrays an
    array of the broadcast shape.  Each case's value is the same bits
    whichever other cases share the call.
    """
    mu, sigma = _cases(mu, sigma)

    def integrand(x, m, s):
        fx = _nodes(f, f.fn, f.evaluate, x)
        return (x - m) * fx * normal_pdf((x - m) / s) / s

    return _float_or_array(_integrate(integrand, f, mu, sigma) / sigma ** 2)


def stein_rhs_univariate(f: PiecewiseScalarFunction, mu, sigma):
    """The derivative-plus-jumps side: E[f'(X)] plus the normal density at
    each breakpoint times its jump.

    mu and sigma broadcast as in stein_lhs_univariate, with one quadrature
    run for all cases.
    """
    mu, sigma = _cases(mu, sigma)

    def integrand(x, m, s):
        dfx = _nodes(f, f.dfn, f.derivative, x)
        return dfx * normal_pdf((x - m) / s) / s

    total = _integrate(integrand, f, mu, sigma)
    for rec in f.jumps():
        total = total + normal_pdf((rec.location - mu) / sigma) / sigma * rec.jump
    return _float_or_array(total)


def verify_stein_univariate(f: PiecewiseScalarFunction, mu, sigma):
    """Absolute difference of the two sides; small for any function that is
    absolutely continuous between its breakpoints and normal-integrable.
    mu and sigma broadcast as in stein_lhs_univariate."""
    return abs(stein_lhs_univariate(f, mu, sigma) - stein_rhs_univariate(f, mu, sigma))


# ---------------------------------------------------------------------------
# discontinuity scanning for fitted coordinate maps
# ---------------------------------------------------------------------------

def _check_grid_points(grid_points: int) -> None:
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")


def _grids(lo, hi, grid_points: int) -> np.ndarray:
    """Uniform scan grids from lo to hi (scalars or vectors), one row per
    entry, shape (m, grid_points)."""
    _check_grid_points(grid_points)
    return np.linspace(np.atleast_1d(lo), np.atleast_1d(hi), grid_points, axis=1)


def _probe(proc: FitProcedure, y: np.ndarray, coords: np.ndarray,
           svals: np.ndarray) -> np.ndarray:
    """fitted[k, coords[k]] at the response y with coordinate coords[k] set
    to svals[k], from one batched fit.  A non-finite value raises
    NumericalError: NaN fails every comparison the scan makes, so it would
    otherwise certify the map as jump-free."""
    k = np.arange(svals.size)
    rows = np.repeat(y[None, :], svals.size, axis=0)
    rows[k, coords] = svals
    vals = proc.fit_many(rows).fitted[k, coords]
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i, s = int(coords[bad[0]]), float(svals[bad[0]])
        raise NumericalError(
            f"non-finite fitted value at s={s:.6g} (coordinate {i}) during a "
            f"discontinuity scan",
            diagnostic={"coord": i, "location": s},
        )
    return vals


def _scan(proc: FitProcedure, y: np.ndarray, coords: np.ndarray, grids: np.ndarray):
    """Jumps of the coordinate maps s -> fitted[coords[r]] along the rows of
    grids, shape (m, G), as arrays (coord, location, left, right) ordered by
    coordinate and then by location.

    Cells whose increment differs from both neighboring increments by a
    margin are candidate jumps, whichever the jump's sign against the
    slope.  Within one linear piece increments agree exactly, so the margin
    only has to beat the kink scale, not the slope scale; a plain slope
    cutoff would have to sit above the largest jump divided by the step and
    would go blind exactly where it matters.

    Each narrowing round subdivides every open bracket into equal subcells,
    evaluates all interior points in one batched fit, and keeps the subcell
    whose increment deviates most from the slope-reference prediction.  For
    piecewise-linear coordinate maps that deviation is zero off the jump,
    so the walk homes in on the discontinuity.  Brackets never leave their
    grid cells, so they stay in (coordinate, location) order.
    """
    m, G = grids.shape
    vals = _probe(proc, y, np.repeat(coords, G), grids.ravel()).reshape(m, G)
    d = np.diff(vals, axis=1)
    edge = np.full((m, 1), np.inf)
    pad = np.hstack((edge, np.abs(d), edge))  # |increments|, inf past the ends
    ref = np.minimum(pad[:, :-2], pad[:, 2:])
    step = np.hstack((edge, np.abs(np.diff(d, axis=1)), edge))
    row, g = np.nonzero(np.minimum(step[:, :-1], step[:, 1:]) > 0.5 * _JUMP_THRESHOLD)

    # the signed slope of the calmer neighbor cell steers the subdivision;
    # the other neighbor (the calmer one at a grid end) sets the slack
    left_nb, right_nb = pad[row, g], pad[row, g + 2]
    nb = np.where(left_nb <= right_nb, g - 1, g + 1)
    rough = np.maximum(left_nb, right_nb)
    slack = np.where(rough < np.inf, rough, ref[row, g])
    h = grids[row, 1] - grids[row, 0]
    s_ref = d[row, nb] / h
    implied = d[row, g] - s_ref * h
    coord = coords[row]
    a, b = grids[row, g], grids[row, g + 1]
    va, vb = vals[row, g], vals[row, g + 1]

    fracs = np.arange(1, _SUBCELLS) / _SUBCELLS
    for _ in range(80):
        k = np.flatnonzero(b - a > _BISECT_WIDTH)
        if not k.size:
            break
        width = b[k] - a[k]
        inner = a[k, None] + width[:, None] * fracs
        mids = _probe(proc, y, np.repeat(coord[k], _SUBCELLS - 1), inner.ravel())
        pts = np.column_stack((a[k], inner, b[k]))
        vv = np.column_stack((va[k], mids.reshape(k.size, _SUBCELLS - 1), vb[k]))
        dev = np.abs(np.diff(vv, axis=1) - (s_ref[k] * (width / _SUBCELLS))[:, None])
        j = np.argmax(dev, axis=1)
        r = np.arange(k.size)
        a[k], b[k] = pts[r, j], pts[r, j + 1]
        va[k], vb[k] = vv[r, j], vv[r, j + 1]
    if not coord.size:  # no candidate cells, so no limits fit
        return coord, a, va, vb

    # one-sided limits just outside the final bracket
    loc = (a + b) / 2
    side = _probe(proc, y, np.concatenate((coord, coord)),
                  np.concatenate((loc - _LIMIT_OFFSET, loc + _LIMIT_OFFSET)))
    left, right = side[:coord.size], side[coord.size:]
    jump = right - left
    keep = np.abs(jump) > _JUMP_THRESHOLD  # the rest are kinks
    tol = np.maximum(np.maximum(10 * _JUMP_THRESHOLD, 0.3 * np.abs(jump)), 5 * slack)
    bad = np.flatnonzero(keep & (np.abs(implied - jump) > tol))
    if bad.size:
        k = bad[0]
        raise NumericalError(
            f"scan cell near s={loc[k]:.6g} (coordinate {coord[k]}) appears "
            f"to hold more than one discontinuity; rerun with more than "
            f"{G} grid points",
            diagnostic={"coord": int(coord[k]), "location": float(loc[k])},
        )
    return coord[keep], loc[keep], left[keep], right[keep]


def scan_discontinuities(proc: FitProcedure, coord: int, y_fixed: np.ndarray,
                         lo: float, hi: float, *, grid_points: int = 4096) -> list:
    """Locate the jumps of s -> fitted[coord] at response (s, y_fixed[-coord]).

    The coordinate map is sampled on a uniform grid of grid_points (at least
    16) points, cells flagged by the neighbor-increment rule are narrowed by
    guided subdivision, and each located point is measured by one-sided
    evaluation.  Only genuine jumps (|jump| above 1e-4) are returned as
    JumpRecords, sorted by location.  A cell that turns out to hold two
    discontinuities raises NumericalError and asks for a finer grid; a
    non-finite fitted value raises NumericalError too.

    The grid can miss jumps.  A smaller jump that shares a grid cell with a
    larger one is merged into it and dropped without an error.  A cell is
    flagged when its increment differs from both neighbors' increments, so
    two jumps of nearly the same height in adjacent cells are not flagged,
    and neither is a jump at a kink whose slope change puts the cell's
    increment back near a neighbor's.  A narrower window (or more grid
    points) resolves all three.
    """
    y = np.asarray(y_fixed, dtype=float).copy()
    if y.ndim != 1 or y.size != proc.design.n:
        raise ValueError(f"y_fixed must be a vector of length {proc.design.n}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y_fixed must be finite")
    if not coord in range(proc.design.n):
        raise ValueError("coord out of range")
    if not lo < hi:
        raise ValueError("need lo < hi")
    grids = _grids(lo, hi, grid_points)
    _, loc, left, right = _scan(proc, y, np.array([coord]), grids)
    return [JumpRecord(location=s, left=l, right=r, jump=r - l)
            for s, l, r in zip(loc.tolist(), left.tolist(), right.tolist())]


# ---------------------------------------------------------------------------
# Monte Carlo decomposition of df into divergence + boundary terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinDecomposition:
    """The divergence and boundary terms, whose sum estimates df, with
    their jackknife standard errors: divergence_se, boundary_se, and
    total_se (for the sum, accounting for the within-replication
    correlation)."""

    divergence: float
    boundary: float
    divergence_se: float
    boundary_se: float
    total_se: float
    reps: int


_STRADDLE_TOL = 1e-3
_FD_SHRINKS = 4


def _divergence_terms(proc: FitProcedure, Y0: np.ndarray, F0: np.ndarray,
                      h0: float) -> np.ndarray:
    """Central-difference divergence per replication, shape (R,).

    Round 0 probes every (replication, coordinate) pair, in row-major
    order, with one batched fit.  A probe whose forward and backward slopes
    disagree is straddling a kink or jump; the next round probes only those
    pairs, with a tenfold smaller step, until the two sides agree.  The fits
    are piecewise linear, so any clean step gives the exact local slope.  A
    NaN slope never agrees, so it ends in NumericalError.
    """
    R, n = Y0.shape
    central = np.empty((R, n))
    bad_r, bad_i = np.repeat(np.arange(R), n), np.tile(np.arange(n), R)
    h = h0
    for _ in range(1 + _FD_SHRINKS):
        if bad_r.size == 0:
            break
        plus = 2 * np.arange(bad_r.size)
        probe = np.repeat(Y0[bad_r], 2, axis=0)
        probe[plus, bad_i] += h
        probe[plus + 1, bad_i] -= h
        pf = proc.fit_many(probe).fitted
        vp, vm = pf[plus, bad_i], pf[plus + 1, bad_i]
        central[bad_r, bad_i] = (vp - vm) / (2 * h)
        dp = (vp - F0[bad_r, bad_i]) / h
        dm = (F0[bad_r, bad_i] - vm) / h
        keep = ~(np.abs(dp - dm) <= _STRADDLE_TOL)
        bad_r, bad_i = bad_r[keep], bad_i[keep]
        h /= 10.0
    if bad_r.size:
        raise NumericalError(
            f"finite-difference probe keeps straddling a discontinuity at "
            f"replication {int(bad_r[0])}, coordinate {int(bad_i[0])}",
            diagnostic={"replication": int(bad_r[0]), "coordinate": int(bad_i[0])},
        )
    return central.sum(axis=1)


def _scanned_jumps(proc, Y: np.ndarray, lo, hi, lines=None, *, grid_points: int):
    """The scanner's jumps, as _line_jumps takes and returns them: one scan
    per replication, on one grid row per line."""
    R, n = Y.shape
    rep, coord = np.divmod(np.arange(R * n) if lines is None else lines, n)
    found = []
    for r, c in enumerate(np.split(coord, np.searchsorted(rep, np.arange(1, R)))):
        if c.size:
            scan = _scan(proc, Y[r], c, _grids(lo[c], hi[c], grid_points))
            found.append((np.full(scan[0].size, r), *scan))
    return tuple(np.concatenate(col) for col in zip(*found))


def _jumps(proc, Y: np.ndarray, signal: SignalSpec, grid_points: int, lines=None, signs=None):
    """The jumps above 1e-4 of the coordinate maps of the rows of Y over
    mu_i +/- 8 sigma (every map, or the lines r * n + i of lines), as arrays
    (rep, coord, loc, left, right) in (replication, coordinate, location)
    order: exact for a built-in procedure (smaller ones count as kinks, as
    in the scanner), scanned on grid_points points for any other.  signs
    (a relaxed-lasso BatchFit.signs of Y) spares refitting its lasso."""
    lo, hi = signal.mu - _SPAN * signal.sigma, signal.mu + _SPAN * signal.sigma
    if not isinstance(proc, FitProcedure):
        return _scanned_jumps(proc, Y, lo, hi, lines, grid_points=grid_points)
    jumps = _line_jumps(proc, Y, lo, hi, lines, signs)
    keep = np.abs(jumps[4] - jumps[3]) > _JUMP_THRESHOLD
    return tuple(col[keep] for col in jumps)


def _boundary_terms(proc, Y0: np.ndarray, signal: SignalSpec, grid_points: int,
                    signs=None) -> np.ndarray:
    """phi-weighted jump sum over all coordinates, per replication, shape
    (R,).  Jumps of a built-in procedure are exact; any other procedure is
    scanned.  Each replication sums in (coordinate, location) order."""
    rep, coord, loc, left, right = _jumps(proc, Y0, signal, grid_points, signs=signs)
    sigma = signal.sigma
    weight = normal_pdf((loc - signal.mu[coord]) / sigma) / sigma * (right - left)
    return np.bincount(rep, weights=weight, minlength=Y0.shape[0])


def stein_decompose_df(proc: FitProcedure, signal: SignalSpec, reps: int, seed: int,
                       *, grid_points: int = 4096) -> SteinDecomposition:
    """Split df into expected divergence plus expected boundary jump sum.

    Per replication, the divergence is the sum of the coordinate partial
    derivatives by central differences (step 1e-5 * sigma), and the
    boundary term sums the jumps (above 1e-4) of every coordinate map over
    mu_i +/- 8 sigma, each weighted by the normal density at its location.
    A FitProcedure's jumps are exact (see the module docstring), and
    continuous kinds need no fit for them.  Any other procedure is scanned
    on grid_points (at least 16, checked for every procedure) points per
    coordinate, one replication at a time.  Each replication's jumps are
    summed in a fixed order, so results do not depend on batching.
    Returns the two Monte Carlo means; their sum estimates df.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    _check_grid_points(grid_points)
    Y0 = draw_responses(signal, reps, seed)
    base = proc.fit_many(Y0)
    div = _divergence_terms(proc, Y0, base.fitted, _FD_STEP * signal.sigma)
    # the relaxed lasso's line walks start from the base fit's lasso signs
    signs = base.signs if isinstance(proc, FitProcedure) else None
    bnd = _boundary_terms(proc, Y0, signal, grid_points, signs)

    if reps >= 8:
        centered = bnd - bnd.mean()
        sd = centered.std(ddof=1)
        if sd > 0 and np.abs(centered).max() > 10 * sd:
            warnings.warn(
                "boundary jump sums are heavy-tailed across replications; "
                "the boundary standard error may be unreliable",
                stacklevel=2,
            )

    root_r = np.sqrt(reps)
    return SteinDecomposition(
        divergence=float(div.mean()),
        boundary=float(bnd.mean()),
        divergence_se=float(div.std(ddof=1) / root_r),
        boundary_se=float(bnd.std(ddof=1) / root_r),
        total_se=float((div + bnd).std(ddof=1) / root_r),
        reps=reps,
    )


@dataclass(frozen=True)
class JumpViolation:
    """A negative jump found while probing the positivity condition."""

    trial: int
    coord: int
    record: JumpRecord


def check_jump_positivity(proc: FitProcedure, signal: SignalSpec, trials: int,
                          seed: int, *, grid_points: int = 4096) -> list:
    """Probe random response configurations for negative jumps.

    Each trial draws a response and takes the jumps (above 1e-4) of one
    coordinate map over mu_i +/- 8 sigma, cycling through coordinates, and
    records any jump with negative sign.  A FitProcedure's jumps are exact
    (from the same paths as the decomposition's boundary term); any other
    procedure's line is scanned as scan_discontinuities scans it, on
    grid_points (at least 16, checked for every procedure) points.  An
    empty list is evidence (not proof) that the procedure's jumps are all
    upward, which would make the boundary term, and hence the search cost,
    nonnegative.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_grid_points(grid_points)
    Y = draw_responses(signal, trials, seed)
    trial = np.arange(trials)
    jumps = _jumps(proc, Y, signal, grid_points, trial * signal.n + trial % signal.n)
    return [JumpViolation(trial=k, coord=i, record=JumpRecord(location=s, left=a, right=b,
                                                              jump=b - a))
            for k, i, s, a, b in zip(*(col.tolist() for col in jumps)) if b - a < 0]
