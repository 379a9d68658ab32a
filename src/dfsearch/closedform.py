"""Exact degrees-of-freedom formulas for the orthogonal-design case.

For orthonormal designs, best subset selection reduces to hard thresholding
of X'y at t = sqrt(2*lambda) and the lasso reduces to soft thresholding at
t = lambda, so degrees of freedom (df), search degrees of freedom (sdf), and
the expected active-set size all have closed forms built from the standard
normal density and CDF.  Everything here is quadrature-free; the Monte Carlo
module provides the independent check.

Scalar ``lam``/``t`` arguments may also be passed as arrays, in which case
the result has the same shape (used for curve sweeps and grid searches).
Every function that takes the noise level sigma raises ValueError unless it
is positive and finite, and every one that takes ``t`` or ``lam`` unless
each entry is nonnegative (NaN included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CurvePoint",
    "normal_pdf",
    "normal_cdf",
    "truncated_moments",
    "expected_active_hard",
    "df_hard_threshold",
    "df_subset_orthogonal",
    "df_relaxed_lasso_orthogonal",
    "sdf_null",
    "sdf_sparse",
    "sdf_dense",
    "threshold_for_expected_active",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT_2 = np.sqrt(2.0)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def normal_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi), vectorized."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return out if out.ndim else float(out)


def normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    ``math.erfc`` is applied element by element (one ``np.frompyfunc``).
    It is accurate to a few ulps over the whole line, far inside the 1e-12
    absolute-error budget the tail-difference formulas need.  Each element
    costs a Python call: 0.17-0.24 s per 10^6 values on a 2-core Xeon VM,
    against 0.02-0.04 s for scipy's compiled erfc.  The closed forms
    evaluate it once per distinct mean, so that cost stays small.  A
    scalar in gives a float out; an array keeps its shape.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.asarray(_ERFC(-x / _SQRT_2), dtype=float)
    return out if out.ndim else float(out)


def _check_sigma(sigma):
    """Reject a noise level that is not positive and finite (NaN included),
    which the formulas would turn into wrong numbers without an error."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def truncated_moments(a: float, b: float, sigma: float):
    """First and second moments of z ~ N(0, sigma^2) on one-sided tails.

    Returns
    -------
    tuple of four floats
        ``E[z 1{z<=a}] = -sigma*phi(a/sigma)``,
        ``E[z 1{z>=b}] =  sigma*phi(b/sigma)``,
        ``E[z^2 1{z<=a}] = -sigma*a*phi(a/sigma) + sigma^2*Phi(a/sigma)``,
        ``E[z^2 1{z>=b}] =  sigma*b*phi(b/sigma) + sigma^2*(1-Phi(b/sigma))``.
    """
    _check_sigma(sigma)
    pa, pb = normal_pdf(a / sigma), normal_pdf(b / sigma)
    ca, cb = normal_cdf(a / sigma), normal_cdf(b / sigma)
    return (
        -sigma * pa,
        sigma * pb,
        -sigma * a * pa + sigma**2 * ca,
        sigma * b * pb + sigma**2 * (1.0 - cb),
    )


def _as_grid(t, name: str = "t"):
    """A scalar-or-array threshold or penalty as a float array, and whether
    it was a scalar.  Raises ValueError, naming the argument, unless every
    entry is nonnegative (a NaN fails too)."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError(f"{name} must be nonnegative")
    return t, t.ndim == 0


def _sum_over_means(term, mu, t) -> np.ndarray:
    """sum_i term(t, mu_i) for every entry of t (shape of t).

    term is evaluated once per distinct mean and expanded back before the
    sum, so its cost and its temporaries scale with the distinct means.
    take keeps the expansion C-ordered, so the sum adds the same p terms in
    the same order as a sum over mu itself (fancy indexing would lay it out
    column-major and change the sum's last bits).
    """
    mu, inv = np.unique(np.atleast_1d(np.asarray(mu, dtype=float)), return_inverse=True)
    return np.sum(term(t[..., None], mu).take(inv, axis=-1), axis=-1)


def expected_active_hard(mu, sigma: float, t):
    """E|A_t| for hard thresholding at t of y ~ N(mu, sigma^2 I).

    Each component survives with probability
    ``1 - Phi((t - mu_i)/sigma) + Phi((-t - mu_i)/sigma)``.
    """
    _check_sigma(sigma)
    t, scalar = _as_grid(t)
    val = _sum_over_means(
        lambda tt, m: 1.0 - normal_cdf((tt - m) / sigma) + normal_cdf((-tt - m) / sigma), mu, t
    )
    return float(val) if scalar else val


def _sdf_hard(mu, sigma: float, t):
    """(t/sigma) * sum_i [phi((t-mu_i)/sigma) + phi((t+mu_i)/sigma)]."""
    _check_sigma(sigma)
    t, scalar = _as_grid(t)
    val = (t / sigma) * _sum_over_means(
        lambda tt, m: normal_pdf((tt - m) / sigma) + normal_pdf((tt + m) / sigma), mu, t
    )
    return float(val) if scalar else val


def df_hard_threshold(mu, sigma: float, t):
    """Degrees of freedom of hard thresholding at level t.

    Equals the expected active-set size plus the threshold-boundary term
    ``(t/sigma) sum_i [phi((t-mu_i)/sigma) + phi((t+mu_i)/sigma)]``; the
    second term is the price of the selection events at |y_i| = t.
    """
    return expected_active_hard(mu, sigma, t) + _sdf_hard(mu, sigma, t)


@dataclass(frozen=True)
class CurvePoint:
    """One point of a df/sdf curve: tuning value, equivalent threshold,
    expected active-set size, df, and sdf, with df = expected_active + sdf.
    Built from an array of tuning values, every field is an array of the
    same shape: the whole curve."""

    lam: float
    t: float
    expected_active: float
    df: float
    sdf: float


def _threshold_curve_point(xtmu, sigma: float, lam, t) -> CurvePoint:
    ea = expected_active_hard(xtmu, sigma, t)
    sdf = _sdf_hard(xtmu, sigma, t)
    if np.ndim(lam) == 0:
        lam, t = float(lam), float(t)
    return CurvePoint(lam=lam, t=t, expected_active=ea, df=ea + sdf, sdf=sdf)


def df_subset_orthogonal(xtmu, sigma: float, lam: float) -> CurvePoint:
    """Exact df/sdf of best subset selection on an orthonormal design.

    Parameters
    ----------
    xtmu : array
        X'mu, length p (for X = I this is just the mean vector).
    sigma : float
        Noise standard deviation.
    lam : float or array
        Penalty level; the equivalent hard threshold is t = sqrt(2*lam).

    Returns
    -------
    CurvePoint
        ``df = expected_active + sdf`` holds exactly: both terms are built
        from the same floating-point subexpressions.
    """
    lam = _as_grid(lam, "lam")[0]
    return _threshold_curve_point(xtmu, sigma, lam, t=np.sqrt(2.0 * lam))


def df_relaxed_lasso_orthogonal(xtmu, sigma: float, lam: float) -> CurvePoint:
    """Exact df/sdf of the relaxed lasso on an orthonormal design.

    Identical structure to :func:`df_subset_orthogonal` with the threshold
    identification t = lam: on orthonormal designs the lasso active set is a
    soft thresholding support, and refitting on it is hard thresholding at
    the same level.
    """
    lam = _as_grid(lam, "lam")[0]
    return _threshold_curve_point(xtmu, sigma, lam, t=lam)


def sdf_null(p: int, sigma: float, lam):
    """Search degrees of freedom of best subset selection under mu = 0:
    ``2 p sqrt(2 lam)/sigma * phi(sqrt(2 lam)/sigma)``.

    As a function of lam this is maximized at lam = sigma^2/2, where it
    equals 2 p phi(1) and the expected active-set size is 2 Phi(-1) p.
    """
    return _sdf_hard(np.zeros(p), sigma, np.sqrt(2.0 * _as_grid(lam, "lam")[0]))


def sdf_sparse(beta_star, sigma: float, lam):
    """Search degrees of freedom of best subset selection for a sparse
    coefficient vector, split over the true support and its complement.

    The support contributes ``(t/sigma) sum_{i in A*} [phi((t-b_i)/sigma) +
    phi((t+b_i)/sigma)]`` and each null coordinate contributes
    ``2 (t/sigma) phi(t/sigma)``, with t = sqrt(2*lam).
    """
    return _sdf_hard(beta_star, sigma, np.sqrt(2.0 * _as_grid(lam, "lam")[0]))


def sdf_dense(beta_star, sigma: float, lam):
    """Search degrees of freedom of best subset selection with every
    coordinate treated through its own amplitude:
    ``(t/sigma) sum_i [phi((t-b_i)/sigma) + phi((t+b_i)/sigma)]``, t = sqrt(2*lam).
    """
    return _sdf_hard(beta_star, sigma, np.sqrt(2.0 * _as_grid(lam, "lam")[0]))


def threshold_for_expected_active(xtmu, sigma: float, target):
    """Invert E|A_t| for the threshold t by monotone bisection.

    E|A_t| decreases strictly from p at t=0 toward 0, so for any target in
    (0, p] there is a unique threshold; the returned t satisfies
    |E|A_t| - target| <= 1e-10.  Used to reparametrize curves by expected
    active-set size instead of lam.  An array of targets is inverted in
    one pass: each entry keeps its own bracket and stopping rule, so it
    visits the same midpoints, and returns the same bits, as a scalar call.
    """
    _check_sigma(sigma)
    xtmu = np.atleast_1d(np.asarray(xtmu, dtype=float))
    p = xtmu.shape[0]
    goal = np.asarray(target, dtype=float)
    if not np.all((0.0 < goal) & (goal <= p)):
        raise ValueError(f"target expected active size must lie in (0, {p}]")
    scalar = goal.ndim == 0
    goal = goal.ravel()
    t = np.zeros(goal.size)
    lo, hi = np.zeros(goal.size), np.full(goal.size, float(sigma))
    live = np.flatnonzero(goal != p)
    grow = live
    while grow.size:
        grow = grow[expected_active_hard(xtmu, sigma, hi[grow]) > goal[grow]]
        hi[grow] *= 2.0
        if np.any(hi[grow] > 1e12 * sigma):
            raise ValueError("target too small to invert at this scale")
    for _ in range(500):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        val = expected_active_hard(xtmu, sigma, mid)
        hit = np.abs(val - goal[live]) <= 1e-10
        t[live[hit]] = mid[hit]
        above = val > goal[live]
        lo[live[above]] = mid[above]
        hi[live[~above]] = mid[~above]
        narrow = ~hit & (hi[live] - lo[live] <= 1e-16 * np.maximum(1.0, hi[live]))
        end = live[narrow]
        t[end] = 0.5 * (lo[end] + hi[end])
        live = live[~hit & ~narrow]
    t[live] = 0.5 * (lo[live] + hi[live])
    return float(t[0]) if scalar else t.reshape(np.shape(target))
