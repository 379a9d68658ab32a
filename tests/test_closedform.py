"""Exact df/sdf formulas checked against quadrature and frozen values."""

import inspect
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from dfsearch import closedform
from dfsearch.closedform import (
    df_hard_threshold,
    df_relaxed_lasso_orthogonal,
    df_subset_orthogonal,
    expected_active_hard,
    normal_cdf,
    normal_pdf,
    sdf_dense,
    sdf_null,
    sdf_sparse,
    threshold_for_expected_active,
    truncated_moments,
)


def _hard(x, t):
    return np.where(np.abs(x) >= t, x, 0.0)


def _df_hard_by_quadrature(mu, sigma, t):
    """Covariance integral for one coordinate, summed over the vector."""
    total = 0.0
    for m in np.atleast_1d(mu):
        def integrand(x, m=m):
            return (x - m) * _hard(x, t) * normal_pdf((x - m) / sigma) / sigma
        lo, hi = m - 12 * sigma, m + 12 * sigma
        pieces = sorted({lo, hi, *(b for b in (-t, t) if lo < b < hi)})
        val = sum(
            quad(integrand, a, b, epsabs=1e-13, limit=200)[0]
            for a, b in zip(pieces[:-1], pieces[1:])
        )
        total += val / sigma**2
    return total


class TestNormalHelpers:
    def test_pdf_cdf_reference_points(self):
        assert normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-16)
        assert normal_cdf(-1.0) == pytest.approx(0.15865525393145707, abs=1e-16)
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)

    def test_cdf_symmetry(self):
        x = np.linspace(-6, 6, 25)
        npt.assert_allclose(normal_cdf(x) + normal_cdf(-x), 1.0, atol=1e-15)

    def test_cdf_matches_scipy_erfc(self):
        x = np.linspace(-38.0, 38.0, 200_001)
        npt.assert_allclose(normal_cdf(x), 0.5 * erfc(-x / np.sqrt(2.0)), rtol=0, atol=1e-15)

    def test_cdf_keeps_scalars_and_shapes(self):
        assert type(normal_cdf(-1.0)) is float
        assert type(normal_cdf(np.float64(0.3))) is float
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = normal_cdf(x)
        assert out.shape == (3, 4) and out.dtype == np.float64
        npt.assert_array_equal(out, [[normal_cdf(v) for v in row] for row in x.tolist()])


_SIGMA_CALLS = {
    "truncated_moments": lambda s: truncated_moments(-1.0, 1.0, s),
    "expected_active_hard": lambda s: expected_active_hard(np.zeros(3), s, 1.0),
    "df_hard_threshold": lambda s: df_hard_threshold(np.zeros(3), s, 1.0),
    "df_subset_orthogonal": lambda s: df_subset_orthogonal(np.zeros(3), s, 0.5),
    "df_relaxed_lasso_orthogonal": lambda s: df_relaxed_lasso_orthogonal(np.zeros(3), s, 0.5),
    "sdf_null": lambda s: sdf_null(3, s, 0.5),
    "sdf_sparse": lambda s: sdf_sparse(np.array([2.0, 0.0, 0.0]), s, 0.5),
    "sdf_dense": lambda s: sdf_dense(np.full(3, 0.5), s, 0.5),
    "threshold_for_expected_active": lambda s: threshold_for_expected_active(np.zeros(3), s, 1.5),
}


def test_sigma_calls_cover_every_closed_form_taking_sigma():
    takes = {name for name in closedform.__all__
             if "sigma" in inspect.signature(getattr(closedform, name)).parameters}
    assert takes == set(_SIGMA_CALLS)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(_SIGMA_CALLS))
def test_sigma_must_be_positive_and_finite(name, sigma):
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        _SIGMA_CALLS[name](sigma)
    _SIGMA_CALLS[name](1.0)


# every public closed form taking a threshold t or a penalty lam, called
# with that argument v
_GRID_CALLS = {
    "expected_active_hard": ("t", lambda v: expected_active_hard(np.zeros(3), 1.0, v)),
    "df_hard_threshold": ("t", lambda v: df_hard_threshold(np.zeros(3), 1.0, v)),
    "df_subset_orthogonal": ("lam", lambda v: df_subset_orthogonal(np.zeros(3), 1.0, v)),
    "df_relaxed_lasso_orthogonal": (
        "lam", lambda v: df_relaxed_lasso_orthogonal(np.zeros(3), 1.0, v)),
    "sdf_null": ("lam", lambda v: sdf_null(3, 1.0, v)),
    "sdf_sparse": ("lam", lambda v: sdf_sparse(np.array([2.0, 0.0, 0.0]), 1.0, v)),
    "sdf_dense": ("lam", lambda v: sdf_dense(np.full(3, 0.5), 1.0, v)),
}


def test_grid_calls_cover_every_closed_form_taking_t_or_lam():
    takes = {name for name in closedform.__all__
             if inspect.isfunction(getattr(closedform, name))
             and {"t", "lam"} & set(inspect.signature(getattr(closedform, name)).parameters)}
    assert takes == set(_GRID_CALLS)
    for name, (arg, _) in _GRID_CALLS.items():
        assert arg in inspect.signature(getattr(closedform, name)).parameters


@pytest.mark.parametrize("shape", ["scalar", "array"])
@pytest.mark.parametrize("bad", [-1.0, np.nan])
@pytest.mark.parametrize("name", sorted(_GRID_CALLS))
def test_t_and_lam_must_be_nonnegative(name, bad, shape):
    arg, call = _GRID_CALLS[name]
    value = bad if shape == "scalar" else np.array([0.5, bad, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{arg} must be nonnegative"):
            call(value)
    call(0.5 if shape == "scalar" else np.array([0.0, 0.5]))


class TestTruncatedMoments:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_four_match_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        a, b = np.sort(rng.uniform(-4, 4, size=2))
        sigma = rng.uniform(0.3, 3.0)
        vals = truncated_moments(a, b, sigma)

        def gauss(x):
            return normal_pdf(x / sigma) / sigma

        refs = (
            quad(lambda x: x * gauss(x), -np.inf, a, epsabs=1e-14)[0],
            quad(lambda x: x * gauss(x), b, np.inf, epsabs=1e-14)[0],
            quad(lambda x: x**2 * gauss(x), -np.inf, a, epsabs=1e-14)[0],
            quad(lambda x: x**2 * gauss(x), b, np.inf, epsabs=1e-14)[0],
        )
        npt.assert_allclose(vals, refs, atol=1e-12)


class TestHardThresholdDf:
    @pytest.mark.parametrize(
        "mu,sigma,t",
        [
            (np.zeros(3), 1.0, 1.0),
            (np.array([0.5, -1.5, 2.0]), 1.0, 1.0),
            (np.array([0.0, 3.0]), 0.7, 2.0),
            (np.array([-2.0, 2.0, 0.1]), 1.8, 0.4),
        ],
    )
    def test_matches_covariance_quadrature(self, mu, sigma, t):
        exact = df_hard_threshold(mu, sigma, t)
        ref = _df_hard_by_quadrature(mu, sigma, t)
        assert abs(exact - ref) < 1e-10

    def test_zero_threshold_is_identity_fit(self):
        mu = np.array([1.0, -2.0, 0.5])
        assert df_hard_threshold(mu, 1.0, 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            df_hard_threshold(np.zeros(2), 1.0, -0.5)

    def test_expected_active_monotone_in_threshold(self):
        mu = np.array([0.0, 1.0, -2.5, 4.0])
        ts = np.linspace(0.0, 8.0, 200)
        ea = expected_active_hard(mu, 1.0, ts)
        assert ea[0] == pytest.approx(4.0, abs=1e-12)
        assert np.all(np.diff(ea) <= 1e-12)
        assert ea[-1] < 1e-3


class TestCurvePoints:
    def test_subset_uses_sqrt_two_lambda(self):
        cp = df_subset_orthogonal(np.zeros(10), 1.0, 0.5)
        assert cp.t == pytest.approx(1.0, abs=1e-15)

    def test_relaxed_lasso_uses_lambda_directly(self):
        cp = df_relaxed_lasso_orthogonal(np.zeros(10), 1.0, 0.8)
        assert cp.t == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 2.0, 7.3])
    def test_df_is_exactly_active_plus_sdf(self, lam):
        mu = np.array([0.0, 0.3, -1.0, 2.2, 5.0])
        for cp in (
            df_subset_orthogonal(mu, 1.3, lam),
            df_relaxed_lasso_orthogonal(mu, 1.3, lam),
        ):
            assert cp.df == cp.expected_active + cp.sdf

    def test_lambda_zero_has_no_search_cost(self):
        cp = df_subset_orthogonal(np.arange(5.0), 1.0, 0.0)
        assert cp.sdf == pytest.approx(0.0, abs=1e-15)
        assert cp.df == pytest.approx(5.0, abs=1e-12)


class TestSignalRegimes:
    def test_null_peak_location_and_value(self):
        # argmax over a fine grid sits at lambda = sigma^2 / 2 with value
        # 2 p phi(1), about 0.48 p
        lams = np.arange(0.0, 5.0 + 1e-9, 1e-4)
        vals = sdf_null(100, 1.0, lams)
        k = int(np.argmax(vals))
        assert lams[k] == pytest.approx(0.5, abs=1e-3)
        assert vals[k] == pytest.approx(200.0 * normal_pdf(1.0), abs=1e-6)

    def test_null_curve_dies_at_huge_penalty(self):
        assert sdf_null(100, 1.0, 100.0) < 1e-15

    def test_sparse_with_full_support_equals_dense(self):
        beta = np.full(7, 2.5)
        lams = np.linspace(0.0, 4.0, 9)
        for lam in lams:
            assert sdf_sparse(beta, 1.0, lam) == pytest.approx(
                sdf_dense(beta, 1.0, lam), abs=1e-12
            )

    def test_dense_unit_signal_peak_frozen_values(self):
        beta = np.ones(100)
        ts = np.linspace(0.0, 10.0, 100_001)
        lams = 0.5 * ts**2
        vals = sdf_dense(beta, 1.0, lams)
        k = int(np.argmax(vals))
        assert vals[k] == pytest.approx(55.552724, abs=1e-3)
        ea = expected_active_hard(beta, 1.0, ts[k])
        assert ea == pytest.approx(29.397132, abs=1e-3)

    def test_sdf_never_negative(self):
        rng = np.random.default_rng(7)
        beta = rng.normal(scale=2.0, size=30)
        lams = np.linspace(0.0, 20.0, 400)
        assert np.all(sdf_dense(beta, 1.1, lams) >= -1e-12)


class TestExpectedActiveInversion:
    @pytest.mark.parametrize("target", [0.5, 3.0, 29.4, 50.0, 99.5])
    def test_round_trip_null(self, target):
        mu = np.zeros(100)
        t = threshold_for_expected_active(mu, 1.0, target)
        assert expected_active_hard(mu, 1.0, t) == pytest.approx(target, abs=1e-9)

    def test_full_size_needs_no_thresholding(self):
        assert threshold_for_expected_active(np.zeros(10), 1.0, 10.0) == 0.0

    def test_round_trip_with_strong_signal(self):
        mu = np.concatenate([np.full(10, 8.0), np.zeros(90)])
        for target in (5.0, 10.0, 40.0):
            t = threshold_for_expected_active(mu, 1.0, target)
            assert expected_active_hard(mu, 1.0, t) == pytest.approx(target, abs=1e-9)

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError):
            threshold_for_expected_active(np.zeros(10), 1.0, 0.0)
        with pytest.raises(ValueError):
            threshold_for_expected_active(np.zeros(10), 1.0, 10.5)


def _expected_active_reference(mu, sigma, t):
    """E|A_t| for one scalar t, summed over every mean directly."""
    return float(np.sum(1.0 - normal_cdf((t - mu) / sigma) + normal_cdf((-t - mu) / sigma)))


def _threshold_reference(mu, sigma, target):
    """The scalar bisection, one target at a time."""
    p = mu.shape[0]
    if target == p:
        return 0.0
    lo, hi = 0.0, float(sigma)
    while _expected_active_reference(mu, sigma, hi) > target:
        hi *= 2.0
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        val = _expected_active_reference(mu, sigma, mid)
        if abs(val - target) <= 1e-10:
            return mid
        if val > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestArrayCalls:
    """Array arguments return the same bits as one scalar computation per
    entry, so curve tables do not depend on how they are batched."""

    @pytest.mark.parametrize("seed", range(6))
    def test_inversion_matches_scalar_bisection(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 300))
        # repeated means exercise the one-evaluation-per-distinct-mean path
        mu = rng.choice(rng.normal(scale=3.0, size=3), size=p) * (rng.random(p) < 0.7)
        sigma = float(rng.uniform(0.3, 2.5))
        targets = np.linspace(min(0.5, p / 2), p, 37)
        got = threshold_for_expected_active(mu, sigma, targets)
        want = [_threshold_reference(mu, sigma, float(x)) for x in targets]
        npt.assert_array_equal(_bits(got), _bits(want))
        assert threshold_for_expected_active(mu, sigma, float(targets[5])) == want[5]
        ts = np.concatenate(([0.0], got))
        npt.assert_array_equal(
            _bits(expected_active_hard(mu, sigma, ts)),
            _bits([_expected_active_reference(mu, sigma, float(t)) for t in ts]),
        )

    def test_curve_points_match_scalar_calls(self):
        mu = np.array([0.0, 0.0, 1.5, -0.4, 1.5, 3.0])
        lams = np.linspace(0.0, 6.0, 25)
        for fn in (df_subset_orthogonal, df_relaxed_lasso_orthogonal):
            curve = fn(mu, 1.3, lams)
            for k, lam in enumerate(lams):
                cp = fn(mu, 1.3, float(lam))
                for field in ("lam", "t", "expected_active", "df", "sdf"):
                    assert _bits(getattr(curve, field)[k]) == _bits(getattr(cp, field))

    def test_array_inputs_are_validated(self):
        with pytest.raises(ValueError):
            df_subset_orthogonal(np.zeros(3), 1.0, np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            threshold_for_expected_active(np.zeros(10), 1.0, np.array([5.0, 10.5]))
