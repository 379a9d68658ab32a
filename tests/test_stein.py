"""Univariate identity suite, discontinuity scanning, df decomposition."""

import inspect
import math
import warnings
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dfsearch import fitters, stein
from dfsearch.closedform import df_hard_threshold, normal_pdf
from dfsearch.errors import NumericalError
from dfsearch.fitters import FitProcedure, _line_jumps
from dfsearch.model import (
    DesignMatrix,
    RngSpec,
    SignalSpec,
    gen_block_design,
    gen_orthogonal_design,
)
from dfsearch.montecarlo import draw_responses
from dfsearch.stein import (
    PiecewiseScalarFunction,
    check_jump_positivity,
    function_library,
    hard_threshold_function,
    scan_discontinuities,
    soft_threshold_function,
    stein_decompose_df,
    stein_lhs_univariate,
    stein_rhs_univariate,
    verify_stein_univariate,
)

_LIBRARY = function_library()


class TestPiecewiseScalarFunction:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseScalarFunction(
                breakpoints=(1.0, 0.0), fn=lambda x: x, dfn=lambda x: 1.0
            )

    def test_stored_limits_must_match_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseScalarFunction(
                breakpoints=(0.0,),
                fn=lambda x: x,
                dfn=lambda x: 1.0,
                left_values=(0.0, 1.0),
            )

    def test_hard_threshold_limits_and_jumps(self):
        f = hard_threshold_function(1.5)
        assert f.left_limit(-1.5) == -1.5
        assert f.right_limit(-1.5) == 0.0
        assert f.left_limit(1.5) == 0.0
        assert f.right_limit(1.5) == 1.5
        jumps = f.jumps()
        npt.assert_allclose([j.location for j in jumps], [-1.5, 1.5])
        npt.assert_allclose([j.jump for j in jumps], [1.5, 1.5])

    @pytest.mark.parametrize("at", [0.5, -3.0, 1e9, -1e12])
    def test_unstored_limits_see_a_step_at_any_magnitude(self, at):
        # an absolute 1e-9 offset does not move an argument above about 1.7e7
        f = PiecewiseScalarFunction(
            breakpoints=(at,), fn=lambda x: 1.0 if x >= at else 0.0, dfn=lambda x: 0.0
        )
        assert (f.left_limit(at), f.right_limit(at)) == (0.0, 1.0)
        assert [j.jump for j in f.jumps()] == [1.0]

    def test_soft_threshold_is_continuous(self):
        f = soft_threshold_function(1.0)
        assert all(j.jump == 0.0 for j in f.jumps())

    def test_zero_threshold_collapses_to_identity(self):
        f = hard_threshold_function(0.0)
        assert f.breakpoints == ()
        assert f.evaluate(0.7) == 0.7


class TestUnivariateIdentity:
    @pytest.mark.parametrize("name,f", _LIBRARY, ids=[n for n, _ in _LIBRARY])
    def test_residual_small_at_reference_point(self, name, f):
        assert verify_stein_univariate(f, 0.5, 1.0) < 1e-8

    @pytest.mark.parametrize("mu", [-2.0, 0.0, 3.0])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_hard_threshold_reproduces_closed_form(self, mu, sigma):
        for t in (0.0, 0.5, 1.0, 2.5, 4.0):
            f = hard_threshold_function(t)
            rhs = stein_rhs_univariate(f, mu, sigma)
            lhs = stein_lhs_univariate(f, mu, sigma)
            exact = df_hard_threshold(np.array([mu]), sigma, t)
            assert abs(lhs - rhs) < 1e-8
            assert abs(rhs - exact) < 1e-8

    @pytest.mark.parametrize("name,f", _LIBRARY, ids=[n for n, _ in _LIBRARY])
    def test_both_sides_match_scipy_quad(self, name, f):
        # the independent reference: QUADPACK through scipy, on the same panels
        for mu in (-2.0, 0.0, 3.0):
            for sigma in (0.5, 1.0, 2.0):
                def lhs(x):
                    return (x - mu) * f.evaluate(x) * normal_pdf((x - mu) / sigma) / sigma

                def rhs(x):
                    return f.derivative(x) * normal_pdf((x - mu) / sigma) / sigma

                panels = stein._panels(f, mu - 12 * sigma, mu + 12 * sigma)
                ref_lhs, ref_rhs = (
                    sum(quad(g, a, b, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
                        for a, b in panels)
                    for g in (lhs, rhs)
                )
                ref_rhs += sum(normal_pdf((rec.location - mu) / sigma) / sigma * rec.jump
                               for rec in f.jumps())
                assert abs(stein_lhs_univariate(f, mu, sigma) - ref_lhs / sigma**2) <= 1e-12
                assert abs(stein_rhs_univariate(f, mu, sigma) - ref_rhs) <= 1e-12

    @pytest.mark.parametrize("fn,dfn", [
        # too many oscillations for 200 subintervals, and no breakpoints to
        # split at: the open subintervals' errors exceed the budget
        (lambda x: math.sin(1e4 * x), lambda x: 1e4 * math.cos(1e4 * x)),
        # a NaN error estimate must fail the budget, not pass it
        (lambda x: math.nan if x > 0.3 else x, lambda x: math.nan if x > 0.3 else 1.0),
    ], ids=["oscillating", "nan"])
    def test_error_budget_overrun_raises(self, fn, dfn):
        f = PiecewiseScalarFunction((), fn, dfn)
        for side in (stein_lhs_univariate, stein_rhs_univariate):
            with pytest.raises(NumericalError, match="quadrature error estimate") as info:
                side(f, 0.0, 1.0)
            assert set(info.value.diagnostic) == {"error_estimate"}
            assert not info.value.diagnostic["error_estimate"] <= 1e-9

    def test_over_budget_case_in_an_array_call_is_named(self):
        # only the case at mu = 15 reaches the NaN region
        f = PiecewiseScalarFunction((), lambda x: math.nan if x > 20.0 else x,
                                    lambda x: math.nan if x > 20.0 else 1.0)
        mu = np.array([0.0, 0.5, 15.0, 16.0])
        for side in (stein_lhs_univariate, stein_rhs_univariate):
            with pytest.raises(NumericalError, match=r"case 2 \(mu=15, sigma=1\)") as info:
                side(f, mu, 1.0)
            diagnostic = info.value.diagnostic
            assert set(diagnostic) == {"error_estimate", "case", "mu", "sigma"}
            assert (diagnostic["case"], diagnostic["mu"], diagnostic["sigma"]) == (2, 15.0, 1.0)
            assert not diagnostic["error_estimate"] <= 1e-9
            with pytest.raises(NumericalError, match=r"case \(1, 0\)"):
                side(f, mu[1:3, None], np.array([1.0, 0.5]))

    def test_covariance_side_of_step_function_matches_density(self):
        # E[(x - mu) step(x)] / sigma^2 = phi(mu/sigma)/sigma for a unit step at 0
        from dfsearch.closedform import normal_pdf

        f = [fn for name, fn in _LIBRARY if name == "unit-step"][0]
        mu, sigma = 0.3, 1.2
        lhs = stein_lhs_univariate(f, mu, sigma)
        assert abs(lhs - normal_pdf(mu / sigma) / sigma) < 1e-9


def _scalar_only_function():
    """A user function whose fn and dfn take floats only (math, not numpy)."""
    return PiecewiseScalarFunction(
        (0.5,), lambda x: math.sin(x) if x < 0.5 else math.cos(x) + 1.0,
        lambda x: math.cos(x) if x < 0.5 else -math.sin(x),
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestBatchedQuadrature:
    _FUNCTIONS = _LIBRARY + [("scalar-only", _scalar_only_function())]

    @pytest.mark.parametrize("name,f", _FUNCTIONS, ids=[n for n, _ in _FUNCTIONS])
    def test_array_call_equals_scalar_calls(self, name, f):
        rng = np.random.default_rng(5)
        mu, sigma = rng.uniform(-4, 4, 6), rng.uniform(0.2, 3, 6)
        other_mu, other_sigma = rng.uniform(-4, 4, 5), rng.uniform(0.2, 3, 5)
        for side in (stein_lhs_univariate, stein_rhs_univariate):
            alone = [side(f, m, s) for m, s in zip(mu.tolist(), sigma.tolist())]
            assert all(isinstance(v, float) for v in alone)
            assert _bits(side(f, mu, sigma)) == _bits(alone)
            # other cases sharing the call move no case's bits
            shared = side(f, np.concatenate((other_mu, mu)), np.concatenate((other_sigma, sigma)))
            assert _bits(shared[5:]) == _bits(alone)
            # broadcasting: mu down the rows, sigma along the columns
            grid = side(f, mu[:2, None], sigma[:3])
            assert grid.shape == (2, 3)
            assert _bits(grid) == _bits([[side(f, m, s) for s in sigma[:3].tolist()]
                                         for m in mu[:2].tolist()])
        assert _bits(verify_stein_univariate(f, mu, sigma)) == _bits(
            [verify_stein_univariate(f, m, s) for m, s in zip(mu.tolist(), sigma.tolist())])

    @pytest.mark.parametrize("name,f", _LIBRARY, ids=[n for n, _ in _LIBRARY])
    def test_elementwise_forms_equal_the_point_forms(self, name, f):
        assert f.elementwise
        x = np.random.default_rng(6).normal(scale=3.0, size=2000)
        bps = np.array(f.breakpoints)
        x = np.concatenate((x, bps, np.nextafter(bps, -np.inf), np.nextafter(bps, np.inf)))
        for array_form, point_form in ((f.fn, f.evaluate), (f.dfn, f.derivative)):
            values = np.broadcast_to(array_form(x), x.shape)
            assert _bits(values) == _bits([point_form(v) for v in x.tolist()])

    def test_sigma_must_be_positive_in_every_case(self):
        f = hard_threshold_function(1.0)
        for side in (stein_lhs_univariate, stein_rhs_univariate):
            for sigma in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match="sigma must be positive"):
                    side(f, np.zeros(3), np.array([1.0, sigma, 2.0]))


def _stub_proc(fn, n=4):
    """A fake procedure whose first coordinate map is fn, others identity."""

    def fit_many(Y):
        F = np.array(Y, dtype=float, copy=True)
        F[:, 0] = fn(F[:, 0])
        return SimpleNamespace(fitted=F)

    return SimpleNamespace(design=SimpleNamespace(n=n), fit_many=fit_many)


class TestScanDiscontinuities:
    def test_hard_threshold_finds_both_jumps(self):
        d = gen_orthogonal_design(4, 4)
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=d)
        y = np.array([0.3, -0.2, 0.8, 1.4])
        records = scan_discontinuities(proc, 0, y, -8.0, 8.0)
        assert len(records) == 2
        npt.assert_allclose([r.location for r in records], [-1.0, 1.0], atol=1e-6)
        npt.assert_allclose([r.jump for r in records], [1.0, 1.0], atol=1e-6)
        assert records[0].left == pytest.approx(-1.0, abs=1e-6)
        assert records[0].right == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_response_rejected(self, bad):
        d = gen_orthogonal_design(4, 4)
        proc = FitProcedure(kind="best-subset", lam=0.5, design=d)
        y = np.array([0.3, bad, 0.8, 1.4])
        with pytest.raises(ValueError, match="finite"):
            scan_discontinuities(proc, 0, y, -8.0, 8.0)

    def test_soft_threshold_has_no_jumps(self):
        d = gen_orthogonal_design(4, 4)
        proc = FitProcedure(kind="soft-threshold", lam=1.0, design=d)
        records = scan_discontinuities(proc, 1, np.zeros(4), -8.0, 8.0)
        assert records == []

    def test_lasso_coordinate_maps_are_continuous(self):
        d = gen_block_design(8, 4, [2, 2], 0.4, 0.8, RngSpec(seed=1, stream_id=0))
        proc = FitProcedure(kind="lasso", lam=0.6, design=d)
        y = np.random.default_rng(2).standard_normal(8)
        assert scan_discontinuities(proc, 3, y, -6.0, 6.0) == []

    def test_ridge_coordinate_maps_are_continuous(self):
        d = gen_block_design(8, 4, [2, 2], 0.4, 0.8, RngSpec(seed=1, stream_id=0))
        proc = FitProcedure(kind="ridge", lam=1.0, design=d)
        y = np.random.default_rng(3).standard_normal(8)
        assert scan_discontinuities(proc, 0, y, -6.0, 6.0) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_best_subset_agrees_with_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        d = gen_block_design(2, 2, [2], 0.3, 0.7, RngSpec(seed=seed, stream_id=0))
        proc = FitProcedure(kind="best-subset", lam=0.4, design=d)
        y = rng.standard_normal(2)
        lo, hi = -6.0, 6.0
        records = scan_discontinuities(proc, 0, y, lo, hi)

        # dense evaluation as an independent witness
        G = 200_001
        svals = np.linspace(lo, hi, G)
        rows = np.repeat(y[None, :], G, axis=0)
        rows[:, 0] = svals
        vals = proc.fit_many(rows).fitted[:, 0]
        dv = np.abs(np.diff(vals))
        spacing = (hi - lo) / (G - 1)
        ref_hits = np.flatnonzero(dv > 0.02)
        ref_locs = 0.5 * (svals[ref_hits] + svals[ref_hits + 1])

        assert len(records) == len(ref_locs)
        for rec, loc in zip(records, ref_locs):
            assert abs(rec.location - loc) <= spacing
            assert abs(rec.jump) > 1e-4

    def test_two_jumps_in_one_cell_raises(self):
        def fn(v):
            return np.where(v < 5e-4, 0.0, np.where(v < 1.5e-3, 1.0, 3.0))

        proc = _stub_proc(fn)
        with pytest.raises(NumericalError, match="grid points"):
            scan_discontinuities(proc, 0, np.zeros(4), -8.0, 8.0)

    def test_finer_grid_resolves_close_jumps(self):
        def fn(v):
            return np.where(v < 5e-4, 0.0, np.where(v < 1.5e-3, 1.0, 3.0))

        proc = _stub_proc(fn)
        records = scan_discontinuities(
            proc, 0, np.zeros(4), -8.0, 8.0, grid_points=65536
        )
        assert len(records) == 2
        npt.assert_allclose([r.location for r in records], [5e-4, 1.5e-3], atol=1e-6)
        npt.assert_allclose([r.jump for r in records], [1.0, 2.0], atol=1e-6)

    def test_jump_below_threshold_discarded(self):
        def fn(v):
            return np.where(v < 0.25, 0.0, 5e-5)

        proc = _stub_proc(fn)
        assert scan_discontinuities(proc, 0, np.zeros(4), -8.0, 8.0) == []

    def test_jump_above_threshold_kept(self):
        def fn(v):
            return np.where(v < 0.25, 0.0, 3e-4)

        proc = _stub_proc(fn)
        records = scan_discontinuities(proc, 0, np.zeros(4), -8.0, 8.0)
        assert len(records) == 1
        assert records[0].location == pytest.approx(0.25, abs=1e-6)
        assert records[0].jump == pytest.approx(3e-4, abs=1e-7)

    def test_kink_without_jump_ignored(self):
        def fn(v):
            return np.maximum(v, 0.0)

        proc = _stub_proc(fn)
        assert scan_discontinuities(proc, 0, np.zeros(4), -8.0, 8.0) == []

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["hard-threshold", "best-subset"]),
        t=st.floats(0.1, 3.0),
        data=st.data(),
    )
    def test_orthogonal_scan_matches_closed_form(self, kind, t, data):
        # on an orthogonal design both kinds threshold y at t: jumps of
        # size t at -t (from -t to 0) and at +t (from 0 to t), and none on
        # the coordinates outside the column span
        n = data.draw(st.integers(2, 6), label="n")
        p = data.draw(st.integers(2, n), label="p")
        coord = data.draw(st.integers(0, n - 1), label="coord")
        y = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n),
                               label="y"))
        lam = t if kind == "hard-threshold" else t * t / 2
        proc = FitProcedure(kind=kind, lam=lam, design=gen_orthogonal_design(n, p))
        records = scan_discontinuities(proc, coord, y, -8.0, 8.0)
        if coord >= p:
            assert records == []
            return
        assert len(records) == 2
        got = [(r.location, r.left, r.right, r.jump) for r in records]
        npt.assert_allclose(got, [(-t, -t, 0.0, t), (t, 0.0, t, t)], rtol=0, atol=1e-6)

    def test_non_finite_scanned_value_raises(self):
        def fn(v):
            return np.where(v < 0.5, np.nan, v)

        proc = _stub_proc(fn)
        with pytest.raises(NumericalError, match="non-finite") as info:
            scan_discontinuities(proc, 0, np.zeros(4), -8.0, 8.0)
        assert "coordinate 0" in str(info.value) and "s=-8" in str(info.value)
        assert info.value.diagnostic == {"coord": 0, "location": -8.0}

    def test_argument_validation(self):
        d = gen_orthogonal_design(4, 4)
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=d)
        with pytest.raises(ValueError):
            scan_discontinuities(proc, 9, np.zeros(4), -1.0, 1.0)
        with pytest.raises(ValueError):
            scan_discontinuities(proc, 0, np.zeros(3), -1.0, 1.0)
        with pytest.raises(ValueError):
            scan_discontinuities(proc, 0, np.zeros(4), 1.0, -1.0)


    @pytest.mark.parametrize("coord", [1.5, 1.0])
    def test_float_coordinate_is_rejected(self, coord):
        # before, 1.0 passed the range check and failed inside the scan
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=gen_orthogonal_design(4, 4))
        with pytest.raises(ValueError, match="coord must be an integer"):
            scan_discontinuities(proc, coord, np.zeros(4), -3.0, 3.0)

    @pytest.mark.parametrize("kind", [np.int64, np.uint64])
    def test_numpy_integer_coordinate_is_accepted(self, kind):
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=gen_orthogonal_design(4, 4))
        y = np.array([0.3, -2.0, 0.5, 1.2])
        got = scan_discontinuities(proc, kind(1), y, -3.0, 3.0)
        assert len(got) == 2 and got == scan_discontinuities(proc, 1, y, -3.0, 3.0)


class TestSteinDecomposition:
    def test_hard_threshold_matches_closed_form(self):
        n = 6
        d = gen_orthogonal_design(n, n)
        signal = SignalSpec(np.zeros(n), 1.0)
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=d)
        dec = stein_decompose_df(proc, signal, reps=600, seed=21)
        exact = df_hard_threshold(np.zeros(n), 1.0, 1.0)
        total = dec.divergence + dec.boundary
        assert abs(total - exact) <= 3.5 * dec.total_se
        assert dec.boundary > 0
        assert dec.divergence_se > 0 and dec.boundary_se > 0

    def test_pair_interface(self):
        d = gen_orthogonal_design(3, 3)
        signal = SignalSpec(np.zeros(3), 1.0)
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=d)
        dec = stein_decompose_df(proc, signal, reps=40, seed=2)
        assert dec.reps == 40
        assert "divergence" in repr(dec)

    def test_subset_divergence_is_mean_active(self):
        d = gen_orthogonal_design(4, 4)
        signal = SignalSpec(np.zeros(4), 1.0)
        proc = FitProcedure(kind="best-subset", lam=0.5, design=d)
        dec = stein_decompose_df(proc, signal, reps=300, seed=5)
        from dfsearch.montecarlo import estimate_df

        est = estimate_df(proc, signal, reps=300, seed=5)
        assert abs(dec.divergence - est.mean_active) <= 3 * max(dec.divergence_se, 1e-3)

    def test_ridge_has_no_boundary_term(self):
        d = gen_block_design(8, 4, [2, 2], 0.3, 0.7, RngSpec(seed=6, stream_id=0))
        beta = np.array([1.0, 0.0, -1.0, 0.0])
        signal = SignalSpec.from_coefficients(d, beta, 1.0)
        lam = 1.5
        proc = FitProcedure(kind="ridge", lam=lam, design=d)
        dec = stein_decompose_df(proc, signal, reps=30, seed=7)
        X = d.values
        trace = float(np.trace(X @ np.linalg.solve(X.T @ X + lam * np.eye(4), X.T)))
        assert dec.boundary == pytest.approx(0.0, abs=1e-12)
        assert dec.divergence == pytest.approx(trace, abs=1e-6)

    @pytest.mark.parametrize(
        "kind,lam", [("hard-threshold", 1.0), ("best-subset", 0.5), ("relaxed-lasso", 0.5)]
    )
    def test_cold_and_warm_plan_cache_agree(self, monkeypatch, kind, lam):
        # the second run meets the plan and support table the first one
        # filled (hard thresholding uses neither)
        d = gen_orthogonal_design(4, 4)
        signal = SignalSpec(np.zeros(4), 1.0)
        proc = FitProcedure(kind=kind, lam=lam, design=d)
        monkeypatch.setattr(fitters, "_PLAN_CACHE", None)
        cold = stein_decompose_df(proc, signal, reps=24, seed=9)
        warm = stein_decompose_df(proc, signal, reps=24, seed=9)
        assert cold == warm

    def test_nan_fits_raise_instead_of_a_nan_divergence(self):
        proc = SimpleNamespace(
            design=SimpleNamespace(n=3),
            fit_many=lambda Y: SimpleNamespace(fitted=np.full(np.shape(Y), np.nan)),
        )
        with pytest.raises(NumericalError, match="straddling"):
            stein_decompose_df(proc, SignalSpec(np.zeros(3), 1.0), reps=2, seed=0)

    def test_pair_unpacks_and_labels(self):
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=gen_orthogonal_design(3, 3))
        dec = stein_decompose_df(proc, SignalSpec(np.zeros(3), 1.0), reps=4, seed=1)
        assert repr(dec).startswith(f"SteinDecomposition(divergence={dec.divergence!r}, ")

    @pytest.mark.parametrize("grid_points", [0, 1, 15])
    def test_grid_points_below_16_rejected_before_any_fit(self, grid_points):
        def fit_many(Y):
            raise AssertionError("fit before the grid_points check")

        proc = SimpleNamespace(design=SimpleNamespace(n=3), fit_many=fit_many)
        signal = SignalSpec(np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="grid_points must be at least 16"):
            stein_decompose_df(proc, signal, reps=3, seed=0, grid_points=grid_points)
        with pytest.raises(ValueError, match="grid_points must be at least 16"):
            scan_discontinuities(proc, 0, np.zeros(3), -1.0, 1.0, grid_points=grid_points)
        with pytest.raises(ValueError, match="grid_points must be at least 16"):
            check_jump_positivity(proc, signal, trials=2, seed=0, grid_points=grid_points)

    def test_reps_validated(self):
        d = gen_orthogonal_design(3, 3)
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=d)
        with pytest.raises(ValueError):
            stein_decompose_df(proc, SignalSpec(np.zeros(3), 1.0), reps=1, seed=0)

    @pytest.mark.parametrize("far", [True, False])
    def test_heavy_tailed_boundary_sums_warn(self, monkeypatch, far):
        # one replication far out: within a sample of R values none is more
        # than (R - 1) / sqrt(R) standard deviations from the mean, so the
        # 10-sd rule can only fire from R = 102 on
        reps = 200
        sums = np.linspace(0.0, 1.0, reps)
        sums[7] += 100.0 if far else 0.0
        monkeypatch.setattr(stein, "_boundary_terms", lambda *args: sums)
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=gen_orthogonal_design(3, 3))
        signal = SignalSpec(np.zeros(3), 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dec = stein_decompose_df(proc, signal, reps=reps, seed=0)
        heavy = [w for w in caught if "heavy-tailed" in str(w.message)]
        assert len(heavy) == (1 if far else 0)
        assert dec.boundary == float(sums.mean())

    def test_relaxed_lasso_above_every_line_has_no_knot(self, monkeypatch):
        # on the identity design X'y = y, and along every line over
        # +/- 8 sigma |y|_inf stays below 9 here: the lasso fit is zero
        # throughout, so no line meets a knot
        design = gen_orthogonal_design(5, 5)
        signal = SignalSpec(np.zeros(5), 1.0)
        proc = FitProcedure(kind="relaxed-lasso", lam=9.0, design=design)
        Y0 = draw_responses(signal, 6, 4)
        assert np.abs(Y0).max() < 9.0
        jumps = _line_jumps(proc, Y0, np.full(5, -8.0), np.full(5, 8.0))
        assert [col.size for col in jumps] == [0] * 5
        none = _line_jumps(proc, Y0, -8.0, 8.0, lines=np.empty(0, dtype=np.intp))
        assert [col.size for col in none] == [0] * 5
        dec = stein_decompose_df(proc, signal, reps=6, seed=4)
        assert dec.boundary == 0.0 and dec.boundary_se == 0.0


class TestJumpPositivity:
    def test_hard_threshold_jumps_all_upward(self):
        d = gen_orthogonal_design(5, 5)
        signal = SignalSpec(np.zeros(5), 1.0)
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=d)
        assert check_jump_positivity(proc, signal, trials=6, seed=3) == []

    def test_best_subset_jumps_all_upward_small_case(self):
        d = gen_block_design(2, 2, [2], 0.3, 0.7, RngSpec(seed=8, stream_id=0))
        signal = SignalSpec(np.zeros(2), 1.0)
        proc = FitProcedure(kind="best-subset", lam=0.4, design=d)
        assert check_jump_positivity(proc, signal, trials=6, seed=4) == []

    def test_stub_with_downward_jump_is_flagged(self):
        def fn(v):
            return np.where(v < 0.5, 1.0, 0.5)

        proc = _stub_proc(fn)
        signal = SignalSpec(np.zeros(4), 1.0)
        violations = check_jump_positivity(proc, signal, trials=4, seed=5)
        bad = [v for v in violations if v.coord == 0]
        assert bad and all(v.record.jump < 0 for v in bad)
        assert bad[0].record.location == pytest.approx(0.5, abs=1e-6)

    def test_small_downward_jump_on_a_rising_map_is_flagged(self):
        # slope 1 on a 3.9e-3 grid step: the jump leaves its cell calmer
        # than its neighbors; the one-sided limits add 2e-7 of slope
        def fn(v):
            return v - np.where(v < 0.5, 0.0, 5e-4)

        proc = _stub_proc(fn)
        signal = SignalSpec(np.zeros(4), 1.0)
        violations = check_jump_positivity(proc, signal, trials=4, seed=5)
        assert [v.coord for v in violations] == [0]
        assert violations[0].record.location == pytest.approx(0.5, abs=1e-6)
        assert violations[0].record.jump == pytest.approx(-5e-4, abs=1e-6)

    def test_relaxed_lasso_reads_its_exact_jumps_without_a_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("a FitProcedure was scanned")

        monkeypatch.setattr(stein, "_scan", no_scan)
        design = gen_block_design(8, 6, [3, 3], 0.4, 0.9, RngSpec(seed=7, stream_id=0))
        proc = FitProcedure(kind="relaxed-lasso", lam=0.5, design=design)
        signal = SignalSpec(np.zeros(8), 1.0)
        violations = check_jump_positivity(proc, signal, trials=6, seed=0)
        # trial k walks only the line of coordinate k % n
        jumps = _line_jumps(proc, draw_responses(signal, 6, 0), np.full(8, -8.0), np.full(8, 8.0),
                            lines=np.arange(6) * 9)
        want = [(k, i, s, a, b) for k, i, s, a, b in zip(*(col.tolist() for col in jumps))
                if b - a < -1e-4]
        assert len(want) >= 5
        assert [(v.trial, v.coord, v.record.location, v.record.left, v.record.right)
                for v in violations] == want
        assert all(v.record.jump == v.record.right - v.record.left for v in violations)

    @pytest.mark.parametrize("kind, lam", [("hard-threshold", 0.8), ("best-subset", 0.4),
                                           ("relaxed-lasso", 0.5)])
    def test_walks_only_the_chosen_lines(self, kind, lam):
        # the same jumps as walking every line and keeping coordinate
        # k % n of trial k; the walked lines share matrix products with
        # different neighbours, so the floats agree to rounding
        design = (gen_orthogonal_design(8, 6) if kind == "hard-threshold" else
                  gen_block_design(8, 6, [3, 3], 0.4, 0.9, RngSpec(seed=7, stream_id=0)))
        proc = FitProcedure(kind=kind, lam=lam, design=design)
        signal = SignalSpec(np.zeros(8), 1.0)
        trials = np.arange(20)
        Y, lo, hi = draw_responses(signal, trials.size, 3), np.full(8, -8.0), np.full(8, 8.0)
        full = _line_jumps(proc, Y, lo, hi)
        pick = full[1] == full[0] % 8
        got = _line_jumps(proc, Y, lo, hi, lines=trials * 8 + trials % 8)
        assert got[0].size >= trials.size
        for a, b in zip(got[:2], full[:2]):
            npt.assert_array_equal(a, b[pick])
        for a, b in zip(got[2:], full[2:]):
            npt.assert_allclose(a, b[pick], rtol=0, atol=1e-12)
        violations = check_jump_positivity(proc, signal, trials=trials.size, seed=3)
        down = (full[4] - full[3] < -1e-4) & pick
        assert [(v.trial, v.coord) for v in violations] == list(zip(*(c[down].tolist()
                                                                      for c in full[:2])))
        for v, s, a, b in zip(violations, *(c[down] for c in full[2:])):
            npt.assert_allclose([v.record.location, v.record.left, v.record.right], [s, a, b],
                                rtol=0, atol=1e-12)

    def test_non_finite_map_raises_instead_of_passing(self):
        def fn(v):
            return np.where(v < 0.5, np.nan, v)

        proc = _stub_proc(fn)
        signal = SignalSpec(np.zeros(4), 1.0)
        with pytest.raises(NumericalError, match="non-finite") as info:
            check_jump_positivity(proc, signal, trials=4, seed=5)
        assert info.value.diagnostic == {"coord": 0, "location": -8.0}


def _exact_line(proc, y, coord, lo=-8.0, hi=8.0):
    """Locations and heights of every switch of one coordinate map, from
    the exact path (switches of any height, sorted by location)."""
    n = proc.design.n
    _, c, loc, left, right = _line_jumps(proc, y[None, :], np.full(n, lo), np.full(n, hi))
    return loc[c == coord], (right - left)[c == coord]


def _line_case(data, kind):
    """A procedure, a response and a coordinate: block designs (n <= 10)
    for best subset (p <= min(8, n)) and the relaxed lasso (p <= n + 4),
    orthogonal designs for hard thresholding."""
    n = data.draw(st.integers(3, 10), label="n")
    p = data.draw(st.integers(2, n + 4 if kind == "relaxed-lasso" else min(8, n)), label="p")
    if kind == "hard-threshold":
        design = gen_orthogonal_design(n, p)
        lam = data.draw(st.floats(0.1, 3.0), label="t")
    else:
        first = data.draw(st.integers(1, p), label="first block")
        low = data.draw(st.floats(0.0, 0.6), label="corr_low")
        high = data.draw(st.floats(low, 0.95), label="corr_high")
        seed = data.draw(st.integers(0, 10_000), label="design seed")
        sizes = [first, p - first] if first < p else [p]
        design = gen_block_design(n, p, sizes, low, high, RngSpec(seed=seed, stream_id=0))
        lam = data.draw(st.floats(0.1, 2.0), label="lam")
    y = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="y seed")).standard_normal(n)
    coord = data.draw(st.integers(0, n - 1), label="coord")
    return FitProcedure(kind=kind, lam=lam, design=design), y, coord


def _assert_exact_matches_scanner(proc, y, coord) -> int:
    """Check one line's exact jumps against the scanner both ways; returns
    the number of exact jumps confirmed one by one."""
    loc, jump = _exact_line(proc, y, coord)
    # each exact jump, scanned alone in a window that holds no other switch
    # and is fine enough that the jump dominates its cell; jumps near the
    # 1e-4 cutoff can fall on either side of it in the scan
    gap = np.diff(np.concatenate(([-np.inf], loc, [np.inf])))
    half = 0.5 * np.minimum(gap[:-1], gap[1:])
    confirmed = 0
    for s, size, h in zip(loc, jump, half):
        if abs(size) <= 2e-4 or h < 1e-5:
            continue
        d = min(1e-3, h)
        records = scan_discontinuities(proc, coord, y, s - d, s + d, grid_points=256)
        assert len(records) == 1, (s, size, records)
        assert abs(records[0].location - s) <= 1e-6
        assert abs(records[0].jump - size) <= 1e-5, (s, size, records[0])
        confirmed += 1
    # every jump the full-line scan finds is an exact switch that is not
    # flat (the scan may merge two jumps of one cell, so heights are not
    # compared)
    try:
        records = scan_discontinuities(proc, coord, y, -8.0, 8.0)
    except NumericalError:  # two jumps in one cell: nothing to compare
        records = []
    for rec in records:
        near = np.abs(loc - rec.location) <= 1e-6
        assert near.any() and np.abs(jump[near]).max() > 1e-5, rec
    return confirmed


class TestExactJumps:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["best-subset", "relaxed-lasso", "hard-threshold"]),
           data=st.data())
    def test_exact_jumps_match_the_scanner(self, kind, data):
        _assert_exact_matches_scanner(*_line_case(data, kind))

    @settings(max_examples=30, deadline=None)
    @given(dependent=st.sampled_from(["negated duplicate", "sum"]), data=st.data())
    def test_columns_in_the_span_of_others_match_the_scanner_or_name_the_line(
            self, dependent, data):
        # the last column is minus the first, or the sum of the first two:
        # a line either fails with an error that names it, or each of its
        # jumps is confirmed by the scanner
        proc, y, coord = _line_case(data, "relaxed-lasso")
        X = proc.design.values.copy()
        n, p = X.shape
        X[:, -1] = -X[:, 0] if dependent == "negated duplicate" or p < 3 else X[:, 0] + X[:, 1]
        proc = FitProcedure(kind="relaxed-lasso", lam=proc.lam, design=DesignMatrix(X))
        try:
            _line_jumps(proc, y[None, :], np.full(n, -8.0), np.full(n, 8.0))
        except NumericalError as err:
            diag = err.diagnostic
            assert diag["replication"] == 0 and diag["coordinate"] in range(n)
            assert f"(replication 0, coordinate {diag['coordinate']})" in str(err)
            return
        _assert_exact_matches_scanner(proc, y, coord)

    @pytest.mark.parametrize("kind,rep,coord", [
        ("best-subset", 17, 3), ("relaxed-lasso", 8, 4), ("relaxed-lasso", 14, 0),
    ])
    def test_lines_with_many_jumps_match_the_scanner(self, kind, rep, coord):
        design = gen_block_design(8, 6, [3, 3], 0.4, 0.9, RngSpec(seed=7, stream_id=0))
        proc = FitProcedure(kind=kind, lam=0.5, design=design)
        y = draw_responses(SignalSpec(np.zeros(8), 1.0), rep + 1, 0)[rep]
        assert _assert_exact_matches_scanner(proc, y, coord) >= 7

    def test_close_best_subset_jumps_are_both_reported(self):
        # the default scan puts these two jumps in one grid cell and drops
        # the smaller one
        design = gen_block_design(8, 6, [3, 3], 0.4, 0.9, RngSpec(seed=7, stream_id=0))
        proc = FitProcedure(kind="best-subset", lam=0.5, design=design)
        y = draw_responses(SignalSpec(np.zeros(8), 1.0), 18, 0)[17]
        loc, jump = _exact_line(proc, y, 3)
        near = (loc > -1.66) & (loc < -1.65) & (np.abs(jump) > 1e-4)
        npt.assert_allclose(loc[near], [-1.65313, -1.65252], atol=1e-5)
        npt.assert_allclose(jump[near], [0.0503, 0.4196], atol=1e-4)
        records = scan_discontinuities(proc, 3, y, -1.66, -1.65)
        npt.assert_allclose([r.location for r in records], loc[near], rtol=0, atol=1e-6)
        npt.assert_allclose([r.jump for r in records], jump[near], rtol=0, atol=1e-5)

    def test_small_jump_against_the_slope_is_flagged(self):
        # a downward jump of less than two cell increments on a rising
        # coordinate map, which a flag on absolute increments misses
        design = gen_block_design(8, 6, [3, 3], 0.4, 0.9, RngSpec(seed=7, stream_id=0))
        proc = FitProcedure(kind="relaxed-lasso", lam=0.5, design=design)
        y = draw_responses(SignalSpec(np.zeros(8), 1.0), 9, 0)[8]
        loc, jump = _exact_line(proc, y, 4)
        near = np.abs(loc - 2.480842) < 1e-6
        npt.assert_allclose(jump[near], [-7.75e-4], rtol=0, atol=1e-6)
        records = scan_discontinuities(proc, 4, y, -8.0, 8.0)
        found = [r for r in records if abs(r.location - 2.480842) < 1e-6]
        assert len(found) == 1
        assert found[0].jump == pytest.approx(jump[near][0], abs=1e-6)

    def test_jumps_are_ordered_and_independent_of_the_batch(self):
        design = gen_block_design(7, 5, [2, 3], 0.3, 0.9, RngSpec(seed=2, stream_id=0))
        Y = np.random.default_rng(4).standard_normal((5, 7))
        lo, hi = np.full(7, -8.0), np.full(7, 8.0)
        for kind in ("best-subset", "relaxed-lasso"):
            proc = FitProcedure(kind=kind, lam=0.4, design=design)
            rep, coord, loc, left, right = _line_jumps(proc, Y, lo, hi)
            key = np.column_stack((rep, coord, loc))
            assert [tuple(k) for k in key] == sorted(tuple(k) for k in key)
            for r in range(5):
                _, c1, l1, a1, b1 = _line_jumps(proc, Y[r:r + 1], lo, hi)
                sel = rep == r
                npt.assert_array_equal(c1, coord[sel])
                # best subset's envelope scores come from one product per
                # block of lines; the relaxed lasso walks each line alone
                npt.assert_allclose(np.column_stack((l1, a1, b1)),
                                    np.column_stack((loc, left, right))[sel],
                                    rtol=0, atol=1e-9 if kind == "best-subset" else 0)

    @pytest.mark.parametrize("kind,lam,support", [
        ("lasso", 0.5, None),
        ("ridge", 1.0, None),
        ("least-squares-on-support", 0.0, (0, 2)),
        ("soft-threshold", 1.0, None),
        ("relaxed-lasso", 0.0, None),
    ])
    def test_continuous_kinds_fit_nothing_for_the_boundary(self, monkeypatch, kind, lam,
                                                           support):
        n = 6
        design = (gen_orthogonal_design(n, 4) if kind == "soft-threshold" else
                  gen_block_design(n, 4, [2, 2], 0.3, 0.8, RngSpec(seed=1, stream_id=0)))
        proc = FitProcedure(kind=kind, lam=lam, design=design, support=support)
        signal = SignalSpec(np.zeros(n), 1.0)
        rows = []
        fit_many, lasso_path = FitProcedure.fit_many, fitters._lasso_path

        def counting(self, Y):
            rows.append(("fit_many", len(Y)))
            return fit_many(self, Y)

        def counting_lasso(X, Y, lams):
            rows.append(("lasso", len(Y)))
            return lasso_path(X, Y, lams)

        monkeypatch.setattr(FitProcedure, "fit_many", counting)
        monkeypatch.setattr(fitters, "_lasso_path", counting_lasso)
        dec = stein_decompose_df(proc, signal, reps=6, seed=3)
        made = rows.copy()
        rows.clear()
        Y0 = draw_responses(signal, 6, 3)
        stein._divergence_terms(proc, Y0, proc.fit_many(Y0).fitted, 1e-5)
        assert made == rows  # the base fit and the divergence probes, nothing else
        assert dec.boundary == 0.0

    def test_relaxed_lasso_fits_its_lasso_once_per_response(self, monkeypatch):
        # the base fit's lasso signs start the line walks of the boundary
        # term: the base fit and the divergence probes fit the lasso, and
        # nothing else does
        design = gen_block_design(8, 6, [3, 3], 0.4, 0.9, RngSpec(seed=7, stream_id=0))
        proc = FitProcedure(kind="relaxed-lasso", lam=0.5, design=design)
        signal = SignalSpec(np.zeros(8), 1.0)
        rows, lasso_path = [], fitters._lasso_path

        def counting(X, Y, lams):
            rows.append(len(Y))
            return lasso_path(X, Y, lams)

        monkeypatch.setattr(fitters, "_lasso_path", counting)
        dec = stein_decompose_df(proc, signal, reps=20, seed=0)
        assert rows == [20, 320]
        Y0 = draw_responses(signal, 20, 0)
        assert dec.boundary == float(stein._boundary_terms(proc, Y0, signal, 4096).mean())

    def test_duck_typed_procedure_is_scanned(self, monkeypatch):
        scans = []
        scan = stein._scan

        def spy(*args):
            scans.append(args[1])
            return scan(*args)

        monkeypatch.setattr(stein, "_scan", spy)
        proc = _stub_proc(lambda v: np.where(v < 0.25, 0.0, 1.0))
        dec = stein_decompose_df(proc, SignalSpec(np.zeros(4), 1.0), reps=3, seed=0)
        assert len(scans) == 3  # one scan per replication
        assert dec.boundary == pytest.approx(normal_pdf(0.25), abs=1e-6)
        assert dec.divergence == pytest.approx(3.0, abs=1e-9)

    def test_subset_line_curvatures_are_built_once_per_design(self, monkeypatch):
        # C_S, the plan's q * q summed along each parent chain, depends on
        # the design alone
        design = gen_block_design(8, 5, [2, 3], 0.4, 0.9, RngSpec(seed=3, stream_id=0))
        proc = FitProcedure(kind="best-subset", lam=0.5, design=design)
        Y = np.random.default_rng(4).standard_normal((2, 8))
        built, accumulate = [], fitters._SubsetPlan.accumulate

        def recording(self, T, scale=None):
            if T.shape == self.q.shape:  # the line sums have 3 columns, not n = 8
                built.append(T)
            return accumulate(self, T, scale)

        monkeypatch.setattr(fitters, "_PLAN_CACHE", None)
        monkeypatch.setattr(fitters._SubsetPlan, "accumulate", recording)
        lines = np.array([0, 5, 11])
        first = _line_jumps(proc, Y, -8.0, 8.0, lines)
        second = _line_jumps(proc, Y, -8.0, 8.0, lines)
        assert len(built) == 1
        assert first[0].size
        for a, b in zip(first, second):
            npt.assert_array_equal(a, b)

    def test_singular_active_gram_matrix_names_the_line(self, monkeypatch):
        design = gen_block_design(6, 4, [2, 2], 0.3, 0.8, RngSpec(seed=1, stream_id=0))
        proc = FitProcedure(kind="relaxed-lasso", lam=0.3, design=design)
        Y = np.random.default_rng(0).standard_normal((2, 6))
        # the support lookups of the walk along the lines, and the one after
        # it, see rank-deficient supports, not the replications' own lasso
        # fits; only the one after the walk reads the ranks
        walks = []
        homotopy, lookup = fitters._homotopy, fitters._DesignCache.lookup
        signature = inspect.signature(homotopy)

        def recording(*args, **kwargs):
            # dlam: -1 in lambda, 0 along a line
            walks.append(signature.bind(*args, **kwargs).arguments["dlam"])
            return homotopy(*args, **kwargs)

        def deficient(self, masks, **kwargs):
            found = lookup(self, masks, **kwargs)
            if walks and walks[-1] == 0:
                found = [g._replace(rank=np.full(g.rows.size, g.k - 1)) for g in found]
            return found

        monkeypatch.setattr(fitters, "_homotopy", recording)
        monkeypatch.setattr(fitters._DesignCache, "lookup", deficient)
        with pytest.raises(NumericalError, match="singular") as info:
            _line_jumps(proc, Y, np.full(6, -8.0), np.full(6, 8.0))
        diag = info.value.diagnostic
        assert set(diag) == {"replication", "coordinate"}
        assert f"replication {diag['replication']}, coordinate {diag['coordinate']}" in str(
            info.value)

    @pytest.mark.parametrize("rep,coord", [(8, 4), (14, 0)])
    def test_windows_on_one_side_of_the_response_match_the_scanner(self, rep, coord):
        # the walks start at y_ri, which lies above the first window and
        # below the second: only the knots inside each window count
        design = gen_block_design(8, 6, [3, 3], 0.4, 0.9, RngSpec(seed=7, stream_id=0))
        proc = FitProcedure(kind="relaxed-lasso", lam=0.5, design=design)
        y = draw_responses(SignalSpec(np.zeros(8), 1.0), rep + 1, 0)[rep]
        full_loc, full_jump = _exact_line(proc, y, coord)
        for lo, hi in ((-8.0, y[coord] - 0.25), (y[coord] + 0.25, 8.0)):
            loc, jump = _exact_line(proc, y, coord, lo, hi)
            inside = (full_loc >= lo) & (full_loc <= hi)
            assert loc.size >= 3
            npt.assert_allclose(loc, full_loc[inside], rtol=0, atol=1e-12)
            npt.assert_allclose(jump, full_jump[inside], rtol=0, atol=1e-12)
            records = scan_discontinuities(proc, coord, y, lo, hi)
            big = np.abs(jump) > 1e-4
            assert len(records) == big.sum()
            npt.assert_allclose([r.location for r in records], loc[big], rtol=0, atol=1e-6)
            npt.assert_allclose([r.jump for r in records], jump[big], rtol=0, atol=1e-5)

    def test_knot_at_the_response_is_reported_once(self):
        # an identity design: the relaxed lasso hard-thresholds y at lam, so
        # coordinate 0 jumps by lam at -lam and at lam, which is y_0 itself
        proc = FitProcedure(kind="relaxed-lasso", lam=0.5, design=gen_orthogonal_design(4, 4))
        for y0 in (0.5, -0.5):
            loc, jump = _exact_line(proc, np.array([y0, 0.1, -1.2, 2.0]), 0)
            npt.assert_array_equal(loc, [-0.5, 0.5])
            npt.assert_allclose(jump, [0.5, 0.5], rtol=0, atol=1e-15)
        # a block design: each knot of a line, moved to y_ri, is still
        # reported once, at the same place and with the same height
        design = gen_block_design(8, 6, [3, 3], 0.4, 0.9, RngSpec(seed=7, stream_id=0))
        proc = FitProcedure(kind="relaxed-lasso", lam=0.5, design=design)
        y = draw_responses(SignalSpec(np.zeros(8), 1.0), 9, 0)[8]
        want_loc, want_jump = _exact_line(proc, y, 4)
        assert want_loc.size >= 7
        for s in want_loc:
            y[4] = s
            loc, jump = _exact_line(proc, y, 4)
            npt.assert_allclose(loc, want_loc, rtol=0, atol=1e-12)
            npt.assert_allclose(jump, want_jump, rtol=0, atol=1e-12)

    def test_one_lasso_fit_per_replication(self, monkeypatch):
        design = gen_block_design(8, 6, [3, 3], 0.4, 0.9, RngSpec(seed=7, stream_id=0))
        proc = FitProcedure(kind="relaxed-lasso", lam=0.5, design=design)
        Y = draw_responses(SignalSpec(np.zeros(8), 1.0), 5, 0)
        rows = []
        lasso_path = fitters._lasso_path

        def counting(X, Y, lams):
            rows.append(len(Y))
            return lasso_path(X, Y, lams)

        monkeypatch.setattr(fitters, "_lasso_path", counting)
        jumps = _line_jumps(proc, Y, np.full(8, -8.0), np.full(8, 8.0))
        assert jumps[0].size > 0
        assert rows == [5]  # not one fit per line, 5 * 8

    @pytest.mark.parametrize("kind,lam,message", [
        ("relaxed-lasso", 2.0, "lasso homotopy did not finish"),
        ("best-subset", 0.5, "best-subset envelope walk did not finish"),
    ])
    def test_walk_that_does_not_finish_names_the_line(self, monkeypatch, kind, lam, message):
        # at lam = 2 the lasso's own walk in lambda takes two steps here,
        # and the walks along the lines take more
        design = gen_block_design(8, 6, [3, 3], 0.4, 0.9, RngSpec(seed=7, stream_id=0))
        proc = FitProcedure(kind=kind, lam=lam, design=design)
        Y = draw_responses(SignalSpec(np.zeros(8), 1.0), 2, 0)
        monkeypatch.setattr(fitters, "_MAX_LINE_STEPS", 2)
        with pytest.raises(NumericalError, match=message) as info:
            _line_jumps(proc, Y, np.full(8, -8.0), np.full(8, 8.0))
        diag = info.value.diagnostic
        assert set(diag) == {"replication", "coordinate"}
        assert f"(replication {diag['replication']}, coordinate {diag['coordinate']})" in str(
            info.value)
