"""Fitting procedures: exactness, KKT conditions, ties, and batching."""

import dataclasses
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dfsearch import fitters
from dfsearch.errors import CapacityError, NumericalError
from dfsearch.fitters import (
    KINDS,
    FitProcedure,
    best_subset_solve,
    fit_path,
    hard_threshold,
    lasso_kkt_residual,
    lasso_solve,
    least_squares_on_support,
    refit_on_active_sets,
    relaxed_lasso_fit,
    ridge_fit,
    soft_threshold,
)
from dfsearch.model import (
    DesignMatrix,
    RngSpec,
    SignalSpec,
    gen_block_design,
    gen_orthogonal_design,
)
from dfsearch.montecarlo import draw_responses
from dfsearch.stein import hard_threshold_function, soft_threshold_function


def _random_design(n, p, seed):
    rng = np.random.default_rng(seed)
    return DesignMatrix(rng.standard_normal((n, p)), orthogonal=False)


class TestThresholdOperators:
    def test_soft_shrinks_toward_zero(self):
        v = np.array([3.0, -2.0, 0.5, -0.5, 0.0])
        npt.assert_allclose(soft_threshold(v, 1.0), [2.0, -1.0, 0.0, 0.0, 0.0])

    def test_hard_keeps_or_kills(self):
        v = np.array([3.0, -2.0, 0.5, -0.5, 0.0])
        npt.assert_allclose(hard_threshold(v, 1.0), [3.0, -2.0, 0.0, 0.0, 0.0])

    def test_boundary_component_kept_by_hard_dropped_by_soft(self):
        v = np.array([1.0, -1.0])
        npt.assert_allclose(hard_threshold(v, 1.0), [1.0, -1.0])
        npt.assert_allclose(soft_threshold(v, 1.0), [0.0, 0.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), -0.1)
        with pytest.raises(ValueError):
            hard_threshold(np.ones(2), -0.1)

    @pytest.mark.parametrize("t", [-1.0, float("nan")])
    @pytest.mark.parametrize("threshold", [
        lambda t: soft_threshold([1.0, -2.0], t),
        lambda t: hard_threshold([1.0, -2.0], t),
        soft_threshold_function,
        hard_threshold_function,
    ], ids=["soft", "hard", "soft_function", "hard_function"])
    def test_negative_or_nan_threshold_names_t(self, threshold, t):
        with pytest.raises(ValueError, match="^t must be nonnegative$"):
            threshold(t)


class TestLeastSquaresOnSupport:
    def test_empty_support_fits_zero(self):
        d = _random_design(6, 4, 0)
        out = least_squares_on_support(d, np.ones(6), ())
        npt.assert_array_equal(out.beta, np.zeros(4))
        npt.assert_array_equal(out.fitted, np.zeros(6))
        assert tuple(out.active_set) == ()

    def test_identity_design_projects_coordinates(self):
        d = gen_orthogonal_design(3, 3)
        out = least_squares_on_support(d, np.array([1.0, 2.0, 3.0]), (0, 2))
        npt.assert_allclose(out.fitted, [1.0, 0.0, 3.0], atol=1e-14)

    def test_duplicated_column_projects_onto_span(self):
        rng = np.random.default_rng(3)
        col = rng.standard_normal(8)
        X = np.column_stack([col, col, rng.standard_normal(8)])
        d = DesignMatrix(X, orthogonal=False)
        y = rng.standard_normal(8)
        out = least_squares_on_support(d, y, (0, 1))
        proj = col * (col @ y) / (col @ col)
        npt.assert_allclose(out.fitted, proj, atol=1e-10)

    def test_fitted_equals_design_times_beta(self):
        d = _random_design(10, 5, 4)
        y = np.random.default_rng(5).standard_normal(10)
        out = least_squares_on_support(d, y, (1, 3, 4))
        npt.assert_allclose(out.fitted, d.values @ out.beta, atol=1e-12)
        assert all(out.beta[j] == 0 for j in (0, 2))

    def test_out_of_range_support_rejected(self):
        d = _random_design(6, 4, 0)
        with pytest.raises(ValueError):
            least_squares_on_support(d, np.ones(6), (0, 4))


class TestLasso:
    @pytest.mark.parametrize("lam", [0.05, 0.5, 2.0, 10.0])
    def test_kkt_residual_small(self, lam):
        d = _random_design(20, 10, 11)
        y = np.random.default_rng(12).standard_normal(20)
        out = lasso_solve(d, y, lam)
        assert lasso_kkt_residual(d, y, lam, out.beta) <= 1e-8

    def test_zero_penalty_is_least_squares(self):
        d = _random_design(15, 6, 2)
        y = np.random.default_rng(1).standard_normal(15)
        out = lasso_solve(d, y, 0.0)
        beta_ls = np.linalg.pinv(d.values) @ y
        npt.assert_allclose(out.beta, beta_ls, atol=1e-10)

    def test_orthogonal_design_soft_thresholds(self):
        d = gen_orthogonal_design(12, 8)
        y = np.random.default_rng(8).standard_normal(12)
        lam = 0.6
        out = lasso_solve(d, y, lam)
        npt.assert_allclose(out.beta, soft_threshold(d.values.T @ y, lam), atol=1e-10)

    def test_objective_beats_random_perturbations(self):
        d = _random_design(20, 10, 21)
        y = np.random.default_rng(22).standard_normal(20)
        lam = 1.0
        out = lasso_solve(d, y, lam)

        def objective(b):
            return 0.5 * np.sum((y - d.values @ b) ** 2) + lam * np.abs(b).sum()

        assert out.objective == pytest.approx(objective(out.beta), abs=1e-10)
        rng = np.random.default_rng(23)
        for scale in (1e-4, 1e-2, 1.0):
            for _ in range(40):
                other = out.beta + scale * rng.standard_normal(10)
                assert objective(other) >= out.objective - 1e-12

    def test_huge_penalty_gives_empty_model(self):
        d = _random_design(10, 4, 5)
        y = np.random.default_rng(6).standard_normal(10)
        lam = 10.0 * np.abs(d.values.T @ y).max()
        out = lasso_solve(d, y, lam)
        npt.assert_array_equal(out.beta, np.zeros(4))

    def test_active_size_shrinks_with_penalty_orthogonal(self):
        d = gen_orthogonal_design(20, 12)
        y = np.random.default_rng(31).standard_normal(20)
        sizes = [
            len(lasso_solve(d, y, lam).active_set)
            for lam in np.linspace(0.0, 3.0, 16)
        ]
        assert all(a >= b for a, b in zip(sizes[:-1], sizes[1:]))


def _brute_force_lasso(X, y, lam):
    """The lasso by enumeration of all 3^p sign patterns z: solve each
    exactly on its support A (skipping a rank-deficient X_A) and keep the
    pattern whose solution satisfies the KKT conditions strictly, with
    sign(beta_A) = z_A and |X_j'(y - X beta)| < lam off A.  Returns the
    coefficients and their margin, the smallest of min |beta_A| and
    min (lam - |X_j'(y - X beta)|) off A; the margin is -inf when no
    pattern qualifies."""
    p = X.shape[1]
    best, margin = np.zeros(p), -np.inf
    for z in itertools.product((-1.0, 0.0, 1.0), repeat=p):
        z = np.array(z)
        A = np.flatnonzero(z)
        beta = np.zeros(p)
        if A.size:
            if np.linalg.matrix_rank(X[:, A]) < A.size:
                continue
            P = np.linalg.pinv(X[:, A])
            beta[A] = P @ y - lam * (P @ P.T) @ z[A]
        c = X.T @ (y - X @ beta)
        off = np.setdiff1d(np.arange(p), A)
        m = min(np.min(z[A] * beta[A], initial=np.inf),
                np.min(lam - np.abs(c[off]), initial=np.inf))
        if m > margin:
            best, margin = beta, m
    return best, margin


class TestLassoExactFinish:
    def test_support_one_knot_away_is_not_taken(self):
        # On support {0, 2} the exact solve gives beta[1] = 0 with a KKT
        # residual of 1.03e-7, below the 1e-8 * scale gate (1.18e-7); the
        # lasso has beta[1] = 1.79e-6.
        d = gen_block_design(3, 3, [1, 2], 0.0, 0.0, RngSpec(315, 0))
        y = np.random.default_rng(0).standard_normal(3)
        y[0] = -7.12390843 - 1e-6
        out = lasso_solve(d, y, 0.5)
        assert out.beta[1] > 0
        assert lasso_kkt_residual(d, y, 0.5, out.beta) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(1, 5),
        extra=st.integers(0, 4),
        split=st.integers(1, 5),
        corr=st.sampled_from([(0.0, 0.0), (0.4, 0.9), (0.9, 0.95)]),
        lam=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_enumeration(self, p, extra, split, corr, lam, seed):
        blocks = [b for b in (min(split, p), p - min(split, p)) if b]
        d = gen_block_design(p + extra, p, blocks, *corr, RngSpec(seed, 0))
        Y = 2.0 * np.random.default_rng(seed).standard_normal((6, p + extra))
        refs = [_brute_force_lasso(d.values, y, lam) for y in Y]
        assume(all(margin > 1e-6 for _, margin in refs))
        got = FitProcedure("lasso", lam, d).fit_many(Y)
        for r, (beta, _) in enumerate(refs):
            npt.assert_allclose(got.beta[r], beta, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("lam", [0.05, 0.3, 1.0])
    def test_duplicated_column_takes_no_rank_deficient_support(self, monkeypatch, lam):
        d = gen_block_design(8, 5, [2, 3], 0.4, 0.9, RngSpec(61, 0))
        X = d.values.copy()
        X[:, 4] = X[:, 0]
        d = DesignMatrix(X)
        Y = np.random.default_rng(62).standard_normal((200, 8))
        # the supports solved on, not every lookup: a walk looks up the
        # rank of each candidate support, rank deficient or not
        solved, on_supports = set(), fitters._on_supports

        def recording(cache, Y, masks, *args):
            solved.update(tuple(np.flatnonzero(m)) for m in masks)
            return on_supports(cache, Y, masks, *args)

        monkeypatch.setattr(fitters, "_on_supports", recording)
        out = FitProcedure("lasso", lam, d).fit_many(Y)
        assert solved
        assert all(np.linalg.matrix_rank(X[:, list(S)]) == len(S) for S in solved if S)
        gate = 1e-8 * max(1.0, float(np.abs(Y @ X).max()), lam)
        for r in range(Y.shape[0]):
            assert lasso_kkt_residual(d, Y[r], lam, out.beta[r]) <= gate


class TestLassoPath:
    def test_n_below_p_path_is_exact(self):
        # the simulate config procedures=lasso n=8 p=12 block_sizes=6,6
        # support=0,6 reps=300: at the smallest lambdas the active sets
        # reach n columns, and a support of more than n columns has rank n
        d = gen_block_design(8, 12, [6, 6], 0.6, 0.9, RngSpec(seed=7, stream_id=0))
        beta = np.zeros(12)
        beta[[0, 6]] = 1.0
        signal = SignalSpec.from_coefficients(d, beta, 1.0)
        Y = draw_responses(signal, 300, 0)
        lam_max = float(np.abs(d.values.T @ signal.mu).max())
        grid = np.geomspace(0.01 * lam_max, lam_max, 10)
        for lam, fit in zip(grid, fit_path("lasso", d, Y, grid)):
            scale = max(1.0, float(np.abs(Y @ d.values).max()), lam)
            worst = max(lasso_kkt_residual(d, y, lam, b) for y, b in zip(Y, fit.beta))
            assert worst <= 1e-12 * scale
            assert fit.active.sum(axis=1).max() <= 8

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(12, 6), (20, 5), (10, 4), (6, 8), (5, 9)]),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 1.0, 1.5]),
                           min_size=1, max_size=6),
    )
    def test_path_matches_one_fit_per_value(self, shape, duplicate, seed, fractions):
        # an unsorted grid with repeats, zero and values at or above the
        # largest lam_max of the rows, which fit all zeros
        n, p = shape
        X = gen_block_design(n, p, [p // 2, p - p // 2], 0.4, 0.9, RngSpec(seed, 0)).values.copy()
        if duplicate:
            X[:, p - 1] = X[:, 0]
        d = DesignMatrix(X)
        Y = 2.0 * np.random.default_rng(seed).standard_normal((25, n))
        lam_max = float(np.abs(Y @ X).max())
        grid = [f * lam_max for f in fractions]
        for lam, fit in zip(grid, fit_path("lasso", d, Y, grid)):
            one = FitProcedure("lasso", lam, d).fit_many(Y)
            if duplicate:
                # a copy of an active column may stand in for it, so only
                # the fitted values are unique; rounding picks the copy
                npt.assert_allclose(fit.fitted, one.fitted, rtol=0, atol=1e-9)
            else:
                npt.assert_array_equal(fit.active, one.active)
                npt.assert_allclose(fit.beta, one.beta, rtol=0, atol=1e-12)
            if lam >= lam_max:
                assert not fit.active.any()
            for out in (fit, one) if lam > 0 else ():
                assert max(lasso_kkt_residual(d, y, lam, b) for y, b in zip(Y, out.beta)) <= (
                    1e-9 * max(1.0, lam_max, lam))


def _subset_objectives(X, y, lam):
    """(penalized objective, support) of every support by lstsq, smallest
    supports first, lexicographic within a size."""
    p = X.shape[1]
    out = []
    for size in range(p + 1):
        for S in itertools.combinations(range(p), size):
            if S:
                coef, *_ = np.linalg.lstsq(X[:, S], y, rcond=None)
                rss = np.sum((y - X[:, S] @ coef) ** 2)
            else:
                rss = np.sum(y**2)
            out.append((0.5 * rss + lam * size, S))
    return out


def _brute_force_subset(X, y, lam):
    """Smallest penalized objective over every support, preferring small
    then lexicographically earliest supports on ties."""
    best = (np.inf, None)
    for val, S in _subset_objectives(X, y, lam):
        if val < best[0] - 1e-12:
            best = (val, S)
    return best


class TestBestSubset:
    @pytest.mark.parametrize("seed,lam", [(0, 0.3), (1, 0.8), (2, 1.7), (3, 0.05)])
    def test_matches_exhaustive_reference(self, seed, lam):
        d = _random_design(12, 6, seed)
        y = np.random.default_rng(100 + seed).standard_normal(12)
        out = best_subset_solve(d, y, lam)
        ref_val, ref_support = _brute_force_subset(d.values, y, lam)
        assert out.objective == pytest.approx(ref_val, abs=1e-9)
        assert tuple(out.active_set) == ref_support

    def test_tie_prefers_smaller_support(self):
        # y=(1,1) on the identity at lam=0.5 ties every support at value 1
        d = gen_orthogonal_design(2, 2)
        out = best_subset_solve(d, np.array([1.0, 1.0]), 0.5)
        assert tuple(out.active_set) == ()

    def test_tie_prefers_lexicographic_order(self):
        # duplicated column: {0} and {1} give identical fits, {0} must win
        X = np.array([[1.0, 1.0], [0.0, 0.0]])
        d = DesignMatrix(X, orthogonal=False)
        out = best_subset_solve(d, np.array([1.0, 0.0]), 0.1)
        assert tuple(out.active_set) == (0,)
        npt.assert_allclose(out.fitted, [1.0, 0.0], atol=1e-12)

    def test_dependent_columns_handled(self):
        rng = np.random.default_rng(9)
        col = rng.standard_normal(10)
        X = np.column_stack([col, 2.0 * col, rng.standard_normal((10, 2))])
        d = DesignMatrix(X, orthogonal=False)
        y = rng.standard_normal(10)
        out = best_subset_solve(d, y, 0.2)
        ref_val, _ = _brute_force_subset(X, y, 0.2)
        assert out.objective == pytest.approx(ref_val, abs=1e-9)

    def test_active_size_shrinks_with_penalty_orthogonal(self):
        d = gen_orthogonal_design(10, 10)
        y = np.random.default_rng(41).standard_normal(10)
        sizes = [
            len(best_subset_solve(d, y, lam).active_set)
            for lam in np.linspace(0.0, 2.0, 9)
        ]
        assert all(a >= b for a, b in zip(sizes[:-1], sizes[1:]))

    def test_orthogonal_case_is_hard_thresholding(self):
        d = gen_orthogonal_design(9, 9)
        y = np.random.default_rng(55).standard_normal(9)
        lam = 0.4
        out = best_subset_solve(d, y, lam)
        npt.assert_allclose(out.beta, hard_threshold(y, np.sqrt(2 * lam)), atol=1e-12)

    def test_capacity_guard(self):
        d = _random_design(30, 26, 0)
        with pytest.raises(CapacityError):
            FitProcedure(kind="best-subset", lam=1.0, design=d)

    def test_capacity_guard_counts_plan_size(self):
        # 2^22 supports x 30 floats is 960 MB of plan; 2^20 x 30 is 240 MB
        wide = _random_design(30, 22, 0)
        with pytest.raises(CapacityError):
            FitProcedure(kind="best-subset", lam=1.0, design=wide)
        with pytest.raises(CapacityError):
            fit_path("best-subset", wide, np.zeros((1, 30)), [1.0])
        with pytest.raises(CapacityError):
            best_subset_solve(wide, np.zeros(30), 1.0)
        FitProcedure(kind="best-subset", lam=1.0, design=_random_design(30, 20, 0))

    def test_overflowing_scores_raise(self):
        # finite responses whose squares overflow leave no finite objective
        d = _random_design(6, 3, 5)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            best_subset_solve(d, np.full(6, 1e200), 0.5)

    def test_plan_is_reused_for_the_same_design(self):
        d = _random_design(9, 5, 3)
        y = np.random.default_rng(4).standard_normal(9)
        best_subset_solve(d, y, 0.3)
        plan = fitters._PLAN_CACHE[1]
        best_subset_solve(d, 2.0 * y, 0.7)
        assert fitters._PLAN_CACHE[1] is plan
        best_subset_solve(_random_design(9, 5, 4), y, 0.3)
        assert fitters._PLAN_CACHE[1] is not plan

    def test_path_matches_single_solves(self):
        d = _random_design(14, 7, 77)
        rng = np.random.default_rng(78)
        Y = rng.standard_normal((3, 14))
        lams = [0.1, 0.6, 2.5]
        path = fit_path("best-subset", d, Y, lams)
        for li, lam in enumerate(lams):
            for r in range(3):
                solo = best_subset_solve(d, Y[r], lam)
                batch = path[li].row(r)
                npt.assert_array_equal(batch.beta, solo.beta)
                npt.assert_array_equal(batch.active_set, solo.active_set)

    def test_threads_alternating_designs_get_their_own_plan(self):
        # more threads than cores, switching often, racing to replace the
        # cached plan: a fit scored against the other design's plan would
        # select different supports
        designs = [_random_design(10, 6, s) for s in (11, 12)]
        Y = np.random.default_rng(13).standard_normal((5, 10))
        expected = [fit_path("best-subset", d, Y, [0.2, 0.9]) for d in designs]
        results = [None] * 64

        def work(first):
            for i in range(first, first + 8):
                results[i] = fit_path("best-subset", designs[i % 2], Y, [0.2, 0.9])

        threads = [threading.Thread(target=work, args=(8 * k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        for i, path in enumerate(results):
            for got, want in zip(path, expected[i % 2]):
                npt.assert_array_equal(got.active, want.active)
                npt.assert_array_equal(got.beta, want.beta)


def _structured_design(n, p, seed, structure):
    """Random n x p design, optionally with a duplicated column, a column
    that is an exact combination of two others, or a zero column."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if structure == "duplicate" and p >= 2:
        X[:, p - 1] = X[:, 0]
    if structure == "collinear" and p >= 3:
        X[:, 1] = 0.5 * X[:, 0] - 2.0 * X[:, 2]
    if structure == "zero":
        X[:, 1] = 0.0
    return X


def _factors(cache, supports):
    """(pinv, rank) of X[:, S] for every S of supports, in order, from one
    support-table lookup."""
    masks = np.zeros((len(supports), cache.X.shape[1]), dtype=bool)
    for i, S in enumerate(supports):
        masks[i, S] = True
    found = [None] * len(supports)
    for g in cache.lookup(masks):
        for r, s, k in zip(g.rows, g.slot, g.rank):
            found[r] = (g.pinv[s], k)
    return found


def _table_entries(cache):
    """Number of the supports in a design's support table, and the bytes of
    their pinvs."""
    stacks = [e.pinv[:e.size] for _, _, e in cache._table.values()]
    return sum(len(P) for P in stacks), sum(P.nbytes for P in stacks)


def _separated_from_ties(X, y, lam, lo=1e-13, hi=1e-6):
    """True when every support's objective is either within lo of the
    minimum (an exact tie) or more than hi above it."""
    vals = np.array([val for val, _ in _subset_objectives(X, y, lam)])
    gaps = vals - vals.min()
    return not np.any((gaps > lo) & (gaps <= hi))


class TestBestSubsetProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(8, 4), (10, 6), (6, 5), (3, 5), (2, 6), (4, 6)]),
        structure=st.sampled_from(["plain", "duplicate", "collinear"]),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.01, 3.0),
    )
    def test_matches_brute_force(self, shape, structure, seed, lam):
        # shapes with n < p exercise the rank cap
        n, p = shape
        X = _structured_design(n, p, seed, structure)
        y = np.random.default_rng(seed + 1).standard_normal(n)
        assume(_separated_from_ties(X, y, lam))
        out = best_subset_solve(DesignMatrix(X, orthogonal=False), y, lam)
        ref_val, ref_support = _brute_force_subset(X, y, lam)
        assert out.objective == pytest.approx(ref_val, abs=1e-9)
        assert tuple(out.active_set) == ref_support

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(6, 6), (9, 5), (12, 7)]),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.01, 3.0),
    )
    def test_orthogonal_is_hard_thresholding(self, shape, seed, lam):
        n, p = shape
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        y = rng.standard_normal(n)
        z = Q.T @ y
        t = np.sqrt(2 * lam)
        assume(np.min(np.abs(np.abs(z) - t)) > 1e-6)
        out = best_subset_solve(DesignMatrix(Q, orthogonal=True), y, lam)
        expected = hard_threshold(z, t)
        npt.assert_array_equal(out.active_set, np.flatnonzero(expected))
        npt.assert_allclose(out.beta, expected, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.integers(2, 6),
        reps=st.integers(2, 9),
        per_block=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunked_path_matches_single_solves(self, p, reps, per_block, seed):
        # each row is refit alone through its support's pseudoinverse, so a
        # row of the path is the same bits as its single solve
        d = _random_design(8, p, seed)
        rng = np.random.default_rng(seed + 1)
        Y = rng.standard_normal((reps, 8))
        lams = [0.05, 0.4, 1.5]
        with pytest.MonkeyPatch.context() as mp:
            # scored per_block responses at a time
            mp.setattr(fitters, "_BLOCK_FLOATS", per_block << p)
            path = fit_path("best-subset", d, Y, lams)
            for li, lam in enumerate(lams):
                for r in range(reps):
                    solo = best_subset_solve(d, Y[r], lam)
                    npt.assert_array_equal(path[li].row(r).active_set, solo.active_set)
                    npt.assert_array_equal(path[li].beta[r], solo.beta)
                    npt.assert_array_equal(path[li].fitted[r], solo.fitted)


class TestRelaxedLasso:
    def test_refits_least_squares_on_lasso_support(self):
        d = _random_design(18, 9, 6)
        y = np.random.default_rng(7).standard_normal(18)
        lam = 0.9
        relaxed = relaxed_lasso_fit(d, y, lam)
        base = lasso_solve(d, y, lam)
        npt.assert_array_equal(relaxed.active_set, base.active_set)
        refit = least_squares_on_support(d, y, base.active_set)
        npt.assert_allclose(relaxed.fitted, refit.fitted, atol=1e-10)

    def test_orthogonal_case_is_hard_thresholding_at_lambda(self):
        d = gen_orthogonal_design(11, 11)
        y = np.random.default_rng(17).standard_normal(11)
        lam = 0.7
        out = relaxed_lasso_fit(d, y, lam)
        npt.assert_allclose(out.fitted, hard_threshold(y, lam), atol=1e-10)


class TestRidge:
    def test_matches_normal_equations(self):
        d = _random_design(16, 5, 10)
        y = np.random.default_rng(11).standard_normal(16)
        lam = 2.3
        out = ridge_fit(d, y, lam)
        ref = np.linalg.solve(
            d.values.T @ d.values + lam * np.eye(5), d.values.T @ y
        )
        npt.assert_allclose(out.beta, ref, atol=1e-10)
        assert tuple(out.active_set) == tuple(range(5))

    def test_requires_positive_penalty(self):
        d = _random_design(8, 3, 1)
        with pytest.raises(ValueError):
            ridge_fit(d, np.ones(8), 0.0)


class TestFitProcedure:
    def test_unknown_kind_rejected(self):
        d = _random_design(8, 3, 0)
        with pytest.raises(ValueError):
            FitProcedure(kind="stepwise", lam=1.0, design=d)

    def test_negative_or_nonfinite_penalty_rejected(self):
        d = _random_design(8, 3, 0)
        with pytest.raises(ValueError):
            FitProcedure(kind="lasso", lam=-1.0, design=d)
        with pytest.raises(ValueError):
            FitProcedure(kind="lasso", lam=np.nan, design=d)

    def test_thresholds_need_orthogonal_design(self):
        d = _random_design(8, 3, 0)
        with pytest.raises(ValueError):
            FitProcedure(kind="hard-threshold", lam=1.0, design=d)
        ok = FitProcedure(
            kind="hard-threshold", lam=1.0, design=gen_orthogonal_design(8, 3)
        )
        assert ok.lam == 1.0

    def test_support_only_for_fixed_support_kind(self):
        d = _random_design(8, 3, 0)
        with pytest.raises(ValueError):
            FitProcedure(kind="lasso", lam=1.0, design=d, support=(0,))
        with pytest.raises(ValueError):
            FitProcedure(kind="least-squares-on-support", lam=0.0, design=d)
        proc = FitProcedure(
            kind="least-squares-on-support", lam=0.0, design=d, support=(2, 0)
        )
        assert proc.support == (0, 2)

    @pytest.mark.parametrize("bad", [1.5, "1"])
    def test_support_indices_must_be_integers(self, bad):
        d = _random_design(8, 3, 0)
        with pytest.raises(ValueError, match="integers"):
            FitProcedure(kind="least-squares-on-support", lam=0.0, design=d, support=(bad,))
        proc = FitProcedure(
            kind="least-squares-on-support", lam=0.0, design=d, support=(np.int64(2),)
        )
        assert proc.support == (2,)
        assert type(proc.support[0]) is int

    @pytest.mark.parametrize(
        "kind,lam",
        [
            ("lasso", 0.4),
            ("best-subset", 0.3),
            ("relaxed-lasso", 0.4),
            ("ridge", 1.5),
            ("hard-threshold", 0.8),
            ("soft-threshold", 0.8),
        ],
    )
    def test_batch_rows_match_single_fits(self, kind, lam):
        d = gen_orthogonal_design(9, 6)
        rng = np.random.default_rng(14)
        Y = rng.standard_normal((4, 9))
        proc = FitProcedure(kind=kind, lam=lam, design=d)
        batch = proc.fit_many(Y)
        for r in range(4):
            solo = proc.fit(Y[r])
            npt.assert_array_equal(batch.row(r).beta, solo.beta)
            npt.assert_array_equal(batch.row(r).fitted, solo.fitted)
            npt.assert_array_equal(batch.row(r).active_set, solo.active_set)

    @pytest.mark.parametrize("kind", ["hard-threshold", "soft-threshold"])
    def test_threshold_rows_match_single_fits_on_a_rotated_design(self, kind):
        # X'y and X beta are dense products here, not the coordinate picks
        # of the design above
        Q = np.linalg.qr(np.random.default_rng(15).standard_normal((300, 6)))[0]
        proc = FitProcedure(kind=kind, lam=0.8, design=DesignMatrix(Q, orthogonal=True))
        Y = np.random.default_rng(16).standard_normal((5, 300))
        batch = proc.fit_many(Y)
        assert 0 < batch.active.sum() < batch.active.size
        for r in range(5):
            solo = proc.fit(Y[r])
            npt.assert_array_equal(batch.row(r).beta, solo.beta)
            npt.assert_array_equal(batch.row(r).fitted, solo.fitted)

    def test_batch_rows_match_single_fits_general_design(self):
        d = gen_block_design(15, 6, [3, 3], 0.4, 0.8, RngSpec(seed=20, stream_id=0))
        rng = np.random.default_rng(21)
        Y = rng.standard_normal((3, 15))
        for kind, lam in (("lasso", 0.5), ("best-subset", 0.4), ("relaxed-lasso", 0.5)):
            proc = FitProcedure(kind=kind, lam=lam, design=d)
            batch = proc.fit_many(Y)
            for r in range(3):
                solo = proc.fit(Y[r])
                npt.assert_array_equal(batch.row(r).beta, solo.beta)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_path_rows_match_fit_many(self, kind):
        # every BatchFit field, the relaxed lasso's lasso signs included
        d = (gen_orthogonal_design(9, 6) if kind.endswith("threshold") else
             gen_block_design(9, 6, [3, 3], 0.4, 0.8, RngSpec(seed=22, stream_id=0)))
        support = (0, 4) if kind == "least-squares-on-support" else None
        lam = 0.0 if support else 0.5
        Y = np.random.default_rng(23).standard_normal((4, 9))
        path = fit_path(kind, d, Y, [lam], support=support)[0]
        batch = FitProcedure(kind, lam, d, support=support).fit_many(Y)
        for field in dataclasses.fields(batch):
            npt.assert_array_equal(getattr(path, field.name), getattr(batch, field.name),
                                   err_msg=field.name)

    def test_deterministic_given_inputs(self):
        d = _random_design(12, 5, 33)
        y = np.random.default_rng(34).standard_normal(12)
        proc = FitProcedure(kind="lasso", lam=0.8, design=d)
        npt.assert_array_equal(proc.fit(y).beta, proc.fit(y).beta)


def _line_jumps_or_error(proc, Y, lo, hi, lines=None):
    """_line_jumps' arrays, or the (replication, coordinate) a
    NumericalError names."""
    try:
        return fitters._line_jumps(proc, Y, lo, hi, lines=lines)
    except NumericalError as err:
        return err.diagnostic["replication"], err.diagnostic["coordinate"]


class TestBatchInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.sampled_from([(8, 6), (10, 4), (6, 8), (5, 9)]),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([0.1, 0.4, 1.0]),
    )
    def test_rows_do_not_depend_on_the_batch(self, shape, duplicate, seed, lam):
        # a row's fit, path and line jumps are the same bits whether it is
        # fitted alone or with other rows; thresholding runs on an
        # orthonormal design, every other kind on a block design, with
        # n < p and a duplicated column among the draws
        n, p = shape
        X = gen_block_design(n, p, [p // 2, p - p // 2], 0.4, 0.9, RngSpec(seed, 0)).values.copy()
        if duplicate:
            X[:, p - 1] = X[:, 0]
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n, min(n, p))))[0]
        general, orthogonal = DesignMatrix(X), DesignMatrix(Q, orthogonal=True)
        Y = 2.0 * rng.standard_normal((3, n))
        grid = [lam, 0.3 * lam]
        for kind in KINDS:
            design = orthogonal if kind.endswith("threshold") else general
            support = (0, p - 1) if kind == "least-squares-on-support" else None
            proc = FitProcedure(kind, lam, design, support=support)
            batch, path = proc.fit_many(Y), fit_path(kind, design, Y, grid, support=support)
            for r in range(len(Y)):
                solo = proc.fit(Y[r])
                npt.assert_array_equal(batch.beta[r], solo.beta)
                npt.assert_array_equal(batch.fitted[r], solo.fitted)
                npt.assert_array_equal(batch.row(r).active_set, solo.active_set)
                for whole, one in zip(path, fit_path(kind, design, Y[r:r + 1], grid,
                                                     support=support)):
                    npt.assert_array_equal(whole.beta[r], one.beta[0])
                    npt.assert_array_equal(whole.fitted[r], one.fitted[0])
        lo, hi = np.full(n, -4.0), np.full(n, 4.0)
        lines = rng.choice(Y.size, size=4, replace=False)
        for kind, design in (("relaxed-lasso", general), ("hard-threshold", orthogonal),
                             ("best-subset", general)):
            proc = FitProcedure(kind, lam, design)
            whole = _line_jumps_or_error(proc, Y, lo, hi)
            for line in lines:
                one = _line_jumps_or_error(proc, Y, lo, hi, lines=[line])
                if len(whole) == 2:  # a line failed: alone, it fails the same way
                    if whole == divmod(line, n):
                        assert one == whole
                    continue
                assert len(one) == 5
                sel = whole[0] * n + whole[1] == line
                for got, want in zip(one, whole):
                    npt.assert_array_equal(got, want[sel])


class TestNonFiniteResponses:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected_by_every_kind(self, kind, bad):
        d = gen_orthogonal_design(6, 4)
        support = (0, 2) if kind == "least-squares-on-support" else None
        Y = np.random.default_rng(5).standard_normal((3, 6))
        Y[1, 2] = bad
        proc = FitProcedure(kind=kind, lam=0.5, design=d, support=support)
        with pytest.raises(ValueError, match="finite"):
            proc.fit_many(Y)
        with pytest.raises(ValueError, match="finite"):
            fit_path(kind, d, Y, [0.5, 1.0], support=support)


# each single-response solver as solve(design, y, lam); the fixed-support
# least squares has no penalty and ignores lam
_PENALIZED_SOLVERS = {
    "lasso": lasso_solve,
    "best-subset": best_subset_solve,
    "relaxed-lasso": relaxed_lasso_fit,
    "ridge": ridge_fit,
}
_SOLVERS = {
    **_PENALIZED_SOLVERS,
    "least-squares-on-support": lambda d, y, lam: least_squares_on_support(d, y, (0, 2)),
}


class TestSingleResponseSolversValidate:
    # every single-response solver goes through FitProcedure, so it rejects
    # what FitProcedure rejects, before any work (a NaN response once cost
    # the lasso 100 000 coordinate descent sweeps before failing)
    @pytest.mark.parametrize("name", list(_SOLVERS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_response_rejected(self, name, bad):
        d = _random_design(8, 4, 60)
        y = np.random.default_rng(61).standard_normal(8)
        y[3] = bad
        with pytest.raises(ValueError, match="finite"):
            _SOLVERS[name](d, y, 0.5)

    @pytest.mark.parametrize("name", list(_PENALIZED_SOLVERS))
    def test_nan_penalty_rejected(self, name):
        d = _random_design(8, 4, 62)
        with pytest.raises(ValueError, match="finite"):
            _PENALIZED_SOLVERS[name](d, np.ones(8), np.nan)

    @pytest.mark.parametrize("name", list(_SOLVERS))
    @pytest.mark.parametrize("length", [7, 9])
    def test_wrong_length_response_rejected(self, name, length):
        d = _random_design(8, 4, 63)
        with pytest.raises(ValueError, match="shape"):
            _SOLVERS[name](d, np.ones(length), 0.5)

    def test_best_subset_path_checks_every_lambda(self):
        d = _random_design(8, 4, 64)
        Y = np.random.default_rng(65).standard_normal((2, 8))
        for grid in ([0.5, np.nan], [0.5, -1.0], [np.inf]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fit_path("best-subset", d, Y, grid)


class TestSubsetPlanMasks:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_rows_list_supports_by_cardinality_then_lexicographically(self, p):
        plan = fitters._build_subset_plan(_random_design(5, p, p).values)
        masks = plan.masks(np.arange(1 << p))
        want = [S for k in range(p + 1) for S in itertools.combinations(range(p), k)]
        assert [tuple(np.flatnonzero(m)) for m in masks] == want

    def test_any_order_of_rows(self):
        plan = fitters._build_subset_plan(_random_design(6, 4, 0).values)
        rows = np.array([15, 0, 3, 3, 7])
        npt.assert_array_equal(plan.masks(rows), plan.masks(np.arange(16))[rows])
        assert plan.masks(np.array([], dtype=np.intp)).shape == (0, 4)


def _plan_design(structure, n, p, seed):
    """An n x p design of the given structure (n < p for "wide")."""
    if structure in ("block", "collinear"):
        low, high = (0.4, 0.9) if structure == "block" else (0.999, 0.9999)
        return gen_block_design(n, p, [p // 2, p - p // 2], low, high, RngSpec(seed)).values
    X = np.random.default_rng(seed).standard_normal((n, p))
    if structure == "duplicate":
        X[:, p - 1] = X[:, 0]
    return X


def _ancestors(plan, i):
    """Plan rows of the proper nonempty prefixes of row i's support, by level."""
    chain = []
    while plan.parent[i]:
        i = plan.parent[i]
        chain.append(i)
    return chain[::-1]


def _two_pass_q(X, plan):
    """Reference unit vectors: each row's column orthogonalized against the
    q of every ancestor by two classical Gram-Schmidt passes, with the
    plan's dependence test and rank cap."""
    n, p = X.shape
    q, rank = np.zeros_like(plan.q), np.zeros(plan.q.shape[0], dtype=int)
    for i in range(1, q.shape[0]):
        x = X[:, plan.last[i]]
        A = q[_ancestors(plan, i)]
        w = x.copy()
        for _ in range(2):
            w -= A.T @ (A @ w)
        nrm = np.linalg.norm(w)
        base = rank[plan.parent[i]]
        if nrm > fitters._DEP_TOL * np.linalg.norm(x) and base < min(n, p):
            q[i] = w / nrm
        rank[i] = base + q[i].any()
    return q


class TestSubsetPlanBuild:
    @settings(max_examples=40, deadline=None)
    @given(
        structure=st.sampled_from(["random", "block", "collinear", "duplicate", "wide"]),
        p=st.integers(2, 8),
        extra=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unit_vectors_ranks_and_scores(self, structure, p, extra, seed):
        n = max(1, p - 1 - extra % (p - 1)) if structure == "wide" else p + extra
        X = _plan_design(structure, n, p, seed)
        plan = fitters._build_subset_plan(X)
        masks = plan.masks(np.arange(1 << p))
        for i in range(1, 1 << p):
            S, P = np.flatnonzero(masks[i]), np.flatnonzero(masks[plan.parent[i]])
            adds = np.linalg.matrix_rank(X[:, S]) > (np.linalg.matrix_rank(X[:, P]) if P.size else 0)
            assert plan.q[i].any() == adds, (i, S)
            if adds:
                assert abs(np.linalg.norm(plan.q[i]) - 1) <= 1e-12
                anc = plan.q[_ancestors(plan, i)]
                assert np.all(np.abs(anc @ plan.q[i]) <= 1e-12), (i, S)
        Y = np.random.default_rng(seed + 1).standard_normal((3, n))
        half = plan.half_rss(Y)
        for i in range(1 << p):
            S = np.flatnonzero(masks[i])
            fit = X[:, S] @ np.linalg.lstsq(X[:, S], Y.T, rcond=None)[0] if S.size else 0.0
            want = 0.5 * np.sum((Y.T - fit) ** 2, axis=0)
            npt.assert_allclose(half[i], want, rtol=0, atol=1e-10 * (1 + np.sum(Y * Y, axis=1)).max())
        if structure in ("random", "block"):
            npt.assert_allclose(plan.q, _two_pass_q(X, plan), rtol=0, atol=1e-12)

    def test_heavy_cancellation_is_reorthogonalized(self):
        X = _plan_design("collinear", 30, 12, 2)
        reorth, rows_seen = fitters._reorthogonalize, []

        def counted(X, q, parent, rows, j, k):
            rows_seen.append(rows.size)
            return reorth(X, q, parent, rows, j, k)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitters, "_reorthogonalize", counted)
            plan = fitters._build_subset_plan(X)
        assert sum(rows_seen) > (1 << 12) // 2
        npt.assert_allclose(plan.q, _two_pass_q(X, plan), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("structure", ["random", "block", "collinear"])
    def test_chunk_size_changes_no_bit_of_the_plan(self, structure):
        # default chunks hold whole levels here; 2^8 floats hold 8 rows of
        # a level, and at most 8 rows of its re-orthogonalization
        X = _plan_design(structure, 30, 12, 7)
        reorth, rows_seen = fitters._reorthogonalize, []

        def counted(X, q, parent, rows, j, k):
            rows_seen.append(rows.size)
            return reorth(X, q, parent, rows, j, k)

        plans = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitters, "_reorthogonalize", counted)
            for floats in (fitters._WALK_FLOATS, 1 << 8):
                mp.setattr(fitters, "_WALK_FLOATS", floats)
                plans.append(fitters._build_subset_plan(X))
        if structure == "collinear":
            assert sum(rows_seen) > 0
        a, b = plans
        npt.assert_array_equal(a.q.view(np.int64), b.q.view(np.int64))
        npt.assert_array_equal(a.parent, b.parent)
        npt.assert_array_equal(a.last, b.last)

    @pytest.mark.parametrize("structure", ["random", "collinear"])
    def test_build_memory_stays_within_a_few_chunks(self, structure):
        n, p, floats = 64, 12, 1 << 13
        X = _plan_design(structure, n, p, 5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitters, "_WALK_FLOATS", floats)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                plan = fitters._build_subset_plan(X)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        own = plan.q.nbytes + plan.parent.nbytes + plan.last.nbytes + plan.starts.nbytes
        # a chunk here is 64 KB, and one level's index arrays about 7 KB each
        assert 0 <= peak - own < 8 * 8 * floats

    def test_one_score_table_however_many_blocks(self):
        n = p = 14
        per_block = 8
        X = _plan_design("random", n, p, 6)
        table = 8 * per_block << p
        fitters._design_cache(X).plan()
        peaks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitters, "_BLOCK_FLOATS", per_block << p)
            for blocks in (3, 30):
                Y = np.random.default_rng(blocks).standard_normal((blocks * per_block, n))
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    # a penalty this large makes every winner the empty support
                    fitters._batch_best_subset_grid(X, Y, [1e6])
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                finally:
                    tracemalloc.stop()
        # beyond the table: one level's parent rows, C(14, 7) x 8 floats, and
        # the fits' own arrays
        assert all(table <= peak < 1.5 * table for peak in peaks), (peaks, table)

    @pytest.mark.parametrize("p,m", [(3, 5), (6, 1), (9, 4)])
    def test_scores_into_a_buffer_are_those_of_scaling_first(self, p, m):
        X = _plan_design("block", 2 * p, p, p)
        plan = fitters._build_subset_plan(X)
        Y = np.random.default_rng(m).standard_normal((m, 2 * p))
        ref = -0.5 * (plan.q @ Y.T) ** 2
        ref[0] = 0.5 * np.sum(Y * Y, axis=1)
        plan.accumulate(ref)
        # a partial last block: the front of a table sized for m + 3 responses
        buf = np.full((m + 3) << p, np.nan)
        half = plan.half_rss(Y, out=buf[:m << p].reshape(1 << p, m))
        assert np.shares_memory(half, buf)
        npt.assert_array_equal(half, ref)
        npt.assert_array_equal(plan.half_rss(Y), ref)


def _level_mins(plan, half):
    return np.stack([half[a:b].min(axis=0) for a, b in zip(plan.starts[:-1], plan.starts[1:])])


def _scores_with_infinities(rows, B, seed):
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((rows, B))
    half[rng.random(half.shape) < 0.05] = np.inf
    half[rng.random(half.shape) < 0.02] = -np.inf
    return half


class TestSubsetPlanBlockMin:
    @pytest.mark.parametrize("B", [1, 5, 16])
    @pytest.mark.parametrize("p", range(1, 13))
    def test_equals_each_levels_min_bit_for_bit(self, p, B):
        # levels of C(p, k) rows: shorter than 64 for every p <= 6, and
        # longer from p = 7 on (C(7, 3) = 35, C(12, 6) = 924)
        plan = fitters._build_subset_plan(_plan_design("random", p + 2, p, p))
        half = _scores_with_infinities(1 << p, B, 100 * p + B)
        got = plan.block_min(half)
        assert got.shape == (p + 1, B)
        npt.assert_array_equal(got.view(np.int64), _level_mins(plan, half).view(np.int64))

    @pytest.mark.parametrize("B", [1, 5, 16])
    def test_levels_around_the_wide_row_count(self, B):
        # no C(p, k) is 64 for p <= 12, so a plan's starts are laid out by
        # hand: levels of 1, 63, 64, 65, 128 and 129 rows
        starts = np.cumsum([0, 1, 63, 64, 65, 128, 129])
        plan = fitters._SubsetPlan(q=None, parent=None, last=None, starts=starts)
        half = _scores_with_infinities(starts[-1], B, B)
        npt.assert_array_equal(plan.block_min(half).view(np.int64),
                               _level_mins(plan, half).view(np.int64))

    @pytest.mark.parametrize("row", [0, 5, 100, 160, 200])
    def test_nan_in_a_level_raises(self, row):
        # p = 8: rows 0 and 5 lie in levels of 1 and 8 rows, 100 in the wide
        # part and 160 in the remainder of the 70 rows of level 4, 200 in a
        # level of 56
        p, B = 8, 5
        plan = fitters._build_subset_plan(_plan_design("random", 10, p, 3))
        half = np.abs(_scores_with_infinities(1 << p, B, row))
        plan.winners(half, plan.block_min(half), [0.5])
        half[row, 2] = np.nan
        with pytest.raises(NumericalError):
            plan.winners(half, plan.block_min(half), [0.5])


def _winners_per_lambda(plan, half, block_min, lam):
    """The winner search one lambda and one column at a time: the smallest
    cardinality whose best objective is within the tolerance of the
    minimum, then the first of its rows within it."""
    pen = lam * np.arange(block_min.shape[0])
    M = block_min + pen[:, None]
    vmin = M.min(axis=0)
    if not np.all(np.isfinite(vmin)):
        raise NumericalError("best subset objective is not finite")
    thr = vmin + fitters._TIE_TOL
    card = np.argmax(M <= thr, axis=0)
    win = np.empty(half.shape[1], dtype=np.intp)
    for c, k in enumerate(card):
        level = half[plan.starts[k]:plan.starts[k + 1], c]
        win[c] = plan.starts[k] + np.argmax(level + pen[k] <= thr[c])
    return win


# unsorted, with lambda = 0 and a repeated value
_WINNER_LAMS = [0.7, 0.0, 2.5, 0.7, 0.05, 0.0, 1e6]


class TestSubsetPlanWinners:
    @pytest.mark.parametrize("floats", [None, 1 << 10, 1])
    @pytest.mark.parametrize("structure", ["duplicate", "random"])
    def test_grid_matches_one_lambda_at_a_time(self, structure, floats):
        # a duplicated column ties supports exactly; with 1 float per
        # gather, a level takes R pairs at a time
        p, B = 8, 6
        X = _plan_design(structure, 12, p, 4)
        plan = fitters._build_subset_plan(X)
        half = plan.half_rss(np.random.default_rng(5).standard_normal((B, 12)))
        block_min = plan.block_min(half)
        want = np.stack([_winners_per_lambda(plan, half, block_min, lam) for lam in _WINNER_LAMS])
        with pytest.MonkeyPatch.context() as mp:
            if floats is not None:
                mp.setattr(fitters, "_WALK_FLOATS", floats)
            got = plan.winners(half, block_min, _WINNER_LAMS)
        npt.assert_array_equal(got, want)
        card = np.searchsorted(plan.starts, got, side="right") - 1
        assert np.bincount(card.ravel()).max() > B  # some level is split at 1 float
        if structure == "duplicate":
            # {0} and {p - 1} fit alike, so the last column is never chosen
            assert not plan.masks(got.ravel())[:, p - 1].any()

    @pytest.mark.parametrize("floats", [None, 1])
    def test_infinite_scores_match_one_lambda_at_a_time(self, floats):
        p, B = 8, 5
        plan = fitters._build_subset_plan(_plan_design("random", 10, p, 3))
        half = np.abs(_scores_with_infinities(1 << p, B, 11))
        half[plan.starts[3]:plan.starts[4]] = np.inf  # a whole level
        block_min = plan.block_min(half)
        want = np.stack([_winners_per_lambda(plan, half, block_min, lam) for lam in _WINNER_LAMS])
        with pytest.MonkeyPatch.context() as mp:
            if floats is not None:
                mp.setattr(fitters, "_WALK_FLOATS", floats)
            npt.assert_array_equal(plan.winners(half, block_min, _WINNER_LAMS), want)
        half[7, 1] = -np.inf
        block_min = plan.block_min(half)
        with pytest.raises(NumericalError):
            _winners_per_lambda(plan, half, block_min, 0.5)
        with pytest.raises(NumericalError):
            plan.winners(half, block_min, _WINNER_LAMS)

    def test_path_over_an_unsorted_grid_matches_one_lambda_at_a_time(self):
        n, p, reps = 12, 8, 10
        d = DesignMatrix(_plan_design("duplicate", n, p, 8), orthogonal=False)
        Y = np.random.default_rng(9).standard_normal((reps, n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitters, "_WALK_FLOATS", 1)  # a level takes reps pairs at a time
            path = fit_path("best-subset", d, Y, _WINNER_LAMS)
        cards = np.concatenate([fit.solved_on.sum(axis=1) for fit in path])
        assert np.bincount(cards).max() > reps
        plan = fitters._design_cache(d.values).plan()
        half = plan.half_rss(Y)  # one block, as in the path
        block_min = plan.block_min(half)
        for lam, fit in zip(_WINNER_LAMS, path):
            want = plan.masks(_winners_per_lambda(plan, half, block_min, lam))
            npt.assert_array_equal(fit.solved_on, want)
            solo = fit_path("best-subset", d, Y, [lam])[0]
            npt.assert_array_equal(fit.beta, solo.beta)
            npt.assert_array_equal(fit.fitted, solo.fitted)
        npt.assert_array_equal(path[0].beta, path[3].beta)
        npt.assert_array_equal(path[1].beta, path[5].beta)


class TestRefitOnActiveSets:
    def test_grouped_refits_match_direct(self):
        d = _random_design(10, 4, 44)
        rng = np.random.default_rng(45)
        Y = rng.standard_normal((5, 10))
        masks = np.zeros((5, 4), dtype=bool)
        masks[0, [0, 2]] = True
        masks[1, [0, 2]] = True
        masks[2, :] = True
        masks[4, [3]] = True
        beta, fitted = refit_on_active_sets(d.values, Y, masks)
        for r in range(5):
            S = tuple(np.flatnonzero(masks[r]))
            ref = least_squares_on_support(d, Y[r], S)
            npt.assert_allclose(beta[r], ref.beta, atol=1e-12)
            npt.assert_allclose(fitted[r], ref.fitted, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(8, 4), (10, 6), (6, 5), (3, 5), (2, 6), (4, 6)]),
        structure=st.sampled_from(["plain", "duplicate", "collinear"]),
        seed=st.integers(0, 2**32 - 1),
        split=st.integers(1, 29),
        table=st.sampled_from(["warm", "prefilled", "tiny"]),
    )
    def test_rows_do_not_depend_on_the_batch_or_the_table(self, shape, structure, seed, split,
                                                          table):
        # every row bit for bit the same: fit alone, in the whole batch or
        # in either part of a split, from a cold table, a warm one, one
        # filled first with other supports, or one that keeps starting over
        n, p = shape
        X = _structured_design(n, p, seed, structure)
        rng = np.random.default_rng(seed)
        Y, masks = rng.standard_normal((30, n)), rng.random((30, p)) < 0.5
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitters, "_PLAN_CACHE", None)
            want = refit_on_active_sets(X, Y, masks)
            if table != "warm":
                mp.setattr(fitters, "_PLAN_CACHE", None)
            if table == "prefilled":
                refit_on_active_sets(X, rng.standard_normal((20, n)), rng.random((20, p)) < 0.5)
            if table == "tiny":
                mp.setattr(fitters, "_SUPPORT_TABLE_BYTES", 8 * n)
            batch = refit_on_active_sets(X, Y, masks)
            alone = [refit_on_active_sets(X, Y[r:r + 1], masks[r:r + 1]) for r in range(30)]
            parts = [refit_on_active_sets(X, Y[rows], masks[rows])
                     for rows in (slice(None, split), slice(split, None))]
        for fits in ([batch], alone, parts):
            beta, fitted = (np.concatenate(col) for col in zip(*fits))
            npt.assert_array_equal(beta, want[0])
            npt.assert_array_equal(fitted, want[1])

    def test_no_rows(self):
        d = _random_design(10, 4, 44)
        beta, fitted = refit_on_active_sets(d.values, np.zeros((0, 10)), np.zeros((0, 4), bool))
        assert beta.shape == (0, 4) and fitted.shape == (0, 10)

    @pytest.mark.parametrize("rows,masks,match", [
        (5, np.ones((3, 4), bool), "masks"),  # fewer masks than responses
        (3, np.array([[1, 0, 2, 0]] * 3), "masks"),  # integers, not booleans
        (3, np.ones((3, 5), bool), "masks"),
        (3, np.ones((3, 4), bool), "finite"),
    ])
    def test_rejects_responses_and_masks_that_do_not_fit(self, rows, masks, match):
        X = _random_design(10, 4, 44).values
        Y = np.random.default_rng(46).standard_normal((rows, 10))
        if match == "finite":
            Y[1, 3] = np.nan
        with pytest.raises(ValueError, match=match):
            refit_on_active_sets(X, Y, masks)
        with pytest.raises(ValueError, match="shape"):
            refit_on_active_sets(X, Y[:, :9], masks)


class TestKktResidualNonFinite:
    @pytest.mark.parametrize("where", ["beta", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_infinite(self, where, bad):
        d = _random_design(10, 4, 8)
        y = np.random.default_rng(9).standard_normal(10)
        beta = lasso_solve(d, y, 0.7).beta.copy()
        assert lasso_kkt_residual(d, y, 0.7, beta) <= 1e-8
        if where == "beta":
            beta[1] = bad
        else:
            y = y.copy()
            y[3] = bad
        assert lasso_kkt_residual(d, y, 0.7, beta) == np.inf


class TestSupportTable:
    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from([(8, 4), (10, 6), (6, 5), (3, 5), (2, 6), (4, 6)]),
        structure=st.sampled_from(["plain", "duplicate", "collinear"]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e-6, 1e6]),
        near=st.sampled_from([0.0, 1e-14, 1e-12, 1e-9]),
    )
    def test_factors_equal_numpy_pinv_and_rank(self, shape, structure, seed, scale, near):
        # every support of the design: duplicated and collinear columns,
        # and n < p, put rank deficiency in many of them; a last column
        # within `near` of the first puts a singular value between the
        # pinv cutoff and the rank tolerance.  The SVD fill is numpy's,
        # bit for bit, and the table's rank is matrix_rank's
        n, p = shape
        X = _structured_design(n, p, seed, structure)
        if near:
            X[:, p - 1] = X[:, 0] + near * np.random.default_rng(seed).standard_normal(n)
        X = scale * X
        cache = fitters._design_cache(X)
        for k in range(1, p + 1):
            for S in itertools.combinations(range(p), k):
                S = np.array(S, dtype=np.intp)
                P, rank = fitters._svd_factors(X, S[None])
                npt.assert_array_equal(P[0], np.linalg.pinv(X[:, S]))
                assert rank[0] == np.linalg.matrix_rank(X[:, S])
                assert _factors(cache, [S])[0][1] == rank[0]

    def test_empty_support(self):
        (P, rank), = _factors(fitters._design_cache(_random_design(5, 3, 0).values),
                              [np.array([], dtype=np.intp)])
        assert P.shape == (0, 5) and rank == 0

    def test_clears_over_budget_without_changing_fits(self, monkeypatch):
        d = gen_block_design(20, 10, [5, 5], 0.3, 0.8, RngSpec(seed=30, stream_id=0))
        Y = np.random.default_rng(31).standard_normal((300, 20))
        masks = np.random.default_rng(32).random((300, 10)) < 0.4
        proc = FitProcedure(kind="relaxed-lasso", lam=0.8, design=d)
        want = proc.fit_many(Y), refit_on_active_sets(d.values, Y, masks)
        monkeypatch.setattr(fitters, "_PLAN_CACHE", None)
        # one pinv of a two-column support is 320 bytes
        monkeypatch.setattr(fitters, "_SUPPORT_TABLE_BYTES", 1000)
        got = proc.fit_many(Y), refit_on_active_sets(d.values, Y, masks)
        cache = fitters._PLAN_CACHE[1]
        count, nbytes = _table_entries(cache)
        assert count <= 8
        assert cache._nbytes == nbytes <= 1000
        npt.assert_array_equal(got[0].beta, want[0].beta)
        npt.assert_array_equal(got[0].fitted, want[0].fitted)
        npt.assert_array_equal(got[1][0], want[1][0])
        npt.assert_array_equal(got[1][1], want[1][1])

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(8, 4), (10, 6), (6, 5), (3, 5), (2, 6), (4, 6)]),
        structure=st.sampled_from(["plain", "duplicate", "collinear"]),
        seed=st.integers(0, 2**32 - 1),
        picks=st.lists(st.integers(0, 63), min_size=1, max_size=40),
    )
    def test_stacked_fill_equals_one_svd_per_support(self, shape, structure, seed, picks):
        # many supports per cardinality in one lookup, repeats and the
        # empty support included; duplicated and collinear columns and
        # n < p make many of them rank deficient.  The table's stacked fill
        # is each support's own fill, and the stacked SVD numpy's, bit for
        # bit
        n, p = shape
        X = _structured_design(n, p, seed, structure)
        supports = [np.flatnonzero([(b >> j) & 1 for j in range(p)]) for b in picks]
        for S, (P, rank) in zip(supports, _factors(fitters._DesignCache(X), supports)):
            want, want_rank = fitters._support_factors(X, S[None])
            npt.assert_array_equal(P, want[0])
            assert rank == want_rank[0] == np.linalg.matrix_rank(X[:, S])
        for k in {S.size for S in supports}:
            same = [S for S in supports if S.size == k]
            cols = np.array(same, dtype=np.intp).reshape(len(same), k)
            for S, P, rank in zip(cols, *fitters._svd_factors(X, cols)):
                npt.assert_array_equal(P, np.linalg.pinv(X[:, S]))
                assert rank == np.linalg.matrix_rank(X[:, S])

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from([(8, 4), (10, 6), (6, 5), (3, 5), (2, 6), (9, 8)]),
        structure=st.sampled_from(["plain", "block", "duplicate", "collinear", "zero"]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e-6, 1e6]),
        near=st.sampled_from([0.0, 1e-14, 1e-12, 1e-9]),
    )
    def test_qr_fill_matches_the_svd_reference(self, shape, structure, seed, scale, near):
        # every support of the design, from one lookup.  A support the SVD
        # fills keeps numpy's bits.  One the QR fills passes the
        # certificate, has rank k, and is within 100 eps cond of numpy's
        # pinv (relative), cond = |X_S|_F |pinv(X_S)|_F <= _QR_COND.  A
        # support whose cond is past _QR_COND goes to the SVD
        n, p = shape
        if structure == "block":
            X = gen_block_design(n, p, [p // 2, p - p // 2], 0.9, 0.999,
                                 RngSpec(seed, 0)).values.copy()
        else:
            X = _structured_design(n, p, seed, structure)
        if near:
            X[:, p - 1] = X[:, 0] + near * np.random.default_rng(seed).standard_normal(n)
        X = scale * X
        supports = [np.array(S, dtype=np.intp) for k in range(1, p + 1)
                    for S in itertools.combinations(range(p), k)]
        sent, svd = set(), fitters._svd_factors

        def recording(X, cols):
            sent.update(map(tuple, cols.tolist()))
            return svd(X, cols)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitters, "_svd_factors", recording)
            found = _factors(fitters._DesignCache(X), supports)
        eps = np.finfo(float).eps
        for S, (P, rank) in zip(supports, found):
            want = np.linalg.pinv(X[:, S])
            assert rank == np.linalg.matrix_rank(X[:, S])
            cond = np.linalg.norm(X[:, S]) * np.linalg.norm(want)
            if tuple(S) in sent:
                npt.assert_array_equal(P, want)
            else:
                assert S.size <= n and rank == S.size
                assert np.linalg.norm(X[:, S]) * np.linalg.norm(P) <= fitters._QR_COND
                assert np.linalg.norm(P - want) <= 100 * eps * cond * np.linalg.norm(want)
            if cond > 1.01 * fitters._QR_COND:
                assert tuple(S) in sent

    def test_one_singular_r_in_a_stack_goes_to_the_svd(self, monkeypatch):
        # column 2 is zero, so the R of support {0, 2} has an exact zero on
        # its diagonal, and inverting the whole stack would raise
        X = _structured_design(8, 5, 12, "plain")
        X[:, 2] = 0.0
        cols = np.array([[0, 1], [0, 2], [1, 3], [3, 4]])
        _, r = np.linalg.qr(np.moveaxis(X[:, cols], 0, 1))
        assert r[1, 1, 1] == 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(r)
        sent, svd = [], fitters._svd_factors

        def recording(X, cols):
            sent.append(cols.tolist())
            return svd(X, cols)

        monkeypatch.setattr(fitters, "_svd_factors", recording)
        P, rank = fitters._support_factors(X, cols)
        assert sent == [[[0, 2]]]
        npt.assert_array_equal(P[1], np.linalg.pinv(X[:, [0, 2]]))
        npt.assert_array_equal(rank, [2, 1, 2, 2])
        for i in (0, 2, 3):
            npt.assert_allclose(P[i], np.linalg.pinv(X[:, cols[i]]), rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), budget=st.integers(0, 2000),
           calls=st.integers(1, 4))
    def test_table_holds_at_most_the_budget_after_every_lookup(self, seed, budget, calls):
        # after every lookup the table's pinvs take at most the budget, each
        # row is served its support's lone fill, bit for bit, also where the
        # table started over within the lookup, and a lookup of supports the
        # table holds leaves it as it was.  Some lookups repeat the last one
        n, p = 6, 5
        X = _structured_design(n, p, seed, "plain")
        rng = np.random.default_rng(seed)

        def state(cache):
            return {k: (t.tobytes(), s.tobytes(), e.size)
                    for k, (t, s, e) in cache._table.items()}, cache._nbytes

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitters, "_SUPPORT_TABLE_BYTES", budget)
            cache = fitters._DesignCache(X)
            masks = rng.random((12, p)) < rng.random()
            for _ in range(calls):
                if rng.random() < 0.7:
                    masks = rng.random((12, p)) < rng.random()
                held = {key.tobytes() for t, *_ in cache._table.values() for key in t}
                before = state(cache)
                groups = cache.lookup(masks)
                assert cache._nbytes == _table_entries(cache)[1] <= budget
                if {np.packbits(m).tobytes() for m in masks} <= held:
                    assert state(cache) == before
                for g in groups:
                    for r, s, rank in zip(g.rows, g.slot, g.rank):
                        want, want_rank = fitters._support_factors(
                            X, np.flatnonzero(masks[r])[None])
                        npt.assert_array_equal(g.pinv[s], want[0])
                        assert rank == want_rank[0]

    def test_fill_larger_than_the_budget(self, monkeypatch):
        X = _structured_design(10, 6, 5, "duplicate")
        supports = [np.array(S) for k in range(1, 7) for S in itertools.combinations(range(6), k)]
        # 63 pinvs of 80 bytes per column, far past 1000 bytes
        monkeypatch.setattr(fitters, "_SUPPORT_TABLE_BYTES", 1000)
        cache = fitters._DesignCache(X)
        alone = [fitters._support_factors(X, S[None]) for S in supports]
        for _ in range(2):  # misses, then a table that started over
            for S, (P, rank), (want, want_rank) in zip(supports, _factors(cache, supports), alone):
                npt.assert_array_equal(P, want[0])
                assert rank == want_rank[0] == np.linalg.matrix_rank(X[:, S])
                npt.assert_array_equal(fitters._svd_factors(X, S[None])[0][0],
                                       np.linalg.pinv(X[:, S]))
            count, nbytes = _table_entries(cache)
            assert 0 < count < len(supports)
            assert cache._nbytes == nbytes <= 1000

    def test_threads_sharing_a_table_that_keeps_starting_over(self, monkeypatch):
        # more threads than cores, switching often, on one design's table:
        # a lookup that paired a support with another support's slot would
        # refit that row on the wrong columns
        X = _structured_design(12, 8, 7, "plain")
        rng = np.random.default_rng(8)
        Y, masks = rng.standard_normal((16, 40, 12)), rng.random((16, 40, 8)) < 0.5
        expected = [refit_on_active_sets(X, y, m) for y, m in zip(Y, masks)]
        monkeypatch.setattr(fitters, "_PLAN_CACHE", None)
        monkeypatch.setattr(fitters, "_SUPPORT_TABLE_BYTES", 4000)
        results = [None] * 64

        def work(first):
            for i in range(first, first + 8):
                results[i] = refit_on_active_sets(X, Y[i % 16], masks[i % 16])

        threads = [threading.Thread(target=work, args=(8 * k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, (beta, fitted) in enumerate(results):
            npt.assert_array_equal(beta, expected[i % 16][0])
            npt.assert_array_equal(fitted, expected[i % 16][1])

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(8, 4), (10, 6), (6, 5), (3, 5), (2, 6), (4, 8), (9, 8)]),
        structure=st.sampled_from(["duplicate", "collinear", "zero", "plain"]),
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([0.05, 0.3, 1.0]),
    )
    def test_walks_enter_only_columns_that_raise_the_rank(self, shape, structure, seed, lam):
        # duplicated, collinear and zero columns, and n < p (every column
        # keeps the rank once n are active): every support a lambda or line
        # walk solves on has full column rank, and no step's pick brings in
        # a column that leaves the rank of the active set as it is
        n, p = shape
        X = _structured_design(n, p, seed, structure)
        d = DesignMatrix(X)
        Y = 2.0 * np.random.default_rng(seed).standard_normal((4, n))
        homotopy, on_supports = fitters._homotopy, fitters._on_supports
        solved, picks = set(), []

        def rank(S):
            return np.linalg.matrix_rank(X[:, list(S)]) if len(S) else 0

        def watching(cache, y, lam, z, dy, dlam, live, visit):
            def step(rows, u, kind, j, zl):
                enter = kind > 0
                picks.extend((tuple(np.flatnonzero(a)), jj) for a, jj in zip(zl[enter], j[enter]))
                return visit(rows, u, kind, j, zl)

            return homotopy(cache, y, lam, z, dy, dlam, live, step)

        def recording(cache, Y, masks, *args):
            solved.update(tuple(np.flatnonzero(m)) for m in masks)
            return on_supports(cache, Y, masks, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitters, "_homotopy", watching)
            mp.setattr(fitters, "_on_supports", recording)
            fit_path("lasso", d, Y, [lam, 0.3 * lam])
            fitters._line_jumps(FitProcedure("relaxed-lasso", lam, d), Y, -4.0, 4.0)
        assert picks and solved
        assert all(rank(S) == len(S) for S in solved)
        for S, j in picks:
            assert j not in S and rank(S + (j,)) == len(S) + 1

    @pytest.mark.parametrize("walk", ["lambda", "line", "lambda-duplicate", "line-duplicate"])
    def test_one_support_lookup_per_homotopy_step(self, monkeypatch, walk):
        # the step's fit, its rate and the rank of its active set come from
        # one support-table lookup; which columns may enter costs one lookup
        # of the candidate supports per bar round, and with a duplicated
        # column some picks are barred
        d = gen_block_design(8, 12, [6, 6], 0.6, 0.9, RngSpec(seed=7, stream_id=0))
        duplicate = walk.endswith("-duplicate")
        if duplicate:
            X = d.values.copy()
            X[:, 11] = X[:, 0]
            d = DesignMatrix(X)
        Y = np.random.default_rng(3).standard_normal((20, 8))
        count = {"steps": 0, "rounds": 0, "barred": 0, "kernel": 0, "candidate": 0,
                 "walking": False, "bar": False}
        homotopy = fitters._homotopy
        lookup, ranks = fitters._DesignCache.lookup, fitters._DesignCache.ranks

        def counting_walk(cache, y, lam, z, dy, dlam, live, visit):
            def step(*args):
                count["steps"] += 1
                return visit(*args)

            count["walking"] = True
            try:
                return homotopy(cache, y, lam, z, dy, dlam, live, step)
            finally:
                count["walking"] = False

        def counting_ranks(self, masks):
            count["rounds"] += count["walking"]
            count["bar"] = True
            try:
                got = ranks(self, masks)
            finally:
                count["bar"] = False
            count["barred"] += int(np.sum(got < masks.sum(axis=1))) * count["walking"]
            return got

        def counting_lookup(self, masks):
            if count["walking"]:
                count["candidate" if count["bar"] else "kernel"] += 1
            return lookup(self, masks)

        monkeypatch.setattr(fitters, "_PLAN_CACHE", None)
        monkeypatch.setattr(fitters, "_homotopy", counting_walk)
        monkeypatch.setattr(fitters._DesignCache, "ranks", counting_ranks)
        monkeypatch.setattr(fitters._DesignCache, "lookup", counting_lookup)
        if walk.startswith("lambda"):
            fit_path("lasso", d, Y, [0.05, 0.5, 2.0])
        else:
            fitters._line_jumps(FitProcedure("relaxed-lasso", 0.5, d), Y[:3], -8.0, 8.0)
        assert count["steps"] > 20
        assert count["kernel"] == count["steps"]
        assert count["candidate"] == count["rounds"] > 0
        # a round after a step's first follows a barred pick
        assert count["rounds"] <= count["steps"] + count["barred"]
        assert (count["barred"] > 0) == duplicate

    @pytest.mark.parametrize("n,p", [(8, 12), (8, 8)])
    def test_walks_through_a_table_that_keeps_starting_over(self, n, p):
        # a budget of one one-column pinv starts the table over after almost
        # every lookup that fills, within the lambda and line walks too; the
        # walks refill what they need, and every bit stays the same
        d = gen_block_design(n, p, [p // 2, p - p // 2], 0.6, 0.9, RngSpec(seed=5, stream_id=0))
        Y = 2.0 * np.random.default_rng(6).standard_normal((4, n))
        support_factors = fitters._support_factors
        runs = []
        for budget in (fitters._SUPPORT_TABLE_BYTES, 8 * n):
            fills = []

            def counting(X, cols):
                fills.append(len(cols))
                return support_factors(X, cols)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fitters, "_PLAN_CACHE", None)
                mp.setattr(fitters, "_SUPPORT_TABLE_BYTES", budget)
                mp.setattr(fitters, "_support_factors", counting)
                jumps = fitters._line_jumps(FitProcedure("relaxed-lasso", 0.5, d), Y, -8.0, 8.0)
                path = fit_path("lasso", d, Y, [0.05, 0.5, 2.0])
            runs.append((jumps, path, sum(fills)))
        (jumps, path, fills), (tiny_jumps, tiny_path, tiny_fills) = runs
        assert tiny_fills > fills
        for got, want in zip(tiny_jumps, jumps):
            npt.assert_array_equal(got, want)
        for got, want in zip(tiny_path, path):
            for field in dataclasses.fields(want):
                npt.assert_array_equal(getattr(got, field.name), getattr(want, field.name),
                                       err_msg=field.name)

    def test_ranks_follow_the_active_sets(self):
        X = _structured_design(8, 5, 3, "duplicate")  # column 4 copies column 0
        masks = np.array([[1, 0, 0, 0, 1], [1, 1, 0, 0, 0], [0] * 5, [1, 0, 0, 0, 1]], dtype=bool)
        npt.assert_array_equal(fitters._design_cache(X).ranks(masks), [1.0, 2.0, 0.0, 1.0])


class TestGridIndexErrors:
    def test_kkt_gate_is_each_rows_own(self, monkeypatch):
        # rows 0 and 2 keep zero signs, so their zero fits fail their own
        # gates (residuals 0.9 and 2.9 times |X'y|_inf); row 1's |X'y| is
        # 1e9 times theirs, and a gate shared by the batch would pass them
        d = _random_design(12, 6, 40)
        y = np.random.default_rng(41).standard_normal(12)
        Y = np.stack((y, 1e9 * y, 3.0 * y))
        walk = fitters._lasso_walk

        def unwalked(cache, Y, XtY, grid, signs):
            walk(cache, Y, XtY, grid, signs)
            signs[:, np.abs(XtY).max(axis=1) < 1e6] = 0

        monkeypatch.setattr(fitters, "_lasso_walk", unwalked)
        proc = FitProcedure("lasso", 0.1 * float(np.abs(y @ d.values).max()), d)
        with pytest.raises(NumericalError, match="replication 0") as alone:
            proc.fit_many(Y[:1])
        with pytest.raises(NumericalError, match="replication 0") as batch:
            proc.fit_many(Y)
        assert batch.value.diagnostic["replication"] == 0
        assert batch.value.diagnostic["kkt_residual"] == alone.value.diagnostic["kkt_residual"]
        assert f"{alone.value.diagnostic['kkt_residual']:.3e} >" in str(batch.value)

    def test_fit_path_names_the_failing_value_and_keeps_the_diagnostic(self, monkeypatch):
        # a walk that stops short of lambda = 0.3 leaves all-zero signs
        # there, which the KKT gate rejects
        d = _random_design(12, 6, 40)
        Y = np.random.default_rng(41).standard_normal((3, 12))
        walk = fitters._lasso_walk

        def short_at_0_3(cache, Y, XtY, grid, signs):
            walk(cache, Y, XtY, grid, signs)
            signs[grid == 0.3] = 0

        monkeypatch.setattr(fitters, "_lasso_walk", short_at_0_3)
        with pytest.raises(NumericalError, match=r"grid index 1 \(lambda=0\.3\)") as info:
            fit_path("lasso", d, Y, [0.05, 0.3, 1.0])
        diag = info.value.diagnostic
        assert diag["grid_index"] == 1 and diag["lam"] == 0.3
        assert {"replication", "kkt_residual"} <= set(diag)
