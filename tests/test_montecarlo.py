"""Monte Carlo df/sdf estimators: unbiasedness, determinism, variance."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsearch import montecarlo
from dfsearch.fitters import BatchFit, FitProcedure, refit_on_active_sets
from dfsearch.model import (
    DesignMatrix,
    RngSpec,
    SignalSpec,
    gen_block_design,
    gen_orthogonal_design,
)
from dfsearch.montecarlo import (
    CurveTable,
    _cov_df_terms,
    _delete_one_means,
    _jackknife_se,
    ExperimentGrid,
    draw_responses,
    estimate_df,
    estimate_excess_df,
    estimate_optimism,
    estimate_sdf,
    run_grid,
)


def _ridge_setup(lam=2.0, seed=5):
    design = gen_block_design(12, 5, [5], 0.3, 0.7, RngSpec(seed=seed, stream_id=0))
    beta = np.array([1.0, -1.0, 0.0, 0.5, 0.0])
    signal = SignalSpec.from_coefficients(design, beta, 1.0)
    proc = FitProcedure(kind="ridge", lam=lam, design=design)
    X = design.values
    smoother_trace = float(np.trace(X @ np.linalg.solve(X.T @ X + lam * np.eye(5), X.T)))
    return proc, signal, smoother_trace


class TestDrawResponses:
    def test_rows_are_per_stream_draws(self):
        signal = SignalSpec(np.arange(4.0), 1.5)
        Y = draw_responses(signal, reps=6, seed=3)
        again = draw_responses(signal, reps=6, seed=3)
        npt.assert_array_equal(Y, again)
        assert Y.shape == (6, 4)

    @pytest.mark.parametrize("seed, offset", [(3, 0), (2**64 - 1, 17), (0, 2**64 - 5)])
    def test_each_row_is_its_own_streams_draw(self, seed, offset):
        signal = SignalSpec(np.linspace(-1.0, 2.0, 7), 1.5)
        Y = draw_responses(signal, reps=5, seed=seed, stream_offset=offset)
        for r in range(5):
            g = RngSpec(seed=seed, stream_id=offset + r).generator()
            npt.assert_array_equal(Y[r], signal.mu + signal.sigma * g.standard_normal(7))

    def test_stream_ids_past_64_bits_are_rejected(self):
        signal = SignalSpec(np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="stream_id"):
            draw_responses(signal, reps=6, seed=0, stream_offset=2**64 - 5)
        with pytest.raises(ValueError, match="stream_id"):
            draw_responses(signal, reps=1, seed=0, stream_offset=-1)
        with pytest.raises(ValueError, match="seed"):
            draw_responses(signal, reps=1, seed=2**64)

    def test_stream_offset_gives_fresh_noise(self):
        signal = SignalSpec(np.zeros(8), 1.0)
        Y0 = draw_responses(signal, reps=4, seed=3)
        Y1 = draw_responses(signal, reps=4, seed=3, stream_offset=4)
        assert np.abs(Y0 - Y1).max() > 1e-6


class TestEstimateDf:
    def test_linear_smoother_matches_trace(self):
        proc, signal, trace = _ridge_setup()
        est = estimate_df(proc, signal, reps=4000, seed=0)
        assert est.reps == 4000
        assert abs(est.value - trace) <= 3 * est.std_error
        assert est.std_error < 0.5

    def test_known_mean_centering_also_unbiased(self):
        proc, signal, trace = _ridge_setup()
        est = estimate_df(proc, signal, reps=4000, seed=1, center="signal")
        assert abs(est.value - trace) <= 3 * est.std_error

    def test_mean_active_and_rank_reported(self):
        proc, signal, _ = _ridge_setup()
        est = estimate_df(proc, signal, reps=50, seed=2)
        assert est.mean_active == pytest.approx(5.0)
        assert est.mean_rank == pytest.approx(5.0)

    def test_two_reps_is_valid_with_zero_se(self):
        proc, signal, _ = _ridge_setup()
        est = estimate_df(proc, signal, reps=2, seed=3)
        assert np.isfinite(est.value)
        assert est.std_error == 0.0

    def test_single_rep_rejected(self):
        proc, signal, _ = _ridge_setup()
        with pytest.raises(ValueError):
            estimate_df(proc, signal, reps=1, seed=0)

    def test_hard_threshold_matches_closed_form(self):
        from dfsearch.closedform import df_hard_threshold

        design = gen_orthogonal_design(20, 20)
        signal = SignalSpec(np.zeros(20), 1.0)
        proc = FitProcedure(kind="hard-threshold", lam=1.0, design=design)
        est = estimate_df(proc, signal, reps=6000, seed=4)
        exact = df_hard_threshold(np.zeros(20), 1.0, 1.0)
        assert abs(est.value - exact) <= 3 * est.std_error


class TestEstimateSdf:
    def test_subset_sdf_equals_df_minus_active(self):
        design = gen_orthogonal_design(12, 12)
        signal = SignalSpec(np.zeros(12), 1.0)
        proc = FitProcedure(kind="best-subset", lam=0.5, design=design)
        sdf = estimate_sdf(proc, signal, reps=800, seed=6)
        excess = estimate_excess_df(proc, signal, reps=800, seed=6)
        assert sdf.value == pytest.approx(excess.value, abs=1e-9)
        assert sdf.std_error == pytest.approx(excess.std_error, abs=1e-9)

    def test_ridge_search_cost_is_null(self):
        proc, signal, _ = _ridge_setup()
        sdf = estimate_sdf(proc, signal, reps=3000, seed=7)
        assert abs(sdf.value) <= 3 * max(sdf.std_error, 1e-12)

    def test_relaxed_lasso_sdf_positive_under_search(self):
        design = gen_orthogonal_design(15, 15)
        signal = SignalSpec(np.zeros(15), 1.0)
        proc = FitProcedure(kind="relaxed-lasso", lam=1.0, design=design)
        sdf = estimate_sdf(proc, signal, reps=4000, seed=8)
        assert sdf.value > 3 * sdf.std_error


class TestEstimateOptimism:
    def test_pair_unpacks_and_labels(self):
        proc, signal, trace = _ridge_setup()
        est = estimate_optimism(proc, signal, reps=3000, seed=9)
        assert "optimism" in repr(est)

    def test_linear_smoother_gap_consistent(self):
        proc, signal, trace = _ridge_setup()
        est = estimate_optimism(proc, signal, reps=3000, seed=10)
        assert abs(est.optimism - est.expected) <= 3 * est.gap_se
        assert abs(est.expected - 2 * trace) <= 4 * 2 * est.optimism_se


class TestExperimentGrid:
    def _grid(self, **kw):
        design = gen_orthogonal_design(8, 8)
        signal = SignalSpec(np.zeros(8), 1.0)
        base = dict(
            kind="lasso",
            lambda_grid=(0.2, 0.6, 1.2),
            design=design,
            signal=signal,
            reps=40,
            seed=3,
        )
        base.update(kw)
        return ExperimentGrid(**base)

    def test_valid_grid_roundtrips(self):
        g = self._grid()
        assert g.lambda_grid == (0.2, 0.6, 1.2)

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            self._grid(lambda_grid=())
        with pytest.raises(ValueError):
            self._grid(lambda_grid=(0.5, 0.5))
        with pytest.raises(ValueError):
            self._grid(lambda_grid=(1.0, 0.5))
        with pytest.raises(ValueError):
            self._grid(lambda_grid=(-0.1, 0.5))

    def test_kind_and_reps_validated(self):
        with pytest.raises(ValueError):
            self._grid(kind="least-squares-on-support")
        with pytest.raises(ValueError):
            self._grid(reps=1)

    def test_signal_design_shapes_must_agree(self):
        with pytest.raises(ValueError):
            self._grid(signal=SignalSpec(np.zeros(9), 1.0))


class TestRunGrid:
    def test_output_is_deterministic(self):
        g = TestExperimentGrid()._grid(reps=60)
        t1 = run_grid(g)
        t2 = run_grid(g)
        assert isinstance(t1, CurveTable)
        for a, b in zip(t1.rows, t2.rows):
            assert a == b

    def test_lasso_df_tracks_mean_active_orthogonal(self):
        design = gen_orthogonal_design(10, 10)
        signal = SignalSpec(np.zeros(10), 1.0)
        g = ExperimentGrid(
            kind="lasso",
            lambda_grid=(0.3, 0.8, 1.5),
            design=design,
            signal=signal,
            reps=3000,
            seed=11,
        )
        table = run_grid(g)
        for row in table.rows:
            assert abs(row.df - row.mean_active) <= 3 * row.excess_se

    def test_common_random_numbers_across_kinds(self):
        # same seed and grid: relaxed-lasso refits the lasso's active sets,
        # so mean_active agrees exactly
        design = gen_orthogonal_design(9, 9)
        signal = SignalSpec(np.zeros(9), 1.0)
        kw = dict(
            lambda_grid=(0.4, 1.0),
            design=design,
            signal=signal,
            reps=80,
            seed=12,
        )
        lasso = run_grid(ExperimentGrid(kind="lasso", **kw))
        relaxed = run_grid(ExperimentGrid(kind="relaxed-lasso", **kw))
        npt.assert_array_equal(lasso.column("mean_active"), relaxed.column("mean_active"))
        npt.assert_allclose(lasso.column("sdf"), relaxed.column("sdf"), atol=1e-9)

    def test_sdf_skipped_when_disabled(self):
        g = TestExperimentGrid()._grid(include_sdf=False)
        table = run_grid(g)
        assert np.isnan(table.column("sdf")).all()
        assert np.isfinite(table.column("df")).all()

    def test_subset_rows_match_separate_estimates(self):
        design = gen_orthogonal_design(8, 8)
        signal = SignalSpec(np.zeros(8), 1.0)
        g = ExperimentGrid(
            kind="best-subset",
            lambda_grid=(0.3, 0.9),
            design=design,
            signal=signal,
            reps=50,
            seed=13,
        )
        table = run_grid(g)
        for row, lam in zip(table.rows, g.lambda_grid):
            proc = FitProcedure(kind="best-subset", lam=lam, design=design)
            est = estimate_df(proc, signal, reps=50, seed=13)
            assert row.df == pytest.approx(est.value, abs=1e-12)
            assert row.df_se == pytest.approx(est.std_error, abs=1e-12)


class TestJackknife:
    @settings(max_examples=60, deadline=None)
    @given(
        reps=st.integers(3, 12),
        n=st.integers(1, 5),
        center=st.sampled_from(["sample", "signal"]),
        sigma=st.floats(0.3, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_delete_one_values_equal_explicit_recomputation(self, reps, n, center, sigma, seed):
        rng = np.random.default_rng(seed)
        mu = rng.standard_normal(n) if center == "signal" else None
        Y = rng.standard_normal((reps, n))
        F = np.tanh(Y) + rng.standard_normal((reps, n))
        _, loo = _cov_df_terms(Y, F, sigma, mu)
        for r in range(reps):
            again, _ = _cov_df_terms(np.delete(Y, r, 0), np.delete(F, r, 0), sigma, mu)
            assert loo[r] == pytest.approx(again, rel=1e-9, abs=1e-9)

    def test_two_reps_leave_zero_sample_covariances(self):
        rng = np.random.default_rng(3)
        Y, F = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        _, loo = _cov_df_terms(Y, F, 1.0, None)
        npt.assert_array_equal(loo, [0.0, 0.0])


class TestOnePath:
    @pytest.mark.parametrize("kind,lam", [("lasso", 0.6), ("best-subset", 0.5)])
    @pytest.mark.parametrize("center", ["sample", "signal"])
    def test_estimators_equal_one_value_grid(self, kind, lam, center):
        design = gen_block_design(14, 6, [3, 3], 0.4, 0.8, RngSpec(seed=21, stream_id=0))
        signal = SignalSpec.from_coefficients(design, np.array([1.0, 0, 0, 1.0, 0, 0]), 1.0)
        grid = ExperimentGrid(kind=kind, lambda_grid=(lam,), design=design, signal=signal,
                              reps=120, seed=22, center=center)
        row = run_grid(grid).rows[0]
        proc = FitProcedure(kind=kind, lam=lam, design=design)
        df = estimate_df(proc, signal, reps=120, seed=22, center=center)
        sdf = estimate_sdf(proc, signal, reps=120, seed=22, center=center)
        excess = estimate_excess_df(proc, signal, reps=120, seed=22, center=center)
        assert (df.value, df.std_error) == (row.df, row.df_se)
        assert (sdf.value, sdf.std_error) == (row.sdf, row.sdf_se)
        assert (excess.value, excess.std_error) == (row.df - row.mean_active, row.excess_se)
        for est in (df, sdf, excess):
            assert (est.mean_active, est.mean_rank) == (row.mean_active, row.mean_rank)


def _table_bits(table: CurveTable) -> bytes:
    """Every field of every row, as raw float bytes (NaN compares equal)."""
    return np.array([dataclasses.astuple(r) for r in table.rows], dtype=float).tobytes()


_SHARED_DESIGNS = {
    # n > p, and n < p with lambdas at which coordinate descent converges fast
    "n>p": (gen_block_design(14, 6, [3, 3], 0.4, 0.9, RngSpec(seed=31, stream_id=0)),
            (0, 3), (0.2, 0.7, 1.8)),
    "n<p": (gen_block_design(8, 9, [5, 4], 0.3, 0.6, RngSpec(seed=32, stream_id=0)),
            (0, 5), (0.5, 1.0, 2.0)),
}


class TestSharedRun:
    """run_grid over several grids: one draw and one lasso path, the same
    bits as one run per grid."""

    def _grids(self, design_key, kinds, center, **kw):
        design, support, lams = _SHARED_DESIGNS[design_key]
        beta = np.zeros(design.p)
        beta[list(support)] = 1.0
        signal = SignalSpec.from_coefficients(design, beta, 1.0)
        return [ExperimentGrid(kind=k, lambda_grid=lams, design=design, signal=signal,
                               reps=60, seed=33, center=center, **kw) for k in kinds]

    @pytest.mark.parametrize("kinds", [
        ("lasso", "relaxed-lasso", "ridge"),
        ("best-subset", "relaxed-lasso"),
        ("relaxed-lasso",),
    ])
    @pytest.mark.parametrize("design_key", ["n>p", "n<p"])
    @pytest.mark.parametrize("center", ["sample", "signal"])
    def test_rows_equal_one_kind_runs_bit_for_bit(self, kinds, design_key, center):
        grids = self._grids(design_key, kinds, center)
        tables = run_grid(grids)
        assert isinstance(tables, tuple) and len(tables) == len(grids)
        for grid, table in zip(grids, tables):
            alone = run_grid(grid)
            assert isinstance(alone, CurveTable)
            assert (table.kind, table.reps, table.seed) == (alone.kind, alone.reps, alone.seed)
            assert _table_bits(table) == _table_bits(alone)

    @pytest.mark.parametrize("center", ["sample", "signal"])
    def test_derived_relaxed_lasso_equals_its_own_fit(self, center):
        # the relaxed lasso taken from the lasso path has the bits of
        # FitProcedure("relaxed-lasso").fit_many, which the estimators use
        grid, = self._grids("n<p", ("relaxed-lasso",), center)
        _, relaxed = run_grid(self._grids("n<p", ("lasso", "relaxed-lasso"), center))
        for row, lam in zip(relaxed.rows, grid.lambda_grid):
            proc = FitProcedure(kind="relaxed-lasso", lam=lam, design=grid.design)
            df = estimate_df(proc, grid.signal, grid.reps, grid.seed, center=center)
            sdf = estimate_sdf(proc, grid.signal, grid.reps, grid.seed, center=center)
            assert (df.value, df.std_error, df.mean_active, df.mean_rank) == (
                row.df, row.df_se, row.mean_active, row.mean_rank)
            assert (sdf.value, sdf.std_error) == (row.sdf, row.sdf_se)

    def test_include_sdf_is_per_grid(self):
        with_sdf = self._grids("n>p", ("lasso", "relaxed-lasso"), "sample")
        lasso, relaxed = run_grid([dataclasses.replace(with_sdf[0], include_sdf=False),
                                   with_sdf[1]])
        assert np.isnan(lasso.column("sdf")).all()
        assert _table_bits(relaxed) == _table_bits(run_grid(with_sdf[1]))
        assert _table_bits(lasso) == _table_bits(
            run_grid(dataclasses.replace(with_sdf[0], include_sdf=False)))

    @pytest.mark.parametrize("change", [
        dict(seed=34), dict(reps=91), dict(center="signal"), dict(lambda_grid=(0.2, 0.7)),
        dict(kind="lasso"),
    ])
    def test_grids_that_cannot_share_are_rejected(self, change):
        a, b = self._grids("n>p", ("lasso", "ridge"), "sample")
        with pytest.raises(ValueError):
            run_grid([a, dataclasses.replace(b, **change)])

    def test_different_design_or_signal_rejected(self):
        a, = self._grids("n>p", ("lasso",), "sample")
        design = gen_block_design(14, 6, [3, 3], 0.4, 0.9, RngSpec(seed=35, stream_id=0))
        for b in (dataclasses.replace(a, kind="ridge", design=design),
                  dataclasses.replace(a, kind="ridge", signal=SignalSpec(np.zeros(14), 1.0))):
            with pytest.raises(ValueError):
                run_grid([a, b])

    def test_no_grids_rejected(self):
        with pytest.raises(ValueError):
            run_grid([])


def _duplicated_column_grid(kind, lams, center="sample", reps=60):
    base = gen_block_design(14, 6, [3, 3], 0.4, 0.8, RngSpec(seed=41, stream_id=0)).values
    design = DesignMatrix(np.column_stack([base, base[:, 1]]))
    beta = np.zeros(7)
    beta[[0, 1, 4]] = 1.0
    signal = SignalSpec.from_coefficients(design, beta, 1.0)
    return ExperimentGrid(kind=kind, lambda_grid=lams, design=design, signal=signal,
                          reps=reps, seed=42, center=center)


_TAIL_GRIDS = {
    # the two largest values leave every support empty
    "best-subset": (0.1, 0.5, 2.0, 1e3, 1e4),
    # all-column masks at every value
    "ridge": (0.5, 1.0, 3.0),
    "relaxed-lasso": (0.2, 0.7, 1.8, 50.0),
}


class TestEstimateTail:
    """The estimates after the fits: one _ActiveSets along the grid, a fit
    least squares on its own supports as their refit, and covariance terms
    once per fitted array."""

    @pytest.mark.parametrize("kind", sorted(_TAIL_GRIDS))
    @pytest.mark.parametrize("center", ["sample", "signal"])
    def test_rows_equal_one_value_grids_bit_for_bit(self, kind, center):
        grid = _duplicated_column_grid(kind, _TAIL_GRIDS[kind], center)
        table = run_grid(grid)
        for lam, row in zip(grid.lambda_grid, table.rows):
            alone = run_grid(dataclasses.replace(grid, lambda_grid=(lam,)))
            assert _table_bits(CurveTable(kind, grid.reps, grid.seed, (row,))) == (
                _table_bits(alone))
        if kind == "best-subset":
            npt.assert_array_equal(table.column("mean_active")[-2:], [0.0, 0.0])

    @pytest.mark.parametrize("center", ["sample", "signal"])
    def test_subset_sdf_is_an_explicit_refit_minus_the_mean_rank(self, center):
        grid = _duplicated_column_grid("best-subset", _TAIL_GRIDS["best-subset"], center)
        X, Y = grid.design.values, draw_responses(grid.signal, grid.reps, grid.seed)
        mu = grid.signal.mu if center == "signal" else None
        for lam, row in zip(grid.lambda_grid, run_grid(grid).rows):
            fit = FitProcedure("best-subset", lam, grid.design).fit_many(Y)
            value, loo = _cov_df_terms(Y, refit_on_active_sets(X, Y, fit.active)[1],
                                       grid.signal.sigma, mu)
            ranks = np.array([np.linalg.matrix_rank(X[:, m]) if m.any() else 0
                              for m in fit.active], dtype=float)
            assert row.sdf == value - ranks.mean()
            assert row.sdf_se == _jackknife_se(loo - _delete_one_means(ranks))

    def test_refits_and_terms_are_computed_once(self, monkeypatch):
        refits, terms = [], []
        monkeypatch.setattr(montecarlo, "refit_on_active_sets",
                            lambda X, Y, masks: refits.append(masks) or refit_on_active_sets(
                                X, Y, masks))
        monkeypatch.setattr(montecarlo, "_cov_df_terms",
                            lambda Y, F, sigma, mu: terms.append(F) or _cov_df_terms(
                                Y, F, sigma, mu))
        lams = _TAIL_GRIDS["relaxed-lasso"]
        grids = [_duplicated_column_grid(k, lams) for k in ("lasso", "relaxed-lasso", "ridge")]
        lasso, relaxed, _ = run_grid(grids)
        npt.assert_array_equal(lasso.column("mean_active"), relaxed.column("mean_active"))
        assert len({id(F) for F in terms}) == len(terms)
        # per value the lasso's, the relaxed lasso's (also the lasso's sdf
        # refit) and ridge's fitted values; ridge's all-column refit once
        assert len(terms) == 3 * len(lams) + 1
        assert len(refits) == 1 and refits[0].all()
        refits.clear()
        run_grid(_duplicated_column_grid("best-subset", _TAIL_GRIDS["best-subset"]))
        assert refits == []

    def test_a_zero_solved_coefficient_is_refit(self, monkeypatch):
        grid = _duplicated_column_grid("ridge", (1.0,), reps=8)
        X, Y = grid.design.values, draw_responses(grid.signal, grid.reps, grid.seed)
        refits = []
        monkeypatch.setattr(montecarlo, "refit_on_active_sets",
                            lambda X, Y, masks: refits.append(masks) or refit_on_active_sets(
                                X, Y, masks))
        solved = np.ones((8, 7), dtype=bool)
        active = solved.copy()
        active[::2, 3] = False
        own = np.full((8, 14), 7.0)  # stands for the least-squares fit on solved
        fit = BatchFit(beta=np.zeros((8, 7)), fitted=own, active=active,
                       objective=np.zeros(8), solved_on=solved)
        sets = montecarlo._ActiveSets(X, Y, 1.0, None)
        sets.next_value([fit])
        assert sets.fit_terms(fit)[0] == _cov_df_terms(Y, own, 1.0, None)[0]
        assert sets.refit_terms(solved)[0] == _cov_df_terms(Y, own, 1.0, None)[0]
        assert refits == []
        value, loo = sets.refit_terms(active)
        expect, expect_loo = _cov_df_terms(Y, refit_on_active_sets(X, Y, active)[1], 1.0, None)
        assert value == expect
        npt.assert_array_equal(loo, expect_loo)
        assert len(refits) == 1 and refits[0] is active
        # kept while used at the next value, dropped once a value leaves it out
        sets.next_value([])
        sets.refit_terms(active)
        sets.next_value([])
        sets.next_value([])
        sets.refit_terms(active)
        assert len(refits) == 2
