"""Designs, signal specs, and seeded response streams."""

import numpy as np
import numpy.testing as npt
import pytest

from dfsearch.model import (
    DesignMatrix,
    RngSpec,
    SignalSpec,
    gen_block_design,
    gen_orthogonal_design,
    sample_response,
)


class TestDesignMatrix:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            DesignMatrix(np.zeros((0, 3)), orthogonal=False)
        with pytest.raises(ValueError):
            DesignMatrix(np.zeros((3, 0)), orthogonal=False)
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            DesignMatrix(bad, orthogonal=False)

    def test_orthogonal_flag_is_checked(self):
        with pytest.raises(ValueError):
            DesignMatrix(2.0 * np.eye(3), orthogonal=True)
        d = DesignMatrix(np.eye(3), orthogonal=True)
        assert d.n == 3 and d.p == 3

    def test_shape_properties(self):
        rng = np.random.default_rng(0)
        d = DesignMatrix(rng.standard_normal((7, 4)), orthogonal=False)
        assert (d.n, d.p) == (7, 4)


class TestOrthogonalDesign:
    def test_square_case_is_identity(self):
        d = gen_orthogonal_design(100, 100)
        npt.assert_array_equal(d.values, np.eye(100))
        assert d.orthogonal

    def test_single_column_has_unit_norm(self):
        d = gen_orthogonal_design(3, 1)
        npt.assert_allclose(np.linalg.norm(d.values[:, 0]), 1.0, atol=1e-15)

    @pytest.mark.parametrize("n,p", [(5, 3), (12, 12), (40, 7)])
    def test_columns_orthonormal(self, n, p):
        d = gen_orthogonal_design(n, p)
        gram = d.values.T @ d.values
        assert np.abs(gram - np.eye(p)).max() <= 1e-12

    def test_too_many_columns_rejected(self):
        with pytest.raises(ValueError):
            gen_orthogonal_design(3, 4)


class TestBlockDesign:
    def test_partition_must_cover_p(self):
        rng = RngSpec(seed=0, stream_id=0)
        with pytest.raises(ValueError):
            gen_block_design(10, 5, [2, 2], 0.4, 0.9, rng)

    def test_correlation_bounds_validated(self):
        rng = RngSpec(seed=0, stream_id=0)
        with pytest.raises(ValueError):
            gen_block_design(10, 4, [2, 2], 0.9, 0.4, rng)
        with pytest.raises(ValueError):
            gen_block_design(10, 4, [2, 2], -0.1, 0.5, rng)
        with pytest.raises(ValueError):
            gen_block_design(10, 4, [2, 2], 0.5, 1.0, rng)

    def test_sample_correlation_tracks_target(self):
        d = gen_block_design(2000, 4, [2, 2], 0.5, 0.5, RngSpec(seed=11, stream_id=0))
        c = np.corrcoef(d.values, rowvar=False)
        assert abs(c[0, 1] - 0.5) < 0.05
        assert abs(c[2, 3] - 0.5) < 0.05

    def test_zero_range_gives_uncorrelated_columns(self):
        d = gen_block_design(5000, 4, [2, 2], 0.0, 0.0, RngSpec(seed=2, stream_id=0))
        c = np.corrcoef(d.values, rowvar=False)
        off = c[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_blocks_mutually_uncorrelated(self):
        d = gen_block_design(5000, 6, [3, 3], 0.4, 0.9, RngSpec(seed=5, stream_id=0))
        c = np.corrcoef(d.values, rowvar=False)
        cross = c[:3, 3:]
        assert np.abs(cross).max() < 0.05

    def test_within_block_correlations_in_band(self):
        d = gen_block_design(5000, 16, [8, 8], 0.4, 0.9, RngSpec(seed=3, stream_id=0))
        c = np.corrcoef(d.values, rowvar=False)
        for lo, hi in ((0, 8), (8, 16)):
            block = c[lo:hi, lo:hi]
            off = block[~np.eye(8, dtype=bool)]
            assert off.min() > 0.33 and off.max() < 0.97


class TestSignalSpec:
    def test_mean_is_design_times_coefficients(self):
        d = gen_block_design(12, 5, [5], 0.2, 0.6, RngSpec(seed=4, stream_id=0))
        beta = np.array([1.0, 0.0, -2.0, 0.0, 0.5])
        s = SignalSpec.from_coefficients(d, beta, 1.0)
        npt.assert_array_equal(s.mu, d.values @ beta)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            SignalSpec(np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            SignalSpec(np.zeros(3), -1.0)


class TestSampleResponse:
    def test_fixed_stream_is_reproducible(self):
        s = SignalSpec(np.arange(6.0), 2.0)
        r = RngSpec(seed=9, stream_id=3)
        y1 = sample_response(s, r)
        y2 = sample_response(s, r)
        npt.assert_array_equal(y1, y2)

    def test_distinct_streams_nearly_uncorrelated(self):
        s = SignalSpec(np.zeros(10_000), 1.0)
        y0 = sample_response(s, RngSpec(seed=9, stream_id=0))
        y1 = sample_response(s, RngSpec(seed=9, stream_id=1))
        assert abs(np.corrcoef(y0, y1)[0, 1]) < 0.05

    def test_vanishing_noise_returns_mean(self):
        mu = np.array([1.0, -2.0, 3.0])
        y = sample_response(SignalSpec(mu, 1e-300), RngSpec(seed=1, stream_id=0))
        npt.assert_allclose(y, mu, atol=1e-290)

    def test_component_mean_obeys_clt_bound(self):
        n = 100_000
        y = sample_response(SignalSpec(np.zeros(n), 1.0), RngSpec(seed=13, stream_id=0))
        assert abs(y.mean()) < 4.0 / np.sqrt(n)


class TestRngSpec:
    @pytest.mark.parametrize("name", ["seed", "stream_id"])
    @pytest.mark.parametrize("value", [1.5, 1.0])
    def test_float_arguments_are_rejected(self, name, value):
        # before, a float seed was truncated when the Philox key was built
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            RngSpec(**{"seed": 1, "stream_id": 2, name: value})

    @pytest.mark.parametrize("name", ["seed", "stream_id"])
    @pytest.mark.parametrize("kind", [np.int64, np.uint64])
    def test_numpy_integers_are_accepted(self, name, kind):
        spec = RngSpec(**{"seed": 1, "stream_id": 2, name: kind(5)})
        want = RngSpec(**{"seed": 1, "stream_id": 2, name: 5})
        assert spec == want
        npt.assert_array_equal(spec.generator().standard_normal(4),
                               want.generator().standard_normal(4))
