import threading
import warnings

import numpy as np
import pytest

from ewsrgap.errors import DomainError
from ewsrgap.mc import (
    CHUNK_SIZE,
    MonteCarloEstimate,
    chunk_stream,
    complex_normal,
    vector_stats,
)


def _sum_stat(rng, count):
    # two correlated columns so diff tracking has something to resolve
    x = rng.standard_normal(count)
    return np.stack([x, x + 0.01 * rng.standard_normal(count)], axis=1)


class TestVectorStats:
    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(DomainError):
            vector_stats(1, 0, _sum_stat)

    @pytest.mark.parametrize(
        "n_samples, seed, workers, name",
        [
            (5000.0, 0, 1, "n_samples"),
            (True, 0, 1, "n_samples"),
            (100, -1, 1, "seed"),
            (100, 1.5, 1, "seed"),
            (100, True, 1, "seed"),
            (100, 0, 0, "workers"),
            (100, 0, 2.5, "workers"),
            (100, 0, True, "workers"),
        ],
    )
    def test_rejects_malformed_run_arguments(self, n_samples, seed, workers, name):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            vector_stats(n_samples, seed, _sum_stat, workers=workers)

    @pytest.mark.parametrize("n", [2, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE + 17])
    def test_worker_count_never_changes_results(self, n):
        base = vector_stats(n, 123, _sum_stat, workers=1, track_diffs=True)
        for workers in (2, 5):
            other = vector_stats(n, 123, _sum_stat, workers=workers, track_diffs=True)
            for a, b in zip(base, other):
                assert np.array_equal(a, b)

    def test_repeated_calls_reuse_one_pool(self):
        # the first call at two workers may start the pool's threads;
        # later calls at that worker count run on the same two threads
        seen = set()

        def stat(rng, count):
            seen.add(threading.current_thread())
            return _sum_stat(rng, count)

        first = vector_stats(3 * CHUNK_SIZE, 4, stat, workers=2, track_diffs=True)
        threads = threading.active_count()
        for _ in range(5):
            again = vector_stats(3 * CHUNK_SIZE, 4, stat, workers=2, track_diffs=True)
            assert threading.active_count() == threads
            for a, b in zip(first, again):
                assert np.array_equal(a, b)
        assert len(seen) <= 2

    def test_seed_changes_results(self):
        m1, _, _ = vector_stats(5000, 1, _sum_stat)
        m2, _, _ = vector_stats(5000, 2, _sum_stat)
        assert not np.array_equal(m1, m2)

    def test_mean_and_se_against_numpy(self):
        # one chunk: the whole sample is visible to a single evaluate call
        n = 1000
        v = np.atleast_2d(_sum_stat(chunk_stream(7, 0), n))
        mean, se, dse = vector_stats(n, 7, _sum_stat, track_diffs=True)
        assert mean == pytest.approx(v.mean(axis=0), rel=1e-12)
        assert se == pytest.approx(v.std(axis=0, ddof=1) / np.sqrt(n), rel=1e-9)
        d = np.diff(v, axis=1)
        assert dse == pytest.approx(d.std(axis=0, ddof=1) / np.sqrt(n), rel=1e-9)

    @pytest.mark.parametrize("value", [1e200, 1e308])
    def test_overflow_is_a_typed_error_without_warnings(self, value):
        # 1e200 overflows only the sum of squares, 1e308 the plain sum too
        def huge(rng, count):
            return np.full((count, 2), value)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                vector_stats(2 * CHUNK_SIZE, 0, huge, workers=2, track_diffs=True)

    def test_paired_diff_error_smaller_than_marginals(self):
        _, se, dse = vector_stats(20_000, 3, _sum_stat, track_diffs=True)
        assert dse[0] < 0.1 * se[0]


class TestComplexNormal:
    def test_unit_variance_convention(self):
        z = complex_normal(chunk_stream(9, 0), 200_000)
        # variance 1 total, split evenly between real and imaginary parts
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)
        assert z.real.var() == pytest.approx(0.5, abs=0.01)
        assert z.imag.var() == pytest.approx(0.5, abs=0.01)
        assert abs(z.mean()) < 0.005

    def test_shape(self):
        assert complex_normal(chunk_stream(9, 0), (3, 4)).shape == (3, 4)

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 7)])
    def test_draw_layout(self, shape):
        # (real, imag) pairs from one standard_normal call: a change of
        # the draws a seed produces must show up here
        z = complex_normal(chunk_stream(9, 0), shape)
        pairs = chunk_stream(9, 0).standard_normal(shape + (2,))
        assert np.array_equal(z, (pairs[..., 0] + 1j * pairs[..., 1]) * np.sqrt(0.5))


class TestMonteCarloEstimate:
    def test_rejects_negative_std_error(self):
        with pytest.raises(DomainError):
            MonteCarloEstimate(1.0, -1e-9, 10, 0)

    def test_fields(self):
        est = MonteCarloEstimate(2.0, 0.1, 100, 42, rho=10.0)
        assert (est.value, est.std_error, est.n_samples, est.seed, est.rho) == (
            2.0,
            0.1,
            100,
            42,
            10.0,
        )


def test_chunk_streams_are_independent():
    a = chunk_stream(0, 0).standard_normal(4)
    b = chunk_stream(0, 1).standard_normal(4)
    c = chunk_stream(0, 0).standard_normal(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
