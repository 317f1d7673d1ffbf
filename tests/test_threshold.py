import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from shrinkseg.synth import Disk, PhantomSpec, Rect, generate
from shrinkseg.threshold import SegmentationResult, kmeans_1d, segment


def _tied_values(seed, m, normal):
    """Exactly m distinct values, each repeated one to four times: either
    ninths of distinct integers (equal gaps, so equal costs) or normals
    rounded to one decimal."""
    rng = np.random.default_rng(seed)
    if normal:
        pool = np.unique(np.round(rng.standard_normal(20 * m) * m / 20, 1))
        assume(pool.size >= m)
        support = rng.choice(pool, m, replace=False)
    else:
        support = rng.choice(3 * m, m, replace=False) / 9.0
    values = np.repeat(support, rng.integers(1, 5, m))
    return rng.permutation(values)


class TestKmeans1d:
    def test_two_values(self):
        np.testing.assert_allclose(kmeans_1d([0.05, 0.95], 2), [0.05, 0.95])

    def test_three_clusters_of_pairs(self):
        means = kmeans_1d([2.0, 10.0, 12.0, 20.0, 22.0], 3)
        np.testing.assert_allclose(means, [2.0, 11.0, 21.0])

    def test_means_sorted(self):
        rng = np.random.default_rng(0)
        means = kmeans_1d(rng.random(40), 4)
        assert np.all(np.diff(means) > 0)

    def test_accepts_2d_input(self):
        grid = np.array([[0.1, 0.1], [0.9, 0.9]])
        np.testing.assert_allclose(kmeans_1d(grid, 2), [0.1, 0.9])

    def test_k_validation(self):
        with pytest.raises(ValueError):
            kmeans_1d([1.0, 2.0], 1)
        with pytest.raises(ValueError):
            kmeans_1d([1.0, 1.0, 1.0], 2)  # fewer distinct values than k

    def test_duplicates_weighted_not_collapsed(self):
        # four copies of 0 pull the split differently than one copy would
        values = [0.0] * 4 + [1.0, 1.1, 1.2]
        means = kmeans_1d(values, 2)
        np.testing.assert_allclose(means, [0.0, 1.1])

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4))
    def test_matches_exhaustive_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 10, rng.integers(k + 1, 20)) / 9.0
        if len(np.unique(values)) < k:
            return
        means = kmeans_1d(values, k)
        _, best = oracles.exhaustive_kmeans(values, k)
        assert oracles.wcss(values, means) <= best + 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            kmeans_1d([bad, 0.0, 1.0, 2.0], 2)

    def test_overflowing_squares_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            kmeans_1d([1e200, 0.0, 1.0, 2.0], 2)


class TestBreadthFirstMatchesRecursion:
    """kmeans_1d must return the recursive divide and conquer's means
    bit for bit, ties included."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 6),
        extra=st.integers(0, 195),
        normal=st.booleans(),
    )
    @example(seed=0, k=2, extra=0, normal=False)
    @example(seed=1, k=6, extra=0, normal=True)
    def test_bitwise_equal_on_tied_inputs(self, seed, k, extra, normal):
        values = _tied_values(seed, k + extra, normal)
        want = oracles.recursive_kmeans_1d(values, k)
        assert kmeans_1d(values, k).tobytes() == want.tobytes()

    def test_bitwise_equal_on_noisy_phantom(self):
        # about n^2 distinct values, as the CLI sees a corrected image
        spec = PhantomSpec(
            n=128,
            phase_values=(0.3, 0.8),
            shapes=(
                Disk(row=64, col=43, radius=29, phase=2),
                Rect(row0=20, col0=88, row1=70, col1=116, phase=2),
            ),
            noise_sigma=0.05,
            seed=11,
        )
        f = generate(spec).f
        assert np.unique(f).size > 16000
        for k in (2, 3, 4, 5):
            want = oracles.recursive_kmeans_1d(f, k)
            assert kmeans_1d(f, k).tobytes() == want.tobytes()


class TestSegment:
    def test_thresholds_are_midpoints(self):
        u = np.array([[0.1, 0.1], [0.9, 0.9]])
        result = segment(u, 2)
        np.testing.assert_allclose(result.thresholds, [0.5])
        np.testing.assert_allclose(result.cluster_means, [0.1, 0.9])

    def test_assignment_intervals_half_open_above(self):
        # label j covers (t_{j-1}, t_j]: strictly above the threshold
        # below, at most equal to the threshold above
        rng = np.random.default_rng(7)
        for k in (2, 3, 4):
            u = np.round(rng.random((8, 8)), 2)
            result = segment(u, k)
            t = np.asarray(result.thresholds)
            for (i, j), label in np.ndenumerate(result.labels):
                if label > 1:
                    assert u[i, j] > t[label - 2]
                if label < k:
                    assert u[i, j] <= t[label - 1]

    def test_labels_monotone_in_value(self):
        rng = np.random.default_rng(1)
        u = rng.random((8, 8))
        result = segment(u, 3)
        order = np.argsort(u.ravel())
        labels = result.labels.ravel()[order]
        assert np.all(np.diff(labels) >= 0)

    def test_relabel_without_redecomposition(self):
        # stage two never touches stage one: same u, any k
        rng = np.random.default_rng(2)
        u = np.round(rng.random((8, 8)), 1)
        for k in (2, 3, 4):
            result = segment(u, k)
            assert result.k == k
            assert set(np.unique(result.labels)) <= set(range(1, k + 1))

    def test_label_range_complete(self):
        u = np.array([[0.1, 0.5], [0.5, 0.9]])
        labels = segment(u, 3).labels
        assert sorted(np.unique(labels)) == [1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.random((6, 6))
        a = segment(u, 2)
        b = segment(u, 2)
        assert np.array_equal(a.labels, b.labels)
        assert a.thresholds == b.thresholds


class TestSegmentationResult:
    def test_length_consistency_enforced(self):
        with pytest.raises(ValueError):
            SegmentationResult(
                k=3,
                cluster_means=(0.1, 0.9),
                thresholds=(0.5,),
                labels=np.ones((2, 2), dtype=np.int64),
            )
