import functools
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from fixture_work import make_phantom
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import shrinkseg
from shrinkseg import threshold
from shrinkseg.synth import Disk, PhantomSpec, Rect, generate
from shrinkseg.threshold import SegmentationResult, kmeans_1d, segment

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


def _tied_values(seed, m, normal):
    """Exactly m distinct values, each repeated one to four times: either
    ninths of distinct integers (equal gaps, so equal costs) or normals
    rounded to one decimal. None if the normals give too few."""
    rng = np.random.default_rng(seed)
    if normal:
        pool = np.unique(np.round(rng.standard_normal(20 * m) * m / 20, 1))
        if pool.size < m:
            return None
        support = rng.choice(pool, m, replace=False)
    else:
        support = rng.choice(3 * m, m, replace=False) / 9.0
    values = np.repeat(support, rng.integers(1, 5, m))
    return rng.permutation(values)


def _noisy_phantom():
    """About n^2 distinct values at n = 128, as the CLI sees a corrected
    image."""
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
    return generate(spec).f


@functools.cache
def _cli_stage2_image():
    """The n=256 image of the cli_stage2 benchmark workload (seed 0):
    65536 distinct values."""
    with open(WORKLOADS, encoding="utf-8") as handle:
        spec = json.load(handle)["workloads"]["cli_stage2"]["spec"]
    return make_phantom(shrinkseg, spec, 0).f


def _gapped_phases():
    """Two phases with a wide empty gap between them, where a boundary
    falls in the gap."""
    rng = np.random.default_rng(5)
    return np.concatenate([rng.normal(0.0, 1.0, 6000), rng.normal(40.0, 1.0, 6000)])


def _mirrored_clumps():
    """Three equal clumps, each symmetric about its centre, the whole
    set symmetric about 0: splitting the left or the right clump costs
    the same, so two partitions share the optimum."""
    offsets = np.random.default_rng(6).normal(0.0, 1.0, 1500)
    clump = np.concatenate([offsets, -offsets])
    return np.concatenate([clump - 50.0, clump, clump + 50.0])


def _offset_values():
    """1e4 + N(0, 1e-3) rounded to 1e-7, 15502 distinct values of 20000:
    costs near 1e-14 of s2[-1], whose rounding errors are a few percent
    of themselves."""
    rng = np.random.default_rng(0)
    return 1e4 + np.round(rng.normal(0.0, 1e-3, 20000), 7)


def _full_fill(values, k):
    """The prefix moments (w, s1, s2), and the costs of every layer j =
    0..k-2 and the splits of layers 1..k-2, each layer filled in full by
    _fill_layer, with no bound."""
    w, s1, s2 = threshold._prefix_moments(*np.unique(values, return_counts=True))
    m = w.size - 1
    costs, splits = [s2 - np.divide(s1**2, w, out=np.zeros(m + 1), where=w > 0)], []
    for j in range(1, k - 1):
        new_cost, new_arg = np.full(m + 1, np.inf), np.zeros(m + 1, np.intp)
        threshold._fill_layer(costs[-1], w, s1, s2, j + 1, m + 1, j, m, new_cost, new_arg)
        costs.append(new_cost)
        splits.append(new_arg)
    return (w, s1, s2), costs, splits


def _bound_free_means(values, k):
    """kmeans_1d's means with every layer but the last filled in full by
    _fill_layer, with no bound, and the last one read by one round over
    every split."""
    (w, s1, s2), costs, splits = _full_fill(values, k)
    m = w.size - 1
    _, last = threshold._first_minima(
        costs[-1], w, s1, s2, np.array([m]), np.array([k - 1]), np.array([m])
    )
    bounds = [m, int(last[0])]
    for arg in reversed(splits):
        bounds.append(int(arg[bounds[-1]]))
    bounds = [0, *reversed(bounds)]
    return np.array([(s1[b] - s1[a]) / (w[b] - w[a]) for a, b in zip(bounds[:-1], bounds[1:])])


def _candidates(monkeypatch, run, values, k):
    """run(values, k) and, per layer, the candidate splits of each
    _first_minima call: consecutive calls on one cost_prev array make
    one layer, the last round included. The coarse layers of the
    windows' bounds, on fewer points, are left out."""
    calls = []
    first_minima = threshold._first_minima

    def spy(cost_prev, w, s1, s2, mid, opt_lo, opt_hi):
        count = int(np.sum(np.minimum(opt_hi, mid) - opt_lo))
        calls.append((cost_prev, w.size, count))
        return first_minima(cost_prev, w, s1, s2, mid, opt_lo, opt_hi)

    with monkeypatch.context() as patch:
        patch.setattr(threshold, "_first_minima", spy)
        means = run(values, k)
    size = max(points for _, points, _ in calls)
    calls = [(cost_prev, count) for cost_prev, points, count in calls if points == size]
    layers = []
    for i, (cost_prev, count) in enumerate(calls):
        if i and cost_prev is calls[i - 1][0]:
            layers[-1].append(count)
        else:
            layers.append([count])
    return means, layers


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
        with pytest.raises(ValueError, match="^k must be at least 2, got 1$"):
            kmeans_1d([1.0, 2.0], 1)
        with pytest.raises(ValueError):
            kmeans_1d([1.0, 1.0, 1.0], 2)  # fewer distinct values than k

    @pytest.mark.parametrize("k", [3.0, np.float64(3), 2.5, True, np.bool_(True), "3"])
    def test_k_must_be_an_integer(self, k):
        # rejected before the values are read
        with pytest.raises(ValueError, match="k must be an integer"):
            kmeans_1d(["not a number"], k)
        with pytest.raises(ValueError, match="k must be an integer"):
            segment(np.array([[0.1, 0.5], [0.5, 0.9]]), k)

    def test_numpy_integer_k(self):
        means = kmeans_1d([2.0, 10.0, 12.0, 20.0, 22.0], np.int64(3))
        np.testing.assert_allclose(means, [2.0, 11.0, 21.0])

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
        assume(values is not None)
        want = oracles.recursive_kmeans_1d(values, k)
        assert kmeans_1d(values, k).tobytes() == want.tobytes()

    def test_bitwise_equal_on_noisy_phantom(self):
        f = _noisy_phantom()
        assert np.unique(f).size > 16000
        for k in (2, 3, 4, 5):
            want = oracles.recursive_kmeans_1d(f, k)
            assert kmeans_1d(f, k).tobytes() == want.tobytes()


class TestWindows:
    """On many values, at every K, every full layer is filled only over
    a window of rows that coarse lower bounds and a Lloyd upper bound
    leave open, and each layer, the last round included, reads its
    splits only from the extent of the window before it. The windows
    must hold every row of an optimal path, skip most candidate splits,
    and change no bit of the means."""

    INPUTS = {
        "noisy_phantom": _noisy_phantom,
        "cli_stage2": _cli_stage2_image,
        "gapped_phases": _gapped_phases,
        "mirrored_clumps": _mirrored_clumps,
        "offset": _offset_values,
    }

    @staticmethod
    def _windowed(monkeypatch, values, k):
        """kmeans_1d's means and the windows it filled, as (lo, hi) row
        ranges per layer."""
        found = []
        windows = threshold._windows

        def spy(*args):
            found.append(windows(*args))
            return found[-1]

        with monkeypatch.context() as patch:
            patch.setattr(threshold, "_windows", spy)
            means = kmeans_1d(values, k)
        assert len(found) == 1
        return means, found[0]

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("name", list(INPUTS))
    def test_bitwise_equal_to_the_full_fill(self, monkeypatch, name, k):
        values = self.INPUTS[name]()
        m = np.unique(values).size
        means, windows = self._windowed(monkeypatch, values, k)
        rows = [int(np.sum(hi - lo)) for lo, hi in windows]
        assert means.tobytes() == _bound_free_means(values, k).tobytes()
        if name == "offset":
            # costs far below the slack: every row passes, every layer is whole
            assert rows == [m + 1] * (k - 1)
        else:
            assert sum(rows) < (k - 1) * m / 2

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 7),
        extra=st.integers(60, 300),
        normal=st.booleans(),
    )
    def test_small_windows_keep_tied_optima(self, seed, k, extra, normal):
        # cells of one or two rows on inputs with exactly equal costs
        values = _tied_values(seed, k + extra, normal)
        assume(values is not None)
        with mock.patch.object(threshold, "_CELL", 1 + seed % 2), \
                mock.patch.object(threshold, "_WINDOWED", 32):
            got = kmeans_1d(values, k)
        assert got.tobytes() == _bound_free_means(values, k).tobytes()
        assert got.tobytes() == oracles.recursive_kmeans_1d(values, k).tobytes()

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_windowed_layers_skip_most_candidates(self, monkeypatch, k):
        f = _cli_stage2_image()
        means, bounded = _candidates(monkeypatch, kmeans_1d, f, k)
        _, full = _candidates(monkeypatch, _bound_free_means, f, k)
        assert len(bounded) == len(full) == k - 1
        for got, want in zip(bounded[:-1], full[:-1]):
            assert sum(got) < sum(want) / 4
        assert sum(bounded[-1]) < sum(full[-1])
        assert means.tobytes() == _bound_free_means(f, k).tobytes()

    def test_last_round_reads_the_last_window(self, monkeypatch):
        # at K = 3 too, the last round reads only the splits in the extent
        # of the one full layer's window
        f = _cli_stage2_image()
        found = []

        def windowed(values, k):
            means, windows = self._windowed(monkeypatch, values, k)
            found.append(windows[-1])
            return means

        means, layers = _candidates(monkeypatch, windowed, f, 3)
        (lo, hi), = found
        assert sum(layers[-1]) <= hi[-1] - lo[0] < np.unique(f).size / 64
        assert means.tobytes() == _bound_free_means(f, 3).tobytes()

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_every_cell_of_many_values_is_cut(self, monkeypatch, k):
        # 8 rows a cell on the noisy phantom: more than 1024 cells, all
        # of them bounded, and the means unchanged
        f = _noisy_phantom()
        m = np.unique(f).size
        cells = []
        bounds = threshold._bounds

        def spy(cost, w, s1, s2, points, layers):
            cells.append(points.size - 1)
            return bounds(cost, w, s1, s2, points, layers)

        monkeypatch.setattr(threshold, "_CELL", 8)
        monkeypatch.setattr(threshold, "_bounds", spy)
        means = kmeans_1d(f, k)
        assert cells == [m // 8] and m // 8 > 1024
        assert means.tobytes() == _bound_free_means(f, k).tobytes()

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_offset_input_keeps_the_first_minimum(self, k):
        # costs near 1e-14 of s2[-1] carry rounding errors of a few percent
        # of themselves, so the bound holds only up to the slack. The
        # depth-first oracle picks other first minima here than the
        # breadth-first fill does, with or without the bound, so the fill
        # without the bound is the reference.
        rng = np.random.default_rng(0)
        values = 1e4 + np.round(rng.normal(0.0, 1e-3, 2000), 6)
        assert 1000 < np.unique(values).size < values.size
        assert kmeans_1d(values, k).tobytes() == _bound_free_means(values, k).tobytes()

    def test_two_clusters_take_one_round(self, monkeypatch):
        # one window, layer 0's, then one round over the splits in its
        # extent: fewer than all m - 1
        f = _noisy_phantom()
        found = []

        def windowed(values, k):
            means, windows = self._windowed(monkeypatch, values, k)
            found.extend(windows)
            return means

        means, layers = _candidates(monkeypatch, windowed, f, 2)
        (count,), = layers
        (lo, hi), = found
        assert count <= hi[-1] - lo[0] < np.unique(f).size - 1
        assert means.tobytes() == _bound_free_means(f, 2).tobytes()

    @pytest.mark.parametrize("k", [3, 4, 6])
    @pytest.mark.parametrize("name", ["noisy_phantom", "gapped_phases", "mirrored_clumps"])
    def test_coarse_bounds_hold(self, name, k):
        # on random cells: forward bounds against the full fill's costs,
        # backward ones against its costs on the reversed values
        values = self.INPUTS[name]()
        (w, s1, s2), costs, _ = _full_fill(values, k)
        _, rev, _ = _full_fill(-values, k)
        m = w.size - 1
        rng = np.random.default_rng(k)
        inner = np.sort(rng.choice(np.arange(1, m), 200, replace=False))
        points = np.concatenate(([0], inner, [m]))
        forward, backward, _ = threshold._bounds(costs[0], w, s1, s2, points, k)
        tol = 1e-12 * s2[-1]
        rows = np.arange(m + 1)
        cell = np.searchsorted(points, rows, side="right") - 1
        for j in range(k - 1):
            # rows that j + 1 runs can end and k - 1 - j runs can follow
            valid = (rows >= j + 1) & (rows <= m - (k - 1 - j))
            after = rev[k - 2 - j][::-1]  # the best cost of [b, m) in k - 1 - j runs
            for bound, exact in ((forward[j], costs[j]), (backward[j], after)):
                low = np.full(points.size - 1, np.inf)
                np.minimum.at(low, cell[valid], exact[valid])
                assert np.all(bound <= low + tol)
        # the coarse layers make nontrivial bounds
        assert forward[-1][-1] > 0.5 * costs[-1][-1]

    def test_upper_bound_is_a_near_optimal_cost(self, monkeypatch):
        f = _cli_stage2_image()
        seen = []
        upper_bound = threshold._upper_bound

        def spy(*args):
            seen.append(upper_bound(*args))
            return seen[-1]

        monkeypatch.setattr(threshold, "_upper_bound", spy)
        for k in (3, 4, 5, 6):
            means = kmeans_1d(f, k)
            optimum = oracles.wcss(f, means)
            assert optimum * (1 - 1e-9) <= seen[-1] <= optimum * (1 + 1e-5)

    def test_upper_bound_stops_on_an_empty_run(self):
        # runs [0], [1, 100], [101]: one Lloyd step moves both boundaries
        # to 2, so the next run between them is empty, and its mean would
        # be 0 / 0; the bound is the first partition's cost
        values = np.array([0.0, 1.0, 100.0, 101.0])
        w, s1, s2 = threshold._prefix_moments(values, np.ones(4))
        assert threshold._LLOYD > 1
        with np.errstate(all="raise"):
            bound = threshold._upper_bound(values, w, s1, s2, np.array([1, 3]))
        assert bound == 4900.5
        assert bound >= oracles.wcss(values, kmeans_1d(values, 3))


class TestBlockedLayers:
    """Each round runs over blocks of at most threshold._BLOCK candidate
    splits, and past _BLOCK open subproblems finishes half of them depth
    first. Neither may change a bit of any layer or of the means."""

    @pytest.mark.parametrize("block", [2, 5, 16, 64])
    @pytest.mark.parametrize("normal", [False, True])
    def test_layers_bitwise_equal_to_unblocked(self, monkeypatch, block, normal):
        rounds, cut = [], []
        first_minima = threshold._first_minima

        def spy(cost_prev, w, s1, s2, mid, opt_lo, opt_hi):
            ends = np.cumsum(np.minimum(opt_hi, mid) - opt_lo)
            rounds.append(int(ends[-1]))
            # segments that a block boundary cuts, whose minima are joined
            bounds = np.arange(block, ends[-1], block)
            cut.append(np.count_nonzero(np.isin(bounds, ends, invert=True)))
            return first_minima(cost_prev, w, s1, s2, mid, opt_lo, opt_hi)

        monkeypatch.setattr(threshold, "_BLOCK", block)
        monkeypatch.setattr(threshold, "_first_minima", spy)
        k = 5
        # layer 1's first round has (m + 1) // 2 candidates: below the
        # block, exactly one block, and several blocks
        for seed, m in enumerate((max(k, block // 2), max(k, 2 * block - 1), 7 * block + 3)):
            values = _tied_values(seed, m, normal)
            w, s1, s2 = threshold._prefix_moments(*np.unique(values, return_counts=True))
            assert w.size == m + 1
            cost = s2 - np.divide(s1**2, w, out=np.zeros(m + 1), where=w > 0)
            for j in range(1, k - 1):
                got_cost, want_cost = np.full(m + 1, np.inf), np.full(m + 1, np.inf)
                got_arg, want_arg = np.zeros(m + 1, np.intp), np.zeros(m + 1, np.intp)
                threshold._fill_layer(cost, w, s1, s2, j + 1, m + 1, j, m, got_cost, got_arg)
                oracles.unblocked_fill_layer(
                    cost, w, s1, s2, j + 1, m + 1, j, m, want_cost, want_arg
                )
                assert got_cost.tobytes() == want_cost.tobytes()
                assert got_arg.tobytes() == want_arg.tobytes()
                cost = want_cost
            want = oracles.recursive_kmeans_1d(values, k)
            assert kmeans_1d(values, k).tobytes() == want.tobytes()
        assert min(rounds) < block and block in rounds and max(rounds) > 3 * block
        assert sum(cut) > 0

    def test_traced_peak_bounded_per_distinct_value(self):
        # 2^17 distinct values at K = 3 and 5: the prefix, cost and split
        # arrays take 64 bytes per value at K = 5, and np.unique and the
        # round temporaries, bounded by the block, must fit in the rest
        values = np.random.default_rng(0).permutation(2**17) / 7.0
        for k in (3, 5):
            tracemalloc.start()
            try:
                kmeans_1d(values, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 128 * values.size, k


class TestOneRoundLayers:
    """A layer, or the open subproblems of a round, whose endpoints times
    split range fit one block are finished in one _first_minima round.
    That must not change a bit of any layer or of the means."""

    @staticmethod
    def _layers(monkeypatch, values, k):
        """Each layer's rounds in _fill_layer, with its cost and split
        arrays asserted bitwise equal to the unblocked fill's."""
        calls = []
        first_minima = threshold._first_minima

        def spy(*args):
            calls.append(args[4].size)
            return first_minima(*args)

        monkeypatch.setattr(threshold, "_first_minima", spy)
        w, s1, s2 = threshold._prefix_moments(*np.unique(values, return_counts=True))
        m = w.size - 1
        cost = s2 - np.divide(s1**2, w, out=np.zeros(m + 1), where=w > 0)
        rounds = []
        for j in range(1, k - 1):
            got_cost, want_cost = np.full(m + 1, np.inf), np.full(m + 1, np.inf)
            got_arg, want_arg = np.zeros(m + 1, np.intp), np.zeros(m + 1, np.intp)
            calls.clear()
            threshold._fill_layer(cost, w, s1, s2, j + 1, m + 1, j, m, got_cost, got_arg)
            rounds.append(list(calls))
            oracles.unblocked_fill_layer(cost, w, s1, s2, j + 1, m + 1, j, m, want_cost, want_arg)
            assert got_cost.tobytes() == want_cost.tobytes()
            assert got_arg.tobytes() == want_arg.tobytes()
            cost = want_cost
        return m, rounds

    @pytest.mark.parametrize("m", [5, 11, 25, 64, 128])
    @pytest.mark.parametrize("normal", [False, True])
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_small_layers_take_one_round(self, monkeypatch, m, normal, k):
        values = _tied_values(m * k, max(m, k), normal)
        m, rounds = self._layers(monkeypatch, values, k)
        # layer j: m - j endpoints against m - j splits, at most 127^2 < _BLOCK
        assert rounds == [[m - j] for j in range(1, k - 1)]
        assert kmeans_1d(values, k).tobytes() == oracles.recursive_kmeans_1d(values, k).tobytes()

    @pytest.mark.parametrize("block", [1024, 4096])
    @pytest.mark.parametrize("normal", [False, True])
    def test_subproblems_finish_in_one_round(self, monkeypatch, block, normal):
        # the first rounds exceed the block; the last one finishes every
        # open subproblem, so each endpoint is solved once, in fewer
        # rounds than the divide and conquer's 7 at m = 128
        monkeypatch.setattr(threshold, "_BLOCK", block)
        for seed in range(3):
            values = _tied_values(seed, 128, normal)
            m, rounds = self._layers(monkeypatch, values, 5)
            for j, layer in enumerate(rounds, start=1):
                assert sum(layer) == m - j
                assert 1 < len(layer) < (m - j).bit_length()
            assert kmeans_1d(values, 5).tobytes() == oracles.recursive_kmeans_1d(values, 5).tobytes()


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

    @pytest.mark.parametrize("k", range(2, 8))
    def test_labels_match_searchsorted_at_thresholds(self, monkeypatch, k):
        # values at each threshold and one ulp to either side, under
        # means chosen so that the thresholds are known
        rng = np.random.default_rng(k)
        means = np.sort(rng.choice(1000, k, replace=False) / 7.0)
        monkeypatch.setattr(threshold, "kmeans_1d", lambda values, k: means)
        thresholds = (means[:-1] + means[1:]) / 2.0
        u = np.concatenate([
            thresholds, np.nextafter(thresholds, -np.inf), np.nextafter(thresholds, np.inf),
            means, rng.uniform(means[0] - 1, means[-1] + 1, 43),
        ])
        u = rng.permutation(u).reshape(2, -1)
        result = segment(u, k)
        assert result.thresholds == tuple(thresholds)
        want = 1 + np.searchsorted(thresholds, u, side="left")
        assert result.labels.dtype == np.int64
        assert result.labels.tobytes() == want.astype(np.int64).tobytes()
        # a value at a threshold takes the label below it
        assert set(result.labels[np.isin(u, thresholds)].tolist()) <= set(range(1, k))

    def test_labels_are_int64(self):
        u = np.round(np.random.default_rng(3).random((8, 8)), 1)
        result = segment(u, 3)
        want = 1 + np.searchsorted(np.asarray(result.thresholds), u, side="left")
        assert result.labels.dtype == np.int64
        assert result.labels.tobytes() == want.astype(np.int64).tobytes()

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
