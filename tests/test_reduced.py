"""The reduced pass solve against ADMM, and the tie labels it shares."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
import shrinkseg
from fixture_work import fixture_problem
from oracles import linearized_energy
from shrinkseg import AdmmParams, ModelParams, OuterParams, generate
from shrinkseg import decompose as decompose_module
from shrinkseg import reduced as reduced_module
from shrinkseg.admm import admm_solve
from shrinkseg.decompose import decompose
from shrinkseg.reduced import reduced_solve
from shrinkseg.support import SupportSet, tie_labels
from shrinkseg.synth import Disk, PhantomSpec

PARAMS = ModelParams(alpha=0.05, beta=1.0, gamma=0.3)
RHO = 0.3
EXACT = AdmmParams(r=5.0, tol_in=1e-12, maxit_in=50000)


def _instance(seed, shape, active_frac=0.5):
    """A two-level image with noise, a random support and positive weights."""
    rng = np.random.default_rng(seed)
    f = np.where(rng.random(shape) > 0.5, 0.85, 0.15) + 0.02 * rng.standard_normal(shape)
    active = rng.random(shape) < active_frac
    weights = np.where(active, rng.uniform(0.2, 2.0, shape), 0.0)
    v_k = 0.1 * rng.standard_normal(shape)
    return (f, f - v_k, v_k, weights, SupportSet(active=active), PARAMS, RHO, EXACT)


def _reduced(args, cache=None):
    """reduced_solve on admm_solve's args, with a cache of its own
    unless one is given."""
    u_k, _, weights, support = args[1:5]
    return reduced_solve(u_k, weights, support, cache or _cache(args))


def _cache(args):
    """The ReducedCache, a RunState, of admm_solve's args."""
    f, _, _, _, _, params, rho, admm = args
    return reduced_module.ReducedCache(f, params, rho, admm.r)


def _pass_energy(args, u, v):
    f, u_k, _, weights, support, params, rho, _ = args
    return linearized_energy(f, u, v, u_k, weights, support, params, rho)


def _check_against_admm(args):
    """reduced_solve's result, asserted to match admm_solve at tol_in =
    1e-12 when it is certified; None when it declines."""
    reduced = _reduced(args)
    if reduced is None:
        return None
    assert reduced.iters == 0
    exact = admm_solve(*args)
    for result in (reduced, exact):  # v is formed from the v_hat handed on
        assert np.fft.irfft2(result.v_hat, s=result.v.shape).tobytes() == result.v.tobytes()
    assert exact.iters < EXACT.maxit_in
    np.testing.assert_allclose(reduced.u, exact.u, rtol=0, atol=1e-7)
    np.testing.assert_allclose(reduced.v, exact.v, rtol=0, atol=1e-7)
    mine, theirs = _pass_energy(args, reduced.u, reduced.v), _pass_energy(args, exact.u, exact.v)
    assert mine <= theirs + 1e-10 * abs(theirs)
    return reduced


def _count_calls(monkeypatch, module, name):
    """Wrap module.name; returns the list its calls append their args to."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# 12 square and 8 rectangular instances; a random support cuts each
# into 1-13 components joined by 0-26 terms
INSTANCES = [(seed, (n, n)) for seed in range(6) for n in (6, 8)] + [
    (10 * shape[0] + shape[1], shape) for shape in oracles.RECT_SHAPES
]


class TestMatchesAdmm:
    @pytest.mark.parametrize("seed, shape", INSTANCES)
    def test_certified_result_is_the_pass_minimizer(self, seed, shape):
        _check_against_admm(_instance(seed, shape))

    def test_most_instances_certify(self):
        # a wrong merge makes the certificate fail, and the pass then
        # goes to admm_solve; these instances all certify
        assert all(_reduced(_instance(*case)) is not None for case in INSTANCES)

    def test_u_is_constant_on_the_tie_components(self):
        args = _instance(3, (8, 8))
        reduced = _check_against_admm(args)
        basis = oracles.tie_components(~args[4].active)
        assert basis.shape[1] > 5
        for column in basis.T:
            assert np.ptp(reduced.u.ravel()[column == 1]) == 0.0

    def test_reruns_are_bitwise_equal(self):
        args = _instance(4, (7, 9))
        first = _reduced(args)
        assert first is not None
        second = _reduced(args)
        cache = _cache(args)
        third = _reduced(args, cache)
        fourth = _reduced(args, cache)  # from the stored pieces and Q
        for other in (second, third, fourth):
            assert other.u.tobytes() == first.u.tobytes()
            assert other.v.tobytes() == first.v.tobytes()

    def test_shape_mismatch_raises(self):
        args = _instance(0, (6, 6))
        u_k, _, weights, support = args[1:5]
        with pytest.raises(ValueError):
            reduced_solve(u_k, weights[:5], support, _cache(args))
        with pytest.raises(ValueError):  # a cache built on another grid's state
            reduced_solve(u_k, weights, support, _cache((args[0][:5], *args[1:])))

    def test_too_many_components_declines(self, monkeypatch):
        args = _instance(5, (8, 8))
        count = oracles.tie_components(~args[4].active).shape[1]
        assert count == 13
        monkeypatch.setattr(reduced_module, "_MAX_PIECES", count)
        assert _reduced(args) is not None
        monkeypatch.setattr(reduced_module, "_MAX_PIECES", count - 1)
        assert _reduced(args) is None


class TestZeroJumps:
    """Pass minimizers that join two components, so a jump is exactly 0."""

    def _args(self, alpha):
        # a faint disk on a flat background; a strong penalty removes it
        n = 8
        f = np.full((n, n), 0.5)
        rows, cols = np.ogrid[:n, :n]
        disk = (rows - 3.5) ** 2 + (cols - 3.5) ** 2 <= 6.0
        f[disk] += 0.05
        g = np.hypot(np.roll(f, -1, 1) - f, np.roll(f, -1, 0) - f)
        active = g > 0
        weights = np.where(active, 1.0, 0.0)
        params = ModelParams(alpha=alpha, beta=1.0, gamma=0.3)
        return (f, f, np.zeros_like(f), weights, SupportSet(active=active), params, RHO, EXACT)

    def test_merged_minimizer_matches_admm_or_declines(self):
        args = self._args(alpha=1.0)
        exact = admm_solve(*args)
        assert np.ptp(exact.u) < 1e-9  # the minimizer is flat: every jump is 0
        # certified through the merge step, or declined
        reduced = _check_against_admm(args)
        assert reduced is None or np.ptp(reduced.u) == 0.0

    def test_weak_penalty_keeps_the_jump(self):
        reduced = _check_against_admm(self._args(alpha=1e-3))
        assert np.ptp(reduced.u) > 0.01

    def test_declined_pass_goes_to_admm(self, monkeypatch):
        # with no Newton steps to spend, from either start, no pass certifies
        monkeypatch.setattr(reduced_module, "_NEWTON_STEPS", 0)
        calls = _count_calls(monkeypatch, decompose_module, "admm_solve")
        spec = PhantomSpec(n=16, phase_values=(0.3, 0.8),
                           shapes=(Disk(row=8, col=8, radius=4, phase=2),),
                           noise_sigma=0.02, composition="additive", seed=11)
        result = decompose(generate(spec).f, ModelParams(alpha=0.1, beta=100.0),
                           OuterParams(tau_supp=1e-3), AdmmParams(tol_in=1e-8, maxit_in=500))
        assert result.reduced_solves == 0
        assert result.reduced_declines == result.outer_iters - 1
        assert len(calls) == result.outer_iters > 1
        assert np.all(result.trace.column("inner_iters")[:-1] > 0)


def _fixture_attempt(fixtures, name, count):
    """admm_solve's args (v_k = f - u_k, solved at EXACT) for the first
    reduced attempt at count tie components in the acceptance run of the
    fixture phantom name."""
    entry = next(e for e in fixtures["suite"] if e["name"] == name)
    f, params, outer, inner = fixture_problem(shrinkseg, entry, fixtures["solver"], 0)
    original, found = decompose_module.reduced_solve, []

    def spy(u_k, weights, support, cache):
        pieces = cache.pieces_of(support)
        if not found and pieces is not None and pieces.sizes.size == count:
            found.append((f, u_k, f - u_k, weights, support, params, cache.rho, EXACT))
        return original(u_k, weights, support, cache)

    decompose_module.reduced_solve = spy
    try:
        decompose(f, params, outer, inner)
    finally:
        decompose_module.reduced_solve = original
    assert found, f"no attempt at {count} components"
    return found[0]


def _first_kinks_only(monkeypatch):
    """Make _newton merge only the first kinks a step crosses."""
    original = reduced_module._kink_tries

    def first_only(reach, kinks):
        return original(reach, kinks)[-1:]

    monkeypatch.setattr(reduced_module, "_kink_tries", first_only)


def _kink_steps(monkeypatch):
    """Wrap _kink_tries and _merge; returns, for each Newton step that
    crosses kinks, the masks offered and the indices of those whose merge
    was formed, in order. A merge is formed to be tested, and the tries
    stop at the first that lowers phi."""
    steps, tries, merge = [], reduced_module._kink_tries, reduced_module._merge

    def counted_tries(reach, kinks):
        offered = tries(reach, kinks)
        steps.append(([mask for _, mask in offered], []))
        return offered

    def counted_merge(size, triples, terms):
        if steps:
            masks, tried = steps[-1]
            tried += [i for i, mask in enumerate(masks)
                      if i not in tried and np.array_equal(terms, mask)]
        return merge(size, triples, terms)

    monkeypatch.setattr(reduced_module, "_kink_tries", counted_tries)
    monkeypatch.setattr(reduced_module, "_merge", counted_merge)
    return steps


class TestKinkMerges:
    """A Newton step merges every kink it crosses, or else fewer of the
    first ones, down to the first."""

    def test_tries_every_kink_then_the_first(self):
        reach = np.array([0.5, 0.2, 0.2 * (1 + 1e-12), 0.9, 1.5])
        kinks = np.array([True, True, True, False, True])
        tries = reduced_module._kink_tries(reach, kinks)
        assert [(t, mask.tolist()) for t, mask in tries] == [
            (0.2, kinks.tolist()), (0.2, [False, True, True, False, False])
        ]
        tries = reduced_module._kink_tries(reach, kinks & (reach < 0.3))
        assert len(tries) == 1 and tries[0][0] == 0.2

    def test_tries_halve_the_kinks_in_step_order(self):
        reach = np.array([0.8, 0.1, 0.7, 0.2, 0.6, 0.3, 0.5, 0.4, 0.95])
        kinks = reach < 0.9
        tries = reduced_module._kink_tries(reach, kinks)
        assert [t for t, _ in tries] == [0.1, 0.4, 0.2, 0.1]
        assert [np.flatnonzero(mask).tolist() for _, mask in tries] == [
            np.flatnonzero(kinks).tolist(), [1, 3, 5, 7], [1, 3], [1]
        ]

    def test_certifies_where_one_kink_per_step_runs_out(self, acceptance_fixtures, monkeypatch):
        # pass 2 of two_phase_s0.05_b0 at the acceptance settings: 48
        # components, which one merge per step cannot join within
        # _NEWTON_STEPS
        args = _fixture_attempt(acceptance_fixtures, "two_phase_s0.05_b0", 48)
        assert _check_against_admm(args) is not None
        _first_kinks_only(monkeypatch)
        runs = []  # each _newton call: from singleton classes, certificates, result
        newton, certify = reduced_module._newton, reduced_module._certify

        def counted_newton(*args):
            cls = args[2]
            runs.append({"singletons": cls.max() + 1 == cls.size, "certificates": 0})
            runs[-1]["result"] = newton(*args)
            return runs[-1]["result"]

        def counted_certify(*args):
            runs[-1]["certificates"] += 1
            return certify(*args)

        monkeypatch.setattr(reduced_module, "_newton", counted_newton)
        monkeypatch.setattr(reduced_module, "_certify", counted_certify)
        reduced = _check_against_admm(args)
        # the first try, from singleton classes, runs out of steps before
        # any certificate
        first = runs[0]
        assert first["singletons"] and first["result"] is None and not first["certificates"]
        # the start classes of _merges then certify the pass
        assert reduced is not None and runs[-1]["result"] is not None

    def test_rejected_every_kink_merge_falls_back_to_the_first(
        self, acceptance_fixtures, monkeypatch
    ):
        # a 14-component attempt of two_phase_s0.02_b0 whose every-kink
        # merges all raise phi
        args = _fixture_attempt(acceptance_fixtures, "two_phase_s0.02_b0", 14)
        steps = _kink_steps(monkeypatch)
        assert _check_against_admm(args) is not None
        # the first kinks are tried only after the every-kink merge, and
        # every halved prefix, was rejected
        assert any(len(masks) > 1 and tried[-1:] == [len(masks) - 1] for masks, tried in steps)

    def test_rejected_every_kink_merge_falls_back_to_a_halved_prefix(
        self, acceptance_fixtures, monkeypatch
    ):
        # a 24-component attempt of two_phase_s0.02_b0.2 where a merge of
        # the first half of the kinks lowers phi and every kink does not
        args = _fixture_attempt(acceptance_fixtures, "two_phase_s0.02_b0.2", 24)
        steps = _kink_steps(monkeypatch)
        assert _check_against_admm(args) is not None
        # a step stops at a halved prefix: that merge was accepted
        assert any(0 < tried[-1] < len(masks) - 1 for masks, tried in steps if tried)

    @pytest.mark.parametrize("seed, shape", [(2, (8, 8)), (3, (6, 9)), (2, (12, 12))])
    def test_refused_merges_start_the_search_at_the_first_kink(
        self, seed, shape, monkeypatch
    ):
        # every kink merge raises phi: each such step must try the step
        # fraction of the first kink it crosses, not the full step
        crossed, starts = [], []
        tries, change = reduced_module._kink_tries, reduced_module._Problem.change

        def recorded_tries(reach, kinks):
            crossed.append(np.flatnonzero(kinks)[np.argmin(reach[kinks])])
            return tries(reach, kinks)

        def refused_merges(problem, x, norms, gs, delta, moved=None):
            if moved is None:
                return np.inf
            if len(starts) < len(crossed):  # the step's first trial
                first = crossed[-1]
                # x + s * moved is nearest zero at s = 1 when the trial
                # moves by the first kink's fraction of the step
                starts.append(-(x[first] @ moved[first]) / (moved[first] @ moved[first]))
            return change(problem, x, norms, gs, delta, moved)

        monkeypatch.setattr(reduced_module, "_kink_tries", recorded_tries)
        monkeypatch.setattr(reduced_module._Problem, "change", refused_merges)
        _reduced(_instance(seed, shape))
        assert starts and len(starts) == len(crossed)
        np.testing.assert_allclose(starts, 1.0, rtol=1e-9)


class TestTieLabels:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (9, 9)] + oracles.RECT_SHAPES)
    def test_partition_matches_bfs_oracle(self, seed, shape):
        frozen = np.random.default_rng(seed).random(shape) < 0.3 + 0.08 * seed
        label = tie_labels(frozen)
        basis = oracles.tie_components(frozen)
        component = basis.argmax(axis=1)
        # the same partition: each label is one oracle component, and back
        pairs = set(zip(label.tolist(), component.tolist()))
        assert len(pairs) == len(set(label.tolist())) == basis.shape[1]
        # each component is labelled by its smallest flat id
        for root in set(label.tolist()):
            assert root == np.flatnonzero(label == root).min()


def _shrunk(args, seed, keep=0.9):
    """args with a random part of the active set frozen, weights with it."""
    f, u_k, v_k, weights, support, params, rho, admm = args
    active = support.active & (np.random.default_rng(seed).random(f.shape) < keep)
    return (f, u_k, v_k, np.where(active, weights, 0.0), SupportSet(active=active),
            params, rho, admm)


# random supports that leave 2-21 components, shrunk twice in a row
NESTED = [(seed, shape) for seed in range(3) for shape in ((8, 8), (6, 9), (2, 9))] + [
    (3, (8, 8)), (3, (6, 9))]


class TestReducedState:
    @pytest.mark.parametrize("seed, shape", NESTED)
    def test_aggregated_q_matches_a_fresh_build(self, seed, shape, monkeypatch):
        builds = _count_calls(monkeypatch, reduced_module, "_smooth")
        args = _instance(seed, shape, active_frac=0.6)
        cache = _cache(args)
        for step in range(3):  # each support nested in the last
            _reduced(args, cache)
            pieces = cache.quad_pieces
            fresh = reduced_module._smooth(pieces.label, shape, PARAMS.gamma, PARAMS.beta)
            error = np.abs(cache.quad_smooth - fresh).max()
            assert error <= 1e-12 * np.abs(fresh).max()
            assert np.array_equal(cache.quad_smooth, cache.quad_smooth.T)
            args = _shrunk(args, 100 + 10 * seed + step)
        assert len(builds) == 3 + 1  # the checks' three, and one by the cache

    @pytest.mark.parametrize("seed, shape", [(5, (8, 8)), (3, (6, 9))])
    def test_multi_pixel_rows_match_one_transform_each(self, seed, shape):
        label = reduced_module._pieces(_instance(seed, shape)[4]).label
        multi = np.flatnonzero(np.bincount(label) > 1)
        one = oracles.smooth_per_component(label, shape, PARAMS.gamma, PARAMS.beta)
        built = reduced_module._smooth(label, shape, PARAMS.gamma, PARAMS.beta)
        # single pixels' entries are kernel lookups, not transforms
        block = np.ix_(multi, multi)
        assert built[block].tobytes() == one[block].tobytes()

    @pytest.mark.parametrize(
        "shape, singles, multis",
        [((8, 8), 5, 6), ((6, 9), 13, 4), ((5, 7), 35, 0), ((6, 9), 0, 11), ((7, 7), 3, 9),
         ((2, 9), 7, 3), ((32, 32), 20, 40)],
    )
    def test_single_pixel_lookups_match_one_transform_per_component(
        self, shape, singles, multis
    ):
        # a random partition, numbered in random order: singles pixels
        # alone, the others spread over multis components of 2+ pixels
        rng = np.random.default_rng(singles * 100 + multis)
        pixels = rng.permutation(shape[0] * shape[1])
        label = np.empty(pixels.size, dtype=np.intp)
        label[pixels[:singles]] = np.arange(singles)
        rest = pixels[singles:]
        if multis:
            owner = np.concatenate(
                [np.repeat(np.arange(multis), 2), rng.integers(0, multis, rest.size - 2 * multis)]
            )
            label[rest] = singles + owner
        label = rng.permutation(singles + multis)[label]
        one = oracles.smooth_per_component(label, shape, PARAMS.gamma, PARAMS.beta)
        built = reduced_module._smooth(label, shape, PARAMS.gamma, PARAMS.beta)
        assert np.array_equal(built, built.T)
        assert np.abs(built - one).max() <= 1e-14 * np.abs(one).max()
        multi = np.flatnonzero(np.bincount(label) > 1)
        assert multi.size == multis
        block = np.ix_(multi, multi)
        assert built[block].tobytes() == one[block].tobytes()

    def test_partition_that_does_not_coarsen_is_built_afresh(self, monkeypatch):
        builds = _count_calls(monkeypatch, reduced_module, "_smooth")
        first = _instance(1, (8, 8))
        cache = _cache(first)
        # the same image, with another support's frozen ties
        other = _instance(2, (8, 8))[4]
        other = (*first[:3], np.where(other.active, first[3], 0.0), other, *first[5:])
        _reduced(first, cache)
        shared = _reduced(other, cache)
        alone = _reduced(other)
        assert len(builds) == 3
        assert shared is not None
        assert shared.u.tobytes() == alone.u.tobytes()
        assert shared.v.tobytes() == alone.v.tobytes()

    @pytest.mark.parametrize("shape", [(6, 9), (8, 8)])
    def test_smoothed_f_matches_a_fresh_build(self, shape):
        f, u_k, v_k = np.random.default_rng(shape).standard_normal((3, *shape))
        system = oracles.spectral_system(f, u_k, v_k, PARAMS, RHO, EXACT.r)
        fresh = np.fft.irfft2(system["f_hat"] * (1.0 - 1.0 / system["b"]), s=shape)
        cache = reduced_module.ReducedCache(f, PARAMS, RHO, EXACT.r)
        assert cache.smooth_f.tobytes() == fresh.tobytes()

    def test_a_kept_mask_reuses_its_pieces_and_q(self, monkeypatch):
        builds = _count_calls(monkeypatch, reduced_module, "_smooth")
        labels = _count_calls(monkeypatch, reduced_module, "_pieces")
        args = _instance(3, (8, 8))
        cache = _cache(args)
        for _ in range(3):
            _reduced(args, cache)
        assert len(builds) == len(labels) == 1

    def test_runs_do_not_share_state(self):
        # an aggregated Q may differ from a fresh one in the last bits,
        # so a run's result must not depend on the runs before it
        solver = (OuterParams(tau_supp=1e-3), AdmmParams(tol_in=1e-8, maxit_in=500))
        runs = []
        for seed in (11, 12, 11):
            spec = PhantomSpec(n=16, phase_values=(0.3, 0.8),
                               shapes=(Disk(row=8, col=8, radius=4, phase=2),),
                               noise_sigma=0.02, composition="additive", seed=seed)
            runs.append(decompose(generate(spec).f, ModelParams(alpha=0.1, beta=100.0), *solver))
        assert runs[0].reduced_solves > 1
        assert runs[2].u.tobytes() == runs[0].u.tobytes()
        assert runs[2].v.tobytes() == runs[0].v.tobytes()


class TestMerge:
    @staticmethod
    def _merge_by_isin(size, triples, terms):
        cls = np.arange(size)
        for term in np.flatnonzero(terms):
            ids = cls[triples[term]]
            cls[np.isin(cls, ids)] = ids.min()
        return np.unique(cls, return_inverse=True)[1]

    @pytest.mark.parametrize("seed", range(20))
    def test_union_find_matches_joining_term_by_term(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(2, 40))
        triples = rng.integers(0, count, size=(int(rng.integers(1, 30)), 3))
        terms = rng.random(len(triples)) < rng.random()  # masks from none to every term
        np.testing.assert_array_equal(
            reduced_module._merge(count, triples, terms),
            self._merge_by_isin(count, triples, terms),
        )


def _random_problem(seed, count=12, terms=20, integral=False):
    """A _Problem of random entries over count components; integral ones
    sum exactly in any order."""
    rng = np.random.default_rng(seed)
    shape = (count + 1, count)  # Q from the first count rows, b from the last
    draw = rng.integers(-9, 10, shape) if integral else rng.standard_normal(shape)
    triples = rng.integers(0, count, (terms, 3))
    triples[:, 1] = (triples[:, 0] + 1 + triples[:, 1] % (count - 1)) % count  # own != right
    return reduced_module._Problem(draw[:-1] + draw[:-1].T, draw[-1], triples,
                                   rng.uniform(0.1, 2.0, terms),
                                   rng.integers(1, 9, count).astype(np.float64), 3.5)


def _joined(problem, seed, terms=4):
    """The classes _merge makes by joining terms random terms of problem."""
    rng = np.random.default_rng(seed)
    chosen = np.zeros(problem.w.size, dtype=bool)
    chosen[rng.choice(problem.w.size, terms, replace=False)] = True
    return reduced_module._merge(problem.sizes.size, problem.triples, chosen)


class TestProblem:
    @pytest.mark.parametrize("seed", range(6))
    def test_coarsening_sums_afresh(self, seed):
        problem = _random_problem(seed)
        joined = _joined(problem, seed)
        size = joined.max() + 1
        assert size < problem.sizes.size
        coarse = problem.coarsen(joined)
        assert coarse.quad.tobytes() == reduced_module._coarsen(problem.quad, joined, size).tobytes()
        assert coarse.linear.tobytes() == np.bincount(joined, problem.linear, size).tobytes()
        assert coarse.sizes.tobytes() == np.bincount(joined, problem.sizes, size).tobytes()
        # the terms that still join two classes, in order, over the classes
        kept = [t for t, triple in enumerate(problem.triples) if len(set(joined[triple])) > 1]
        assert 0 < len(kept) < problem.w.size
        assert coarse.triples.tobytes() == joined[problem.triples[kept]].tobytes()
        assert coarse.w.tobytes() == problem.w[kept].tobytes()
        assert coarse.total == problem.total

    @pytest.mark.parametrize("seed", range(6))
    def test_coarsening_twice_sums_over_the_merged_partition(self, seed):
        # _newton coarsens the last coarsening; with integral entries every
        # sum is exact, so that equals one coarsening bit for bit
        problem = _random_problem(seed, integral=True)
        first = _joined(problem, seed, terms=2)
        coarse = problem.coarsen(first)
        second = _joined(coarse, seed + 100, terms=2)
        twice, once = coarse.coarsen(second), problem.coarsen(second[first])
        for name in ("quad", "linear", "triples", "w", "sizes"):
            assert getattr(twice, name).tobytes() == getattr(once, name).tobytes()

    def test_coarsening_over_the_identity_is_the_problem(self):
        problem = _random_problem(0)
        assert problem.coarsen(np.arange(problem.sizes.size)) is problem
        assert problem.coarsen(_joined(problem, 0, terms=0)) is problem

    @pytest.mark.parametrize("seed", range(4))
    def test_adjoint_matches_the_dense_map(self, seed):
        problem = _random_problem(seed)
        count = problem.sizes.size
        y = np.random.default_rng(seed).standard_normal((problem.w.size, 2))
        dense = oracles.dense_adjoint(problem.triples, count) @ y.ravel()
        got = reduced_module._adjoint(problem.triples, y, count)
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)


class TestDecomposeTries:
    def test_every_later_pass_within_the_cap_is_tried(self, monkeypatch):
        calls = []
        for name in ("admm_solve", "reduced_solve"):

            def wrapped(*args, _original=getattr(decompose_module, name), _name=name, **kwargs):
                result = _original(*args, **kwargs)
                calls.append((_name, args, kwargs, result))
                return result

            monkeypatch.setattr(decompose_module, name, wrapped)
        attempts = _count_calls(monkeypatch, reduced_module, "_newton")
        spec = PhantomSpec(n=16, phase_values=(0.3, 0.8),
                           shapes=(Disk(row=8, col=8, radius=4, phase=2),),
                           noise_sigma=0.02, composition="additive", seed=11)
        result = decompose(generate(spec).f, ModelParams(alpha=0.1, beta=100.0),
                           OuterParams(tau_supp=1e-3), AdmmParams(tol_in=1e-8, maxit_in=500))
        assert result.reduced_solves > 0
        # the first pass runs ADMM; every later one is offered to
        # reduced_solve first, with one cache for the run
        assert calls[0][0] == "admm_solve"
        tries = [call for call in calls if call[0] == "reduced_solve"]
        assert len(tries) == result.outer_iters - 1
        assert len({id(args[3]) for _, args, _, _ in tries}) == 1
        within = 0
        for _, args, _, out in tries:
            count = oracles.tie_components(~args[2].active).shape[1]
            within += count <= reduced_module._MAX_PIECES
            assert out is None or count <= reduced_module._MAX_PIECES
        assert len(attempts) == within > 0


def _certify_calls(fixtures, name, defaults):
    """The args of every _certify call with merged terms in the run of
    the fixture phantom name, at the acceptance settings or the CLI
    defaults."""
    entry = next(e for e in fixtures["suite"] if e["name"] == name)
    problem = fixture_problem(shrinkseg, entry, None if defaults else fixtures["solver"], 0)
    original, calls = reduced_module._certify, []

    def spy(*args):
        problem, cls = args[:2]
        if not problem.live(cls).all():
            calls.append(args)
        return original(*args)

    reduced_module._certify = spy
    try:
        decompose(*problem)
    finally:
        reduced_module._certify = original
    return calls


class TestCertificate:
    """The merged terms' duals come from a C x C Laplacian solve, not a
    dense least squares, and must balance the live gradient."""

    def test_decisions_match_dense_least_squares(self, acceptance_fixtures):
        # two_phase_s0.05_b0 merges terms at both settings, and at the
        # CLI defaults one certificate's duals stay above their bounds:
        # that first try declines, and the start classes of _merges
        # certify the pass
        decisions = []
        for defaults in (False, True):
            for args in _certify_calls(acceptance_fixtures, "two_phase_s0.05_b0", defaults):
                mine = reduced_module._certify(*args) is not None
                assert mine == oracles.lstsq_certify(*args)
                decisions.append(mine)
        assert len(decisions) == 7 and 0 < sum(decisions) < 7

    def test_unbalanced_duals_decline(self, acceptance_fixtures):
        # b shifted by delta on one merged class: a constant on the class
        # leaves every y_t as it was, but no dual can balance it
        args = _certify_calls(acceptance_fixtures, "two_phase_s0.05_b0", False)[0]
        problem, cls, c, step = args
        assert reduced_module._certify(*args) is c
        merged = np.bincount(cls)
        on = (cls == merged.argmax()).astype(float)
        assert merged.max() > 1
        for ratio, certified in ((1e-10, True), (1e-6, False)):
            delta = ratio * np.linalg.norm(problem.linear) / np.sqrt(merged.max())
            shifted = (dataclasses.replace(problem, linear=problem.linear + delta * on), cls, c, step)
            assert (reduced_module._certify(*shifted) is c) == certified
            assert oracles.lstsq_certify(*shifted)

    @staticmethod
    def _one_term(weight):
        """A _Problem of 3 components and one term over all three."""
        return reduced_module._Problem(np.eye(3), np.ones(3), np.array([[0, 1, 2]]),
                                       np.array([weight]), np.ones(3), 3.0)

    def test_a_step_across_a_live_kink_declines(self):
        # the last step moved the jumps (1, 2) at c by (-5, -5), farther
        # than their norm, so it may have crossed the kink at zero jump
        problem, cls = self._one_term(1.0), np.arange(3)
        assert problem.live(cls).all()
        c, step = np.array([0.0, 1.0, 2.0]), np.array([0.0, -5.0, -5.0])
        assert reduced_module._certify(problem, cls, c, step) is None

    def test_a_singular_laplacian_declines(self, monkeypatch):
        # a merged term of weight 0 leaves the Laplacian all zero, its
        # anchors too (a.mean() = 0), so the solve raises and c declines
        problem, cls = self._one_term(0.0), np.zeros(3, dtype=np.intp)
        assert not problem.live(cls).any()
        raised, solve = [], np.linalg.solve

        def spy(*args):
            try:
                return solve(*args)
            except np.linalg.LinAlgError as error:
                raised.append(str(error))
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        assert reduced_module._certify(problem, cls, np.zeros(3), np.zeros(3)) is None
        assert raised == ["Singular matrix"]


class TestDeclines:
    def test_random_supports_certify(self):
        # seeds 0-39 on three shapes at two active fractions, where a
        # first try that never undoes a merge declined 22 of the 240;
        # every certified c is checked against admm_solve at tol_in = 1e-12
        declined = [
            (seed, shape, fraction)
            for seed in range(40)
            for shape in ((6, 6), (8, 8), (2, 9))
            for fraction in (0.5, 0.6)
            if _check_against_admm(_instance(seed, shape, fraction)) is None
        ]
        assert declined == []

    def test_constant_starts_certify(self, monkeypatch):
        # u_k = 0.5: Newton's first try starts with every jump exactly 0
        # and merges them all at that iterate, which certifies only where
        # the minimizer is flat; otherwise _merges starts from the flat
        # jumps, where an all-ones dual can lie in the kernel of E^T and
        # its power iteration would divide 0 by 0
        calls = _count_calls(monkeypatch, reduced_module, "_merges")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for seed in range(40):
                for shape in ((6, 6), (8, 8), (2, 9)):
                    f, _, *rest = _instance(seed, shape)
                    assert _check_against_admm((f, np.full(shape, 0.5), *rest)) is not None
        assert calls

    def test_a_declined_attempt_is_counted(self, monkeypatch):
        # two passes: ADMM, then one reduced attempt, which no step certifies
        monkeypatch.setattr(reduced_module, "_NEWTON_STEPS", 0)
        spec = PhantomSpec(n=16, phase_values=(0.3, 0.8),
                           shapes=(Disk(row=8, col=8, radius=4, phase=2),),
                           noise_sigma=0.02, composition="additive", seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # unconverged at maxit_out
            result = decompose(generate(spec).f, ModelParams(alpha=0.1, beta=100.0),
                               OuterParams(tau_supp=1e-3, maxit_out=2),
                               AdmmParams(tol_in=1e-8, maxit_in=500))
        assert result.outer_iters == 2
        assert result.reduced_solves == 0
        assert result.reduced_declines == 1

    def test_the_cache_counts_the_declines_within_the_cap(self, monkeypatch):
        # no attempt certifies, and the cap leaves some supports above it
        monkeypatch.setattr(reduced_module, "_NEWTON_STEPS", 0)
        monkeypatch.setattr(reduced_module, "_MAX_PIECES", 5)
        calls = _count_calls(monkeypatch, decompose_module, "reduced_solve")
        spec = PhantomSpec(n=16, phase_values=(0.3, 0.8),
                           shapes=(Disk(row=8, col=8, radius=4, phase=2),),
                           noise_sigma=0.05, composition="additive", seed=11)
        result = decompose(generate(spec).f, ModelParams(alpha=0.05, beta=100.0),
                           OuterParams(tau_supp=1e-3), AdmmParams(tol_in=1e-8, maxit_in=500))
        assert len({id(args[3]) for args in calls}) == 1
        counts = [oracles.tie_components(~args[2].active).shape[1] for args in calls]
        within = sum(count <= reduced_module._MAX_PIECES for count in counts)
        assert 0 < within < len(counts)
        assert calls[0][3].declines == result.reduced_declines == within

    def test_over_the_cap_is_not_a_decline(self, monkeypatch):
        monkeypatch.setattr(reduced_module, "_MAX_PIECES", 0)
        spec = PhantomSpec(n=16, phase_values=(0.3, 0.8),
                           shapes=(Disk(row=8, col=8, radius=4, phase=2),),
                           noise_sigma=0.02, composition="additive", seed=11)
        result = decompose(generate(spec).f, ModelParams(alpha=0.1, beta=100.0),
                           OuterParams(tau_supp=1e-3), AdmmParams(tol_in=1e-8, maxit_in=500))
        assert result.outer_iters > 1
        assert result.reduced_solves == result.reduced_declines == 0


_THREADS_SCRIPT = """
import hashlib, json, sys
import shrinkseg
import shrinkseg.decompose as module
from fixture_work import fixture_problem, load_fixture
from shrinkseg import reduced
fixtures = load_fixture()

def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()

entry = next(e for e in fixtures["quality"] if e["name"] == "two_phase_n128")
whole = module.decompose(*fixture_problem(shrinkseg, entry, fixtures["solver"], 0))
entry = next(e for e in fixtures["suite"] if e["name"] == "two_phase_s0.05_b0.2")
f, params, outer, inner = fixture_problem(shrinkseg, entry, fixtures["solver"], 0)
original, found = module.reduced_solve, []

def spy(u_k, weights, support, cache):
    pieces = cache.pieces_of(support)
    if not found and pieces is not None and pieces.sizes.size > 96:
        found.append((u_k, weights, support, pieces.sizes.size))
    return original(u_k, weights, support, cache)

module.reduced_solve = spy
module.decompose(f, params, outer, inner)
u_k, weights, support, count = found[0]
cache = reduced.ReducedCache(f, params, outer.rho, inner.r)
result = reduced.reduced_solve(u_k, weights, support, cache)
print(json.dumps([count, digest(result.u), digest(whole.u), digest(whole.v)]))
"""


def test_blas_threads_do_not_change_a_reduced_attempt():
    # the 114-component second pass of two_phase_s0.05_b0.2, and a whole
    # run of two_phase_n128, whose dot products OpenBLAS would thread
    # (acceptance settings): one_blas_thread holds every call of the
    # solvers at one thread, whatever OPENBLAS_NUM_THREADS says
    scripts = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([scripts, env.get("PYTHONPATH", "")])
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env, check=True,
                             capture_output=True, text=True)
        outputs.append(json.loads(run.stdout))
    count = outputs[0][0]
    assert 96 < count <= reduced_module._MAX_PIECES
    assert outputs[0] == outputs[1]
