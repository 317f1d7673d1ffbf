"""The reduced pass solve against ADMM, and the tie labels it shares."""

import importlib
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
from shrinkseg import (
    AdmmParams,
    ModelParams,
    OuterParams,
    admm_solve,
    decompose,
    generate,
    reduced_solve,
)
from shrinkseg import admm as admm_module
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


def _reduced(args, state=None):
    """reduced_solve on admm_solve's args, with a state of its own
    unless one is given."""
    f, u_k, _, weights, support, params, rho, admm = args
    if state is None:
        state = admm_module.RunState(f, params, rho, admm.r)
    return reduced_solve(u_k, weights, support, state)


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
        state = admm_module.RunState(args[0], PARAMS, RHO, EXACT.r)
        third = _reduced(args, state)
        fourth = _reduced(args, state)  # from the stored pieces and Q
        for other in (second, third, fourth):
            assert other.u.tobytes() == first.u.tobytes()
            assert other.v.tobytes() == first.v.tobytes()

    def test_shape_mismatch_raises(self):
        f, u_k, _, weights, support, params, rho, admm = _instance(0, (6, 6))
        state = admm_module.RunState(f, params, rho, admm.r)
        with pytest.raises(ValueError):
            reduced_solve(u_k, weights[:5], support, state)
        with pytest.raises(ValueError):  # a state for another grid
            reduced_solve(u_k, weights, support, admm_module.RunState(f[:5], params, rho, admm.r))

    def test_too_many_components_declines(self, monkeypatch):
        args = _instance(5, (8, 8))
        count = oracles.tie_components(~args[4].active).shape[1]
        assert count == 13
        monkeypatch.setattr(admm_module, "_MAX_PIECES", count)
        assert _reduced(args) is not None
        monkeypatch.setattr(admm_module, "_MAX_PIECES", count - 1)
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
        monkeypatch.setattr(admm_module, "_NEWTON_STEPS", 0)
        monkeypatch.setattr(admm_module, "_MERGED_STEPS", 0)
        calls = _count_calls(monkeypatch, importlib.import_module("shrinkseg.decompose"),
                             "admm_solve")
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
    module = importlib.import_module("shrinkseg.decompose")
    original, found = module.reduced_solve, []

    def spy(u_k, weights, support, state):
        pieces = state.pieces_of(support)
        if not found and pieces is not None and pieces.sizes.size == count:
            found.append((f, u_k, f - u_k, weights, support, params, state.rho, EXACT))
        return original(u_k, weights, support, state)

    module.reduced_solve = spy
    try:
        decompose(f, params, outer, inner)
    finally:
        module.reduced_solve = original
    assert found, f"no attempt at {count} components"
    return found[0]


def _first_kinks_only(monkeypatch):
    """Make _newton merge only the first kinks a step crosses."""
    original = admm_module._kink_tries

    def first_only(reach, kinks):
        return original(reach, kinks)[-1:]

    monkeypatch.setattr(admm_module, "_kink_tries", first_only)


def _kink_steps(monkeypatch):
    """Wrap _kink_tries and _merge; returns, for each Newton step that
    crosses kinks, the masks offered and the indices of those whose merge
    was formed, in order. A merge is formed to be tested, and the tries
    stop at the first that lowers phi."""
    steps, tries, merge = [], admm_module._kink_tries, admm_module._merge

    def counted_tries(reach, kinks):
        offered = tries(reach, kinks)
        steps.append(([mask for _, mask in offered], []))
        return offered

    def counted_merge(cls, triples, terms):
        if steps:
            masks, tried = steps[-1]
            tried += [i for i, mask in enumerate(masks)
                      if i not in tried and np.array_equal(terms, np.flatnonzero(mask))]
        return merge(cls, triples, terms)

    monkeypatch.setattr(admm_module, "_kink_tries", counted_tries)
    monkeypatch.setattr(admm_module, "_merge", counted_merge)
    return steps


class TestKinkMerges:
    """A Newton step merges every kink it crosses, or else fewer of the
    first ones, down to the first."""

    def test_tries_every_kink_then_the_first(self):
        reach = np.array([0.5, 0.2, 0.2 * (1 + 1e-12), 0.9, 1.5])
        kinks = np.array([True, True, True, False, True])
        tries = admm_module._kink_tries(reach, kinks)
        assert [(t, mask.tolist()) for t, mask in tries] == [
            (0.2, kinks.tolist()), (0.2, [False, True, True, False, False])
        ]
        tries = admm_module._kink_tries(reach, kinks & (reach < 0.3))
        assert len(tries) == 1 and tries[0][0] == 0.2

    def test_tries_halve_the_kinks_in_step_order(self):
        reach = np.array([0.8, 0.1, 0.7, 0.2, 0.6, 0.3, 0.5, 0.4, 0.95])
        kinks = reach < 0.9
        tries = admm_module._kink_tries(reach, kinks)
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
        newton, certify = admm_module._newton, admm_module._certify

        def counted_newton(*args):
            cls = args[7]
            runs.append({"singletons": cls.max() + 1 == cls.size, "certificates": 0})
            runs[-1]["result"] = newton(*args)
            return runs[-1]["result"]

        def counted_certify(*args):
            runs[-1]["certificates"] += 1
            return certify(*args)

        monkeypatch.setattr(admm_module, "_newton", counted_newton)
        monkeypatch.setattr(admm_module, "_certify", counted_certify)
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
        builds = _count_calls(monkeypatch, admm_module, "_smooth")
        args = _instance(seed, shape, active_frac=0.6)
        state = admm_module.RunState(args[0], PARAMS, RHO, EXACT.r)
        for step in range(3):  # each support nested in the last
            _reduced(args, state)
            pieces = state.quad_pieces
            fresh = admm_module._smooth(pieces.label, shape, PARAMS.gamma, PARAMS.beta)
            error = np.abs(state.quad_smooth - fresh).max()
            assert error <= 1e-12 * np.abs(fresh).max()
            assert np.array_equal(state.quad_smooth, state.quad_smooth.T)
            args = _shrunk(args, 100 + 10 * seed + step)
        assert len(builds) == 3 + 1  # the checks' three, and one by the state

    @pytest.mark.parametrize("seed, shape", [(5, (8, 8)), (3, (6, 9))])
    def test_batched_build_matches_one_transform_per_component(self, seed, shape):
        label = admm_module._pieces(_instance(seed, shape)[4]).label
        multi = np.flatnonzero(np.bincount(label) > 1)
        assert multi.size % admm_module._BATCH != 0
        one = oracles.smooth_per_component(label, shape, PARAMS.gamma, PARAMS.beta)
        built = admm_module._smooth(label, shape, PARAMS.gamma, PARAMS.beta)
        # single pixels' entries are kernel lookups, not transforms
        block = np.ix_(multi, multi)
        assert built[block].tobytes() == one[block].tobytes()

    @pytest.mark.parametrize(
        "shape, singles, multis",
        [((8, 8), 5, 6), ((6, 9), 13, 4), ((5, 7), 35, 0), ((6, 9), 0, 11), ((7, 7), 3, 9),
         ((2, 9), 7, 3)],
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
        built = admm_module._smooth(label, shape, PARAMS.gamma, PARAMS.beta)
        assert np.array_equal(built, built.T)
        assert np.abs(built - one).max() <= 1e-14 * np.abs(one).max()
        multi = np.flatnonzero(np.bincount(label) > 1)
        assert multi.size == multis
        block = np.ix_(multi, multi)
        assert built[block].tobytes() == one[block].tobytes()

    def test_partition_that_does_not_coarsen_is_built_afresh(self, monkeypatch):
        builds = _count_calls(monkeypatch, admm_module, "_smooth")
        first = _instance(1, (8, 8))
        state = admm_module.RunState(first[0], PARAMS, RHO, EXACT.r)
        # the same image, with another support's frozen ties
        other = _instance(2, (8, 8))[4]
        other = (*first[:3], np.where(other.active, first[3], 0.0), other, *first[5:])
        _reduced(first, state)
        shared = _reduced(other, state)
        alone = _reduced(other)
        assert len(builds) == 3
        assert shared is not None
        assert shared.u.tobytes() == alone.u.tobytes()
        assert shared.v.tobytes() == alone.v.tobytes()

    def test_a_kept_mask_reuses_its_pieces_and_q(self, monkeypatch):
        builds = _count_calls(monkeypatch, admm_module, "_smooth")
        labels = _count_calls(monkeypatch, admm_module, "_pieces")
        args = _instance(3, (8, 8))
        state = admm_module.RunState(args[0], PARAMS, RHO, EXACT.r)
        for _ in range(3):
            _reduced(args, state)
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
    def _merge_by_isin(cls, triples, terms):
        cls = cls.copy()
        for term in terms:
            ids = cls[triples[term]]
            cls[np.isin(cls, ids)] = ids.min()
        return np.unique(cls, return_inverse=True)[1]

    @pytest.mark.parametrize("seed", range(20))
    def test_union_find_matches_joining_term_by_term(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(2, 40))
        triples = rng.integers(0, count, size=(int(rng.integers(1, 30)), 3))
        cls = self._merge_by_isin(np.arange(count), triples, rng.choice(len(triples), 2))
        terms = rng.choice(len(triples), int(rng.integers(1, len(triples) + 1)))
        np.testing.assert_array_equal(
            admm_module._merge(cls, triples, terms), self._merge_by_isin(cls, triples, terms)
        )


class TestDecomposeTries:
    def test_every_later_pass_within_the_cap_is_tried(self, monkeypatch):
        module = importlib.import_module("shrinkseg.decompose")
        calls = []
        for name in ("admm_solve", "reduced_solve"):

            def wrapped(*args, _original=getattr(module, name), _name=name, **kwargs):
                result = _original(*args, **kwargs)
                calls.append((_name, args, kwargs, result))
                return result

            monkeypatch.setattr(module, name, wrapped)
        attempts = _count_calls(monkeypatch, admm_module, "_newton")
        spec = PhantomSpec(n=16, phase_values=(0.3, 0.8),
                           shapes=(Disk(row=8, col=8, radius=4, phase=2),),
                           noise_sigma=0.02, composition="additive", seed=11)
        result = decompose(generate(spec).f, ModelParams(alpha=0.1, beta=100.0),
                           OuterParams(tau_supp=1e-3), AdmmParams(tol_in=1e-8, maxit_in=500))
        assert result.reduced_solves > 0
        # the first pass runs ADMM; every later one is offered to
        # reduced_solve first, with one state for the run
        assert calls[0][0] == "admm_solve"
        tries = [call for call in calls if call[0] == "reduced_solve"]
        assert len(tries) == result.outer_iters - 1
        assert len({id(args[3]) for _, args, _, _ in tries}) == 1
        within = 0
        for _, args, _, out in tries:
            count = oracles.tie_components(~args[2].active).shape[1]
            within += count <= admm_module._MAX_PIECES
            assert out is None or count <= admm_module._MAX_PIECES
        assert len(attempts) == within > 0


def _certify_calls(fixtures, name, defaults):
    """The args of every _certify call with merged terms in the run of
    the fixture phantom name, at the acceptance settings or the CLI
    defaults."""
    entry = next(e for e in fixtures["suite"] if e["name"] == name)
    problem = fixture_problem(shrinkseg, entry, None if defaults else fixtures["solver"], 0)
    original, calls = admm_module._certify, []

    def spy(*args):
        if not args[5].all():
            calls.append(args)
        return original(*args)

    admm_module._certify = spy
    try:
        decompose(*problem)
    finally:
        admm_module._certify = original
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
                quad, linear, triples, w, cls, live, c, step = args
                mine = admm_module._certify(*args) is not None
                assert mine == oracles.lstsq_certify(quad, linear, triples, w, live, c, step)
                decisions.append(mine)
        assert len(decisions) == 7 and 0 < sum(decisions) < 7

    def test_unbalanced_duals_decline(self, acceptance_fixtures):
        # b shifted by delta on one merged class: a constant on the class
        # leaves every y_t as it was, but no dual can balance it
        args = _certify_calls(acceptance_fixtures, "two_phase_s0.05_b0", False)[0]
        quad, linear, triples, w, cls, live, c, step = args
        assert admm_module._certify(*args) is c
        merged = np.bincount(cls)
        on = (cls == merged.argmax()).astype(float)
        assert merged.max() > 1
        for ratio, certified in ((1e-10, True), (1e-6, False)):
            delta = ratio * np.linalg.norm(linear) / np.sqrt(merged.max())
            shifted = (quad, linear + delta * on, triples, w, cls, live, c, step)
            assert (admm_module._certify(*shifted) is c) == certified
            assert oracles.lstsq_certify(*shifted[:4], *shifted[5:])


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

    def test_a_declined_attempt_is_counted(self, monkeypatch):
        # two passes: ADMM, then one reduced attempt, which no step certifies
        monkeypatch.setattr(admm_module, "_NEWTON_STEPS", 0)
        monkeypatch.setattr(admm_module, "_MERGED_STEPS", 0)
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

    def test_over_the_cap_is_not_a_decline(self, monkeypatch):
        monkeypatch.setattr(admm_module, "_MAX_PIECES", 0)
        spec = PhantomSpec(n=16, phase_values=(0.3, 0.8),
                           shapes=(Disk(row=8, col=8, radius=4, phase=2),),
                           noise_sigma=0.02, composition="additive", seed=11)
        result = decompose(generate(spec).f, ModelParams(alpha=0.1, beta=100.0),
                           OuterParams(tau_supp=1e-3), AdmmParams(tol_in=1e-8, maxit_in=500))
        assert result.outer_iters > 1
        assert result.reduced_solves == result.reduced_declines == 0


_THREADS_SCRIPT = """
import hashlib, importlib, json, sys
import shrinkseg
from fixture_work import fixture_problem, load_fixture
from shrinkseg import admm
fixtures = load_fixture()
entry = next(e for e in fixtures["suite"] if e["name"] == "two_phase_s0.05_b0.2")
f, params, outer, inner = fixture_problem(shrinkseg, entry, fixtures["solver"], 0)
module = importlib.import_module("shrinkseg.decompose")
original, found = module.reduced_solve, []

def spy(u_k, weights, support, state):
    pieces = state.pieces_of(support)
    if not found and pieces is not None and pieces.sizes.size > 96:
        found.append((u_k, weights, support, pieces.sizes.size))
    return original(u_k, weights, support, state)

module.reduced_solve = spy
shrinkseg.decompose(f, params, outer, inner)
u_k, weights, support, count = found[0]
result = admm.reduced_solve(u_k, weights, support, admm.RunState(f, params, outer.rho, inner.r))
print(json.dumps([count, hashlib.sha256(result.u.tobytes()).hexdigest()]))
"""


def test_blas_threads_do_not_change_a_reduced_attempt():
    # the 114-component second pass of two_phase_s0.05_b0.2 (acceptance
    # settings): every dense solve stays below OpenBLAS's threaded sizes
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
    (count, first), (_, second) = outputs
    assert 96 < count <= admm_module._MAX_PIECES
    assert first == second
