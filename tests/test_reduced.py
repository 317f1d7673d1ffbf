"""The reduced pass solve against ADMM, and the tie labels it shares."""

import importlib

import numpy as np
import pytest

import oracles
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


def _pass_energy(args, u, v):
    f, u_k, _, weights, support, params, rho, _ = args
    return linearized_energy(f, u, v, u_k, weights, support, params, rho)


def _check_against_admm(args):
    """reduced_solve's result, asserted to match admm_solve at tol_in =
    1e-12 when it is certified; None when it declines."""
    reduced = reduced_solve(*args)
    if reduced is None:
        return None
    assert reduced.iters == 0
    exact = admm_solve(*args)
    assert exact.iters < EXACT.maxit_in
    np.testing.assert_allclose(reduced.u, exact.u, rtol=0, atol=1e-7)
    np.testing.assert_allclose(reduced.v, exact.v, rtol=0, atol=1e-7)
    mine, theirs = _pass_energy(args, reduced.u, reduced.v), _pass_energy(args, exact.u, exact.v)
    assert mine <= theirs + 1e-10 * abs(theirs)
    return reduced


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
        assert all(reduced_solve(*_instance(*case)) is not None for case in INSTANCES)

    def test_u_is_constant_on_the_tie_components(self):
        args = _instance(3, (8, 8))
        reduced = _check_against_admm(args)
        basis = oracles.tie_components(~args[4].active)
        assert basis.shape[1] > 5
        for column in basis.T:
            assert np.ptp(reduced.u.ravel()[column == 1]) == 0.0

    def test_reruns_are_bitwise_equal(self):
        args = _instance(4, (7, 9))
        first = reduced_solve(*args)
        assert first is not None
        admm_module._pieces.cache_clear()
        admm_module._smooth.cache_clear()
        second = reduced_solve(*args)
        third = reduced_solve(*args)  # from the cached pieces
        for other in (second, third):
            assert other.u.tobytes() == first.u.tobytes()
            assert other.v.tobytes() == first.v.tobytes()

    def test_shape_mismatch_raises(self):
        f, u_k, v_k, weights, support, params, rho, admm = _instance(0, (6, 6))
        with pytest.raises(ValueError):
            reduced_solve(f, u_k, v_k, weights[:5], support, params, rho, admm)

    def test_too_many_components_declines(self):
        args = _instance(5, (8, 8))
        count = oracles.tie_components(~args[4].active).shape[1]
        assert count == 13
        assert reduced_solve(*args, max_pieces=count) is not None
        assert reduced_solve(*args, max_pieces=count - 1) is None


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
        # with no Newton steps to spend, no pass certifies
        monkeypatch.setattr(admm_module, "_NEWTON_STEPS", 0)
        module = importlib.import_module("shrinkseg.decompose")
        original = module.admm_solve
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "admm_solve", counted)
        spec = PhantomSpec(n=16, phase_values=(0.3, 0.8),
                           shapes=(Disk(row=8, col=8, radius=4, phase=2),),
                           noise_sigma=0.02, composition="additive", seed=11)
        result = decompose(generate(spec).f, ModelParams(alpha=0.1, beta=100.0),
                           OuterParams(tau_supp=1e-3), AdmmParams(tol_in=1e-8, maxit_in=500))
        assert result.reduced_solves == 0
        assert len(calls) == result.outer_iters > 1
        assert np.all(result.trace.column("inner_iters")[:-1] > 0)


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


class TestDecomposeTries:
    def test_reduced_passes_cost_no_more_than_the_last_admm_solve(self, monkeypatch):
        # building the reduced system takes one transform pair per
        # component, an ADMM sweep one pair
        module = importlib.import_module("shrinkseg.decompose")
        calls = []
        for name in ("admm_solve", "reduced_solve"):

            def wrapped(*args, _original=getattr(module, name), _name=name, **kwargs):
                result = _original(*args, **kwargs)
                calls.append((_name, args, kwargs, result))
                return result

            monkeypatch.setattr(module, name, wrapped)
        spec = PhantomSpec(n=16, phase_values=(0.3, 0.8),
                           shapes=(Disk(row=8, col=8, radius=4, phase=2),),
                           noise_sigma=0.02, composition="additive", seed=11)
        result = decompose(generate(spec).f, ModelParams(alpha=0.1, beta=100.0),
                           OuterParams(tau_supp=1e-3), AdmmParams(tol_in=1e-8, maxit_in=500))
        assert calls[0][0] == "admm_solve"  # the first pass has no sweeps to compare
        assert result.reduced_solves > 0
        last = None
        for name, args, kwargs, out in calls:
            if name == "admm_solve":
                last = out.iters
                continue
            assert kwargs["max_pieces"] == last
            count = oracles.tie_components(~args[4].active).shape[1]
            assert (out is None) or count <= last
