import math

import numpy as np
import pytest

import oracles
from oracles import linearized_energy
from shrinkseg import ModelParams, decomposition_energy
from shrinkseg.grid import grad, grad_norms
from shrinkseg.support import SupportSet, initial_support, project_to_support


@pytest.fixture
def params():
    return ModelParams(alpha=0.3, beta=2.0, gamma=0.05)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams(alpha=1.0, beta=10.0)
        assert p.gamma == 1e-8
        assert p.p == 0.5

    @pytest.mark.parametrize("kw", [dict(alpha=0.0), dict(beta=-1.0), dict(gamma=0.0)])
    def test_rejects_nonpositive(self, kw):
        base = dict(alpha=1.0, beta=1.0)
        base.update(kw)
        with pytest.raises(ValueError):
            ModelParams(**base)


class TestDecompositionEnergy:
    def test_matches_loop_oracle(self, params):
        # the smoothness term is a Parseval sum: odd n has no Nyquist
        # column, and n = 2 has no column between the zero and Nyquist ones
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 5, 6, 7):
            f = rng.standard_normal((n, n))
            u = rng.standard_normal((n, n))
            v = rng.standard_normal((n, n))
            lib = decomposition_energy(f, u, v, params)
            ref = oracles.loop_energy(f, u, v, params)
            assert math.isclose(lib, ref, rel_tol=1e-12)

    def test_zero_at_perfect_flat_fit(self, params):
        f = np.full((4, 4), 0.7)
        u = np.full((4, 4), 0.7)
        v = np.zeros((4, 4))
        assert decomposition_energy(f, u, v, params) == 0.0

    def test_shape_mismatch_raises(self, params):
        with pytest.raises(ValueError, match=r"^grid shapes disagree: \[\(4, 4\), \(5, 5\)\]$"):
            decomposition_energy(np.zeros((4, 4)), np.zeros((5, 5)), np.zeros((4, 4)), params)
        with pytest.raises(ValueError, match="norms"):
            decomposition_energy(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), params,
                                 np.zeros((4, 5)))
        with pytest.raises(ValueError, match="v_hat"):
            decomposition_energy(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), params,
                                 v_hat=np.zeros((4, 4), dtype=complex))

    @pytest.mark.parametrize("shape", [(5, 5), (6, 9), (2, 7)])
    def test_given_norms_give_the_same_bits(self, params, shape):
        rng = np.random.default_rng(1)
        f, u, v = (rng.standard_normal(shape) for _ in range(3))
        u[rng.random(shape) < 0.4] = 0.25  # zero gradients too
        norms = grad_norms(grad(u))
        assert decomposition_energy(f, u, v, params, norms) == decomposition_energy(f, u, v, params)

    @pytest.mark.parametrize("shape", [(5, 5), (6, 9), (2, 7), (8, 4)])
    def test_given_v_hat_gives_the_same_bits(self, params, shape):
        rng = np.random.default_rng(2)
        f, u, v = (rng.standard_normal(shape) for _ in range(3))
        given = decomposition_energy(f, u, v, params, v_hat=np.fft.rfft2(v))
        assert given == decomposition_energy(f, u, v, params)

    def test_gradient_term_uses_potential(self):
        f = np.zeros((4, 4))
        u = np.zeros((4, 4))
        u[1, 1] = 1.0
        v = np.zeros((4, 4))
        a = decomposition_energy(f, u, v, ModelParams(alpha=1.0, beta=1.0, p=0.5))
        b = decomposition_energy(f, u, v, ModelParams(alpha=1.0, beta=1.0, p=0.25))
        assert a != b


class TestLinearizedEnergy:
    def _setup(self, seed=0, n=5):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((n, n))
        u_k = rng.standard_normal((n, n))
        norms = grad_norms(grad(u_k))
        support = initial_support(norms, 0.5)
        weights = np.zeros_like(f)
        on = support.active & (norms > 0)
        weights[on] = ModelParams(alpha=1.0, beta=1.0).slope(norms[on])
        return f, u_k, support, weights

    def test_manual_recompute(self, params):
        f, u_k, support, weights = self._setup()
        rng = np.random.default_rng(1)
        u = project_to_support(rng.standard_normal(f.shape), support)
        v = rng.standard_normal(f.shape)
        rho = 0.2
        got = linearized_energy(f, u, v, u_k, weights, support, params, rho)

        norms = grad_norms(grad(u))
        # loop_energy with zero f and u reduces to the v terms plus a
        # spurious 0.5|v|^2 fidelity, subtracted back out
        v_terms = oracles.loop_energy(
            np.zeros_like(f), np.zeros_like(f), v,
            ModelParams(alpha=1.0, beta=params.beta, gamma=params.gamma),
        ) - 0.5 * np.sum(v * v)
        expected = (
            0.5 * np.sum((f - u - v) ** 2)
            + params.alpha * np.sum(weights[support.active] * norms[support.active])
            + 0.5 * rho * np.sum((u - u_k) ** 2)
            + v_terms
        )
        assert math.isclose(got, float(expected), rel_tol=1e-12)

    def test_feasibility_gate(self, params):
        f, u_k, support, weights = self._setup(seed=2)
        rng = np.random.default_rng(3)
        u_bad = rng.standard_normal(f.shape)  # frozen gradients nonzero
        v = np.zeros_like(f)
        assert linearized_energy(f, u_bad, v, u_k, weights, support, params, 0.1, feas_tol=1e-12) == math.inf
        u_good = project_to_support(u_bad, support)
        val = linearized_energy(f, u_good, v, u_k, weights, support, params, 0.1, feas_tol=1e-12)
        assert math.isfinite(val)

    def test_tangent_majorizes_energy_difference(self, params):
        # for feasible u, the surrogate dominates the true objective up
        # to the constant that makes them touch at the expansion point
        f, u_k, support, weights = self._setup(seed=4)
        u_k = project_to_support(u_k, support)
        norms_k = grad_norms(grad(u_k))
        offset = params.alpha * float(
            np.sum(params.potential(norms_k[support.active]))
            - np.sum(weights[support.active] * norms_k[support.active])
        )
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = project_to_support(u_k + 0.3 * rng.standard_normal(f.shape), support)
            v = rng.standard_normal(f.shape)
            surrogate = linearized_energy(f, u, v, u_k, weights, support, params, rho=1e-8)
            truth = decomposition_energy(f, u, v, params)
            assert truth <= surrogate + offset + 1e-9 * max(1.0, abs(truth))


@pytest.mark.parametrize("shape", oracles.RECT_SHAPES)
def test_energy_matches_loop_oracle_on_rectangular_grids(params, shape):
    rng = np.random.default_rng(10 * shape[0] + shape[1])
    f, u, v = rng.standard_normal((3, *shape))
    lib = decomposition_energy(f, u, v, params)
    assert math.isclose(lib, oracles.loop_energy(f, u, v, params), rel_tol=1e-12)
