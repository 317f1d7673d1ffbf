import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shrinkseg import (
    AdmmParams,
    ModelParams,
    PowerPotential,
    admm_solve,
    compute_symbols,
    initial_support,
    linearized_energy,
    shrink_group,
    solve_uv,
    spectral_system,
)
from shrinkseg.admm import _shrink_field, _shrink_thresholds
from shrinkseg.grid import GradientField, OperatorSymbols, grad, grad_norms
from shrinkseg.support import SupportSet


class TestShrinkGroup:
    def test_known_values(self):
        np.testing.assert_allclose(shrink_group(np.array([2.0, 0.0]), 0.5), [1.5, 0.0])
        np.testing.assert_allclose(shrink_group(np.array([0.3, 0.4]), 0.5), [0.0, 0.0])
        np.testing.assert_allclose(shrink_group(np.array([0.0, 0.0]), 0.5), [0.0, 0.0])

    def test_threshold_zero_is_identity(self):
        z = np.array([0.7, -1.2])
        np.testing.assert_allclose(shrink_group(z, 0.0), z)

    @settings(max_examples=100, deadline=None)
    @given(
        zx=st.floats(-3, 3), zy=st.floats(-3, 3), threshold=st.floats(0, 2)
    )
    def test_optimality_against_nearby_points(self, zx, zy, threshold):
        z = np.array([zx, zy])
        q = shrink_group(z, threshold)
        base = oracles.shrink_objective(q, z, threshold)
        rng = np.random.default_rng(0)
        for _ in range(10):
            other = q + rng.uniform(-0.05, 0.05, 2)
            assert base <= oracles.shrink_objective(other, z, threshold) + 1e-12

    def test_direction_preserved(self):
        z = np.array([3.0, 4.0])
        q = shrink_group(z, 1.0)
        np.testing.assert_allclose(q / np.linalg.norm(q), z / np.linalg.norm(z))
        assert np.linalg.norm(q) == pytest.approx(4.0)


class TestAdmmParams:
    @pytest.mark.parametrize(
        "kw", [dict(r=0.0), dict(r=-1.0), dict(tol_in=-1e-9), dict(maxit_in=0)]
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            AdmmParams(**kw)


class TestShrinkField:
    def test_matches_scalar_shrink_pixelwise(self):
        rng = np.random.default_rng(5)
        n, alpha, r = 12, 0.3, 2.0
        g = GradientField(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        zero = rng.random((n, n)) < 0.2
        g.dx[zero] = 0.0
        g.dy[zero] = 0.0
        weights = rng.uniform(0.0, 4.0, (n, n))
        weights[rng.random((n, n)) < 0.2] = 0.0
        active = rng.random((n, n)) < 0.7
        # every mix of zero norm, zero threshold and frozen must occur
        assert (zero & active & (weights == 0)).any() and (~zero & active & (weights == 0)).any()
        assert (zero & ~active).any() and (~zero & ~active).any()

        q = _shrink_field(g, _shrink_thresholds(weights, active, alpha, r))
        for i in range(n):
            for j in range(n):
                got = np.array([q.dx[i, j], q.dy[i, j]])
                if zero[i, j] or not active[i, j]:
                    assert np.all(got == 0.0), (i, j, got)
                else:
                    z = np.array([g.dx[i, j], g.dy[i, j]])
                    want = shrink_group(z, alpha * weights[i, j] / r)
                    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


class TestSolveUV:
    def test_matches_dense_solver(self):
        # odd n has no Nyquist column, so the half-spectrum path differs
        rng = np.random.default_rng(1)
        for n in (3, 5, 6, 7):
            symbols = compute_symbols(n)
            for _ in range(5):
                f = rng.standard_normal((n, n))
                u_k = rng.standard_normal((n, n))
                qbar = GradientField(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
                mu = GradientField(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
                params = ModelParams(alpha=0.1, beta=3.0, gamma=0.2)
                system = spectral_system(f, u_k, symbols, params, 0.3, 4.0)
                u, v = solve_uv(system, qbar, mu)
                du, dv = oracles.dense_solve_uv(f, u_k, qbar, mu, params, 0.3, 4.0)
                np.testing.assert_allclose(u, du, atol=1e-10)
                np.testing.assert_allclose(v, dv, atol=1e-10)

    def test_constant_input_yields_constant_split(self):
        n = 4
        f = np.full((n, n), 0.8)
        zero = GradientField(np.zeros((n, n)), np.zeros((n, n)))
        params = ModelParams(alpha=0.1, beta=10.0, gamma=0.5)
        u, v = solve_uv(spectral_system(f, f, compute_symbols(n), params, 0.25, 1.0), zero, zero)
        assert np.ptp(u) < 1e-12 and np.ptp(v) < 1e-12
        # stationarity of the constant mode: (1+rho)u + v = (1+rho)f,
        # u + (1+gamma)v = f
        np.testing.assert_allclose(1.25 * u + v, 1.25 * f, atol=1e-12)
        np.testing.assert_allclose(u + 1.5 * v, f, atol=1e-12)

    def test_symbol_size_mismatch_raises(self):
        f = np.zeros((4, 4))
        with pytest.raises(ValueError):
            spectral_system(f, f, compute_symbols(8), ModelParams(alpha=1, beta=1), 0.1, 1.0)

    def test_asymmetric_symbol_raises(self):
        n = 6
        good = compute_symbols(n)
        dtd = good.dtd.copy()
        dtd[1, 2] += 1e-3
        bad = OperatorSymbols(n=n, dtd=dtd, hth=good.hth)
        f = np.zeros((n, n))
        with pytest.raises(FloatingPointError, match="Hermitian"):
            spectral_system(f, f, bad, ModelParams(alpha=1, beta=1), 0.1, 1.0)


def _instance(seed, n=6):
    rng = np.random.default_rng(seed)
    f = np.where(rng.random((n, n)) > 0.5, 0.85, 0.15) + 0.02 * rng.standard_normal((n, n))
    support = initial_support(f, 0.1)
    norms = grad_norms(grad(f))
    weights = np.zeros_like(f)
    on = support.active & (norms > 0)
    weights[on] = PowerPotential().deriv(norms[on])
    return f, support, weights


class TestAdmmSolve:
    def test_converges_and_reports_iterations(self):
        f, support, weights = _instance(0)
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        result = admm_solve(
            f, f, np.zeros_like(f), weights, support, params, 0.3,
            AdmmParams(r=5.0, tol_in=1e-10, maxit_in=5000), compute_symbols(f.shape[0]),
        )
        assert 1 <= result.iters < 5000
        assert result.constraint_sup < 1e-6
        assert len(result.primal_residuals) == result.iters

    def test_improves_on_start(self):
        f, support, weights = _instance(1)
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        rho = 0.3
        start = linearized_energy(f, f, np.zeros_like(f), f, weights, support, params, rho)
        result = admm_solve(
            f, f, np.zeros_like(f), weights, support, params, rho,
            AdmmParams(r=5.0, tol_in=1e-10, maxit_in=5000), compute_symbols(f.shape[0]),
        )
        end = linearized_energy(f, result.u, result.v, f, weights, support, params, rho)
        assert end < start

    def test_deterministic(self):
        f, support, weights = _instance(2)
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        args = (f, f, np.zeros_like(f), weights, support, params, 0.3,
                AdmmParams(r=5.0, tol_in=1e-8, maxit_in=500), compute_symbols(f.shape[0]))
        a = admm_solve(*args)
        b = admm_solve(*args)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.v.tobytes() == b.v.tobytes()

    def test_frozen_gradients_suppressed(self):
        # with everything frozen the minimizer is a constant plane fit
        f, _, _ = _instance(3)
        support = SupportSet(active=np.zeros_like(f, dtype=bool))
        weights = np.zeros_like(f)
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        result = admm_solve(
            f, f, np.zeros_like(f), weights, support, params, 0.3,
            AdmmParams(r=5.0, tol_in=1e-12, maxit_in=20000), compute_symbols(f.shape[0]),
        )
        assert result.constraint_sup < 1e-8
        assert np.ptp(result.u) < 1e-6

    def test_shape_mismatch_raises(self):
        f = np.zeros((4, 4))
        with pytest.raises(ValueError):
            admm_solve(
                f, f, f, np.zeros((5, 5)), SupportSet(active=np.ones((4, 4), dtype=bool)),
                ModelParams(alpha=1, beta=1), 0.1, AdmmParams(), compute_symbols(4),
            )
