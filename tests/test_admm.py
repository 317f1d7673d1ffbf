import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import linearized_energy, shrink_group
from shrinkseg import (
    AdmmParams,
    ModelParams,
    PowerPotential,
    admm_solve,
    compute_symbols,
    initial_support,
    solve_uv,
    spectral_system,
)
from shrinkseg.admm import _shrink_field, _shrink_thresholds
from shrinkseg.grid import grad, grad_norms
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
        g = rng.standard_normal((2, n, n))
        zero = rng.random((n, n)) < 0.2
        g[:, zero] = 0.0
        weights = rng.uniform(0.0, 4.0, (n, n))
        weights[rng.random((n, n)) < 0.2] = 0.0
        active = rng.random((n, n)) < 0.7
        # every mix of zero norm, zero threshold and frozen must occur
        assert (zero & active & (weights == 0)).any() and (~zero & active & (weights == 0)).any()
        assert (zero & ~active).any() and (~zero & ~active).any()

        q = _shrink_field(g.copy(), _shrink_thresholds(weights, active, alpha, r))
        for i in range(n):
            for j in range(n):
                got = q[:, i, j]
                if zero[i, j] or not active[i, j]:
                    assert np.all(got == 0.0), (i, j, got)
                else:
                    z = g[:, i, j]
                    want = shrink_group(z, alpha * weights[i, j] / r)
                    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


class TestSolveUV:
    def test_matches_dense_solver(self):
        # odd n has no Nyquist column, so the half-spectrum path differs
        rng = np.random.default_rng(1)
        for n in (3, 5, 6, 7):
            for _ in range(5):
                f = rng.standard_normal((n, n))
                u_k = rng.standard_normal((n, n))
                qbar = rng.standard_normal((2, n, n))
                mu = rng.standard_normal((2, n, n))
                params = ModelParams(alpha=0.1, beta=3.0, gamma=0.2)
                system = spectral_system(f, u_k, params, 0.3, 4.0)
                pull = mu / 4.0 - qbar
                u, p_hat = solve_uv(system, pull)
                v = np.fft.irfft2(system.v_hat(p_hat), s=(n, n))
                du, dv = oracles.dense_solve_uv(f, u_k, qbar, mu, params, 0.3, 4.0)
                np.testing.assert_allclose(u, du, atol=1e-10)
                np.testing.assert_allclose(v, dv, atol=1e-10)

    def test_constant_input_yields_constant_split(self):
        n = 4
        f = np.full((n, n), 0.8)
        params = ModelParams(alpha=0.1, beta=10.0, gamma=0.5)
        system = spectral_system(f, f, params, 0.25, 1.0)
        u, p_hat = solve_uv(system, np.zeros((2, n, n)))
        v = np.fft.irfft2(system.v_hat(p_hat), s=(n, n))
        assert np.ptp(u) < 1e-12 and np.ptp(v) < 1e-12
        # stationarity of the constant mode: (1+rho)u + v = (1+rho)f,
        # u + (1+gamma)v = f
        np.testing.assert_allclose(1.25 * u + v, 1.25 * f, atol=1e-12)
        np.testing.assert_allclose(u + 1.5 * v, f, atol=1e-12)

    def test_any_scratch_layout(self):
        # D^T w lands in the scratch array; a layout it cannot flatten
        # in place is rejected, never written wrongly
        n = 6
        rng = np.random.default_rng(2)
        params = ModelParams(alpha=0.1, beta=3.0, gamma=0.2)
        f, u_k = rng.standard_normal((2, n, n))
        system = spectral_system(f, u_k, params, 0.3, 4.0)
        pull = rng.standard_normal((2, n, n))
        u, p_hat = solve_uv(system, pull)
        got_u, got_p = solve_uv(system, pull, np.full((2, n, n), np.nan))
        assert got_u.tobytes() == u.tobytes() and got_p.tobytes() == p_hat.tobytes()
        for work in (
            np.full((2, n, n), np.nan, order="F"),
            np.full((n, n, 2), np.nan).transpose(2, 0, 1),
        ):
            with pytest.raises(ValueError, match="C-contiguous"):
                solve_uv(system, pull, work)


class TestHalfSpectrumNorm:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_real_grid_norm(self, n):
        # odd n has no Nyquist column; even n must subtract it once
        x = np.random.default_rng(n).standard_normal((n, n))
        want = float(np.vdot(x, x))
        x_hat = np.fft.rfft2(x)
        got = float(np.vdot(x_hat, compute_symbols(n).weights * x_hat).real)
        assert abs(got - want) <= 1e-12 * want


class TestStoppingIdentities:
    """The spectral stopping test against the pixel-domain norms it replaces."""

    @staticmethod
    def _sweeps(n, seed):
        rng = np.random.default_rng(seed)
        params = ModelParams(alpha=0.1, beta=3.0, gamma=0.2)
        system = spectral_system(
            rng.standard_normal((n, n)), rng.standard_normal((n, n)), params, 0.3, 4.0
        )
        sweeps = []
        for _ in range(2):
            u, p_hat = solve_uv(system, rng.standard_normal((2, n, n)))
            sweeps.append((u, np.fft.irfft2(system.v_hat(p_hat), s=(n, n)), p_hat))
        return system, sweeps

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_weighted_pull_step_is_update_norm(self, n):
        system, ((u1, v1, p1), (u2, v2, p2)) = self._sweeps(n, 60 + n)
        want = float(np.vdot(u2 - u1, u2 - u1) + np.vdot(v2 - v1, v2 - v1))
        step = system.step_weight * (p2 - p1)
        got = float(np.vdot(step, step).real)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_quadratic_form_is_iterate_norm(self, n):
        system, sweeps = self._sweeps(n, 70 + n)
        for u, v, p_hat in sweeps:
            want = float(np.vdot(u, u) + np.vdot(v, v))
            offset = system.step_weight * p_hat + system.norm_offset
            got = system.norm_floor + float(np.vdot(offset, offset).real)
            assert abs(got - want) <= 1e-12 * want


def _instance(seed, n=6):
    rng = np.random.default_rng(seed)
    f = np.where(rng.random((n, n)) > 0.5, 0.85, 0.15) + 0.02 * rng.standard_normal((n, n))
    norms = grad_norms(grad(f))
    support = initial_support(norms, 0.1)
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
            AdmmParams(r=5.0, tol_in=1e-10, maxit_in=5000),
        )
        assert 1 <= result.iters < 5000
        assert grad_norms(grad(result.u))[~support.active].max() < 1e-6

    @pytest.mark.parametrize("tol_in, maxit_in", [(1e-10, 5000), (0.0, 3)])
    def test_returned_pair_satisfies_v_row(self, tol_in, maxit_in):
        # u + (1 + gamma) v + beta H^T H v = f holds exactly for the (u, v)
        # of one sweep, so it fails if v comes from another sweep than u
        f, support, weights = _instance(0)
        n = f.shape[0]
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        result = admm_solve(
            f, f, np.zeros_like(f), weights, support, params, 0.3,
            AdmmParams(r=5.0, tol_in=tol_in, maxit_in=maxit_in),
        )
        assert tol_in > 0 or result.iters == maxit_in
        hth_v = (oracles.dense_hth(n) @ result.v.ravel()).reshape(n, n)
        row = result.u + (1.0 + params.gamma) * result.v + params.beta * hth_v
        np.testing.assert_allclose(row, f, rtol=0, atol=1e-10)

    def test_improves_on_start(self):
        f, support, weights = _instance(1)
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        rho = 0.3
        start = linearized_energy(f, f, np.zeros_like(f), f, weights, support, params, rho)
        result = admm_solve(
            f, f, np.zeros_like(f), weights, support, params, rho,
            AdmmParams(r=5.0, tol_in=1e-10, maxit_in=5000),
        )
        end = linearized_energy(f, result.u, result.v, f, weights, support, params, rho)
        assert end < start

    def test_deterministic(self):
        f, support, weights = _instance(2)
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        args = (f, f, np.zeros_like(f), weights, support, params, 0.3,
                AdmmParams(r=5.0, tol_in=1e-8, maxit_in=500))
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
            AdmmParams(r=5.0, tol_in=1e-12, maxit_in=20000),
        )
        assert grad_norms(grad(result.u))[~support.active].max() < 1e-8
        assert np.ptp(result.u) < 1e-6

    @pytest.mark.parametrize("n", [5, 6, 8, 16])
    @pytest.mark.parametrize("maxit_in", [1, 2, 7])
    def test_matches_reference_loop(self, n, maxit_in):
        f, support, weights = _instance(n, n)
        rng = np.random.default_rng(80 + n)
        weights[support.active & (rng.random((n, n)) < 0.3)] = 0.0
        assert (~support.active).any() and (support.active & (weights == 0)).any()
        v_k = 0.1 * rng.standard_normal((n, n))
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        args = (f, f - v_k, v_k, weights, support, params, 0.3,
                AdmmParams(r=5.0, tol_in=0.0, maxit_in=maxit_in))
        result = admm_solve(*args)
        u, v, iters = oracles.reference_admm_solve(*args)
        assert result.iters == iters == maxit_in
        np.testing.assert_allclose(result.u, u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.v, v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [6, 9])
    @pytest.mark.parametrize("tol_in", [1e-3, 1e-5, 1e-8])
    def test_stops_with_reference_loop(self, n, tol_in):
        f, support, weights = _instance(n, n)
        v_k = 0.1 * np.random.default_rng(90 + n).standard_normal((n, n))
        args = (f, f - v_k, v_k, weights, support, ModelParams(alpha=0.2, beta=1.0, gamma=0.3),
                0.3, AdmmParams(r=5.0, tol_in=tol_in, maxit_in=5000))
        result = admm_solve(*args)
        u, v, iters = oracles.reference_admm_solve(*args)
        assert result.iters == iters < 5000
        np.testing.assert_allclose(result.u, u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.v, v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("value", [0.0, 0.7])
    @pytest.mark.parametrize("tol_in", [0.0, 1e-8])
    def test_flat_images_stop_with_reference_loop(self, value, tol_in):
        # an exactly zero update or iterate norm must stop both loops at
        # the same sweep: rounding may not turn 0 <= 0 into a capped run
        n = 8
        f = np.full((n, n), value)
        support = initial_support(grad_norms(grad(f)), 0.1)
        weights = np.zeros((n, n))
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        for v_k in (np.zeros((n, n)), np.full((n, n), 0.25)):
            args = (f, f, v_k, weights, support, params, 0.3,
                    AdmmParams(r=5.0, tol_in=tol_in, maxit_in=500))
            result = admm_solve(*args)
            _, _, iters = oracles.reference_admm_solve(*args)
            assert result.iters == iters < 500

    def test_shape_mismatch_raises(self):
        f = np.zeros((4, 4))
        with pytest.raises(ValueError):
            admm_solve(
                f, f, f, np.zeros((5, 5)), SupportSet(active=np.ones((4, 4), dtype=bool)),
                ModelParams(alpha=1, beta=1), 0.1, AdmmParams(),
            )
