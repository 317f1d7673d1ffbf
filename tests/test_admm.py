import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import linearized_energy, shrink_group
from shrinkseg import AdmmParams, ModelParams
from shrinkseg import admm as admm_module
from shrinkseg.admm import (
    RunState,
    _Mixer,
    _shrink_field,
    _shrink_thresholds,
    admm_solve,
    solve_uv,
)
from shrinkseg.grid import compute_symbols, grad, grad_norms
from shrinkseg.reduced import ReducedCache, reduced_solve
from shrinkseg.support import SupportSet, initial_support


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

    @pytest.mark.parametrize("cap", [3.5, 3.0, True, "3", None])
    def test_non_integer_cap_raises(self, cap):
        with pytest.raises(ValueError, match="maxit_in must be an integer"):
            AdmmParams(maxit_in=cap)

    def test_numpy_integer_cap_is_accepted(self):
        assert AdmmParams(maxit_in=np.int64(3)).maxit_in == 3


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
                system = RunState(f, params, 0.3, 4.0).start(u_k, np.zeros_like(f))
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
        system = RunState(f, params, 0.25, 1.0).start(f, np.zeros_like(f))
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
        system = RunState(f, params, 0.3, 4.0).start(u_k, np.zeros_like(f))
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
        got = float(np.vdot(x_hat, compute_symbols((n, n)).weights * x_hat).real)
        assert abs(got - want) <= 1e-12 * want


class TestStoppingIdentities:
    """The spectral stopping test against the pixel-domain norms it replaces."""

    @staticmethod
    def _sweeps(shape, seed):
        """A system with the distance form from (u_k, v_k), that start,
        and two sweeps from random pulls."""
        rng = np.random.default_rng(seed)
        params = ModelParams(alpha=0.1, beta=3.0, gamma=0.2)
        f, u_k, v_k = rng.standard_normal((3, *shape))
        system = RunState(f, params, 0.3, 4.0).start(u_k, v_k)
        sweeps = []
        for _ in range(2):
            u, p_hat = solve_uv(system, rng.standard_normal((2, *shape)))
            sweeps.append((u, np.fft.irfft2(system.v_hat(p_hat), s=shape), p_hat))
        return system, (u_k, v_k), sweeps

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_weighted_pull_step_is_update_norm(self, n):
        system, _, ((u1, v1, p1), (u2, v2, p2)) = self._sweeps((n, n), 60 + n)
        want = float(np.vdot(u2 - u1, u2 - u1) + np.vdot(v2 - v1, v2 - v1))
        step = system.step_weight * (p2 - p1)
        got = float(np.vdot(step, step).real)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_quadratic_form_is_iterate_norm(self, n):
        system, _, sweeps = self._sweeps((n, n), 70 + n)
        for u, v, p_hat in sweeps:
            want = float(np.vdot(u, u) + np.vdot(v, v))
            offset = system.step_weight * p_hat + system.norm_offset
            got = system.norm_floor + float(np.vdot(offset, offset).real)
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize(
        "shape",
        [pytest.param((n, n), id=str(n)) for n in range(3, 9)]
        + [pytest.param(shape, id="x".join(map(str, shape))) for shape in oracles.RECT_SHAPES],
    )
    def test_distance_form_is_move_from_start(self, shape):
        seed = 75 + shape[0] + 10 * (shape[1] - shape[0])
        system, (u_k, v_k), sweeps = self._sweeps(shape, seed)
        for u, v, p_hat in sweeps:
            want = float(np.vdot(u - u_k, u - u_k) + np.vdot(v - v_k, v - v_k))
            offset = system.step_weight * p_hat + system.move_offset
            got = system.move_floor + float(np.vdot(offset, offset).real)
            assert abs(got - want) <= 1e-12 * want

        # admm_solve takes this distance as its first sweep's update: the
        # first sweep, formed here in pixels, stops a solve at tol_in and
        # a loose one exactly when its relative update meets tol
        f, support, weights = _instance(seed, *shape)
        v_k = 0.1 * np.random.default_rng(seed).standard_normal(shape)
        u_k = f - v_k
        params, rho, r = ModelParams(alpha=0.2, beta=1.0, gamma=0.3), 0.3, 5.0
        thresholds = _shrink_thresholds(weights, support.active, params.alpha, r)
        pull = -_shrink_field(grad(u_k), thresholds)
        system = RunState(f, params, rho, r).start(u_k, v_k)
        u, p_hat = solve_uv(system, pull)
        v = np.fft.irfft2(system.v_hat(p_hat), s=shape)
        update = math.sqrt(float(np.vdot(u - u_k, u - u_k) + np.vdot(v - v_k, v - v_k)))
        ratio = update / math.sqrt(float(np.vdot(u_k, u_k) + np.vdot(v_k, v_k)))
        args = (f, u_k, v_k, weights, support, params, rho)
        for tol, iters in ((ratio * (1 + 1e-9), 1), (ratio * (1 - 1e-9), 2)):
            exact = admm_solve(*args, AdmmParams(r=r, tol_in=tol, maxit_in=2))
            loose = admm_solve(*args, AdmmParams(r=r, tol_in=tol / 10, maxit_in=2), tol=tol)
            assert exact.iters == loose.iters == iters
            if iters == 1:
                np.testing.assert_allclose(exact.u, u, rtol=0, atol=1e-12)
                np.testing.assert_allclose(exact.v, v, rtol=0, atol=1e-12)

    def test_start_leaves_the_other_fields_alone(self):
        rng = np.random.default_rng(5)
        f, u_k, v_k = rng.standard_normal((3, 6, 7))
        params = ModelParams(alpha=0.1, beta=3.0, gamma=0.2)
        zero = RunState(f, params, 0.3, 4.0).start(u_k, np.zeros_like(v_k))
        system = RunState(f, params, 0.3, 4.0).start(u_k, v_k)
        for name in ("u0_hat", "v0_hat", "u_pull", "v_pull", "step_weight", "norm_offset"):
            assert getattr(system, name).tobytes() == getattr(zero, name).tobytes()
        assert system.norm_floor == zero.norm_floor
        assert system.move_offset.tobytes() != zero.move_offset.tobytes()
        with pytest.raises(ValueError):
            system.start(u_k, v_k[:, :6])


class TestRunState:
    """The run state against a one-pass build, and its use by admm_solve."""

    SETTINGS = [
        (ModelParams(alpha=0.1, beta=3.0, gamma=0.2), 0.3, 4.0),
        (ModelParams(alpha=0.05, beta=100.0), 1e-8, 10.0),
    ]

    @pytest.mark.parametrize("shape", [(6, 9), (5, 7), (8, 8)])
    @pytest.mark.parametrize("setting", [0, 1])
    def test_start_matches_the_reference_bitwise(self, shape, setting):
        # 6 x 9 and 5 x 7 hold n m that are not powers of two, where
        # u_pull / (n m) and u_pull * (1 / (n m)) differ in the last bits
        params, rho, r = self.SETTINGS[setting]
        rng = np.random.default_rng(shape)
        f, u_k, v_k = rng.standard_normal((3, *shape))
        state = RunState(f, params, rho, r)
        state.start(*rng.standard_normal((2, *shape)))  # an earlier pass start
        assert state.start(u_k, v_k) is state
        for name, want in oracles.spectral_system(f, u_k, v_k, params, rho, r).items():
            got = getattr(state, name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            else:
                assert got == want, name

    @pytest.mark.parametrize("tol", [None, 1e-4])
    def test_a_given_state_solves_as_a_built_one(self, tol):
        f, support, weights = _instance(4, 6, 9)
        v_k = 0.1 * np.random.default_rng(4).standard_normal(f.shape)
        params, rho, r = self.SETTINGS[0]
        args = (f, f - v_k, v_k, weights, support, params, rho,
                AdmmParams(r=r, tol_in=1e-8, maxit_in=500))
        state = RunState(f, params, rho, r).start(f, np.zeros_like(f))  # another pass start
        want = admm_solve(*args, tol=tol)
        got = admm_solve(*args, tol=tol, state=state)
        assert got.iters == want.iters < 500
        for name in ("u", "v", "lam"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("change", ["params", "rho", "r", "shape", "f"])
    def test_a_state_for_another_problem_raises(self, change):
        f, support, weights = _instance(4, 6)
        params, rho, r = self.SETTINGS[0]
        state = RunState(
            {"shape": f[:, :5], "f": f + 1.0}.get(change, f),
            ModelParams(alpha=0.1, beta=3.0, gamma=0.3) if change == "params" else params,
            0.31 if change == "rho" else rho,
            4.5 if change == "r" else r,
        )
        with pytest.raises(ValueError, match="state"):
            admm_solve(f, f, np.zeros_like(f), weights, support, params, rho,
                       AdmmParams(r=r), state=state)


class TestNonFiniteInputs:
    """A non-finite dual start or weight is rejected before any sweep."""

    @staticmethod
    def _args():
        f, support, weights = _instance(0, 8)
        return (f, f, np.zeros_like(f), weights, support,
                ModelParams(alpha=0.2, beta=1.0, gamma=0.3), 0.3, AdmmParams(r=5.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lam0_raises(self, bad):
        lam0 = np.zeros((2, 8, 8))
        lam0[1, 3, 4] = bad
        with pytest.raises(ValueError, match="lam0"):
            admm_solve(*self._args(), lam0=lam0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_weights_raise(self, bad):
        f, u_k, v_k, weights, support, params, rho, admm = self._args()
        weights = weights.copy()
        weights[np.unravel_index(np.flatnonzero(support.active)[0], f.shape)] = bad
        with pytest.raises(ValueError, match="weights"):
            admm_solve(f, u_k, v_k, weights, support, params, rho, admm)
        with pytest.raises(ValueError, match="weights"):
            reduced_solve(u_k, weights, support, ReducedCache(f, params, rho, admm.r))


def _instance(seed, n=6, m=None):
    """An n x m two-level image (m defaults to n), its support and weights."""
    shape = (n, n if m is None else m)
    rng = np.random.default_rng(seed)
    f = np.where(rng.random(shape) > 0.5, 0.85, 0.15) + 0.02 * rng.standard_normal(shape)
    norms = grad_norms(grad(f))
    support = initial_support(norms, 0.1)
    weights = np.zeros_like(f)
    on = support.active & (norms > 0)
    weights[on] = ModelParams(alpha=1.0, beta=1.0).slope(norms[on])
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
        with pytest.raises(ValueError, match="u_k and v_k"):
            admm_solve(
                f, np.zeros((5, 5)), f, f, SupportSet(active=np.ones((4, 4), dtype=bool)),
                ModelParams(alpha=1, beta=1), 0.1, AdmmParams(),
            )


class TestWarmDuals:
    """admm_solve started from a given scaled dual lam0."""

    PARAMS = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)

    def _args(self, seed, n, tol_in=1e-10, maxit_in=5000):
        f, support, weights = _instance(seed, n)
        return (f, f, np.zeros_like(f), weights, support, self.PARAMS, 0.3,
                AdmmParams(r=5.0, tol_in=tol_in, maxit_in=maxit_in))

    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("maxit_in", [1, 2, 12])
    def test_matches_reference_loop(self, n, maxit_in):
        # 12 sweeps include one mixed sweep
        args = self._args(n, n, tol_in=0.0, maxit_in=maxit_in)
        lam0 = 0.5 * np.random.default_rng(n).standard_normal((2, n, n))
        result = admm_solve(*args, lam0=lam0)
        u, v, iters = oracles.reference_admm_solve(*args, lam0=lam0)
        assert result.iters == iters == maxit_in
        np.testing.assert_allclose(result.u, u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.v, v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_reaches_the_cold_objective(self, seed):
        # criterion 4's gap: the dual start changes the path, not the minimizer
        args = self._args(seed, 6)
        f, u_k, _, weights, support, params, rho, admm = args
        cold = admm_solve(*args)
        lam0 = np.random.default_rng(seed).standard_normal((2, 6, 6))
        warm = admm_solve(*args, lam0=lam0)
        assert cold.iters < admm.maxit_in and warm.iters < admm.maxit_in
        g_cold = linearized_energy(f, cold.u, cold.v, u_k, weights, support, params, rho)
        g_warm = linearized_energy(f, warm.u, warm.v, u_k, weights, support, params, rho)
        assert abs(g_warm - g_cold) <= 1e-5 * abs(g_cold)

    def test_zero_dual_is_the_cold_start_and_lam0_is_not_written(self):
        args = self._args(2, 7, tol_in=1e-8, maxit_in=500)
        cold = admm_solve(*args)
        zeros = np.zeros((2, 7, 7))
        warm = admm_solve(*args, lam0=zeros)
        assert warm.u.tobytes() == cold.u.tobytes()
        assert warm.v.tobytes() == cold.v.tobytes()
        assert warm.lam.tobytes() == cold.lam.tobytes()
        assert not zeros.any()
        assert cold.lam.shape == (2, 7, 7)

    def test_wrong_shape_raises(self):
        args = self._args(0, 6)
        with pytest.raises(ValueError, match="lam0"):
            admm_solve(*args, lam0=np.zeros((6, 6)))


class TestGatheredShrink:
    """The active-pixel shrink against the dense one, on both sides of the switch."""

    N = 8
    BOUNDARY = math.ceil(admm_module._GATHER_BELOW * N * N)  # fewest dense-path actives
    COUNTS = {"none": 0, "one": 1, "below": BOUNDARY - 1, "above": BOUNDARY,
              "all": N * N, "zero_weight": 12}

    def _args(self, case, tol_in, maxit_in):
        n, count = self.N, self.COUNTS[case]
        rng = np.random.default_rng(count)
        f = np.where(rng.random((n, n)) > 0.5, 0.85, 0.15) + 0.02 * rng.standard_normal((n, n))
        active = np.zeros(n * n, dtype=bool)
        active[rng.choice(n * n, count, replace=False)] = True
        active = active.reshape(n, n)
        weights = np.where(active, rng.uniform(0.2, 2.0, (n, n)), 0.0)
        if case == "zero_weight":  # their thresholds are floored at _TINY
            rows, cols = np.nonzero(active)
            weights[rows[::2], cols[::2]] = 0.0
            assert (active & (weights == 0)).sum() == 6
        v_k = 0.1 * rng.standard_normal((n, n))
        return (f, f - v_k, v_k, weights, SupportSet(active=active),
                ModelParams(alpha=0.2, beta=1.0, gamma=0.3), 0.3,
                AdmmParams(r=5.0, tol_in=tol_in, maxit_in=maxit_in))

    @pytest.mark.parametrize("case", list(COUNTS))
    @pytest.mark.parametrize("tol_in, maxit_in", [(0.0, 1), (0.0, 7), (1e-8, 5000)])
    def test_paths_agree_bytewise(self, monkeypatch, case, tol_in, maxit_in):
        args = self._args(case, tol_in, maxit_in)
        results = []
        for below in (0.0, 2.0):  # never gather, then always gather
            monkeypatch.setattr(admm_module, "_GATHER_BELOW", below)
            results.append(admm_solve(*args))
        dense, gathered = results
        assert gathered.iters == dense.iters and (tol_in > 0 or dense.iters == maxit_in)
        assert dense.iters < 5000
        assert gathered.u.tobytes() == dense.u.tobytes()
        assert gathered.v.tobytes() == dense.v.tobytes()

    @pytest.mark.parametrize("case, shrunk", [("below", (2, BOUNDARY - 1)), ("above", (2, N, N))])
    def test_switch_side(self, monkeypatch, case, shrunk):
        shapes = []

        def spy(g, thresholds, work=None):
            shapes.append(g.shape)
            return _shrink_field(g, thresholds, work)

        monkeypatch.setattr(admm_module, "_shrink_field", spy)
        admm_solve(*self._args(case, 0.0, 2))
        assert shapes == [shrunk, shrunk]


class TestRectangularGrids:
    """n x m grids with n != m against the dense solve and the reference loop."""

    @pytest.mark.parametrize("shape", oracles.RECT_SHAPES)
    def test_solve_uv_matches_dense_solver(self, shape):
        rng = np.random.default_rng(300 + 10 * shape[0] + shape[1])
        f, u_k = rng.standard_normal((2, *shape))
        qbar, mu = rng.standard_normal((2, 2, *shape))
        params = ModelParams(alpha=0.1, beta=3.0, gamma=0.2)
        system = RunState(f, params, 0.3, 4.0).start(u_k, np.zeros_like(f))
        assert system.shape == shape
        u, p_hat = solve_uv(system, mu / 4.0 - qbar)
        v = np.fft.irfft2(system.v_hat(p_hat), s=shape)
        du, dv = oracles.dense_solve_uv(f, u_k, qbar, mu, params, 0.3, 4.0)
        np.testing.assert_allclose(u, du, rtol=0, atol=1e-10)
        np.testing.assert_allclose(v, dv, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", oracles.RECT_SHAPES)
    @pytest.mark.parametrize("tol_in, maxit_in", [(0.0, 7), (1e-8, 5000)])
    def test_matches_reference_loop(self, shape, tol_in, maxit_in):
        f, support, weights = _instance(10 * shape[0] + shape[1], *shape)
        v_k = 0.1 * np.random.default_rng(shape).standard_normal(shape)
        args = (f, f - v_k, v_k, weights, support, ModelParams(alpha=0.2, beta=1.0, gamma=0.3),
                0.3, AdmmParams(r=5.0, tol_in=tol_in, maxit_in=maxit_in))
        result = admm_solve(*args)
        u, v, iters = oracles.reference_admm_solve(*args)
        assert result.iters == iters and (tol_in > 0 or iters == maxit_in)
        assert iters < 5000
        assert result.u.shape == result.v.shape == shape
        np.testing.assert_allclose(result.u, u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.v, v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(6, 10), (9, 4)])
    def test_gathered_shrink_agrees_bytewise(self, monkeypatch, shape):
        # the gathered ids of the second field component start at n * m
        rng = np.random.default_rng(shape)
        f = rng.standard_normal(shape)
        active = rng.random(shape) < 0.3
        weights = np.where(active, rng.uniform(0.2, 2.0, shape), 0.0)
        args = (f, f, np.zeros(shape), weights, SupportSet(active=active),
                ModelParams(alpha=0.2, beta=1.0, gamma=0.3), 0.3,
                AdmmParams(r=5.0, tol_in=1e-8, maxit_in=5000))
        results = []
        for below in (0.0, 2.0):  # never gather, then always gather
            monkeypatch.setattr(admm_module, "_GATHER_BELOW", below)
            results.append(admm_solve(*args))
        dense, gathered = results
        assert gathered.iters == dense.iters < 5000
        assert gathered.u.tobytes() == dense.u.tobytes()
        assert gathered.v.tobytes() == dense.v.tobytes()


class TestAndersonMixing:
    """The periodic mixing of the pull, alone and inside admm_solve."""

    @staticmethod
    def _feed(mixer, pulls):
        """Start at pulls[0], end a block at each later pull; the flags."""
        mixer.start(pulls[0])
        work = np.empty_like(pulls[0])
        return [mixer.end_block(w, work) for w in pulls[1:]]

    def test_affine_map_mixes_to_its_fixed_point(self):
        # on a 1 x 1 grid the pull has two entries, so two differences of
        # an affine contraction's residuals span the plane: the mix lands
        # on the fixed point
        rng = np.random.default_rng(0)
        a = np.array([[0.6, 0.3], [-0.2, 0.7]])
        b = rng.standard_normal(2)
        fixed = np.linalg.solve(np.eye(2) - a, b)
        mixer = _Mixer((1, 1))
        w = rng.standard_normal((2, 1, 1))
        mixer.start(w)
        work = np.empty_like(w)
        flags = []
        for _ in range(3):
            w = (a @ w.ravel() + b).reshape(2, 1, 1)
            flags.append(mixer.end_block(w, work))
        assert flags == [False, False, True]
        np.testing.assert_allclose(w.ravel(), fixed, rtol=0, atol=1e-12)

    def test_zero_residuals_never_mix(self):
        # a pull that does not move leaves zero differences: the system is
        # singular, the history restarts, and nothing divides by zero. (A
        # flat image's solve stops by its second sweep, before any block
        # ends: test_flat_images_stop_with_reference_loop.)
        w = np.full((2, 3, 4), 0.5)
        with np.errstate(all="raise"):
            flags = self._feed(_Mixer((3, 4)), [w.copy() for _ in range(6)])
        assert flags == [False] * 5

    def test_growing_residual_restarts_history(self):
        rng = np.random.default_rng(1)
        steps = [1.0, 0.5, 2.0, 1.0, 0.5, 0.25]  # the third block's residual grows
        pulls = [np.zeros((2, 3, 3))]
        for size in steps:
            step = rng.standard_normal((2, 3, 3))
            pulls.append(pulls[-1] + size * step / np.linalg.norm(step))
        flags = self._feed(_Mixer((3, 3)), pulls)
        # two blocks of history again before the next mix
        assert flags == [False, False, False, False, True, True]

    def test_forced_safeguard_falls_back_to_plain_sweeps(self, monkeypatch):
        # every 2x2 system counts as near singular: the history drops at
        # each block and the solve runs the plain sweeps bit for bit
        f, support, weights = _instance(9)
        args = (f, f, np.zeros_like(f), weights, support, ModelParams(alpha=0.2, beta=1.0, gamma=0.3),
                0.3, AdmmParams(r=5.0, tol_in=1e-8, maxit_in=5000))
        monkeypatch.setattr(admm_module, "_SINGULAR", 2.0)
        guarded = admm_solve(*args)
        monkeypatch.setattr(admm_module, "_MIX_EVERY", 10**9)
        plain = admm_solve(*args)
        monkeypatch.undo()
        assert guarded.iters == plain.iters > admm_solve(*args).iters
        assert guarded.u.tobytes() == plain.u.tobytes()
        assert guarded.v.tobytes() == plain.v.tobytes()

    @pytest.mark.parametrize("period, n, tol_in", [(2, 5, 1e-2), (4, 8, 1e-3)])
    def test_never_stops_on_a_mixed_sweep(self, monkeypatch, period, n, tol_in):
        # at these loose tolerances a mixed sweep moves (u, v) by less than
        # tol: a solve that stopped there would end sweeps before the
        # reference loop
        monkeypatch.setattr(admm_module, "_MIX_EVERY", period)
        f, support, weights = _instance(n, n)
        v_k = 0.1 * np.random.default_rng(90 + n).standard_normal((n, n))
        args = (f, f - v_k, v_k, weights, support, ModelParams(alpha=0.2, beta=1.0, gamma=0.3),
                0.3, AdmmParams(r=5.0, tol_in=tol_in, maxit_in=5000))
        result = admm_solve(*args)
        u, v, iters = oracles.reference_admm_solve(*args)
        assert result.iters == iters > 2 * period
        np.testing.assert_allclose(result.u, u, rtol=0, atol=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(4, 10), m=st.integers(4, 10), seed=st.integers(0, 2**32 - 1),
        fraction=st.floats(0.0, 1.0),
    )
    def test_mixed_and_plain_solves_agree(self, n, m, seed, fraction):
        rng = np.random.default_rng(seed)
        f = np.where(rng.random((n, m)) > 0.5, 0.85, 0.15) + 0.02 * rng.standard_normal((n, m))
        active = rng.random((n, m)) < fraction
        # decompose's weights: the potential's slope at the gradient norms
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        slope = params.slope(np.maximum(grad_norms(grad(f)), 1e-3))
        weights = np.where(active, slope, 0.0)
        tol = 1e-10
        args = (f, f, np.zeros((n, m)), weights, SupportSet(active=active), params, 0.3,
                AdmmParams(r=5.0, tol_in=tol, maxit_in=20000))
        mixed = admm_solve(*args)
        period = admm_module._MIX_EVERY
        admm_module._MIX_EVERY = 10**9
        try:
            plain = admm_solve(*args)
        finally:
            admm_module._MIX_EVERY = period
        assert mixed.iters < 20000 and plain.iters < 20000
        size = math.sqrt(float(np.vdot(plain.u, plain.u) + np.vdot(plain.v, plain.v)))
        gap = math.hypot(np.linalg.norm(mixed.u - plain.u), np.linalg.norm(mixed.v - plain.v))
        # a linearly converging solve that stops at a step of tol after k
        # sweeps lies about k tol / ln(1 / tol) from its limit
        assert gap <= max(mixed.iters, plain.iters) * tol * size


class TestRelativeStop:
    """The loose solve's stop on the update relative to the distance moved."""

    @staticmethod
    def _args(shape, tol_in=1e-10):
        f, support, weights = _instance(10 * shape[0] + shape[1], *shape)
        v_k = 0.1 * np.random.default_rng(shape).standard_normal(shape)
        return (f, f - v_k, v_k, weights, support, ModelParams(alpha=0.2, beta=1.0, gamma=0.3),
                0.3, AdmmParams(r=5.0, tol_in=tol_in, maxit_in=5000))

    @pytest.mark.parametrize("shape", [(6, 6), (9, 9), *oracles.RECT_SHAPES])
    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_stops_with_reference_loop(self, shape, tol):
        args = self._args(shape)
        result = admm_solve(*args, tol=tol)
        u, v, iters = oracles.reference_admm_solve(*args, tol=tol)
        assert result.iters == iters < 5000
        np.testing.assert_allclose(result.u, u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.v, v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(6, 6), (9, 9), (4, 7), (8, 5)])
    def test_relative_stop_ends_loose_solves_early(self, shape):
        # at tol = 1e-6 the update test alone runs on: the relative stop
        # is what ends these solves, in the package and the reference
        args = self._args(shape)
        exact = admm_solve(*args[:-1], AdmmParams(r=5.0, tol_in=1e-6, maxit_in=5000))
        loose = admm_solve(*args, tol=1e-6)
        assert loose.iters < exact.iters
        assert oracles.reference_admm_solve(*args, tol=1e-6)[2] == loose.iters

    @pytest.mark.parametrize("tol", [None, 1e-8, 5e-9])
    def test_exact_solves_ignore_the_relative_stop(self, monkeypatch, tol):
        # tol <= tol_in: a relative stop of 1 (which would end any loose
        # solve at its first sweep) changes no byte
        args = self._args((8, 8), tol_in=1e-8)
        want = admm_solve(*args, tol=tol)
        monkeypatch.setattr(admm_module, "_RELATIVE_STOP", 1.0)
        got = admm_solve(*args, tol=tol)
        assert got.iters == want.iters > 1
        assert got.u.tobytes() == want.u.tobytes()
        assert got.v.tobytes() == want.v.tobytes()
        assert admm_solve(*args, tol=1e-6).iters == 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 10), m=st.integers(3, 10), seed=st.integers(0, 2**32 - 1),
        fraction=st.floats(0.0, 1.0), tol=st.sampled_from([1e-3, 1e-5, 1e-7]),
    )
    def test_stops_no_later_than_without_it(self, n, m, seed, fraction, tol):
        rng = np.random.default_rng(seed)
        f = np.where(rng.random((n, m)) > 0.5, 0.85, 0.15) + 0.02 * rng.standard_normal((n, m))
        active = rng.random((n, m)) < fraction
        params = ModelParams(alpha=0.2, beta=1.0, gamma=0.3)
        slope = params.slope(np.maximum(grad_norms(grad(f)), 1e-3))
        weights = np.where(active, slope, 0.0)
        v_k = 0.1 * rng.standard_normal((n, m))
        args = (f, f - v_k, v_k, weights, SupportSet(active=active), params, 0.3)
        loose = admm_solve(*args, AdmmParams(r=5.0, tol_in=1e-10, maxit_in=2000), tol=tol)
        relative = admm_module._RELATIVE_STOP
        admm_module._RELATIVE_STOP = 0.0
        try:
            plain = admm_solve(*args, AdmmParams(r=5.0, tol_in=1e-10, maxit_in=2000), tol=tol)
            # the plain solve's iterate at the sweep the loose one stopped
            cut = admm_solve(
                *args, AdmmParams(r=5.0, tol_in=1e-10, maxit_in=loose.iters), tol=tol
            )
        finally:
            admm_module._RELATIVE_STOP = relative
        assert loose.iters <= plain.iters
        assert cut.iters == loose.iters
        assert cut.u.tobytes() == loose.u.tobytes()
        assert cut.v.tobytes() == loose.v.tobytes()


class TestLazyStop:
    """The stopping test's bounds against exact values at every sweep."""

    # (shape, active fraction, tol_in, tol, sweeps): tol above tol_in is
    # loose; fewer than 0.25 active gathers; "long" solves mix
    CASES = [
        ((8, 8), 0.9, 1e-10, None, "long"),
        ((8, 8), 0.1, 1e-10, None, "long"),
        ((6, 9), 0.9, 1e-10, 1e-5, "long"),
        ((9, 6), 0.1, 1e-10, 1e-6, "long"),
        ((8, 8), 0.9, 1e-2, None, "short"),
        ((6, 9), 0.1, 1e-3, None, "short"),
        ((8, 8), 0.9, 1e-10, 1e-2, "short"),
        ((9, 6), 0.1, 1e-10, 1e-2, "short"),
    ]

    @pytest.mark.parametrize("shape, fraction, tol_in, tol, sweeps", CASES)
    @pytest.mark.parametrize("warm", [False, True])
    def test_exact_values_at_every_sweep_change_nothing(
        self, monkeypatch, shape, fraction, tol_in, tol, sweeps, warm
    ):
        rng = np.random.default_rng(shape[0] * 10 + int(fraction * 10))
        f = np.where(rng.random(shape) > 0.5, 0.85, 0.15) + 0.02 * rng.standard_normal(shape)
        active = rng.random(shape) < fraction
        weights = np.where(active, rng.uniform(0.2, 2.0, shape), 0.0)
        v_k = 0.1 * rng.standard_normal(shape)
        args = (f, f - v_k, v_k, weights, SupportSet(active=active),
                ModelParams(alpha=0.2, beta=1.0, gamma=0.3), 0.3,
                AdmmParams(r=5.0, tol_in=tol_in, maxit_in=5000))
        lam0 = 0.1 * rng.standard_normal((2, *shape)) if warm else None
        lazy = admm_solve(*args, tol=tol, lam0=lam0)
        # an infinite slack makes every test a candidate: each sweep that
        # may stop evaluates the exact norm and, if loose, the distance
        monkeypatch.setattr(admm_module, "_BOUND_SLACK", math.inf)
        exact = admm_solve(*args, tol=tol, lam0=lam0)
        assert lazy.iters == exact.iters
        if sweeps == "short":
            assert lazy.iters < 25
        else:
            assert 2 * admm_module._MIX_EVERY < lazy.iters < 5000
        for name in ("u", "v", "lam", "v_hat"):
            assert getattr(lazy, name).tobytes() == getattr(exact, name).tobytes()
