import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shrinkseg.grid import (
    GradientField,
    HessianField,
    as_grid,
    backward_x,
    backward_y,
    compute_symbols,
    forward_x,
    forward_y,
    grad,
    grad_adjoint,
    grad_norms,
    hessian,
    hessian_adjoint,
)


def random_grid(rng, n):
    return rng.standard_normal((n, n))


class TestAsGrid:
    def test_accepts_square_lists(self):
        g = as_grid([[1, 2], [3, 4]])
        assert g.dtype == np.float64 and g.shape == (2, 2)

    @pytest.mark.parametrize(
        "bad",
        [np.zeros(4), np.zeros((2, 3)), np.zeros((1, 1)), [[np.nan, 0], [0, 0]], [[np.inf, 0], [0, 0]]],
    )
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            as_grid(bad)


class TestDifferences:
    def test_forward_x_wraps(self):
        u = np.array([[0.0, 1.0, 3.0]] * 3)
        np.testing.assert_allclose(forward_x(u)[0], [1.0, 2.0, -3.0])

    def test_forward_y_is_transpose_of_forward_x(self):
        rng = np.random.default_rng(0)
        u = random_grid(rng, 5)
        np.testing.assert_allclose(forward_y(u), forward_x(u.T).T)

    def test_backward_undoes_shift_of_forward(self):
        rng = np.random.default_rng(1)
        u = random_grid(rng, 6)
        np.testing.assert_allclose(backward_x(u), np.roll(forward_x(u), 1, axis=1))
        np.testing.assert_allclose(backward_y(u), np.roll(forward_y(u), 1, axis=0))

    def test_constants_in_kernel(self):
        c = np.full((4, 4), 3.7)
        assert np.all(forward_x(c) == 0) and np.all(forward_y(c) == 0)
        h = hessian(c)
        for ch in (h.xx, h.xy, h.yx, h.yy):
            assert np.all(ch == 0)

    def test_shift_invariance(self):
        # periodic stencils commute with cyclic shifts
        rng = np.random.default_rng(2)
        u = random_grid(rng, 7)
        rolled = np.roll(u, (2, 3), axis=(0, 1))
        np.testing.assert_allclose(
            grad(rolled).dx, np.roll(grad(u).dx, (2, 3), axis=(0, 1))
        )
        np.testing.assert_allclose(
            hessian(rolled).yx, np.roll(hessian(u).yx, (2, 3), axis=(0, 1))
        )


class TestRollFreeDifferences:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_bitwise_equal_to_rolled_references(self, n):
        u = random_grid(np.random.default_rng(10 + n), n)
        pairs = [
            (forward_x(u), oracles.rolled_forward(u, 1)),
            (backward_x(u), oracles.rolled_backward(u, 1)),
            (forward_y(u), oracles.rolled_forward(u, 0)),
            (backward_y(u), oracles.rolled_backward(u, 0)),
        ]
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()
        g = grad(u)
        assert g.dx.tobytes() == pairs[0][1].tobytes()
        assert g.dy.tobytes() == pairs[2][1].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_grad_adjoint_bitwise_unchanged(self, n):
        rng = np.random.default_rng(20 + n)
        p = GradientField(random_grid(rng, n), random_grid(rng, n))
        assert grad_adjoint(p).tobytes() == oracles.rolled_grad_adjoint(p).tobytes()

    def test_grad_writes_into_out(self):
        u = random_grid(np.random.default_rng(30), 5)
        out = np.full((2, 5, 5), np.nan)
        g = grad(u, out=out)
        assert np.shares_memory(g.dx, out) and np.shares_memory(g.dy, out)
        assert out[0].tobytes() == oracles.rolled_forward(u, 1).tobytes()
        assert out[1].tobytes() == oracles.rolled_forward(u, 0).tobytes()


class TestDenseEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_first_differences_match_kron_matrices(self, n):
        rng = np.random.default_rng(n)
        u = random_grid(rng, n)
        flat = u.ravel()
        np.testing.assert_allclose(oracles.dense_forward_x(n) @ flat, forward_x(u).ravel())
        np.testing.assert_allclose(oracles.dense_forward_y(n) @ flat, forward_y(u).ravel())
        np.testing.assert_allclose(oracles.dense_backward_x(n) @ flat, backward_x(u).ravel())
        np.testing.assert_allclose(oracles.dense_backward_y(n) @ flat, backward_y(u).ravel())

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_hessian_channels_match_kron_matrices(self, n):
        rng = np.random.default_rng(n)
        u = random_grid(rng, n)
        h = hessian(u)
        for mat, channel in zip(
            oracles.dense_hessian_channels(n), (h.xx, h.xy, h.yx, h.yy)
        ):
            np.testing.assert_allclose(mat @ u.ravel(), channel.ravel(), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_gradient_adjoint_identity(n, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, n))
    p = GradientField(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
    du = grad(u)
    lhs = np.sum(du.dx * p.dx + du.dy * p.dy)
    rhs = np.sum(u * grad_adjoint(p))
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_hessian_adjoint_identity(n, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, n))
    q = HessianField(*(rng.standard_normal((n, n)) for _ in range(4)))
    hu = hessian(u)
    lhs = np.sum(hu.xx * q.xx + hu.xy * q.xy + hu.yx * q.yx + hu.yy * q.yy)
    rhs = np.sum(u * hessian_adjoint(q))
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_grad_norms_is_euclidean():
    rng = np.random.default_rng(3)
    u = random_grid(rng, 5)
    g = grad(u)
    np.testing.assert_allclose(grad_norms(g), np.sqrt(g.dx**2 + g.dy**2))


class TestSymbols:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_symbols_verify(self, n):
        symbols = compute_symbols(n, verify=True)
        assert symbols.dtd.shape == (n, n)
        # normal operator of the second differences squares the first
        np.testing.assert_allclose(symbols.hth, symbols.dtd**2, atol=1e-12)

    def test_symbols_nonnegative_and_zero_at_dc(self):
        symbols = compute_symbols(8)
        assert symbols.dtd[0, 0] == 0 and symbols.hth[0, 0] == 0
        assert np.all(symbols.dtd >= 0) and np.all(symbols.hth >= 0)

    def test_normal_operators_diagonalize(self):
        # FFT of D^T D u equals the symbol times the FFT of u
        rng = np.random.default_rng(4)
        u = random_grid(rng, 8)
        symbols = compute_symbols(8)
        lhs = np.fft.fft2(grad_adjoint(grad(u)))
        rhs = symbols.dtd * np.fft.fft2(u)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
