import dataclasses
import re
import sys
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shrinkseg import AdmmParams, ModelParams, OuterParams
from shrinkseg.cli import RunConfig
from shrinkseg.grid import (
    as_grid,
    check_count,
    check_fields,
    check_keys,
    compute_symbols,
    grad,
    grad_adjoint,
    grad_norms,
)
from shrinkseg.synth import Disk, PhantomSpec, Rect


def random_grid(rng, n):
    return rng.standard_normal((n, n))


# (2, n, n) arrays of NaN that are not C-contiguous
NON_C_LAYOUTS = {
    "fortran": lambda n: np.full((2, n, n), np.nan, order="F"),
    "strided": lambda n: np.full((2, n, 2 * n), np.nan)[:, :, ::2],
    "transposed": lambda n: np.full((n, n, 2), np.nan).transpose(2, 0, 1),
}


# one valid construction of every settings class
VALID = {
    ModelParams: dict(alpha=0.5, beta=1000.0),
    OuterParams: dict(tau_supp=1e-3),
    AdmmParams: dict(),
    PhantomSpec: dict(n=8, phase_values=(0.3, 0.8)),
    Disk: dict(row=4, col=4, radius=2, phase=2),
    Rect: dict(row0=1, col0=1, row1=5, col1=5, phase=2),
    RunConfig: dict(alpha=0.5, beta=1000.0),
}
# (class, field, bad value) for every int or float field of the classes
BAD_FIELDS = [
    (cls, field.name, bad)
    for cls in VALID
    for field in dataclasses.fields(cls)
    if (kind := get_type_hints(cls)[field.name]) in (int, float, float | None)
    for bad in (np.nan, np.inf, -np.inf) + ((2.5, True) if kind is int else ("1", True))
]


class TestRuleSet:
    @pytest.mark.parametrize("cls, name, bad", BAD_FIELDS,
                             ids=[f"{c.__name__}.{n}={b!r}" for c, n, b in BAD_FIELDS])
    def test_every_numeric_settings_field_is_checked(self, cls, name, bad):
        cls(**VALID[cls])
        shown = "K" if name == "k" else name  # RunConfig.k is the CLI's and JSON's K
        with pytest.raises(ValueError, match=rf"\b{shown}\b"):
            cls(**{**VALID[cls], name: bad})

    def test_every_settings_class_has_a_checked_field(self):
        assert {cls for cls, _, _ in BAD_FIELDS} == set(VALID)

    @pytest.mark.parametrize("cls, name, bad, message", [
        (RunConfig, "log_domain", "yes", "log_domain must be boolean, got 'yes'"),
        (RunConfig, "log_domain", 1, "log_domain must be boolean, got 1"),
        (PhantomSpec, "phase_values", ("0.3", "0.8"),
         "phase_values must be a list of numbers, got ('0.3', '0.8')"),
        (PhantomSpec, "phase_values", (True,),
         "phase_values must be a list of numbers, got (True,)"),
        (PhantomSpec, "phase_values", np.array(0.5),
         "phase_values must be a list of numbers, got array(0.5)"),
        (PhantomSpec, "shapes", 5, "shapes must be a list of Disk and Rect, got 5"),
        (PhantomSpec, "shapes", ({"row": 1},), "shapes must be a list of Disk and Rect, got"),
        (ModelParams, "p", "0.5", "p must be a number, got '0.5'"),
        (ModelParams, "alpha", 10**400, "alpha must be finite and positive, got 1000"),
        (PhantomSpec, "phase_values", (0.3, 10**400),
         "phase values must lie in (0, 1], got (0.3, 1000"),
    ], ids=["log_domain_string", "log_domain_int", "phase_values_strings", "phase_values_bool",
            "phase_values_0d_array", "shapes_int", "shapes_dicts", "p_string",
            "alpha_int_beyond_float", "phase_values_int_beyond_float"])
    def test_non_numeric_and_oversized_values_are_named(self, cls, name, bad, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            cls(**{**VALID[cls], name: bad})

    def test_phase_values_take_lists_tuples_and_arrays(self):
        for values in ([0.3, 0.8], (0.3, 1), np.array([0.3, 0.8])):
            assert PhantomSpec(n=8, phase_values=values).phase_values == (0.3, float(values[1]))

    @pytest.mark.parametrize("rule, good, bad", [
        ("finite", [-1.0, 0.0, 2, -int(sys.float_info.max)], [np.nan, np.inf, -np.inf, -10**400]),
        ("finite and nonnegative", [0.0, 0, 3.5, np.int8(1)],
         [-1e-300, np.nan, np.inf, np.float32(np.inf)]),
        ("finite and positive", [1e-300, 1, 2.0, np.float32(1)],
         [0.0, -1.0, np.nan, np.inf, 10**400]),
    ])
    def test_check_fields_rules(self, rule, good, bad):
        for value in good:
            check_fields(SimpleNamespace(x=value), ("x",), rule)
        for value in bad:
            with pytest.raises(ValueError, match=f"^x must be {rule}, got "):
                check_fields(SimpleNamespace(x=value), ("x",), rule)

    def test_check_fields_takes_numbers_only(self):
        for bad in ("1", True, np.bool_(False), None, [1.0], 1j):
            message = f"^x must be a number, got {re.escape(repr(bad))}$"
            with pytest.raises(ValueError, match=message):
                check_fields(SimpleNamespace(x=bad), ("x",))

    def test_check_count(self):
        assert check_count(3, "k", 2) == 3
        assert check_count(np.int32(2), "k", 2) == 2
        for bad in (2.0, 2.5, True, np.bool_(True), "2", None):
            with pytest.raises(ValueError, match=f"^k must be an integer, got {bad!r}$"):
                check_count(bad, "k", 2)
        with pytest.raises(ValueError, match="^k must be at least 2, got 1$"):
            check_count(1, "k", 2)

    def test_check_keys(self):
        payload = {"row": 1, "col": 1, "radius": 2, "phase": 2}
        assert check_keys(Disk, payload, "disk") is payload
        with pytest.raises(ValueError, match=r"^unknown disk keys: \['blur'\]$"):
            check_keys(Disk, {**payload, "blur": 0}, "disk")
        with pytest.raises(ValueError, match=r"^missing required disk keys: \['radius'\]$"):
            check_keys(Disk, {"row": 1, "col": 1, "phase": 2}, "disk")


class TestAsGrid:
    def test_accepts_square_lists(self):
        g = as_grid([[1, 2], [3, 4]])
        assert g.dtype == np.float64 and g.shape == (2, 2)

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros(4), np.zeros((1, 3)), np.zeros((1, 1)), [[np.nan, 0], [0, 0]],
            [[np.inf, 0], [0, 0]], np.zeros((3, 1)),
        ],
    )
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            as_grid(bad)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2, 2), (5, 8)])
    def test_accepts_every_side_at_least_two(self, shape):
        assert as_grid(np.zeros(shape)).shape == shape


class TestDifferences:
    def test_forward_x_wraps(self):
        u = np.array([[0.0, 1.0, 3.0]] * 3)
        np.testing.assert_allclose(grad(u)[0, 0], [1.0, 2.0, -3.0])

    def test_forward_y_is_transpose_of_forward_x(self):
        rng = np.random.default_rng(0)
        u = random_grid(rng, 5)
        np.testing.assert_allclose(grad(u)[1], grad(u.T)[0].T)

    def test_constants_in_kernel(self):
        c = np.full((4, 4), 3.7)
        assert np.all(grad(c) == 0)

    def test_shift_invariance(self):
        # periodic stencils commute with cyclic shifts
        rng = np.random.default_rng(2)
        u = random_grid(rng, 7)
        rolled = np.roll(u, (2, 3), axis=(0, 1))
        np.testing.assert_allclose(
            grad(rolled)[0], np.roll(grad(u)[0], (2, 3), axis=(0, 1))
        )


class TestRollFreeDifferences:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_bitwise_equal_to_rolled_references(self, n):
        u = random_grid(np.random.default_rng(10 + n), n)
        g = grad(u)
        assert g.shape == (2, n, n)
        assert g[0].tobytes() == oracles.rolled_forward(u, 1).tobytes()
        assert g[1].tobytes() == oracles.rolled_forward(u, 0).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_grad_adjoint_bitwise_unchanged(self, n):
        p = np.random.default_rng(20 + n).standard_normal((2, n, n))
        assert grad_adjoint(p).tobytes() == oracles.rolled_grad_adjoint(p).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_grad_adjoint_into_out_bitwise(self, n, order):
        # out must be C-contiguous; the field itself may have any layout
        p = np.random.default_rng(40 + n).standard_normal((2, n, n))
        p = np.asarray(p, order=order)
        out = np.full((2, n, n), np.nan)
        got = grad_adjoint(p, out=out)
        assert np.shares_memory(got, out)
        assert got.tobytes() == oracles.rolled_grad_adjoint(p).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_grad_adjoint_equal_with_tied_neighbours(self, n):
        # equal neighbours give zero differences, whose sign may differ
        p = np.random.default_rng(50 + n).integers(-1, 2, (2, n, n)).astype(np.float64)
        np.testing.assert_array_equal(grad_adjoint(p), oracles.rolled_grad_adjoint(p))

    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("layout", sorted(NON_C_LAYOUTS))
    def test_out_must_be_c_contiguous(self, n, layout):
        # the x difference subtracts along flattened rows, which any
        # other layout would take into a copy and lose
        x = np.random.default_rng(60 + n).standard_normal((2, n, n))
        for call, arg in ((grad, x[0]), (grad_adjoint, x)):
            out = NON_C_LAYOUTS[layout](n)
            with pytest.raises(ValueError, match="C-contiguous"):
                call(arg, out)
            assert np.isnan(out).all()

    def test_grad_writes_into_out(self):
        u = random_grid(np.random.default_rng(30), 5)
        out = np.full((2, 5, 5), np.nan)
        assert grad(u, out=out) is out
        assert out[0].tobytes() == oracles.rolled_forward(u, 1).tobytes()
        assert out[1].tobytes() == oracles.rolled_forward(u, 0).tobytes()


class TestDenseEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_first_differences_match_kron_matrices(self, n):
        rng = np.random.default_rng(n)
        u = random_grid(rng, n)
        flat = u.ravel()
        g = grad(u)
        np.testing.assert_allclose(oracles.dense_dx(n) @ flat, g[0].ravel())
        np.testing.assert_allclose(oracles.dense_dy(n) @ flat, g[1].ravel())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_gradient_adjoint_identity(n, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, n))
    p = rng.standard_normal((2, n, n))
    lhs = np.sum(grad(u) * p)
    rhs = np.sum(u * grad_adjoint(p))
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_grad_norms_is_euclidean():
    rng = np.random.default_rng(3)
    u = random_grid(rng, 5)
    g = grad(u)
    np.testing.assert_allclose(grad_norms(g), np.sqrt(g[0] ** 2 + g[1] ** 2))


class TestSymbols:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_symbols_verify(self, n):
        # each symbol is the rfft2 of its dense operator's impulse response
        symbols = compute_symbols((n, n))
        assert symbols.dtd.shape == symbols.hth.shape == (n, n // 2 + 1)
        for dense, symbol in (
            (oracles.dense_dtd(n), symbols.dtd),
            (oracles.dense_hth(n), symbols.hth),
        ):
            response = np.fft.rfft2(dense[:, 0].reshape(n, n))
            np.testing.assert_allclose(symbol, response, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_hth_gives_hessian_norm(self, n):
        # Parseval on the half spectrum against the dense second differences
        v = random_grid(np.random.default_rng(90 + n), n)
        symbols = compute_symbols((n, n))
        v_hat = np.fft.rfft2(v)
        got = float(np.sum(symbols.weights * symbols.hth * np.abs(v_hat) ** 2))
        want = sum(float(np.sum((c @ v.ravel()) ** 2)) for c in oracles.dense_hessian_channels(n))
        assert abs(got - want) <= 1e-12 * want

    def test_symbols_nonnegative_and_zero_at_dc(self):
        symbols = compute_symbols((8, 8))
        assert symbols.dtd[0, 0] == 0 and symbols.hth[0, 0] == 0
        assert np.all(symbols.dtd >= 0) and np.all(symbols.hth >= 0)

    def test_normal_operators_diagonalize(self):
        # rfft2 of D^T D u equals the symbol times the rfft2 of u
        rng = np.random.default_rng(4)
        u = random_grid(rng, 8)
        symbols = compute_symbols((8, 8))
        lhs = np.fft.rfft2(grad_adjoint(grad(u)))
        rhs = symbols.dtd * np.fft.rfft2(u)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestRectangularGrids:
    """n x m grids with n != m against the Kronecker-product oracles."""

    @pytest.mark.parametrize("shape", oracles.RECT_SHAPES)
    def test_grad_and_adjoint_match_kron_matrices(self, shape):
        rng = np.random.default_rng(100 + 10 * shape[0] + shape[1])
        u = rng.standard_normal(shape)
        p = rng.standard_normal((2, *shape))
        dx, dy = oracles.dense_dx(*shape), oracles.dense_dy(*shape)
        g = grad(u)
        assert g.shape == (2, *shape)
        np.testing.assert_allclose(g[0].ravel(), dx @ u.ravel(), rtol=0, atol=1e-12)
        np.testing.assert_allclose(g[1].ravel(), dy @ u.ravel(), rtol=0, atol=1e-12)
        want = dx.T @ p[0].ravel() + dy.T @ p[1].ravel()
        np.testing.assert_allclose(grad_adjoint(p).ravel(), want, rtol=0, atol=1e-12)
        assert g[0].tobytes() == oracles.rolled_forward(u, 1).tobytes()
        assert g[1].tobytes() == oracles.rolled_forward(u, 0).tobytes()
        assert grad_adjoint(p).tobytes() == oracles.rolled_grad_adjoint(p).tobytes()

    @pytest.mark.parametrize("shape", oracles.RECT_SHAPES)
    def test_symbols_are_dense_impulse_responses(self, shape):
        n, m = shape
        symbols = compute_symbols(shape)
        assert symbols.dtd.shape == symbols.hth.shape == (n, m // 2 + 1)
        for dense, symbol in (
            (oracles.dense_dtd(n, m), symbols.dtd),
            (oracles.dense_hth(n, m), symbols.hth),
        ):
            response = np.fft.rfft2(dense[:, 0].reshape(shape))
            np.testing.assert_allclose(symbol, response, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", oracles.RECT_SHAPES)
    def test_parseval_weights_and_hessian_norm(self, shape):
        # the Nyquist column follows the parity of m, the scale is 1 / (n m)
        v = np.random.default_rng(200 + 10 * shape[0] + shape[1]).standard_normal(shape)
        symbols = compute_symbols(shape)
        v_hat = np.fft.rfft2(v)
        power = np.abs(v_hat) ** 2
        want = float(np.vdot(v, v))
        assert abs(float(np.sum(symbols.weights * power)) - want) <= 1e-12 * want
        got = float(np.sum(symbols.weights * symbols.hth * power))
        want = sum(float(np.sum((c @ v.ravel()) ** 2)) for c in oracles.dense_hessian_channels(*shape))
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", range(2, 10))
    def test_square_symbols_bitwise_unchanged(self, n):
        # the square formula: one symbol over n, its half-spectrum columns
        # sliced off, weights over n * n
        half = n // 2 + 1
        s = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
        dtd = s[:, None] + s[None, :half]
        weights = np.full(half, 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        symbols = compute_symbols((n, n))
        assert symbols.dtd.tobytes() == dtd.tobytes()
        assert symbols.hth.tobytes() == (dtd**2).tobytes()
        assert symbols.weights.tobytes() == (weights / (n * n)).tobytes()

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (1, 1)])
    def test_symbols_reject_sides_below_two(self, shape):
        with pytest.raises(ValueError, match="sides must be >= 2"):
            compute_symbols(shape)

    def test_symbols_are_shared_and_read_only(self):
        symbols = compute_symbols((6, 9))
        assert compute_symbols([6, 9]) is symbols
        assert compute_symbols((9, 6)) is not symbols
        for array in (symbols.dtd, symbols.hth, symbols.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
