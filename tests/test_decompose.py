import importlib

import numpy as np
import pytest

from shrinkseg import (
    AdmmParams,
    ModelParams,
    OuterParams,
    decompose,
    decomposition_energy,
    generate,
)
from shrinkseg.decompose import resolve_tau_supp
from shrinkseg.grid import grad, grad_norms
from shrinkseg.synth import Disk, PhantomSpec

FAST = dict(outer=OuterParams(tau_supp=1e-3), admm=AdmmParams(r=10.0, tol_in=1e-8, maxit_in=500))


def small_phantom(seed=11, sigma=0.02):
    spec = PhantomSpec(
        n=16,
        phase_values=(0.3, 0.8),
        shapes=(Disk(row=8, col=8, radius=4, phase=2),),
        noise_sigma=sigma,
        composition="additive",
        seed=seed,
    )
    return generate(spec).f


class TestOuterParams:
    @pytest.mark.parametrize(
        "kw",
        [dict(rho=0.0), dict(tol_out=0.0), dict(maxit_out=0), dict(tau_supp=-1.0)],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            OuterParams(**kw)

    def test_tau_resolution(self):
        f = np.zeros((4, 4))
        f[1, 1] = 1.0
        assert resolve_tau_supp(f, OuterParams(tau_supp=0.25)) == 0.25
        expected = 1e-8 * float(grad_norms(grad(f)).max())
        assert resolve_tau_supp(f, OuterParams()) == pytest.approx(expected)


class TestConstantImage:
    def test_exact_flat_split(self):
        f = np.full((8, 8), 0.6)
        result = decompose(f, ModelParams(alpha=0.1, beta=10.0), **FAST)
        assert result.converged
        assert np.ptp(result.u) == 0.0
        # all gradients start at zero, so nothing is ever active
        assert result.trace.column("support_size").max() == 0
        np.testing.assert_allclose(result.u + result.v, f, atol=1e-6)


@pytest.fixture(scope="module")
def run():
    f = small_phantom()
    return decompose(f, ModelParams(alpha=0.1, beta=100.0), **FAST)


class TestTrace:
    def test_row_count_is_outers_plus_one(self, run):
        assert len(run.trace) == run.outer_iters + 1

    def test_iteration_index_contiguous(self, run):
        np.testing.assert_array_equal(
            run.trace.column("k"), np.arange(len(run.trace))
        )

    def test_final_row_closes_the_trace(self, run):
        last = run.trace[len(run.trace) - 1]
        assert last.increment == 0.0 and last.inner_iters == 0

    def test_energy_column_matches_recompute(self, run):
        f = small_phantom()
        params = ModelParams(alpha=0.1, beta=100.0)
        assert run.trace.column("energy")[-1] == pytest.approx(
            decomposition_energy(f, run.u, run.v, params), rel=1e-12
        )

    def test_support_nonincreasing(self, run):
        assert np.all(np.diff(run.trace.column("support_size")) <= 0)

    def test_energy_monotone(self, run):
        energy = run.trace.column("energy")
        assert np.all(np.diff(energy) <= 1e-8 * energy[0])
        assert not run.energy_increased

    def test_unknown_column_raises(self, run):
        with pytest.raises(AttributeError):
            run.trace.column("nope")

    def test_rows_iterable(self, run):
        ks = [row.k for row in run.trace]
        assert ks == list(range(len(run.trace)))


class TestResult:
    def test_deterministic(self):
        f = small_phantom(seed=3)
        params = ModelParams(alpha=0.1, beta=100.0)
        a = decompose(f, params, **FAST)
        b = decompose(f, params, **FAST)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.v.tobytes() == b.v.tobytes()
        assert a.outer_iters == b.outer_iters

    def test_converged_run_has_stable_support(self):
        f = small_phantom(seed=5)
        result = decompose(f, ModelParams(alpha=0.1, beta=100.0), **FAST)
        assert result.converged
        support = result.trace.column("support_size")
        assert support[-1] == support[-2]

    def test_frozen_gradients_exactly_zero(self):
        # the feasibility projection leaves hard zeros off-support, so
        # at most support_size pixels carry any gradient at all
        f = small_phantom(seed=7)
        result = decompose(f, ModelParams(alpha=0.1, beta=100.0), **FAST)
        assert result.converged
        norms = grad_norms(grad(result.u))
        nonzero = int((norms > 0).sum())
        assert nonzero <= int(result.trace.column("support_size")[-1])

    def test_maxit_out_respected(self):
        f = small_phantom(seed=9, sigma=0.05)
        outer = OuterParams(tau_supp=1e-3, maxit_out=2)
        result = decompose(f, ModelParams(alpha=0.05, beta=100.0), outer, FAST["admm"])
        assert result.outer_iters <= 2
        assert len(result.trace) <= 3

    def test_energy_evaluated_once_per_row(self, monkeypatch):
        # E(f, f, f) sets the monotonicity tolerance and is also row 0
        energies = []

        def counted(*args):
            energies.append(decomposition_energy(*args))
            return energies[-1]

        monkeypatch.setattr(importlib.import_module("shrinkseg.decompose"),
                            "decomposition_energy", counted)
        result = decompose(small_phantom(), ModelParams(alpha=0.1, beta=100.0), **FAST)
        assert energies == list(result.trace.column("energy"))

    def test_tau_recorded(self):
        f = small_phantom(seed=13)
        result = decompose(f, ModelParams(alpha=0.1, beta=100.0), **FAST)
        assert result.tau_supp == 1e-3
