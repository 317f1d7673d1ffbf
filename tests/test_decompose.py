import math
import sys
import warnings

import numpy as np
import pytest

import shrinkseg
from fixture_work import fixture_problem
from shrinkseg import (
    AdmmParams,
    ModelParams,
    OuterParams,
    decomposition_energy,
    generate,
    segment,
)
from shrinkseg import admm as admm_module
from shrinkseg import decompose as decompose_module
from shrinkseg.admm import admm_solve
from shrinkseg.decompose import decompose
from shrinkseg.grid import grad, grad_norms
from shrinkseg.support import tie_labels
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

    @pytest.mark.parametrize("cap", [2.5, 2.0, False, "2", None])
    def test_non_integer_cap_raises(self, cap):
        with pytest.raises(ValueError, match="maxit_out must be an integer"):
            OuterParams(maxit_out=cap)

    def test_numpy_integer_cap_runs(self):
        outer = OuterParams(tau_supp=1e-3, maxit_out=np.int32(2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = decompose(np.eye(4), MODEL, outer, AdmmParams(maxit_in=np.int64(3)))
        assert result.outer_iters <= 2

    def test_tau_resolution(self):
        f = np.zeros((4, 4))
        f[1, 1] = 1.0

        def tau(admm=None, **outer):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return decompose(f, MODEL, OuterParams(maxit_out=1, **outer), admm).tau_supp

        assert tau(tau_supp=0.25) == 0.25
        # the default scales with the accuracy of the inner solves
        largest = float(grad_norms(grad(f)).max())
        assert tau() == AdmmParams().tol_in * largest
        assert tau(AdmmParams(tol_in=1e-7)) == 1e-7 * largest


class TestConstantImage:
    def test_exact_flat_split(self):
        f = np.full((8, 8), 0.6)
        result = decompose(f, ModelParams(alpha=0.1, beta=10.0), **FAST)
        assert result.converged
        assert np.ptp(result.u) == 0.0
        # all gradients start at zero, so nothing is ever active
        assert result.trace.column("support_size").max() == 0
        np.testing.assert_allclose(result.u + result.v, f, atol=1e-6)

    def test_zero_image_has_no_relative_scale(self):
        # ||(u_k, v_k)|| = 0, so no loose tolerance can be formed
        result = decompose(np.zeros((8, 8)), ModelParams(alpha=0.1, beta=10.0), **FAST)
        assert result.converged
        assert not result.u.any() and not result.v.any()


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
        with pytest.warns(RuntimeWarning, match="unconverged after 2 outer iterations"):
            result = decompose(f, ModelParams(alpha=0.05, beta=100.0), outer, FAST["admm"])
        assert result.outer_iters <= 2
        assert len(result.trace) <= 3

    def test_energy_evaluated_once_per_row(self, monkeypatch):
        # E(f, f, f) sets the monotonicity tolerance and is also row 0
        energies = []

        def counted(*args):
            energies.append(decomposition_energy(*args))
            return energies[-1]

        monkeypatch.setattr(decompose_module, "decomposition_energy", counted)
        result = decompose(small_phantom(), ModelParams(alpha=0.1, beta=100.0), **FAST)
        assert energies == list(result.trace.column("energy"))

    def test_tau_recorded(self):
        f = small_phantom(seed=13)
        result = decompose(f, ModelParams(alpha=0.1, beta=100.0), **FAST)
        assert result.tau_supp == 1e-3


def _record_solves(monkeypatch):
    """Wrap decompose's admm_solve; returns the list of its calls.

    Each call is a dict of args, kwargs and result.
    """
    original = decompose_module.admm_solve
    calls = []

    def wrapped(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append({"args": args, "kwargs": dict(kwargs), "result": result})
        return result

    monkeypatch.setattr(decompose_module, "admm_solve", wrapped)
    return calls


def _record_passes(monkeypatch):
    """Wrap decompose's admm_solve and reduced_solve; returns the list of
    their calls in order.

    Each call is a dict of the solver's name, args, kwargs and result.
    """
    calls = []
    for name in ("admm_solve", "reduced_solve"):

        def wrapped(*args, _original=getattr(decompose_module, name), _name=name, **kwargs):
            result = _original(*args, **kwargs)
            calls.append({"name": _name, "args": args, "kwargs": dict(kwargs), "result": result})
            return result

        monkeypatch.setattr(decompose_module, name, wrapped)
    return calls


def _stacked_norm(u, v):
    return float(np.sqrt(np.sum(u * u) + np.sum(v * v)))


MODEL = ModelParams(alpha=0.1, beta=100.0)


class TestInnerTolerance:
    def test_passes_resolve_gradients_to_tau(self, monkeypatch):
        calls = _record_passes(monkeypatch)
        outer, admm = FAST["outer"], FAST["admm"]
        result = decompose(small_phantom(), MODEL, **FAST)
        assert result.converged
        # a pass is solved by reduced_solve or, when that declines, by
        # admm_solve; every loose pass met H1, so none was solved twice
        passes = [call for call in calls if call["result"] is not None]
        assert len(passes) == result.outer_iters
        assert calls[0]["name"] == "admm_solve"  # the first pass is never reduced
        reduced = [call for call in passes if call["name"] == "reduced_solve"]
        assert len(reduced) == result.reduced_solves
        exact = False  # from the first pass that meets tol_out on
        v_k = None  # the pass start's v: reduced_solve is not handed it
        for call, row in zip(passes, result.trace):
            if call["name"] == "admm_solve":
                u_k, v_k = call["args"][1:3]
            else:
                u_k = call["args"][0]
            denom = _stacked_norm(u_k, v_k)
            v_k = call["result"].v
            if call["name"] == "admm_solve":
                tol = call["kwargs"]["tol"]
                if exact:
                    assert tol == admm.tol_in
                else:
                    loose = max(admm.tol_in, result.tau_supp / denom)
                    assert tol == pytest.approx(loose, rel=1e-12)
            exact = exact or row.increment <= outer.tol_out * denom
        solved = [call for call in passes if call["name"] == "admm_solve"]
        assert any(call["kwargs"]["tol"] > admm.tol_in for call in solved)
        # the run ends on a pass solved at tol_in, or exactly
        assert passes[-1]["name"] == "reduced_solve" or passes[-1]["kwargs"]["tol"] == admm.tol_in
        np.testing.assert_array_equal(
            result.trace.column("inner_iters")[:-1], [call["result"].iters for call in passes]
        )

    def test_default_tau_keeps_every_pass_exact(self, monkeypatch):
        calls = _record_solves(monkeypatch)
        admm = FAST["admm"]
        result = decompose(small_phantom(), MODEL, admm=admm)
        # no pass is loose, so none can fail H1 and be solved twice
        assert len(calls) + result.reduced_solves == result.outer_iters
        assert len(calls) > 0
        assert all(call["kwargs"]["tol"] == admm.tol_in for call in calls)

    def test_default_tau_matches_the_plain_solve(self, monkeypatch):
        # tol is inert at tau_supp=None: dropping it reproduces every
        # output bit
        f = small_phantom(seed=3)
        admm = FAST["admm"]
        traced = decompose(f, MODEL, admm=admm)
        original = decompose_module.admm_solve
        monkeypatch.setattr(decompose_module, "admm_solve", lambda *args, **kwargs: original(*args))
        plain = decompose(f, MODEL, admm=admm)
        assert traced.u.tobytes() == plain.u.tobytes()
        assert traced.v.tobytes() == plain.v.tobytes()
        assert traced.trace == plain.trace

    def test_exact_passes_ignore_the_relative_stop(self, monkeypatch):
        # every pass at the default tau_supp runs at tol_in, which the
        # loose solves' relative stop never touches: a relative stop of 1
        # changes no output bit there, and does change loose runs
        f = small_phantom(seed=3)
        admm = FAST["admm"]
        want, loose = decompose(f, MODEL, admm=admm), decompose(f, MODEL, **FAST)
        monkeypatch.setattr(admm_module, "_RELATIVE_STOP", 1.0)
        got = decompose(f, MODEL, admm=admm)
        assert got.u.tobytes() == want.u.tobytes()
        assert got.v.tobytes() == want.v.tobytes()
        assert got.trace == want.trace
        with warnings.catch_warnings():  # one-sweep loose passes may not converge
            warnings.simplefilter("ignore", RuntimeWarning)
            assert decompose(f, MODEL, **FAST).trace != loose.trace

    def test_failed_descent_check_resolves_at_tol_in(self, monkeypatch):
        calls = _record_solves(monkeypatch)
        admm = FAST["admm"]
        failed = []

        def energy(*args):
            # the first candidate of a loose solve fails H1
            if not failed and calls and calls[-1]["kwargs"]["tol"] > admm.tol_in:
                failed.append(len(calls) - 1)
                return math.inf
            return decomposition_energy(*args)

        monkeypatch.setattr(decompose_module, "decomposition_energy", energy)
        result = decompose(small_phantom(), MODEL, **FAST)
        assert failed
        k = failed[0]  # earlier passes were solved once each
        loose, redo = calls[k], calls[k + 1]
        # the same pass from the same (u_k, v_k), solved again at tol_in
        assert redo["kwargs"]["tol"] == admm.tol_in
        assert all(a is b for a, b in zip(redo["args"], loose["args"]))
        assert redo["kwargs"]["lam0"] is loose["kwargs"]["lam0"]
        exact = admm_solve(*loose["args"], **dict(loose["kwargs"], tol=admm.tol_in))
        assert redo["result"].u.tobytes() == exact.u.tobytes()
        assert redo["result"].v.tobytes() == exact.v.tobytes()
        assert redo["result"].iters == exact.iters > loose["result"].iters
        assert result.trace[k].inner_iters == loose["result"].iters + redo["result"].iters
        assert result.trace.column("inner_iters").sum() == sum(
            call["result"].iters for call in calls
        )
        energy = result.trace.column("energy")
        assert np.all(np.diff(energy) <= 1e-8 * energy[0])
        assert not result.energy_increased and result.converged

    def test_each_solve_starts_from_the_last_dual(self, monkeypatch):
        # with every reduced attempt declined, all passes run admm_solve;
        # the second loose pass, the first with a warm dual, fails H1
        monkeypatch.setattr(decompose_module, "reduced_solve", lambda *args: None)
        calls = _record_solves(monkeypatch)
        admm = FAST["admm"]
        failed = []

        def energy(*args):
            loose = [call for call in calls if call["kwargs"]["tol"] > admm.tol_in]
            if not failed and len(loose) == 2 and loose[-1] is calls[-1]:
                failed.append(len(calls) - 1)
                return math.inf
            return decomposition_energy(*args)

        monkeypatch.setattr(decompose_module, "decomposition_energy", energy)
        result = decompose(small_phantom(), MODEL, **FAST)
        assert result.converged and failed
        k = failed[0]
        loose, redo = calls[k], calls[k + 1]
        assert loose["kwargs"]["lam0"] is not None
        assert redo["kwargs"]["lam0"] is loose["kwargs"]["lam0"]
        exact = admm_solve(*loose["args"], **dict(loose["kwargs"], tol=admm.tol_in))
        assert redo["result"].u.tobytes() == exact.u.tobytes()
        # every other solve starts from the dual its predecessor ended with
        assert calls[0]["kwargs"]["lam0"] is None
        for before, call in zip(calls, calls[1:]):
            if call is not redo:
                assert call["kwargs"]["lam0"] is before["result"].lam

    def test_a_reduced_pass_leaves_the_dual_to_the_next_admm_solve(self, monkeypatch):
        # the first certified reduced pass is kept and every later attempt
        # declines, so admm_solve runs after a reduced pass and starts from
        # the dual of the admm_solve before that pass
        original, kept = decompose_module.reduced_solve, []

        def once(*args):
            result = None if kept else original(*args)
            if result is not None:
                kept.append(len(calls))  # the admm_solve calls before it
            return result

        monkeypatch.setattr(decompose_module, "reduced_solve", once)
        calls = _record_solves(monkeypatch)
        result = decompose(small_phantom(), MODEL)
        assert result.converged and result.reduced_solves == 1
        assert 0 < kept[0] < len(calls)
        for before, call in zip(calls, calls[1:]):
            assert call["kwargs"]["lam0"] is before["result"].lam

    def test_no_layer_call_runs_inside_the_inner_solve(self, monkeypatch):
        # perfbench sums the admm, support.project and energy spans as
        # disjoint parts of one operation
        original = decompose_module.admm_solve
        running = []  # admm_solve calls in progress
        tols = []
        nested = []

        def solve(*args, **kwargs):
            tols.append(kwargs["tol"])
            running.append(None)
            try:
                return original(*args, **kwargs)
            finally:
                running.pop()

        def watch(name):
            fn = getattr(decompose_module, name)

            def watched(*args):
                if running:
                    nested.append(name)
                return fn(*args)

            return watched

        monkeypatch.setattr(decompose_module, "admm_solve", solve)
        for name in ("project_to_support", "decomposition_energy"):
            monkeypatch.setattr(decompose_module, name, watch(name))
        decompose(small_phantom(), MODEL, **FAST)
        assert max(tols) > FAST["admm"].tol_in  # some pass was checked against H1
        assert nested == []


class TestCappedSolves:
    def test_every_capped_solve_counts(self):
        admm = AdmmParams(r=10.0, tol_in=1e-8, maxit_in=3)
        with pytest.warns(RuntimeWarning, match="inner solves stopped at maxit_in=3"):
            result = decompose(small_phantom(), MODEL, FAST["outer"], admm)
        assert result.outer_iters > 0
        # every pass is an ADMM solve capped at 3 sweeps or a reduced one
        assert result.capped_solves == result.outer_iters - result.reduced_solves
        iters = result.trace.column("inner_iters")[:-1]
        assert np.all((iters == 3) | (iters == 0))
        assert np.count_nonzero(iters == 0) == result.reduced_solves

    def test_converged_solves_do_not_count(self, run):
        assert run.capped_solves == 0


class TestRunState:
    def test_a_run_builds_one_state_for_both_solvers(self, monkeypatch):
        built, init = [], admm_module.RunState.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(admm_module.RunState, "__init__", counted)
        calls = _record_passes(monkeypatch)
        # noisy enough that three or more passes still run admm_solve
        result = decompose(small_phantom(sigma=0.2), ModelParams(alpha=0.05, beta=100.0), **FAST)
        solves = [call for call in calls if call["name"] == "admm_solve"]
        tries = [call for call in calls if call["name"] == "reduced_solve"]
        assert len(solves) >= 3 and result.reduced_solves > 0
        assert len(built) == 1
        states = [call["kwargs"]["state"] for call in solves]
        states += [call["args"][3] for call in tries]  # the cache
        assert all(state is built[0] for state in states)

    def test_every_energy_reads_a_spectrum_the_run_has(self, monkeypatch):
        # the first energy reads the state's rfft2(f) (v = f), the later
        # ones each solve's v_hat, so no energy transforms v again
        original, spectra = decompose_module.decomposition_energy, []

        def spied(f, u, v, params, norms=None, v_hat=None):
            spectra.append(v_hat)
            return original(f, u, v, params, norms, v_hat)

        monkeypatch.setattr(decompose_module, "decomposition_energy", spied)
        f = small_phantom(sigma=0.2)
        decompose(f, ModelParams(alpha=0.05, beta=100.0), **FAST)
        assert len(spectra) >= 3 and all(s is not None for s in spectra)
        assert np.array_equal(spectra[0], np.fft.rfft2(f))

    @pytest.mark.parametrize("name", ["two_phase_s0_b0", "two_phase_s0.05_b0.4"])
    def test_each_frozen_mask_is_labelled_once(self, name, monkeypatch, acceptance_fixtures):
        # the projection and the reduced attempts of a pass read one
        # labelling, and a support no pixel leaves keeps its labels
        original, masks = tie_labels, []

        def counted(frozen):
            masks.append(frozen.tobytes())
            return original(frozen)

        # every module that bound the name, so a reference held elsewhere counts too
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("shrinkseg.") and getattr(module, "tie_labels", None) is original:
                monkeypatch.setattr(module, "tie_labels", counted)
        entry = next(e for e in acceptance_fixtures["suite"] if e["name"] == name)
        result = decompose(*fixture_problem(shrinkseg, entry, acceptance_fixtures["solver"], 0))
        assert result.converged and masks
        assert len(masks) == len(set(masks))


class TestRunWarnings:
    """Energy rises, capped solves and unconverged runs are counted and warned about."""

    def test_converged_run_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = decompose(small_phantom(), MODEL, **FAST)
        assert result.converged and result.capped_solves == 0 and result.energy_rises == 0

    def test_capped_and_unconverged_runs_warn_once_each(self):
        admm = AdmmParams(r=10.0, tol_in=1e-8, maxit_in=3)
        outer = OuterParams(tau_supp=1e-3, maxit_out=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = decompose(small_phantom(), MODEL, outer, admm)
        assert not result.converged and result.capped_solves > 0
        found = [w for w in caught if "energy increased" not in str(w.message)]
        assert [str(w.message) for w in found] == [
            f"{result.capped_solves} inner solves stopped at maxit_in=3",
            "decompose stopped unconverged after 2 outer iterations (maxit_out=2)",
        ]
        assert all(w.category is RuntimeWarning and w.filename == __file__ for w in found)

    def test_rises_are_judged_against_the_energy_they_leave(self, monkeypatch):
        # the rise to 1 + 5e-8 is far below 1e-8 E(f, f, f) = 1e-6, the
        # tolerance of old, but 5e-8 of the energy it leaves, so it counts;
        # the next rise, 5e-9 of it, does not
        script = [100.0, 1.0, 1.0 + 5e-8, 1.0 + 5.5e-8]
        calls = []

        def energy(*args):
            calls.append(None)
            return script[min(len(calls), len(script)) - 1]

        monkeypatch.setattr(decompose_module, "decomposition_energy", energy)
        admm = AdmmParams(r=10.0, tol_in=1e-8, maxit_in=500)
        with pytest.warns(RuntimeWarning, match="energy increased") as caught:
            result = decompose(small_phantom(), MODEL, OuterParams(), admm)
        energies = list(result.trace.column("energy"))
        assert energies[:4] == script and len(energies) > 4
        assert result.energy_rises == 1 and result.energy_increased
        assert [w.filename for w in caught if "energy increased" in str(w.message)] == [__file__]

    def test_a_rounding_rise_from_zero_energy_does_not_count(self):
        # a flat image reaches energy 0, then a rise to about 1e-39: no
        # relative tolerance of 0 absorbs it, but eps * E(f, f, f) does
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = decompose(np.full((8, 8), 0.5), ModelParams(alpha=0.1, beta=10.0))
        energies = result.trace.column("energy")
        assert 0.0 in energies[1:-1] and energies[-1] > 0.0
        assert result.energy_rises == 0 and not result.energy_increased


@pytest.mark.skipif(admm_module._SET_THREADS is None,
                    reason="numpy's BLAS exports no thread-count setter")
class TestOneBlasThread:
    """decompose holds numpy's OpenBLAS at one thread, then gives the caller's count back."""

    @pytest.fixture
    def two_threads(self):
        threads = admm_module._GET_THREADS()
        admm_module._SET_THREADS(2)
        yield
        admm_module._SET_THREADS(threads)

    def test_solves_run_on_one_thread_and_the_count_comes_back(self, two_threads, monkeypatch):
        original, seen = decompose_module.admm_solve, []

        def spy(*args, **kwargs):
            seen.append(admm_module._GET_THREADS())
            return original(*args, **kwargs)

        monkeypatch.setattr(decompose_module, "admm_solve", spy)
        decompose(small_phantom(), MODEL, **FAST)
        assert seen and set(seen) == {1}
        assert admm_module._GET_THREADS() == 2

    def test_the_count_comes_back_after_an_error(self, two_threads):
        f = small_phantom()
        f[3, 4] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            decompose(f, MODEL, **FAST)
        assert admm_module._GET_THREADS() == 2

    def test_runs_the_same_without_the_setter(self, monkeypatch):
        want = decompose(small_phantom(), MODEL, **FAST)
        monkeypatch.setattr(admm_module, "_SET_THREADS", None)
        got = decompose(small_phantom(), MODEL, **FAST)
        assert np.array_equal(segment(got.u, 2).labels, segment(want.u, 2).labels)
        assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)

