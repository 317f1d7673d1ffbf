"""Acceptance gate: twelve go/no-go checks, one per test.

Each test prints a single pass/fail line (capture is bypassed) so the
gate can be read off a plain pytest run. Tolerances are frozen here
and in tests/fixtures/acceptance.json; loosening them is not a fix.
"""

import subprocess
import sys
import time

import numpy as np

import oracles
from oracles import linearized_energy, shrink_group
from shrinkseg import AdmmParams, ModelParams, cv, decomposition_energy, jaccard, kmeans_1d
from shrinkseg.admm import RunState, admm_solve, solve_uv
from shrinkseg.grid import compute_symbols, grad, grad_adjoint, grad_norms
from shrinkseg.support import initial_support


def test_criterion_01_operator_adjointness(announce):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    # the Hessian exists only as its symbol: its dense channels C give
    # beta/2 sum ||C v||^2, which the energy must reproduce by Parseval
    channels = {n: oracles.dense_hessian_channels(n) for n in (4, 8, 16)}
    params = ModelParams(alpha=1.0, beta=1.0, gamma=1e-8)
    worst = 0.0
    sizes = [4] * 34 + [8] * 33 + [16] * 33
    for n in sizes:
        u = rng.standard_normal((n, n))
        p = rng.standard_normal((2, n, n))
        lhs = float(np.sum(grad(u) * p))
        rhs = float(np.sum(u * grad_adjoint(p)))
        tol = 1e-10 * np.linalg.norm(u) * np.linalg.norm(p)
        worst = max(worst, abs(lhs - rhs) / max(tol, 1e-300))

        # with f = v and u = 0 only the smoothness and ridge terms remain
        smooth = decomposition_energy(u, np.zeros_like(u), u, params)
        smooth -= 0.5 * params.gamma * float(np.sum(u * u))
        dense = 0.5 * sum(float(np.sum((c @ u.ravel()) ** 2)) for c in channels[n])
        worst = max(worst, abs(smooth - dense) / (1e-10 * dense))

    # spectral symbols against the rfft2 of each dense operator's impulse response
    sym_err = 0.0
    for n in (4, 8, 16):
        symbols = compute_symbols((n, n))
        for dense, symbol in (
            (oracles.dense_dtd(n), symbols.dtd),
            (oracles.dense_hth(n), symbols.hth),
        ):
            response = np.fft.rfft2(dense[:, 0].reshape(n, n))
            sym_err = max(sym_err, float(np.abs(response - symbol).max()))

    # n x m grids, drawn after the square ones: adjointness, the Parseval
    # smoothness term and the symbols against the Kronecker oracles
    for shape in oracles.RECT_SHAPES:
        u = rng.standard_normal(shape)
        p = rng.standard_normal((2, *shape))
        lhs = float(np.sum(grad(u) * p))
        rhs = float(np.sum(u * grad_adjoint(p)))
        tol = 1e-10 * np.linalg.norm(u) * np.linalg.norm(p)
        worst = max(worst, abs(lhs - rhs) / max(tol, 1e-300))
        smooth = decomposition_energy(u, np.zeros_like(u), u, params)
        smooth -= 0.5 * params.gamma * float(np.sum(u * u))
        dense_channels = oracles.dense_hessian_channels(*shape)
        dense = 0.5 * sum(float(np.sum((c @ u.ravel()) ** 2)) for c in dense_channels)
        worst = max(worst, abs(smooth - dense) / (1e-10 * dense))
        symbols = compute_symbols(shape)
        for dense, symbol in (
            (oracles.dense_dtd(*shape), symbols.dtd),
            (oracles.dense_hth(*shape), symbols.hth),
        ):
            response = np.fft.rfft2(dense[:, 0].reshape(shape))
            sym_err = max(sym_err, float(np.abs(response - symbol).max()))
    elapsed = time.perf_counter() - start

    ok = worst <= 1.0 and sym_err <= 1e-10 and elapsed < 5.0
    announce(1, ok, f"adjoint residual {worst:.2e} of tol, symbols {sym_err:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_spectral_solver_equivalence(announce):
    rng = np.random.default_rng(2)
    n = 8
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        f = rng.standard_normal((n, n))
        u_k = rng.standard_normal((n, n))
        qbar = rng.standard_normal((2, n, n))
        mu = rng.standard_normal((2, n, n))
        params = ModelParams(
            alpha=0.1,
            beta=float(rng.uniform(0.5, 200.0)),
            gamma=float(rng.uniform(1e-8, 0.5)),
        )
        rho = float(rng.uniform(1e-8, 0.5))
        r = float(rng.uniform(0.5, 20.0))
        system = RunState(f, params, rho, r).start(u_k, np.zeros_like(f))
        pull = mu / r - qbar
        u, p_hat = solve_uv(system, pull)
        v = np.fft.irfft2(system.v_hat(p_hat), s=(n, n))
        du, dv = oracles.dense_solve_uv(f, u_k, qbar, mu, params, rho, r)
        scale = max(np.abs(du).max(), np.abs(dv).max())
        worst = max(worst, max(np.abs(u - du).max(), np.abs(v - dv).max()) / scale)

    # n x m grids, drawn after the square instances
    for shape in oracles.RECT_SHAPES:
        f = rng.standard_normal(shape)
        u_k = rng.standard_normal(shape)
        qbar = rng.standard_normal((2, *shape))
        mu = rng.standard_normal((2, *shape))
        params = ModelParams(
            alpha=0.1,
            beta=float(rng.uniform(0.5, 200.0)),
            gamma=float(rng.uniform(1e-8, 0.5)),
        )
        rho = float(rng.uniform(1e-8, 0.5))
        r = float(rng.uniform(0.5, 20.0))
        system = RunState(f, params, rho, r).start(u_k, np.zeros_like(f))
        u, p_hat = solve_uv(system, mu / r - qbar)
        v = np.fft.irfft2(system.v_hat(p_hat), s=shape)
        du, dv = oracles.dense_solve_uv(f, u_k, qbar, mu, params, rho, r)
        scale = max(np.abs(du).max(), np.abs(dv).max())
        worst = max(worst, max(np.abs(u - du).max(), np.abs(v - dv).max()) / scale)
    elapsed = time.perf_counter() - start

    count = 20 + len(oracles.RECT_SHAPES)
    ok = worst <= 1e-8 and elapsed < 10.0
    announce(2, ok, f"max rel err {worst:.2e} over {count} instances, {elapsed:.1f}s")
    assert ok


def test_criterion_03_shrinkage_brute_force(announce):
    rng = np.random.default_rng(3)
    worst_arg = 0.0
    worst_obj = 0.0
    for _ in range(50):
        angle = rng.uniform(0, 2 * np.pi)
        radius = rng.uniform(0.005, 0.045)
        z = radius * np.array([np.cos(angle), np.sin(angle)])
        threshold = float(rng.uniform(0.001, 0.06))
        q = shrink_group(z, threshold)
        bq, bobj = oracles.brute_shrink(z, threshold, step=1e-4)
        worst_arg = max(worst_arg, float(np.abs(q - bq).max()))
        worst_obj = max(
            worst_obj, oracles.shrink_objective(q, z, threshold) - bobj
        )
    ok = worst_arg <= 1e-3 and worst_obj <= 1e-6
    announce(3, ok, f"arg dev {worst_arg:.2e}, obj excess {worst_obj:.2e}, 50 pairs")
    assert ok


def test_criterion_04_inner_solver_optimality(announce):
    rng = np.random.default_rng(4)
    n = 4
    worst = 0.0
    for _ in range(10):
        f = np.where(rng.random((n, n)) > 0.5, 0.9, 0.1)
        f += 0.02 * rng.standard_normal((n, n))
        u_k = f.copy()
        norms = grad_norms(grad(u_k))
        support = initial_support(norms, float(rng.uniform(0.02, 0.3)))
        params = ModelParams(
            alpha=float(rng.uniform(0.1, 0.3)),
            beta=float(rng.uniform(0.5, 2.0)),
            gamma=float(rng.uniform(0.3, 0.6)),
        )
        weights = np.zeros_like(f)
        lit = support.active & (norms > 0)
        weights[lit] = params.slope(norms[lit])
        rho = float(rng.uniform(0.3, 0.6))
        inner = admm_solve(
            f, u_k, np.zeros_like(f), weights, support, params, rho,
            AdmmParams(r=5.0, tol_in=1e-13, maxit_in=20000),
        )
        g_admm = linearized_energy(f, inner.u, inner.v, u_k, weights, support, params, rho)
        g_best, _, _ = oracles.projected_subgradient_gk(
            f, u_k, weights, support, params, rho, iters=30000
        )
        worst = max(worst, abs(g_admm - g_best) / abs(g_best))
    ok = worst <= 1e-5
    announce(4, ok, f"max rel objective gap {worst:.2e} over 10 instances")
    assert ok


def test_criterion_05_energy_monotone(announce, suite_runs):
    worst = -np.inf
    flagged = 0
    for run in suite_runs:
        energy = run["result"].trace.column("energy")
        worst = max(worst, float(np.diff(energy).max() / energy[0]))
        flagged += int(run["result"].energy_increased)
    ok = worst <= 1e-8 and flagged == 0
    announce(
        5, ok,
        f"max energy increase {worst:.2e} of F0 across {len(suite_runs)} runs",
    )
    assert ok


def test_criterion_06_support_monotone_and_stable(announce, suite_runs, quality_runs):
    runs = suite_runs + list(quality_runs.values())
    grows = 0
    unstable = 0
    converged = 0
    for run in runs:
        support = run["result"].trace.column("support_size")
        if np.any(np.diff(support) > 0):
            grows += 1
        if run["result"].converged:
            converged += 1
            if support[-1] != support[-2]:
                unstable += 1
    ok = grows == 0 and unstable == 0 and converged == len(runs)
    announce(
        6, ok,
        f"{len(runs)} runs: {grows} grew, {converged} converged, {unstable} unstable tails",
    )
    assert ok


def _quality_criterion(number, run, announce):
    """Criteria 7 and 8: the pipeline's labels and u on one quality run
    against the entry's JS floor, CV ceiling and time limit."""
    entry = run["entry"]
    js, spread = [], []
    for phase in range(1, entry["k"] + 1):
        region = run["phantom"].truth_labels == phase
        js.append(jaccard(run["labels"] == phase, region))
        spread.append(abs(cv(run["u"], region)))
    js_min, cv_max = min(js), max(spread)
    ok = (
        js_min >= entry["js_min"]
        and cv_max <= entry["cv_max"]
        and run["elapsed"] <= entry["time_limit"]
    )
    announce(
        number, ok,
        f"JS min {js_min:.4f} (>= {entry['js_min']}), CV max {cv_max:.4f} "
        f"(<= {entry['cv_max']}), {run['elapsed']:.1f}s",
    )
    assert ok


def test_criterion_07_two_phase_quality(announce, quality_runs):
    _quality_criterion(7, quality_runs["two_phase_n128"], announce)


def test_criterion_08_five_phase_quality(announce, quality_runs):
    _quality_criterion(8, quality_runs["five_phase_n128"], announce)


def test_criterion_09_gradient_gap(announce, suite_runs, quality_runs):
    from conftest import stable_window_ratios

    floor_violations = 0
    drop_violations = 0
    checked = 0
    worst_margin = np.inf
    for run in suite_runs + list(quality_runs.values()):
        if not run["result"].converged:
            continue
        checked += 1
        ratios = stable_window_ratios(run["result"])
        final = float(ratios[-1])
        floor = run["entry"]["gap_floor"]
        worst_margin = min(worst_margin, final / floor)
        if final < floor:
            floor_violations += 1
        if np.any(ratios[1:] < 0.5 * ratios[:-1]):
            drop_violations += 1
    ok = checked > 0 and floor_violations == 0 and drop_violations == 0
    announce(
        9, ok,
        f"{checked} converged runs, min final/floor {worst_margin:.2f}, "
        f"{drop_violations} window drops > 50%",
    )
    assert ok


def test_criterion_10_kmeans_exhaustive(announce):
    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(100):
        size = int(rng.integers(4, 31))
        if trial % 2:
            values = rng.uniform(0.0, 1.0, size)
        else:
            values = rng.integers(0, 8, size) / 7.0  # duplicates on purpose
        distinct = len(np.unique(values))
        k = int(rng.integers(2, min(4, distinct) + 1))
        means = kmeans_1d(values, k)
        _, best_cost = oracles.exhaustive_kmeans(values, k)
        worst = max(worst, oracles.wcss(values, means) - best_cost)
    ok = worst <= 1e-9
    announce(10, ok, f"max WCSS excess {worst:.2e} over 100 inputs")
    assert ok


def test_criterion_11_metric_sanity(announce):
    rng = np.random.default_rng(11)
    worst_cv = 0.0
    asym = 0
    for _ in range(1000):
        u = rng.uniform(0.5, 1.5, (6, 6))
        region = rng.random((6, 6)) > 0.4
        if not region.any():
            region[0, 0] = True
        scale = float(rng.uniform(1e-3, 1e3))
        worst_cv = max(worst_cv, abs(cv(scale * u, region) - cv(u, region)))
    for _ in range(1000):
        a = rng.random((6, 6)) > 0.5
        b = rng.random((6, 6)) > 0.5
        if not (a.any() or b.any()):
            a[0, 0] = True
        if jaccard(a, b) != jaccard(b, a):
            asym += 1
    ok = worst_cv <= 1e-12 and asym == 0
    announce(11, ok, f"cv scale dev {worst_cv:.2e}, {asym} asymmetric jaccard pairs")
    assert ok


def test_criterion_12_cli_determinism(announce, tmp_path):
    spec = {
        "n": 32,
        "phase_values": [0.3, 0.8],
        "shapes": [
            {"type": "disk", "row": 16, "col": 11, "radius": 7, "phase": 2},
            {"type": "rect", "row0": 5, "col0": 22, "row1": 17, "col1": 29, "phase": 2},
        ],
        "bias_amplitude": 0.4,
        "bias_kind": "linear_ramp",
        "noise_sigma": 0.05,
        "composition": "multiplicative",
        "seed": 7,
    }
    config = {"alpha": 0.5, "beta": 1000.0, "K": 2, "log_domain": True}
    import json

    spec_path = tmp_path / "spec.json"
    config_path = tmp_path / "config.json"
    spec_path.write_text(json.dumps(spec))
    config_path.write_text(json.dumps(config))

    def invoke(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "shrinkseg.cli", *argv],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    invoke("synth", str(spec_path), "phantom")
    invoke("run", "--config", str(config_path), "--truth", "phantom_truth.csv",
           "phantom_f.csv", "a/out")
    invoke("run", "--config", str(config_path), "--truth", "phantom_truth.csv",
           "phantom_f.csv", "b/out")

    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    mismatched = [
        name
        for name in names
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    ok = len(names) >= 8 and not mismatched
    announce(12, ok, f"{len(names)} output files byte-identical, mismatches: {mismatched}")
    assert ok
