"""Independent reference implementations used to cross-check the library.

Everything here is deliberately built from different primitives than
the package: dense matrices assembled with kron instead of rolled
arrays, explicit index loops instead of vectorized stencils, and an
exhaustive partition search instead of dynamic programming, and a
depth-first recursion and a single-pass breadth-first fill for the
k-means layers that the package fills breadth first in bounded blocks,
and scipy's connected components for the tie graph
that the package labels by hook and compress. Slow and simple on
purpose. It also holds what only the tests use: the scalar group
shrink, the unscaled reference ADMM loop, the linearized inner
objective and the trace CSV reader.
"""

import itertools
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from shrinkseg import admm as admm_module
from shrinkseg.admm import _shrink_field, _shrink_thresholds
from shrinkseg.decompose import IterationTrace, TraceRow
from shrinkseg.energy import decomposition_energy
from shrinkseg.grid import compute_symbols, grad, grad_norms
from shrinkseg.imgio import TRACE_HEADER


# ---------------------------------------------------------------------------
# Dense periodic difference operators on n x m grids (row-major
# flattening: pixel (i, j) is entry i * m + j). Each builder takes the
# row count n and the column count m, which defaults to n. The 2D
# operators are Kronecker products of 1D periodic differences: x acts
# on the column index, y on the row index.


# n x m shapes with n != m for the rectangular-grid tests: wide and
# tall, each with odd and even column counts (the Nyquist column of the
# half spectrum exists only for even m)
RECT_SHAPES = [(3, 5), (5, 3), (4, 7), (7, 4), (5, 8), (8, 5), (2, 9), (7, 2)]


def shift_matrix(n):
    """S with (S x)[i] = x[(i + 1) % n]."""
    return np.roll(np.eye(n), -1, axis=0)


def forward_1d(n):
    return shift_matrix(n) - np.eye(n)


def backward_1d(n):
    return np.eye(n) - shift_matrix(n).T


def dense_dx(n, m=None):
    m = n if m is None else m
    return np.kron(np.eye(n), forward_1d(m))


def dense_dy(n, m=None):
    m = n if m is None else m
    return np.kron(forward_1d(n), np.eye(m))


def dense_backward_x(n, m=None):
    m = n if m is None else m
    return np.kron(np.eye(n), backward_1d(m))


def dense_backward_y(n, m=None):
    m = n if m is None else m
    return np.kron(backward_1d(n), np.eye(m))


def rolled_forward(u, axis):
    """u[i+1] - u[i] along axis, periodic, built with np.roll."""
    return np.roll(u, -1, axis=axis) - u


def rolled_backward(u, axis):
    """u[i] - u[i-1] along axis, periodic, built with np.roll."""
    return u - np.roll(u, 1, axis=axis)


def rolled_grad_adjoint(p):
    """grad_adjoint of the (2, n, m) field p written with rolled_backward
    (x runs along axis 1)."""
    return -rolled_backward(p[0], 1) - rolled_backward(p[1], 0)


def dense_hessian_channels(n, m=None):
    """Matrices for the four second-difference channels, in the order
    xx, xy, yx, yy."""
    fx, fy = dense_dx(n, m), dense_dy(n, m)
    bx, by = dense_backward_x(n, m), dense_backward_y(n, m)
    return (bx @ fx, fx @ fy, fy @ fx, by @ fy)


def dense_dtd(n, m=None):
    fx, fy = dense_dx(n, m), dense_dy(n, m)
    return fx.T @ fx + fy.T @ fy


def dense_hth(n, m=None):
    return sum(c.T @ c for c in dense_hessian_channels(n, m))


def dense_solve_uv(f, u_k, qbar, mu, params, rho, r):
    """Assemble the full coupled system and solve it directly.

    qbar and mu are (2, n, m) fields: the gradient auxiliary and the
    unscaled dual."""
    shape = f.shape
    size = f.size
    eye = np.eye(size)
    a11 = (1.0 + rho) * eye + r * dense_dtd(*shape)
    a22 = (1.0 + params.gamma) * eye + params.beta * dense_hth(*shape)
    top = np.hstack([a11, eye])
    bottom = np.hstack([eye, a22])
    system = np.vstack([top, bottom])

    fx, fy = dense_dx(*shape), dense_dy(*shape)
    pull = mu - r * qbar
    p1, p2 = pull[0].ravel(), pull[1].ravel()
    rhs1 = f.ravel() + rho * u_k.ravel() - (fx.T @ p1 + fy.T @ p2)
    rhs2 = f.ravel()
    sol = np.linalg.solve(system, np.concatenate([rhs1, rhs2]))
    return sol[:size].reshape(shape), sol[size:].reshape(shape)


def spectral_system(f, u_k, v_k, params, rho, r):
    """The spectral data of one inner solve, built from scratch.

    The package's RunState builds the same fields, split into those of
    the run and those of the pass start (u_k, v_k); this one pass does
    all of them in the package's own expressions, so the two must agree
    bit for bit. Returns a dict by RunState's field names.
    """
    symbols = compute_symbols(f.shape)
    a = 1.0 + rho + r * symbols.dtd
    b = 1.0 + params.gamma + params.beta * symbols.hth
    inv_det = 1.0 / (a * b - 1.0)
    rhs_hat = np.fft.rfft2(f + rho * u_k)
    f_hat = np.fft.rfft2(f)
    u0_hat = (b * rhs_hat - f_hat) * inv_det
    v0_hat = (a * f_hat - rhs_hat) * inv_det
    u_pull = r * (b * inv_det)
    v_pull = r * inv_det
    gain = np.hypot(u_pull, v_pull)
    cos, sin = v_pull / gain, u_pull / gain
    parseval = np.sqrt(symbols.weights)

    def rotate(u_hat, v_hat):
        fixed = parseval * (cos * u_hat + sin * v_hat)
        return float(np.vdot(fixed, fixed).real), parseval * (cos * v_hat - sin * u_hat)

    norm_floor, norm_offset = rotate(u0_hat, v0_hat)
    move_floor, move_offset = rotate(u0_hat - np.fft.rfft2(u_k), v0_hat - np.fft.rfft2(v_k))
    scale = 1.0 / f.size
    return dict(
        shape=f.shape,
        b=b,
        f_hat=f_hat,
        smooth_f=np.fft.irfft2(f_hat * (1.0 - 1.0 / b), s=f.shape),
        u0_hat=u0_hat * scale,
        v0_hat=v0_hat,
        u_pull=(u_pull * scale).astype(np.complex128),
        v_pull=v_pull,
        step_weight=(parseval * gain).astype(np.complex128),
        norm_offset=norm_offset,
        norm_floor=norm_floor,
        move_offset=move_offset,
        move_floor=move_floor,
    )


# ---------------------------------------------------------------------------
# Brute-force group shrinkage


def shrink_group(z, threshold):
    """Minimizer of threshold*|q| + |q - z|^2/2 over 2-vectors q.

    Scales z toward the origin by 1 - threshold/|z|, clamped at zero;
    the zero vector maps to itself for any threshold.
    """
    z = np.asarray(z, dtype=np.float64)
    norm = float(np.hypot(z[0], z[1]))
    if norm == 0.0:
        return np.zeros(2)
    return max(1.0 - threshold / norm, 0.0) * z


def brute_shrink(z, threshold, step=1e-4):
    """Grid search of min_q threshold*|q| + 0.5*|q - z|^2 over a disk
    big enough to contain the minimizer (it lies on the segment [0, z])."""
    z = np.asarray(z, dtype=np.float64)
    radius = float(np.hypot(z[0], z[1])) + 2 * step
    axis = np.arange(-radius, radius + step, step)
    qx, qy = np.meshgrid(axis, axis, indexing="ij")
    objective = threshold * np.hypot(qx, qy) + 0.5 * ((qx - z[0]) ** 2 + (qy - z[1]) ** 2)
    flat = int(np.argmin(objective))
    best = np.array([qx.flat[flat], qy.flat[flat]])
    return best, float(objective.flat[flat])


def shrink_objective(q, z, threshold):
    q = np.asarray(q, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    return float(threshold * np.hypot(q[0], q[1]) + 0.5 * np.sum((q - z) ** 2))


# ---------------------------------------------------------------------------
# Reference ADMM loop: unscaled dual, stopping test on pixels and Parseval


def half_spectrum_sq_norm(x_hat, shape):
    """Squared norm of the real grid of shape (n, m) whose rfft2 is
    x_hat, by Parseval over the full spectrum rebuilt from the half
    spectrum."""
    n, m = shape
    total = 2.0 * np.vdot(x_hat, x_hat).real
    total -= np.vdot(x_hat[:, 0], x_hat[:, 0]).real
    if m % 2 == 0:
        total -= np.vdot(x_hat[:, -1], x_hat[:, -1]).real
    return float(total) / (n * m)


def reference_anderson(history, x, pull):
    """The pull after one block of Anderson mixing, and whether it moved.

    history lists the (residual, G(x)) pairs, as flat arrays, of the
    blocks since the last restart; the block that started at x ends at
    pull. The history restarts when the residual grows or the least
    squares system of the last two differences is near singular;
    otherwise the pull becomes G(x) - dG gamma for gamma = argmin
    ||f - dF gamma||. Mixing is linear, so the pull may carry any scale.
    """
    g = pull.ravel().copy()
    f = g - x
    if history and f @ f > history[-1][0] @ history[-1][0]:
        history.clear()
    history.append((f, g))
    if len(history) < 3:
        return pull, False
    del history[:-3]
    (f2, g2), (f1, g1), _ = history
    df = np.column_stack([f - f1, f1 - f2])
    gram = df.T @ df
    if np.linalg.det(gram) <= admm_module._SINGULAR * gram[0, 0] * gram[1, 1]:
        del history[:-1]
        return pull, False
    gamma = np.linalg.lstsq(df, f, rcond=None)[0]
    mixed = g - np.column_stack([g - g1, g1 - g2]) @ gamma
    return mixed.reshape(pull.shape), True


def reference_admm_solve(f, u_k, v_k, weights, support, params, rho, admm, tol=None, lam0=None):
    """The splitting iteration with the dual mu carried unscaled.

    Each sweep shrinks Du + mu/r, solves for (u, v_hat) with the pull
    mu - r q through rolled_grad_adjoint, sets mu to the pull plus r Du,
    and measures the (u, v) update from pixel differences of u and the
    half-spectrum norm of the v_hat difference. Every
    admm_module._MIX_EVERY sweeps the pull is mixed by
    reference_anderson, and a sweep that mixed never stops the loop.
    tol is admm_solve's: a loose loop (tol > admm.tol_in) also stops
    once the update is at most admm_module._RELATIVE_STOP times the
    distance of (u, v) from (u_k, v_k), measured in pixels. lam0 is
    admm_solve's scaled start dual, so mu starts at r lam0 (zero when
    None). Returns (u, v, iters).
    """
    shape = f.shape
    r = admm.r
    symbols = compute_symbols(shape)
    a = 1.0 + rho + r * symbols.dtd
    b = 1.0 + params.gamma + params.beta * symbols.hth
    inv_det = 1.0 / (a * b - 1.0)
    rhs_hat = np.fft.rfft2(f + rho * u_k)
    f_hat = np.fft.rfft2(f)
    u0_hat = (b * rhs_hat - f_hat) * inv_det
    v0_hat = (a * f_hat - rhs_hat) * inv_det
    b_det = b * inv_det

    thresholds = _shrink_thresholds(weights, support.active, params.alpha, r)
    du = np.empty((2, *shape))
    grad(u_k, out=du)
    mu = np.zeros((2, *shape)) if lam0 is None else r * np.asarray(lam0, dtype=np.float64)
    u = u_k
    v_hat = np.fft.rfft2(v_k)
    u_sq = float(np.vdot(u, u))
    v_sq = half_spectrum_sq_norm(v_hat, shape)
    iters = 0
    history = []
    loose = tol is not None and tol > admm.tol_in
    tol = admm.tol_in if tol is None else max(tol, admm.tol_in)
    for iters in range(1, admm.maxit_in + 1):
        q = _shrink_field(mu / r + du, thresholds)
        pull = mu - r * q
        mixed = False
        if iters == 1:
            start = pull.ravel().copy()
        elif iters % admm_module._MIX_EVERY == 1:
            pull, mixed = reference_anderson(history, start, pull)
            start = pull.ravel().copy()
        p_hat = np.fft.rfft2(rolled_grad_adjoint(pull))
        u_new = np.fft.irfft2(u0_hat - b_det * p_hat, s=shape)
        v_hat_new = v0_hat + inv_det * p_hat
        grad(u_new, out=du)
        mu = pull + r * du
        step_u = u_new - u
        change = float(np.vdot(step_u, step_u))
        change += half_spectrum_sq_norm(v_hat_new - v_hat, shape)
        u, v_hat = u_new, v_hat_new
        if not mixed and np.sqrt(change) <= tol * np.sqrt(u_sq + v_sq):
            break
        if not mixed and loose:
            move_v = np.fft.irfft2(v_hat, s=shape) - v_k
            move = float(np.vdot(u - u_k, u - u_k)) + float(np.vdot(move_v, move_v))
            if np.sqrt(change) <= admm_module._RELATIVE_STOP * np.sqrt(move):
                break
        u_sq = float(np.vdot(u, u))
        v_sq = half_spectrum_sq_norm(v_hat, shape)
    return u, np.fft.irfft2(v_hat, s=shape), iters


# ---------------------------------------------------------------------------
# Energies and metrics


def linearized_energy(f, u, v, u_prev, weights, support, params, rho, feas_tol=None):
    """Inner objective: tangent-weighted gradient norms plus proximal term.

    weights holds the potential derivative at the linearization point;
    only entries on the active support are read. The v terms come from
    decomposition_energy(v, 0, v), where the fidelity and the gradient
    penalty vanish. When feas_tol is given, a gradient above it on the
    frozen set makes the constrained value infinite and math.inf is
    returned.
    """
    norms = grad_norms(grad(u))
    active = support.active
    if feas_tol is not None and (~active).any() and norms[~active].max() > feas_tol:
        return math.inf
    resid = f - u - v
    step = u - u_prev
    return (
        0.5 * float(np.sum(resid * resid))
        + params.alpha * float(np.sum(weights[active] * norms[active]))
        + 0.5 * rho * float(np.sum(step * step))
        + decomposition_energy(v, np.zeros_like(v), v, params)
    )


def loop_energy(f, u, v, params):
    """Decomposition objective computed with explicit index arithmetic."""
    n, m = f.shape
    total = 0.5 * np.sum((f - u - v) ** 2)
    for i in range(n):
        for j in range(m):
            gx = u[i, (j + 1) % m] - u[i, j]
            gy = u[(i + 1) % n, j] - u[i, j]
            norm = np.hypot(gx, gy)
            if norm > 0:
                total += params.alpha * params.potential(norm)
    hess = 0.0
    for i in range(n):
        for j in range(m):
            fx = v[i, (j + 1) % m] - v[i, j]
            fx_prev = v[i, j] - v[i, (j - 1) % m]
            fy = v[(i + 1) % n, j] - v[i, j]
            fy_prev = v[i, j] - v[(i - 1) % n, j]
            xx = fx - fx_prev
            yy = fy - fy_prev
            fy_right = v[(i + 1) % n, (j + 1) % m] - v[i, (j + 1) % m]
            xy = fy_right - fy
            fx_down = v[(i + 1) % n, (j + 1) % m] - v[(i + 1) % n, j]
            yx = fx_down - fx
            hess += xx * xx + xy * xy + yx * yx + yy * yy
    total += 0.5 * params.beta * hess
    total += 0.5 * params.gamma * np.sum(v * v)
    return float(total)


def loop_cv(u, region):
    vals = [float(u[i, j]) for i, j in zip(*np.nonzero(region))]
    mean = sum(vals) / len(vals)
    var = sum((x - mean) ** 2 for x in vals) / len(vals)
    return var ** 0.5 / mean


def set_jaccard(s1, s2):
    a = {tuple(p) for p in np.argwhere(s1)}
    b = {tuple(p) for p in np.argwhere(s2)}
    return len(a & b) / len(a | b)


def csgraph_project_to_support(u, support):
    """project_to_support with its components labelled by scipy's
    connected_components over a sparse tie matrix."""
    frozen = ~support.active
    if not frozen.any():
        return u.copy()
    size = u.size
    idx = np.arange(size).reshape(u.shape)
    src = idx[frozen]
    right = np.roll(idx, -1, axis=1)[frozen]
    down = np.roll(idx, -1, axis=0)[frozen]
    ties = coo_matrix(
        (
            np.ones(2 * src.size, dtype=np.int8),
            (np.concatenate([src, src]), np.concatenate([right, down])),
        ),
        shape=(size, size),
    )
    _, component = connected_components(ties, directed=False)
    sums = np.bincount(component, weights=u.ravel())
    counts = np.bincount(component)
    return (sums / counts)[component].reshape(u.shape)


def smooth_per_component(label, shape, gamma, beta):
    """admm._smooth's B^T S B with one transform per tie component, of
    its indicator, single pixels included."""
    count = label.max() + 1
    ridge = gamma + beta * compute_symbols(shape).hth
    one = np.empty((count, count))
    for piece in range(count):
        indicator = (label == piece).reshape(shape)
        spread = np.fft.irfft2(np.fft.rfft2(indicator) * (ridge / (1.0 + ridge)), s=shape)
        one[piece] = np.bincount(label, spread.ravel(), count)
    return 0.5 * (one + one.T)


# ---------------------------------------------------------------------------
# Constrained inner problem by projected subgradient descent


def tie_components(frozen):
    """Group pixels into components linked by frozen right/down ties,
    found by breadth-first search over an explicit adjacency list."""
    n, m = frozen.shape
    adjacency = {(i, j): [] for i in range(n) for j in range(m)}
    for i in range(n):
        for j in range(m):
            if frozen[i, j]:
                for nb in ((i, (j + 1) % m), ((i + 1) % n, j)):
                    adjacency[(i, j)].append(nb)
                    adjacency[nb].append((i, j))
    comp = {}
    order = []
    for start in sorted(adjacency):
        if start in comp:
            continue
        index = len(order)
        order.append(start)
        queue = [start]
        comp[start] = index
        while queue:
            node = queue.pop()
            for nb in adjacency[node]:
                if nb not in comp:
                    comp[nb] = index
                    queue.append(nb)
    basis = np.zeros((n * m, len(order)))
    for (i, j), c in comp.items():
        basis[i * m + j, c] = 1.0
    return basis


def projected_subgradient_gk(
    f, u_k, weights, support, params, rho, iters=60000, seed=0
):
    """Minimize the linearized inner objective over the feasible set
    {u constant on every frozen tie component} by subgradient descent
    with Polyak-style steps on the reduced variables.

    Returns the best objective value seen. Accuracy improves with
    strongly convex instances (rho and gamma well above zero).
    """
    n = f.shape[0]
    nn = n * n
    basis = tie_components(~support.active)
    counts = basis.sum(axis=0)

    fx, fy = dense_dx(n), dense_dy(n)
    dx_basis = fx @ basis
    dy_basis = fy @ basis
    hess_channels = dense_hessian_channels(n)
    active = support.active.ravel()
    w = weights.ravel()
    fvec = f.ravel()
    ukvec = u_k.ravel()

    def objective(m, v):
        u = basis @ m
        resid = fvec - u - v
        val = 0.5 * resid @ resid
        gx = fx @ u
        gy = fy @ u
        norms = np.hypot(gx, gy)
        val += params.alpha * np.sum(w[active] * norms[active])
        du = u - ukvec
        val += 0.5 * rho * du @ du
        for ch in hess_channels:
            hv = ch @ v
            val += 0.5 * params.beta * hv @ hv
        val += 0.5 * params.gamma * v @ v
        return float(val)

    def subgradient(m, v):
        u = basis @ m
        resid = u + v - fvec
        gu = resid + rho * (u - ukvec)
        gx = fx @ u
        gy = fy @ u
        norms = np.hypot(gx, gy)
        mask = active & (norms > 0)
        coef = np.zeros(nn)
        coef[mask] = params.alpha * w[mask] / norms[mask]
        gu += fx.T @ (coef * gx) + fy.T @ (coef * gy)
        gm = basis.T @ gu
        gv = resid + params.gamma * v
        for ch in hess_channels:
            gv += params.beta * ch.T @ (ch @ v)
        return gm, gv

    # start from the projection of (u_k, 0)
    m = (basis.T @ ukvec) / counts
    v = np.zeros(nn)
    best = objective(m, v)
    best_m, best_v = m.copy(), v.copy()
    delta = 0.1 * abs(best) + 1e-12
    stall = 0
    for _ in range(iters):
        gm, gv = subgradient(m, v)
        norm_sq = gm @ gm + gv @ gv
        if norm_sq == 0:
            break
        current = objective(m, v)
        step = (current - (best - delta)) / norm_sq
        if step <= 0:
            step = delta / norm_sq
        m = m - step * gm
        v = v - step * gv
        val = objective(m, v)
        if val < best - 1e-14 * abs(best):
            best, best_m, best_v = val, m.copy(), v.copy()
            stall = 0
        else:
            stall += 1
            if stall >= 200:
                delta *= 0.5
                stall = 0
                m, v = best_m.copy(), best_v.copy()
                if delta < 1e-12 * abs(best):
                    break
    return best, (basis @ best_m).reshape(n, n), best_v.reshape(n, n)


# ---------------------------------------------------------------------------
# Exhaustive 1D clustering


def exhaustive_kmeans(values, k):
    """Best within-cluster sum of squares over all contiguous partitions
    of the sorted distinct values; optima of 1D k-means are contiguous."""
    vals, counts = np.unique(np.asarray(values, dtype=np.float64), return_counts=True)
    m = len(vals)
    best_cost = np.inf
    best_means = None
    for cuts in itertools.combinations(range(1, m), k - 1):
        edges = (0, *cuts, m)
        cost = 0.0
        means = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            w = counts[lo:hi]
            x = vals[lo:hi]
            mean = float(np.sum(w * x) / np.sum(w))
            cost += float(np.sum(w * (x - mean) ** 2))
            means.append(mean)
        if cost < best_cost:
            best_cost = cost
            best_means = means
    return np.array(best_means), best_cost


def wcss(values, means):
    """Within-cluster sum of squares when every value joins its nearest mean."""
    values = np.asarray(values, dtype=np.float64).ravel()
    means = np.asarray(means, dtype=np.float64)
    dist = (values[:, None] - means[None, :]) ** 2
    return float(np.sum(dist.min(axis=1)))


def _recursive_fill_layer(
    cost_prev, w, s1, s2, lo, hi, opt_lo, opt_hi, out_cost, out_arg
):
    """Fill out_cost[lo:hi] given the split argmin lies in [opt_lo, opt_hi),
    one recursive call per endpoint, depth first."""
    if lo >= hi:
        return
    mid = (lo + hi) // 2
    upper = min(opt_hi, mid)
    a = np.arange(opt_lo, upper)
    seg_w = w[mid] - w[a]
    seg_cost = (s2[mid] - s2[a]) - (s1[mid] - s1[a]) ** 2 / seg_w
    total = cost_prev[a] + seg_cost
    best = int(np.argmin(total))
    out_cost[mid] = total[best]
    out_arg[mid] = opt_lo + best
    _recursive_fill_layer(
        cost_prev, w, s1, s2, lo, mid, opt_lo, out_arg[mid] + 1, out_cost, out_arg
    )
    _recursive_fill_layer(
        cost_prev, w, s1, s2, mid + 1, hi, out_arg[mid], opt_hi, out_cost, out_arg
    )


def unblocked_fill_layer(cost_prev, w, s1, s2, lo, hi, opt_lo, opt_hi, out_cost, out_arg):
    """Fill out_cost[lo:hi] breadth first as the package does, but with
    every round's candidate splits evaluated in one pass, however many
    there are, and every open subproblem kept in one list."""
    lo, hi = np.array([lo]), np.array([hi])
    opt_lo, opt_hi = np.array([opt_lo]), np.array([opt_hi])
    while lo.size:
        mid = (lo + hi) // 2
        counts = np.minimum(opt_hi, mid) - opt_lo
        ends = np.cumsum(counts)
        starts = ends - counts
        a = np.arange(ends[-1]) + np.repeat(opt_lo - starts, counts)
        seg_w = np.repeat(w[mid], counts) - w[a]
        seg_s1 = np.repeat(s1[mid], counts) - s1[a]
        total = (np.repeat(s2[mid], counts) - s2[a]) - seg_s1**2 / seg_w + cost_prev[a]
        # first minimum of each segment, the one np.argmin would pick
        best = np.minimum.reduceat(total, starts)
        hits = np.flatnonzero(total == np.repeat(best, counts))
        first = hits[np.searchsorted(hits, starts)]
        arg = a[first]
        out_cost[mid] = total[first]
        out_arg[mid] = arg
        left, right = lo < mid, mid + 1 < hi
        lo = np.concatenate([lo[left], mid[right] + 1])
        hi = np.concatenate([mid[left], hi[right]])
        opt_lo = np.concatenate([opt_lo[left], arg[right]])
        opt_hi = np.concatenate([arg[left] + 1, opt_hi[right]])


def recursive_kmeans_1d(values, k):
    """Exact 1D k-means by the same dynamic program as the package, with
    every layer filled in full by a depth-first divide and conquer.

    It evaluates the same floating-point expressions in the same order
    per candidate, so its means are bitwise those of kmeans_1d.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    distinct, weights = np.unique(vals, return_counts=True)
    m = distinct.size
    weights = weights.astype(np.float64)
    w = np.concatenate([[0.0], np.cumsum(weights)])
    s1 = np.concatenate([[0.0], np.cumsum(weights * distinct)])
    s2 = np.concatenate([[0.0], np.cumsum(weights * distinct * distinct)])

    ends = np.arange(m + 1)
    cost = (s2[ends] - s2[0]) - np.divide(
        (s1[ends] - s1[0]) ** 2,
        w[ends] - w[0],
        out=np.zeros(m + 1),
        where=ends > 0,
    )
    splits = []
    for j in range(1, k):
        new_cost = np.full(m + 1, np.inf)
        new_arg = np.zeros(m + 1, dtype=np.intp)
        _recursive_fill_layer(cost, w, s1, s2, j + 1, m + 1, j, m, new_cost, new_arg)
        cost = new_cost
        splits.append(new_arg)

    bounds = [m]
    for arg in reversed(splits):
        bounds.append(int(arg[bounds[-1]]))
    bounds.append(0)
    bounds.reverse()

    means = np.empty(k)
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        means[i] = (s1[b] - s1[a]) / (w[b] - w[a])
    return means


# ---------------------------------------------------------------------------
# Trace CSV reader (the package only writes traces)


def read_trace(path):
    """Parse a trace CSV; max_grad is not serialized and reads as nan."""
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"bad trace header, want {TRACE_HEADER!r}")
    rows = []
    for line in lines[1:]:
        k, energy, increment, support_size, min_nz, inner = line.split(",")
        rows.append(
            TraceRow(
                k=int(k),
                energy=float(energy),
                increment=float(increment),
                support_size=int(support_size),
                min_nonzero_grad=float(min_nz),
                inner_iters=int(inner),
                max_grad=math.nan,
            )
        )
    return IterationTrace(rows)
