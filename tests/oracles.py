"""Independent reference implementations used to cross-check the library.

Everything here is deliberately built from different primitives than
the package: dense matrices assembled with kron instead of rolled
arrays, explicit index loops instead of vectorized stencils, and an
exhaustive partition search instead of dynamic programming, and a
depth-first recursion for the k-means layers that the package fills
breadth first, and scipy's connected components for the tie graph
that the package labels by hook and compress. Slow and simple on
purpose. It also holds what only the tests use: the scalar group
shrink, the unscaled reference ADMM loop and the linearized inner
objective.
"""

import itertools
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from shrinkseg.admm import _shrink_field, _shrink_thresholds
from shrinkseg.energy import decomposition_energy
from shrinkseg.grid import compute_symbols, grad, grad_norms


# ---------------------------------------------------------------------------
# Dense periodic difference operators (row-major flattening)


def shift_matrix(n):
    """S with (S x)[i] = x[(i + 1) % n]."""
    return np.roll(np.eye(n), -1, axis=0)


def dense_dx(n):
    d = shift_matrix(n) - np.eye(n)
    return np.kron(np.eye(n), d)


def dense_dy(n):
    d = shift_matrix(n) - np.eye(n)
    return np.kron(d, np.eye(n))


def dense_backward_x(n):
    d = np.eye(n) - shift_matrix(n).T
    return np.kron(np.eye(n), d)


def dense_backward_y(n):
    d = np.eye(n) - shift_matrix(n).T
    return np.kron(d, np.eye(n))


def rolled_forward(u, axis):
    """u[i+1] - u[i] along axis, periodic, built with np.roll."""
    return np.roll(u, -1, axis=axis) - u


def rolled_backward(u, axis):
    """u[i] - u[i-1] along axis, periodic, built with np.roll."""
    return u - np.roll(u, 1, axis=axis)


def rolled_grad_adjoint(p):
    """grad_adjoint of the (2, n, n) field p written with rolled_backward
    (x runs along axis 1)."""
    return -rolled_backward(p[0], 1) - rolled_backward(p[1], 0)


def dense_hessian_channels(n):
    """Matrices for the four second-difference channels, in the order
    xx, xy, yx, yy."""
    fx, fy = dense_dx(n), dense_dy(n)
    bx, by = dense_backward_x(n), dense_backward_y(n)
    return (bx @ fx, fx @ fy, fy @ fx, by @ fy)


def dense_dtd(n):
    fx, fy = dense_dx(n), dense_dy(n)
    return fx.T @ fx + fy.T @ fy


def dense_hth(n):
    return sum(c.T @ c for c in dense_hessian_channels(n))


def dense_solve_uv(f, u_k, qbar, mu, params, rho, r):
    """Assemble the full coupled system and solve it directly.

    qbar and mu are (2, n, n) fields: the gradient auxiliary and the
    unscaled dual."""
    n = f.shape[0]
    nn = n * n
    eye = np.eye(nn)
    a11 = (1.0 + rho) * eye + r * dense_dtd(n)
    a22 = (1.0 + params.gamma) * eye + params.beta * dense_hth(n)
    top = np.hstack([a11, eye])
    bottom = np.hstack([eye, a22])
    system = np.vstack([top, bottom])

    fx, fy = dense_dx(n), dense_dy(n)
    pull = mu - r * qbar
    p1, p2 = pull[0].ravel(), pull[1].ravel()
    rhs1 = f.ravel() + rho * u_k.ravel() - (fx.T @ p1 + fy.T @ p2)
    rhs2 = f.ravel()
    sol = np.linalg.solve(system, np.concatenate([rhs1, rhs2]))
    return sol[:nn].reshape(n, n), sol[nn:].reshape(n, n)


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


def half_spectrum_sq_norm(x_hat, n):
    """Squared norm of the real n x n grid whose rfft2 is x_hat, by
    Parseval over the full spectrum rebuilt from the half spectrum."""
    total = 2.0 * np.vdot(x_hat, x_hat).real
    total -= np.vdot(x_hat[:, 0], x_hat[:, 0]).real
    if n % 2 == 0:
        total -= np.vdot(x_hat[:, -1], x_hat[:, -1]).real
    return float(total) / (n * n)


def reference_admm_solve(f, u_k, v_k, weights, support, params, rho, admm):
    """The splitting iteration with the dual mu carried unscaled.

    Each sweep shrinks Du + mu/r, solves for (u, v_hat) with the pull
    mu - r q through rolled_grad_adjoint, steps mu by r (Du - q), and measures
    the (u, v) update from pixel differences of u and the half-spectrum
    norm of the v_hat difference. Returns (u, v, iters).
    """
    n = f.shape[0]
    r = admm.r
    symbols = compute_symbols(n)
    a = 1.0 + rho + r * symbols.dtd
    b = 1.0 + params.gamma + params.beta * symbols.hth
    inv_det = 1.0 / (a * b - 1.0)
    rhs_hat = np.fft.rfft2(f + rho * u_k)
    f_hat = np.fft.rfft2(f)
    u0_hat = (b * rhs_hat - f_hat) * inv_det
    v0_hat = (a * f_hat - rhs_hat) * inv_det
    b_det = b * inv_det

    thresholds = _shrink_thresholds(weights, support.active, params.alpha, r)
    du = np.empty((2, n, n))
    grad(u_k, out=du)
    mu = np.zeros((2, n, n))
    u = u_k
    v_hat = np.fft.rfft2(v_k)
    u_sq = float(np.vdot(u, u))
    v_sq = half_spectrum_sq_norm(v_hat, n)
    iters = 0
    for iters in range(1, admm.maxit_in + 1):
        q = _shrink_field(mu / r + du, thresholds)
        pull = mu - r * q
        p_hat = np.fft.rfft2(rolled_grad_adjoint(pull))
        u_new = np.fft.irfft2(u0_hat - b_det * p_hat, s=(n, n))
        v_hat_new = v0_hat + inv_det * p_hat
        grad(u_new, out=du)
        mu += r * (du - q)
        step_u = u_new - u
        change = float(np.vdot(step_u, step_u))
        change += half_spectrum_sq_norm(v_hat_new - v_hat, n)
        u, v_hat = u_new, v_hat_new
        if np.sqrt(change) <= admm.tol_in * np.sqrt(u_sq + v_sq):
            break
        u_sq = float(np.vdot(u, u))
        v_sq = half_spectrum_sq_norm(v_hat, n)
    return u, np.fft.irfft2(v_hat, s=(n, n)), iters


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
    n = f.shape[0]
    total = 0.5 * np.sum((f - u - v) ** 2)
    for i in range(n):
        for j in range(n):
            gx = u[i, (j + 1) % n] - u[i, j]
            gy = u[(i + 1) % n, j] - u[i, j]
            norm = np.hypot(gx, gy)
            if norm > 0:
                total += params.alpha * params.potential.value(norm)
    hess = 0.0
    for i in range(n):
        for j in range(n):
            fx = v[i, (j + 1) % n] - v[i, j]
            fx_prev = v[i, j] - v[i, (j - 1) % n]
            fy = v[(i + 1) % n, j] - v[i, j]
            fy_prev = v[i, j] - v[(i - 1) % n, j]
            xx = fx - fx_prev
            yy = fy - fy_prev
            fy_right = v[(i + 1) % n, (j + 1) % n] - v[i, (j + 1) % n]
            xy = fy_right - fy
            fx_down = v[(i + 1) % n, (j + 1) % n] - v[(i + 1) % n, j]
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
    n = support.n
    idx = np.arange(n * n).reshape(n, n)
    src = idx[frozen]
    right = np.roll(idx, -1, axis=1)[frozen]
    down = np.roll(idx, -1, axis=0)[frozen]
    ties = coo_matrix(
        (
            np.ones(2 * src.size, dtype=np.int8),
            (np.concatenate([src, src]), np.concatenate([right, down])),
        ),
        shape=(n * n, n * n),
    )
    _, component = connected_components(ties, directed=False)
    sums = np.bincount(component, weights=u.ravel())
    counts = np.bincount(component)
    return (sums / counts)[component].reshape(n, n)


# ---------------------------------------------------------------------------
# Constrained inner problem by projected subgradient descent


def tie_components(frozen):
    """Group pixels into components linked by frozen right/down ties,
    found by breadth-first search over an explicit adjacency list."""
    n = frozen.shape[0]
    adjacency = {(i, j): [] for i in range(n) for j in range(n)}
    for i in range(n):
        for j in range(n):
            if frozen[i, j]:
                for nb in ((i, (j + 1) % n), ((i + 1) % n, j)):
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
    basis = np.zeros((n * n, len(order)))
    for (i, j), c in comp.items():
        basis[i * n + j, c] = 1.0
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
