"""Independent reference implementations used to cross-check the library.

Everything here is deliberately built from different primitives than
the package: dense matrices assembled with kron instead of rolled
arrays, explicit index loops instead of vectorized stencils, and an
exhaustive partition search instead of dynamic programming. Slow and
simple on purpose.
"""

import itertools

import numpy as np


# ---------------------------------------------------------------------------
# Dense periodic difference operators (row-major flattening)


def shift_matrix(n):
    """S with (S x)[i] = x[(i + 1) % n]."""
    return np.roll(np.eye(n), -1, axis=0)


def dense_forward_x(n):
    d = shift_matrix(n) - np.eye(n)
    return np.kron(np.eye(n), d)


def dense_forward_y(n):
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
    """grad_adjoint written with rolled_backward (x runs along axis 1)."""
    return -rolled_backward(p.dx, 1) - rolled_backward(p.dy, 0)


def dense_hessian_channels(n):
    """Matrices for the four second-difference channels, in the order
    xx, xy, yx, yy."""
    fx, fy = dense_forward_x(n), dense_forward_y(n)
    bx, by = dense_backward_x(n), dense_backward_y(n)
    return (bx @ fx, fx @ fy, fy @ fx, by @ fy)


def dense_dtd(n):
    fx, fy = dense_forward_x(n), dense_forward_y(n)
    return fx.T @ fx + fy.T @ fy


def dense_hth(n):
    return sum(c.T @ c for c in dense_hessian_channels(n))


def dense_solve_uv(f, u_k, qbar, mu, params, rho, r):
    """Assemble the full coupled system and solve it directly."""
    n = f.shape[0]
    nn = n * n
    eye = np.eye(nn)
    a11 = (1.0 + rho) * eye + r * dense_dtd(n)
    a22 = (1.0 + params.gamma) * eye + params.beta * dense_hth(n)
    top = np.hstack([a11, eye])
    bottom = np.hstack([eye, a22])
    system = np.vstack([top, bottom])

    fx, fy = dense_forward_x(n), dense_forward_y(n)
    p1 = (mu.dx - r * qbar.dx).ravel()
    p2 = (mu.dy - r * qbar.dy).ravel()
    rhs1 = f.ravel() + rho * u_k.ravel() - (fx.T @ p1 + fy.T @ p2)
    rhs2 = f.ravel()
    sol = np.linalg.solve(system, np.concatenate([rhs1, rhs2]))
    return sol[:nn].reshape(n, n), sol[nn:].reshape(n, n)


# ---------------------------------------------------------------------------
# Brute-force group shrinkage


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
# Loop-based energies and metrics


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

    fx, fy = dense_forward_x(n), dense_forward_y(n)
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
