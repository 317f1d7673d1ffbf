import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shrinkseg.grid import grad, grad_norms
from shrinkseg.support import (
    SupportSet,
    detect_support,
    initial_support,
    project_to_support,
)


def test_initial_support_strict_threshold():
    u = np.array([[0.0, 0.0], [1.0, 1.0]])
    norms = grad_norms(grad(u))
    tau = float(norms.max())
    s = initial_support(norms, tau)
    assert s.active.sum() == (norms > tau).sum()


def test_initial_support_of_constant_is_empty():
    s = initial_support(grad_norms(grad(np.full((4, 4), 2.0))), 1e-12)
    assert s.size == 0


def test_detect_support_never_grows():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((6, 6))
    prev = SupportSet(active=rng.random((6, 6)) > 0.5)
    nxt = detect_support(grad_norms(grad(u)), prev, 0.0)
    assert not np.any(nxt.active & ~prev.active)


def test_detect_support_rejects_other_shape():
    prev = SupportSet(active=np.ones((4, 4), dtype=bool))
    with pytest.raises(ValueError, match="shapes disagree"):
        detect_support(np.ones((5, 5)), prev, 0.0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tau=st.floats(0.0, 2.0))
def test_detect_support_subset_property(seed, tau):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((5, 5))
    prev = SupportSet(active=rng.random((5, 5)) > 0.3)
    nxt = detect_support(grad_norms(grad(u)), prev, tau)
    assert nxt.size <= prev.size
    assert np.all(prev.active[nxt.active])


def _snake(n):
    """Active everywhere except one path that visits every row and wraps
    from the last row back to the first: it runs once around the torus."""
    active = np.ones((n, n), dtype=bool)
    for i in range(n):
        active[i, i] = False
        active[i, (i + 1) % n] = False
    return active


class TestProjection:
    def test_noop_when_everything_active(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((4, 4))
        s = SupportSet(active=np.ones((4, 4), dtype=bool))
        np.testing.assert_array_equal(project_to_support(u, s), u)

    def test_all_frozen_projects_to_global_mean(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((4, 4))
        s = SupportSet(active=np.zeros((4, 4), dtype=bool))
        np.testing.assert_allclose(project_to_support(u, s), np.full((4, 4), u.mean()))

    def test_frozen_gradients_vanish_exactly(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((8, 8))
        s = SupportSet(active=rng.random((8, 8)) > 0.4)
        p = project_to_support(u, s)
        norms = grad_norms(grad(p))
        assert norms[~s.active].max() == 0.0

    def test_idempotent_to_rounding(self):
        # summing a constant component and dividing back can move the
        # value by an ulp, so equality is up to roundoff only
        rng = np.random.default_rng(4)
        u = rng.standard_normal((8, 8))
        s = SupportSet(active=rng.random((8, 8)) > 0.6)
        once = project_to_support(u, s)
        np.testing.assert_allclose(project_to_support(once, s), once, rtol=1e-14)

    def test_orthogonal_to_feasible_set(self):
        # least-squares projection: the residual is orthogonal to every
        # feasible direction, here tested against component indicators
        rng = np.random.default_rng(5)
        u = rng.standard_normal((6, 6))
        s = SupportSet(active=rng.random((6, 6)) > 0.5)
        p = project_to_support(u, s)
        basis = oracles.tie_components(~s.active)
        residual = (u - p).ravel()
        np.testing.assert_allclose(basis.T @ residual, 0.0, atol=1e-12)

    def test_component_means_match_bfs_oracle(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((7, 7))
        s = SupportSet(active=rng.random((7, 7)) > 0.45)
        p = project_to_support(u, s)
        basis = oracles.tie_components(~s.active)
        counts = basis.sum(axis=0)
        means = (basis.T @ u.ravel()) / counts
        np.testing.assert_allclose(p.ravel(), basis @ means, atol=1e-12)

    # The package labels components by hook and compress; the oracle by
    # scipy's connected_components. bincount adds each component in pixel
    # order under either labelling, so the means must agree bit for bit.
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        active_frac=st.floats(0.0, 1.0),
    )
    def test_bitwise_equal_to_csgraph_oracle(self, n, seed, active_frac):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, n))
        s = SupportSet(active=rng.random((n, n)) < active_frac)
        assert np.array_equal(project_to_support(u, s), oracles.csgraph_project_to_support(u, s))

    @pytest.mark.parametrize(
        "mask",
        [
            lambda n: np.zeros((n, n), dtype=bool),
            lambda n: np.ones((n, n), dtype=bool),
            _snake,
        ],
        ids=["all_frozen", "none_frozen", "torus_snake"],
    )
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_bitwise_equal_to_csgraph_oracle_on_edge_masks(self, mask, n):
        u = np.random.default_rng(n).standard_normal((n, n))
        s = SupportSet(active=mask(n))
        assert np.array_equal(project_to_support(u, s), oracles.csgraph_project_to_support(u, s))

    def test_torus_snake_is_one_component(self):
        n = 9
        frozen = ~_snake(n)
        u = np.random.default_rng(7).standard_normal((n, n))
        p = project_to_support(u, SupportSet(active=~frozen))
        assert np.unique(p[frozen]).size == 1
        assert np.unique(p).size == oracles.tie_components(frozen).shape[1]


def test_support_set_requires_bool():
    with pytest.raises(ValueError):
        SupportSet(active=np.zeros((3, 3)))
