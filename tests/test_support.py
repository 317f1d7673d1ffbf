import gc
import weakref

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
    neighbors,
    project_to_support,
    tie_labels,
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


def test_detect_support_returns_prev_unless_a_pixel_leaves():
    rng = np.random.default_rng(3)
    prev = SupportSet(active=rng.random((6, 6)) > 0.4)
    norms = np.where(prev.active, 2.0, 0.5)
    assert detect_support(norms, prev, 1.0) is prev
    i, j = np.argwhere(prev.active)[0]
    norms[i, j] = 0.5
    nxt = detect_support(norms, prev, 1.0)
    assert nxt is not prev and isinstance(nxt, SupportSet)
    assert nxt.size == prev.size - 1


def test_support_set_holds_a_read_only_copy_of_its_mask():
    rng = np.random.default_rng(4)
    mask = rng.random((7, 7)) > 0.5
    u = rng.standard_normal((7, 7))
    s = SupportSet(active=mask)
    before = project_to_support(u, s)
    with pytest.raises(ValueError):
        s.active[0, 0] = not s.active[0, 0]
    kept = mask.copy()
    mask[:] = ~mask  # the caller's array, not the support's
    assert np.array_equal(s.active, kept)
    assert np.array_equal(project_to_support(u, s), before)


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


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (5, 3), (7, 4), (8, 8), (13, 11), (11, 13)])
@pytest.mark.parametrize("seed", range(3))
def test_grown_labels_equal_tie_labels_along_a_chain(shape, seed):
    rng = np.random.default_rng(seed)
    active = rng.random(shape) < 0.9
    active[-1, :] = active[:, -1] = False  # the wrap ties of both axes join in
    support = SupportSet(active=active)
    for step in range(6):
        shrunk = detect_support(rng.random(shape), support, 0.25 + 0.1 * step)
        if shrunk is support:
            continue
        grown = vars(shrunk)["labels"]  # there before any use
        fresh = tie_labels(~shrunk.active)
        assert grown.dtype == fresh.dtype and grown.tobytes() == fresh.tobytes()
        assert not grown.flags.writeable
        support = shrunk


def test_a_support_shrunk_from_an_unlabelled_parent_holds_its_labels():
    rng = np.random.default_rng(5)
    prev = SupportSet(active=rng.random((6, 6)) < 0.8)
    shrunk = detect_support(rng.random((6, 6)), prev, 0.5)
    assert shrunk is not prev
    grown = vars(shrunk)["labels"]  # there before any use
    fresh = tie_labels(~shrunk.active)
    assert grown.dtype == fresh.dtype and grown.tobytes() == fresh.tobytes()


def test_a_shrunk_support_keeps_no_reference_to_its_parent():
    rng = np.random.default_rng(6)
    prev = SupportSet(active=rng.random((6, 6)) < 0.8)
    prev.labels
    shrunk = detect_support(rng.random((6, 6)), prev, 0.5)
    assert "labels" in vars(shrunk)
    parent = weakref.ref(prev)
    del prev
    gc.collect()
    assert parent() is None


def test_supports_compare_and_hash_by_identity():
    mask = np.eye(3, dtype=bool)
    one, other = SupportSet(active=mask), SupportSet(active=mask)
    assert one == one and one != other
    assert hash(one) == hash(one)
    table = {one: "one", other: "other"}
    assert table[one] == "one" and table[other] == "other"


def _snake(n):
    """Active everywhere except one path that visits every row and wraps
    from the last row back to the first: it runs once around the torus."""
    active = np.ones((n, n), dtype=bool)
    for i in range(n):
        active[i, i] = False
        active[i, (i + 1) % n] = False
    return active


def _oracle_labels(frozen):
    """The smallest flat id of each pixel's component among
    oracles.tie_components, which are found by breadth-first search."""
    basis = oracles.tie_components(frozen)
    return basis.argmax(axis=0)[basis.argmax(axis=1)]  # each column's first pixel


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 24),
    m=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    frozen_frac=st.floats(0.0, 1.0),
)
def test_tie_labels_equal_the_bfs_oracle(n, m, seed, frozen_frac):
    frozen = np.random.default_rng(seed).random((n, m)) < frozen_frac
    assert np.array_equal(tie_labels(frozen), _oracle_labels(frozen))


@pytest.mark.parametrize(
    "frozen",
    [
        lambda n: np.ones((n, n), dtype=bool),
        lambda n: np.zeros((n, n), dtype=bool),
        lambda n: ~_snake(n),
    ],
    ids=["all_frozen", "none_frozen", "torus_snake"],
)
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_tie_labels_equal_the_bfs_oracle_on_edge_masks(frozen, n):
    assert np.array_equal(tie_labels(frozen(n)), _oracle_labels(frozen(n)))


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1)] + oracles.RECT_SHAPES)
def test_neighbors_are_the_rolled_flat_ids(shape):
    ids = np.arange(shape[0] * shape[1]).reshape(shape)
    pixels = np.random.default_rng(ids.size).permutation(ids.size)  # in any order
    right, lower = neighbors(pixels, shape)
    assert np.array_equal(right, np.roll(ids, -1, axis=1).ravel()[pixels])
    assert np.array_equal(lower, np.roll(ids, -1, axis=0).ravel()[pixels])


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


@pytest.mark.parametrize("shape", [(4, 5), (5, 4), (5, 5)])
def test_project_rejects_other_shape(shape):
    support = SupportSet(active=np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError, match="support and image shapes disagree"):
        project_to_support(np.zeros(shape), support)


def test_support_set_accepts_rectangular_masks_only_in_2d():
    assert SupportSet(active=np.ones((3, 5), dtype=bool)).size == 15
    with pytest.raises(ValueError, match="2D boolean"):
        SupportSet(active=np.ones((2, 3, 5), dtype=bool))


class TestRectangularProjection:
    # rows of m pixels: the lower tie of flat id k is k + m, the wrap tie
    # of row i joins i * m + m - 1 to i * m
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 24),
        m=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        active_frac=st.floats(0.0, 1.0),
    )
    def test_bitwise_equal_to_csgraph_oracle(self, n, m, seed, active_frac):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, m))
        s = SupportSet(active=rng.random((n, m)) < active_frac)
        assert np.array_equal(project_to_support(u, s), oracles.csgraph_project_to_support(u, s))

    @pytest.mark.parametrize("shape", oracles.RECT_SHAPES)
    def test_component_means_match_bfs_oracle(self, shape):
        rng = np.random.default_rng(10 * shape[0] + shape[1])
        u = rng.standard_normal(shape)
        s = SupportSet(active=rng.random(shape) > 0.5)
        p = project_to_support(u, s)
        assert grad_norms(grad(p))[~s.active].max(initial=0.0) == 0.0
        basis = oracles.tie_components(~s.active)
        means = (basis.T @ u.ravel()) / basis.sum(axis=0)
        np.testing.assert_allclose(p.ravel(), basis @ means, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 7), (7, 3)])
    def test_frozen_last_column_is_one_component(self, shape):
        # a frozen last column ties every row to itself across the wrap
        # and, through the lower ties, to the rows below
        active = np.ones(shape, dtype=bool)
        active[:, -1] = False
        u = np.random.default_rng(1).standard_normal(shape)
        p = project_to_support(u, SupportSet(active=active))
        frozen_and_right = np.zeros(shape, dtype=bool)
        frozen_and_right[:, [-1, 0]] = True
        assert np.unique(p[frozen_and_right]).size == 1
        assert np.array_equal(p, oracles.csgraph_project_to_support(u, SupportSet(active=active)))
