import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstab import (
    DegenerateGraphError,
    Graph,
    build_gso,
    graph_shift,
    knn_sparsify,
    permute_gso,
    permute_signal,
    random_weighted_graph,
)
from graphstab.graphs import (
    hop_distances,
    permutation_matrix,
)

from conftest import PATH3


def test_graph_rejects_self_loops_and_negative_weights():
    with pytest.raises(ValueError):
        Graph(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graph_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        Graph(np.array([[0.0, bad], [bad, 0.0]]))


def test_build_gso_adjacency(path3_graph):
    S = build_gso(path3_graph, "adjacency")
    assert np.array_equal(S.matrix, PATH3)


def test_build_gso_laplacian(path3_graph):
    S = build_gso(path3_graph, "laplacian")
    assert np.array_equal(S.matrix, np.diag([1.0, 2.0, 1.0]) - PATH3)


def test_build_gso_markov_symmetrized(path3_graph):
    # D^-1 W rows are [0,1,0], [1/2,0,1/2], [0,1,0]; averaging with the
    # transpose gives 0.75 on the path edges
    S = build_gso(path3_graph, "markov")
    expected = np.array([[0.0, 0.75, 0.0],
                         [0.75, 0.0, 0.75],
                         [0.0, 0.75, 0.0]])
    assert np.allclose(S.matrix, expected, atol=1e-15)


def test_build_gso_markov_zero_degree():
    g = Graph(np.zeros((2, 2)))
    with pytest.raises(DegenerateGraphError):
        build_gso(g, "markov")


def test_graph_shift_path(path3_adjacency):
    assert np.allclose(graph_shift(path3_adjacency, np.array([1.0, 0, 0])),
                       [0.0, 1.0, 0.0])


def test_graph_shift_zero(path3_adjacency):
    assert np.array_equal(graph_shift(path3_adjacency, np.zeros(3)), np.zeros(3))


def test_graph_shift_weighted():
    g = Graph(np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    S = build_gso(g)
    assert np.allclose(graph_shift(S, np.array([1.0, 0, 0])), [0.0, 2.0, 0.0])


def test_graph_shift_shape_error(path3_adjacency):
    with pytest.raises(ValueError):
        graph_shift(path3_adjacency, np.zeros(4))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-2, 2), st.floats(-2, 2))
def test_graph_shift_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    S = build_gso(random_weighted_graph(7, seed))
    x, y = rng.standard_normal(7), rng.standard_normal(7)
    lhs = graph_shift(S, a * x + b * y)
    rhs = a * graph_shift(S, x) + b * graph_shift(S, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_knn_complete_graph_unchanged():
    W = np.ones((4, 4)) - np.eye(4)
    assert np.array_equal(knn_sparsify(W, 3), W)


def test_knn_top1_prunes_weak_edge():
    W = np.array([[0.0, 0.9, 0.1],
                  [0.9, 0.0, 0.4],
                  [0.1, 0.4, 0.0]])
    out = knn_sparsify(W, 1)
    assert out[0, 2] == 0.0 and out[2, 0] == 0.0
    assert out[0, 1] == 0.9
    # node 2 kept (2,1); node 1 kept (1,0), so (1,2) averages with a drop
    assert out[1, 2] == pytest.approx(0.2)


def test_knn_symmetric_and_average_subset():
    rng = np.random.default_rng(3)
    W = rng.uniform(0, 1, (8, 8))
    np.fill_diagonal(W, 0.0)
    out = knn_sparsify(W, 3)
    assert np.array_equal(out, out.T)
    # every output weight is 0 or an average of two original directed weights
    candidates = {0.0}
    for i in range(8):
        for j in range(8):
            candidates.add((W[i, j] + W[j, i]) / 2)
            candidates.add(W[i, j] / 2)
    for w in np.unique(out):
        assert any(abs(w - c) < 1e-15 for c in candidates)


def test_permute_identity(path3_adjacency):
    perm = np.arange(3)
    assert np.array_equal(permute_gso(path3_adjacency, perm).matrix, PATH3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(permute_signal(x, perm), x)


def test_permute_swap_path(path3_adjacency):
    # swapping nodes 0 and 1 turns the path center into node 0
    out = permute_gso(path3_adjacency, np.array([1, 0, 2]))
    expected = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(out.matrix, expected)


def test_permute_roundtrip_exact():
    S = build_gso(random_weighted_graph(9, seed=5))
    perm = np.random.default_rng(6).permutation(9)
    inverse = np.argsort(perm)
    back = permute_gso(permute_gso(S, perm), inverse)
    assert np.array_equal(back.matrix, S.matrix)


def test_permute_preserves_entry_and_eigenvalue_multisets():
    S = build_gso(random_weighted_graph(12, seed=8))
    perm = np.random.default_rng(9).permutation(12)
    out = permute_gso(S, perm)
    assert np.allclose(np.sort(out.matrix.ravel()), np.sort(S.matrix.ravel()))
    assert np.allclose(np.sort(np.linalg.eigvalsh(out.matrix)),
                       np.sort(np.linalg.eigvalsh(S.matrix)), atol=1e-10)


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError):
        permutation_matrix(np.array([0, 0, 2]))
    with pytest.raises(ValueError):
        permutation_matrix(np.array([0.5, 1.0]))


def test_hop_distances_ring_and_unreachable():
    W = np.zeros((12, 12))
    for i in range(10):  # ring on nodes 0..9; nodes 10 and 11 isolated
        W[i, (i + 1) % 10] = W[(i + 1) % 10, i] = 1.0
    S = build_gso(Graph(W))
    assert hop_distances(S, 0, 3).tolist() == [0, 1, 2, 3, 4, 4, 4, 3, 2, 1,
                                               4, 4]
    assert hop_distances(S, 0, 9).tolist() == [0, 1, 2, 3, 4, 5, 4, 3, 2, 1,
                                               10, 10]
    with pytest.raises(ValueError, match="node 12"):
        hop_distances(S, 12, 3)
