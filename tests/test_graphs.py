import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstab import (
    GSO,
    DegenerateGraphError,
    build_gso,
    build_task,
    graph_shift,
    graphs,
    knn_sparsify,
    load_ratings,
    pearson_graph,
    permute_gso,
    permute_signal,
    random_weighted_graph,
)
from graphstab.graphs import shared, shared_scope, validate_permutation

from conftest import PATH3, make_ratings_file, traced_peak


def test_build_gso_adjacency():
    S = build_gso(PATH3, "adjacency")
    assert np.array_equal(S.matrix, PATH3)


def test_build_gso_laplacian():
    S = build_gso(PATH3, "laplacian")
    assert np.array_equal(S.matrix, np.diag([1.0, 2.0, 1.0]) - PATH3)


def test_build_gso_markov_symmetrized():
    # D^-1 W rows are [0,1,0], [1/2,0,1/2], [0,1,0]; averaging with the
    # transpose gives 0.75 on the path edges
    S = build_gso(PATH3, "markov")
    expected = np.array([[0.0, 0.75, 0.0],
                         [0.75, 0.0, 0.75],
                         [0.0, 0.75, 0.0]])
    assert np.allclose(S.matrix, expected, atol=1e-15)


def test_gso_rejects_asymmetric_or_non_finite_matrix():
    with pytest.raises(ValueError,
                       match=r"symmetric, got max \|S - S\^T\| = 1$"):
        GSO(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        GSO(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    # within tolerance the stored matrix is made exactly symmetric
    S = GSO(np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]]))
    assert np.array_equal(S.matrix, S.matrix.T)


def test_gso_matrix_is_read_only_copy():
    W = PATH3.copy()
    S = GSO(W)
    with pytest.raises(ValueError, match="read-only"):
        S.matrix[0, 1] = 2.0
    W[0, 1] = W[1, 0] = 2.0  # the caller's array stays writable and apart
    assert np.array_equal(S.matrix, PATH3)


def test_gso_keeps_a_read_only_array_it_owns():
    W = PATH3.copy()
    W.setflags(write=False)
    assert np.shares_memory(GSO(W).matrix, W)
    assert np.shares_memory(build_gso(W).matrix, W)  # as build_task relies on


def test_gso_copies_a_read_only_view_of_a_writable_array():
    base = PATH3.copy()
    view = base[:]
    view.setflags(write=False)
    S = GSO(view)
    assert not np.shares_memory(S.matrix, base)
    base[0, 1] = base[1, 0] = 2.0
    assert np.array_equal(S.matrix, PATH3)


def test_build_gso_markov_zero_degree():
    with pytest.raises(DegenerateGraphError):
        build_gso(np.zeros((2, 2)), "markov")


def test_graph_shift_path(path3_adjacency):
    assert np.allclose(graph_shift(path3_adjacency, np.array([1.0, 0, 0])),
                       [0.0, 1.0, 0.0])


def test_graph_shift_zero(path3_adjacency):
    assert np.array_equal(graph_shift(path3_adjacency, np.zeros(3)), np.zeros(3))


def test_graph_shift_weighted():
    S = build_gso(np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0],
                            [0.0, 1.0, 0.0]]))
    assert np.allclose(graph_shift(S, np.array([1.0, 0, 0])), [0.0, 2.0, 0.0])


def knn_movie_gso(tmp_path):
    """k-NN movie GSO of a build_task on 300 movies (a few % nonzero)."""
    path = make_ratings_file(tmp_path / "u.data", users=120, movies=300)
    return build_task(load_ratings(path), 7).gso


def isolated_nodes_gso(tmp_path):
    """Ring on nodes 0..39 of 48; nodes 40..47 have empty rows."""
    W = np.zeros((48, 48))
    for i in range(40):
        W[i, (i + 1) % 40] = W[(i + 1) % 40, i] = 1.0 + i / 40
    return build_gso(W)


def dense_gso(tmp_path):
    return build_gso(random_weighted_graph(40, seed=4, p=0.5))


@pytest.mark.parametrize("make_gso", [knn_movie_gso, isolated_nodes_gso])
@pytest.mark.parametrize("columns", [None, 1])
def test_graph_shift_sparse_path_matches_dense_product(tmp_path, make_gso,
                                                       columns):
    S = make_gso(tmp_path)
    assert S.nonzero_rows is not None
    N = S.node_count
    shape = (N,) if columns is None else (N, columns)
    x = np.random.default_rng(2).standard_normal(shape)
    y = graph_shift(S, x)
    expected = S.matrix @ x
    assert y.shape == expected.shape
    assert np.abs(y - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("make_gso,columns", [
    (knn_movie_gso, 3),
    (dense_gso, None),
    (dense_gso, 1),
    (dense_gso, 3),
])
def test_graph_shift_dense_path_bits(tmp_path, make_gso, columns):
    S = make_gso(tmp_path)
    N = S.node_count
    shape = (N,) if columns is None else (N, columns)
    x = np.random.default_rng(3).standard_normal(shape)
    assert np.array_equal(graph_shift(S, x), S.matrix @ x)
    if make_gso is dense_gso:
        assert S.nonzero_rows is None


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
    assert np.array_equal(knn_sparsify(W.copy(), 3), W)


def test_knn_writes_into_its_input():
    W = tie_heavy_weights()
    expected = knn_oracle(W, 5)
    out = knn_sparsify(W, 5)
    assert np.shares_memory(out, W)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k, bad", [(0, None), (64, None), (5, np.nan),
                                    (5, np.inf)])
def test_knn_rejects_bad_input_before_any_write(k, bad):
    W = tie_heavy_weights()
    if bad is not None:
        W[40, 3] = bad  # in the last block of rows
    before = W.tobytes()
    with pytest.raises(ValueError):
        knn_sparsify(W, k)
    assert W.tobytes() == before


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
    out = knn_sparsify(W.copy(), 3)
    assert np.array_equal(out, out.T)
    # every output weight is 0 or an average of two original directed weights
    candidates = {0.0}
    for i in range(8):
        for j in range(8):
            candidates.add((W[i, j] + W[j, i]) / 2)
            candidates.add(W[i, j] / 2)
    for w in np.unique(out):
        assert any(abs(w - c) < 1e-15 for c in candidates)


def knn_oracle(W, k):
    """Per-row stable sort: the reference that knn_sparsify must match."""
    masked = W.copy()
    np.fill_diagonal(masked, -np.inf)
    kept = np.zeros_like(W)
    for i in range(W.shape[0]):
        order = np.argsort(-masked[i], kind="stable")[:k]
        kept[i, order] = W[i, order]
    return (kept + kept.T) / 2.0


def tie_heavy_weights(n=64, seed=11):
    """Weights from a few levels, so rows tie at their k-th largest, with
    some all-zero rows and an asymmetric part."""
    rng = np.random.default_rng(seed)
    W = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, n), p=[0.4, 0.2, 0.2, 0.2])
    W[rng.choice(n, 6, replace=False)] = 0.0
    np.fill_diagonal(W, 0.0)
    return W


@pytest.mark.parametrize("k", [1, 5, 50, 63])
@pytest.mark.parametrize("weights", ["ties", "ties_on_diagonal", "pearson"])
def test_knn_matches_per_row_sort(tmp_path, k, weights):
    if weights.startswith("ties"):
        W = tie_heavy_weights()
        if weights == "ties_on_diagonal":  # the diagonal is never kept
            np.fill_diagonal(W, 1.0)
    else:
        path = make_ratings_file(tmp_path / "u.data", users=60, movies=64)
        W = pearson_graph(load_ratings(path), range(60))
    out, expected = knn_sparsify(W.copy(), k), knn_oracle(W, k)
    assert np.array_equal(out, expected)
    assert out.tobytes() == expected.tobytes()  # signed zeros too


@pytest.mark.parametrize("k", [1, 10, 150, 299])
@pytest.mark.parametrize("weights", ["ties", "pearson"])
def test_knn_across_tiles_matches_per_row_sort(tmp_path, k, weights):
    # 300 nodes: two full 128-row tiles and a ragged third, so selection
    # blocks and mirrored tiles meet at every kind of boundary
    if weights == "ties":
        W = tie_heavy_weights(n=300, seed=12)
    else:
        path = make_ratings_file(tmp_path / "u.data", users=400, movies=300)
        W = pearson_graph(load_ratings(path), range(400))
        assert np.count_nonzero(W[:128, 128:]) > 0
    out, expected = knn_sparsify(W.copy(), k), knn_oracle(W, k)
    assert out.tobytes() == expected.tobytes()


def test_knn_memory_within_budget():
    # rows are selected a block at a time into W and symmetrized in place,
    # so beyond W only one block's scratch arrays are made
    N = 600
    W = tie_heavy_weights(n=N, seed=13)
    assert traced_peak(knn_sparsify, W, 10) <= 0.5 * N * N * 8


def test_knn_rejects_non_finite_weights():
    W = np.ones((3, 3)) - np.eye(3)
    W[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        knn_sparsify(W, 1)


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


def dense_relabel(M, perm):
    """Oracle: P^T M P with the 0/1 matrix P for which P x = x[perm]."""
    P = np.eye(len(perm))[perm]
    return P.T @ M @ P


def test_permute_roundtrip_exact():
    S = build_gso(random_weighted_graph(9, seed=5))
    perm = np.random.default_rng(6).permutation(9)
    inverse = np.argsort(perm)
    out = permute_gso(S, perm)
    assert np.array_equal(out.matrix, dense_relabel(S.matrix, perm))
    back = permute_gso(out, inverse)
    assert np.array_equal(back.matrix, S.matrix)
    P = np.eye(9)[perm]
    for x in (np.arange(9.0), np.arange(27.0).reshape(9, 3)):
        assert np.array_equal(permute_signal(x, perm), P.T @ x)
        assert np.array_equal(permute_signal(permute_signal(x, perm), inverse),
                              x)


def test_permute_preserves_entry_and_eigenvalue_multisets():
    S = build_gso(random_weighted_graph(12, seed=8))
    perm = np.random.default_rng(9).permutation(12)
    out = permute_gso(S, perm)
    assert np.array_equal(out.matrix, dense_relabel(S.matrix, perm))
    assert np.allclose(np.sort(out.matrix.ravel()), np.sort(S.matrix.ravel()))
    assert np.allclose(np.sort(np.linalg.eigvalsh(out.matrix)),
                       np.sort(np.linalg.eigvalsh(S.matrix)), atol=1e-10)


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError):
        validate_permutation(np.array([0, 0, 2]), 3)
    with pytest.raises(ValueError):
        validate_permutation(np.array([0.5, 1.0]), 2)


def with_entry(i, j, value):
    """PATH3 with W[i, j] (and W[j, i]) set to value."""
    W = PATH3.copy()
    W[i, j] = W[j, i] = value
    return W


@pytest.mark.parametrize("build,message", [
    # build_gso checks shape, size and finiteness through GSO
    (lambda: build_gso(np.zeros((2, 3))),
     r"GSO must be square, got shape \(2, 3\)"),
    (lambda: build_gso(np.zeros((0, 0))), "GSO needs at least one node"),
    (lambda: build_gso(with_entry(0, 1, np.nan)),
     "GSO entries must be finite"),
    (lambda: build_gso(with_entry(0, 1, np.inf)),
     "GSO entries must be finite"),
    (lambda: build_gso(with_entry(0, 1, -1.0)),
     "edge weights must be nonnegative"),
    (lambda: build_gso(with_entry(1, 1, 1.0)),
     r"diagonal \(self-loops\) must be zero"),
    (lambda: build_gso(PATH3, "normalized"),
     "unknown GSO kind 'normalized'"),
    (lambda: build_gso(with_entry(0, 1, 0.0), "markov"),
     "markov GSO undefined: node 0 has zero degree"),
    (lambda: GSO(np.zeros((2, 3))), "GSO must be square"),
    (lambda: GSO(np.zeros((0, 0))), "GSO needs at least one node"),
    (lambda: knn_sparsify(np.ones((3, 5)), 1),
     r"weights must be square, got shape \(3, 5\)"),
], ids=["graph shape", "no nodes", "nan weight", "inf weight",
        "negative weight", "self-loop", "kind", "markov zero degree",
        "gso shape", "gso no nodes", "knn shape"])
def test_graphs_reject(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda A: calls.append(A.shape) or eigh(A))
    return calls


def test_equal_gsos_are_each_decomposed_outside_a_scope(eigh_calls):
    W = random_weighted_graph(9, seed=3)
    a, b = GSO(W).eigensystem, GSO(W.copy()).eigensystem
    assert len(eigh_calls) == 2 and a is not b
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_a_scope_shares_the_eigensystem_of_equal_content(eigh_calls):
    W = random_weighted_graph(9, seed=3)
    alone = GSO(W).eigensystem
    changed = W.copy()
    changed[0, 1] = changed[1, 0] = W[0, 1] + 0.25
    with shared_scope():
        first = GSO(W).eigensystem
        # a Fortran-ordered copy is the same matrix
        assert GSO(np.asfortranarray(W)).eigensystem is first
        other = GSO(changed).eigensystem  # one symmetric pair differs
        assert GSO(W).eigensystem is not first  # each name keeps one value
    assert len(eigh_calls) == 4
    assert graphs._shared is None
    assert np.array_equal(first.eigenvectors, alone.eigenvectors)
    assert np.array_equal(first.eigenvalues, alone.eigenvalues)
    assert np.array_equal(other.eigenvalues,
                          GSO(changed).eigensystem.eigenvalues)
    for shared_array in (first.eigenvectors, first.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            shared_array[0] = 1.0


def test_scopes_nest_and_drop_what_they_kept(eigh_calls):
    W = random_weighted_graph(6, seed=4)
    with shared_scope():
        outer = GSO(W).eigensystem
        with shared_scope():
            assert GSO(W).eigensystem is not outer
        assert GSO(W).eigensystem is outer
    assert len(eigh_calls) == 2
    assert graphs._shared is None


def test_shared_keys_on_the_name_and_the_entries_of_inputs():
    A = random_weighted_graph(7, seed=5)

    def fresh(*inputs):
        return object()

    with shared_scope():
        first = shared("value", fresh, A)
        assert shared("value", fresh, np.asfortranarray(A)) is first
        # the same bytes in another shape, or fewer entries, are other inputs
        for other in (A.reshape(1, 49), A[:6, :6]):
            kept = shared("value", fresh, A)
            assert shared("value", fresh, other) is not kept
        # any hashable names a value; with no inputs, the name is the key
        named = shared(("draw", 7, 1), fresh)
        assert shared(("draw", 7, 1), fresh) is named
        assert shared(("draw", 7, 2), fresh) is not named
        assert shared(("draw", 7, 1), fresh) is named
