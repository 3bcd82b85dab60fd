import numpy as np
import pytest

from graphstab import (
    GNNModel,
    LayerSpec,
    build_gso,
    eigendecompose,
    filter_distance,
    filter_matrix,
    forward,
    frequency_response,
    graph_convolution,
    permute_gso,
    permute_signal,
    random_weighted_graph,
    relative_distance,
    spectral_norm,
)


def bank_apply(S, bank, X):
    """Features of a linear one-layer GNN: the bank applied to X."""
    bank = np.asarray(bank, dtype=float)
    model = GNNModel([LayerSpec(bank, "linear")], np.ones(bank.shape[1]),
                     0.0, 0)
    return forward(model, S, X).features


def test_identity_filter(gso20):
    x = np.random.default_rng(0).standard_normal(20)
    assert np.array_equal(graph_convolution(gso20, [1.0], x), x)


def test_pure_shift_filter(gso20):
    x = np.random.default_rng(1).standard_normal(20)
    assert np.allclose(graph_convolution(gso20, [0.0, 1.0], x),
                       gso20.matrix @ x)


def test_path_convolution_hand_value(path3_adjacency):
    out = graph_convolution(path3_adjacency, [1.0, 1.0],
                            np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [1.0, 1.0, 0.0])


def test_convolution_matches_spectral_form():
    S = build_gso(random_weighted_graph(14, seed=2))
    eig = eigendecompose(S)
    h = np.random.default_rng(3).standard_normal(5)
    x = np.random.default_rng(4).standard_normal(14)
    spectral = eig.eigenvectors @ (
        frequency_response(h, eig.eigenvalues)
        * (eig.eigenvectors.T @ x)
    )
    assert np.allclose(graph_convolution(S, h, x), spectral, atol=1e-8)


def test_bank_degenerates_to_convolution(gso20):
    h = np.array([0.5, -0.3, 0.2])
    x = np.random.default_rng(5).standard_normal(20)
    bank = h[None, None, :]
    assert np.allclose(bank_apply(gso20, bank, x[:, None])[:, 0],
                       graph_convolution(gso20, h, x))


def test_zero_bank(gso20):
    X = np.random.default_rng(6).standard_normal((20, 3))
    assert np.array_equal(bank_apply(gso20, np.zeros((3, 2, 4)), X),
                          np.zeros((20, 2)))


def test_bank_sums_input_features(gso20):
    X = np.random.default_rng(7).standard_normal((20, 2))
    bank = np.ones((2, 1, 1))
    assert np.allclose(bank_apply(gso20, bank, X)[:, 0], X.sum(axis=1))


def test_filter_matrix_consistent(gso20):
    h = np.array([1.0, 0.5, 0.25])
    x = np.random.default_rng(8).standard_normal(20)
    assert np.allclose(filter_matrix(gso20, h) @ x,
                       graph_convolution(gso20, h, x), atol=1e-10)


def test_spectral_norm_symmetric_vs_svd():
    A = np.random.default_rng(9).standard_normal((10, 10))
    sym = (A + A.T) / 2
    assert spectral_norm(sym) == pytest.approx(np.linalg.norm(sym, 2))
    assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2))


def test_distance_zero_for_equal(gso20):
    assert filter_distance(gso20, gso20, [1.0, 0.5]) == 0.0


def test_distance_zero_for_permuted_brute_force():
    S = build_gso(random_weighted_graph(6, seed=10))
    perm = np.random.default_rng(11).permutation(6)
    S_hat = permute_gso(S, perm)
    h = np.array([0.3, 0.7, -0.2])
    assert filter_distance(S, S_hat, h, "brute_force") <= 1e-10
    assert filter_distance(S, S_hat, h, "identity") > 1e-3


def test_distance_path_relabeling(path3_adjacency):
    S_hat = permute_gso(path3_adjacency, np.array([2, 0, 1]))
    h = np.array([0.0, 1.0])
    assert filter_distance(path3_adjacency, S_hat, h, "identity") > 0.0
    assert filter_distance(path3_adjacency, S_hat, h, "brute_force") <= 1e-12


def test_identity_mode_upper_bounds_brute_force():
    rng = np.random.default_rng(12)
    h = np.array([0.5, 0.2, 0.1])
    for seed in range(5):
        S = build_gso(random_weighted_graph(5, seed=seed))
        other = build_gso(random_weighted_graph(5, seed=seed + 100))
        ident = filter_distance(S, other, h, "identity")
        brute = filter_distance(S, other, h, "brute_force")
        assert brute <= ident + 1e-12


def test_brute_force_size_cap():
    S = build_gso(random_weighted_graph(9, seed=13))
    with pytest.raises(ValueError, match="N <= 8"):
        filter_distance(S, S, [1.0], "brute_force")
    with pytest.raises(ValueError, match="N <= 8"):
        relative_distance(S, S, "brute_force")


def test_permutation_equivariance_random():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(5, 31))
        S = build_gso(random_weighted_graph(n, int(rng.integers(2**31))))
        x = rng.standard_normal(n)
        h = rng.standard_normal(4)
        perm = rng.permutation(n)
        y = graph_convolution(S, h, x)
        y_hat = graph_convolution(permute_gso(S, perm), h,
                                  permute_signal(x, perm))
        assert (np.linalg.norm(y_hat - permute_signal(y, perm))
                <= 1e-9 * max(np.linalg.norm(y), 1e-300))
