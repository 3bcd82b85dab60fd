import numpy as np
import pytest

from graphstab import (
    GSO,
    GNNModel,
    LayerSpec,
    bank_response,
    build_gso,
    eigendecompose,
    filter_distance,
    filter_matrix,
    forward,
    graph_convolution,
    permute_gso,
    random_weighted_graph,
    relative_distance,
    spectral_norm,
)
from graphstab.cli import equivariance_residual
from graphstab.filters import bank_apply, shift_stack
from graphstab.graphs import graph_shift


def bank_features(S, bank, X):
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
        bank_response(h, eig.eigenvalues)
        * (eig.eigenvectors.T @ x)
    )
    assert np.allclose(graph_convolution(S, h, x), spectral, atol=1e-8)


def test_bank_degenerates_to_convolution(gso20):
    h = np.array([0.5, -0.3, 0.2])
    x = np.random.default_rng(5).standard_normal(20)
    bank = h[None, None, :]
    assert np.allclose(bank_features(gso20, bank, x[:, None])[:, 0],
                       graph_convolution(gso20, h, x))


def shift_loop_convolution(S, h, x):
    """Oracle: the filter as a running sum over repeated shifts."""
    z = np.asarray(x, dtype=float)
    y = h[0] * z
    for hk in h[1:]:
        z = graph_shift(S, z)
        y = y + hk * z
    return y


def test_convolution_matches_shift_loop_bit_for_bit():
    rng = np.random.default_rng(15)
    for trial in range(40):
        sparse = trial % 2 == 0  # single columns take the sparse shift path
        n = int(rng.integers(40, 80) if sparse else rng.integers(2, 40))
        S = build_gso(random_weighted_graph(n, trial, p=0.0 if sparse
                                            else 0.5))
        assert (S.nonzero_rows is not None) == sparse
        h = rng.standard_normal(int(rng.integers(1, 6)))
        for x in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            assert np.array_equal(graph_convolution(S, h, x),
                                  shift_loop_convolution(S, h, x))


def test_bank_adjoint_is_the_transposed_taps():
    # <A x, y> = <x, A^T y>, where A^T is the bank with its feature axes
    # transposed applied to the shift stack of y
    rng = np.random.default_rng(16)
    for n, f_in, f_out, K in ((12, 2, 3, 4), (30, 3, 1, 5), (7, 1, 1, 1)):
        B = rng.standard_normal((n, n))
        S = GSO((B + B.T) / 2)
        taps = rng.standard_normal((f_in, f_out, K))
        x = rng.standard_normal((n, f_in))
        y = rng.standard_normal((n, f_out))
        Ax = bank_apply(shift_stack(S, x, K), taps)
        ATy = bank_apply(shift_stack(S, y, K), taps.transpose(1, 0, 2))
        assert Ax.shape == y.shape and ATy.shape == x.shape
        assert (abs(np.sum(Ax * y) - np.sum(x * ATy))
                <= 1e-12 * np.linalg.norm(Ax) * np.linalg.norm(y))


def test_zero_bank(gso20):
    X = np.random.default_rng(6).standard_normal((20, 3))
    assert np.array_equal(bank_features(gso20, np.zeros((3, 2, 4)), X),
                          np.zeros((20, 2)))


def test_bank_sums_input_features(gso20):
    X = np.random.default_rng(7).standard_normal((20, 2))
    bank = np.ones((2, 1, 1))
    assert np.allclose(bank_features(gso20, bank, X)[:, 0], X.sum(axis=1))


def test_filter_matrix_consistent(gso20):
    h = np.array([1.0, 0.5, 0.25])
    x = np.random.default_rng(8).standard_normal(20)
    assert np.allclose(filter_matrix(gso20, h) @ x,
                       graph_convolution(gso20, h, x), atol=1e-10)


@pytest.mark.parametrize("p", [1.0, 0.0])
def test_filter_matrix_matches_shifted_identity(p):
    # oracle: the filter applied to each column of the identity by shifting
    S = build_gso(random_weighted_graph(15, seed=4, p=p))
    h = np.array([0.3, -1.0, 0.5, 0.25, -0.125])
    oracle = graph_convolution(S, h, np.eye(15))
    H = filter_matrix(S, h)
    assert np.abs(H - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("h", [[], np.ones((1, 1, 3))])
def test_filter_distance_rejects_non_vector_taps(gso20, h):
    with pytest.raises(ValueError, match="1-D"):
        filter_distance(gso20, gso20, h)


def test_spectral_norm_symmetric_vs_svd():
    A = np.random.default_rng(9).standard_normal((10, 10))
    sym = (A + A.T) / 2
    assert spectral_norm(sym) == pytest.approx(np.linalg.norm(sym, 2))
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        spectral_norm(A)
    # a row of equal entries equals its transpose under broadcasting
    for wide in (A[:7], np.ones((1, 3)), np.ones((2, 3))):
        with pytest.raises(ValueError, match="nonempty square matrix"):
            spectral_norm(wide)


def test_spectral_norm_of_an_empty_matrix():
    # a GSO has at least one node, and so does every matrix spectral_norm
    # takes
    with pytest.raises(ValueError, match=r"got shape \(0, 0\)"):
        spectral_norm(np.zeros((0, 0)))


def test_spectral_norm_of_slightly_asymmetric_matrix():
    # 1e-6 relative asymmetry is far above the GSO's symmetry tolerance, so
    # this matrix is not symmetric, and its 2-norm is not spectral_norm's
    A = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        spectral_norm(A)


@pytest.mark.parametrize("n", [512, 900])
def test_spectral_norm_by_lanczos_matches_the_2_norm(n):
    A = np.random.default_rng(n).standard_normal((n, n))
    sym = (A + A.T) / 2
    assert spectral_norm(sym) == pytest.approx(np.linalg.norm(sym, 2),
                                               rel=1e-10)
    # within SYMMETRY_RTOL of symmetric: the norm of the averaged matrix
    almost = sym.copy()
    almost[0, 1] += 1e-13 * np.abs(sym).max()
    assert not np.array_equal(almost, almost.T)
    assert spectral_norm(almost) == pytest.approx(
        np.linalg.norm(almost, 2), rel=1e-10)
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        spectral_norm(A)


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
        assert equivariance_residual(
            lambda S, x: graph_convolution(S, h, x), S, perm, x) <= 1e-9


@pytest.mark.parametrize("sizes,mode,message", [
    ((4, 5), "identity", "GSOs have different sizes"),
    ((4, 4), "nearest", "unknown mode 'nearest'"),
], ids=["sizes", "mode"])
def test_filter_distance_rejects(sizes, mode, message):
    S, S_hat = (build_gso(random_weighted_graph(n, seed=0)) for n in sizes)
    with pytest.raises(ValueError, match=message):
        filter_distance(S, S_hat, [1.0, 0.5], mode)
