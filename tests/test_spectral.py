import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstab import (
    GSO,
    build_gso,
    eigendecompose,
    frequency_response,
    gft,
    graph_convolution,
    igft,
    integral_lipschitz_check,
    permute_gso,
    random_weighted_graph,
    response_derivative_scaled,
)
from graphstab.cli import _write_csv
from graphstab.stability import design_il_taps


def test_eigendecompose_identity():
    eig = eigendecompose(GSO(np.eye(4)))
    assert np.allclose(eig.eigenvalues, 1.0)
    assert np.allclose(eig.eigenvectors.T @ eig.eigenvectors, np.eye(4))


def test_eigendecompose_path(path3_adjacency):
    eig = eigendecompose(path3_adjacency)
    # characteristic polynomial of the 3-path is l^3 - 2l
    assert np.allclose(eig.eigenvalues, [-np.sqrt(2), 0.0, np.sqrt(2)],
                       atol=1e-12)


def test_eigendecompose_reconstruction():
    S = build_gso(random_weighted_graph(15, seed=2))
    eig = eigendecompose(S)
    recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
    assert np.allclose(recon, S.matrix, atol=1e-10)


def test_eigendecompose_sign_convention():
    S = build_gso(random_weighted_graph(10, seed=3))
    V = eigendecompose(S).eigenvectors
    for col in V.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_eigendecompose_permutation_consistent():
    S = build_gso(random_weighted_graph(12, seed=4))
    perm = np.random.default_rng(5).permutation(12)
    lam_a = eigendecompose(S).eigenvalues
    lam_b = eigendecompose(permute_gso(S, perm)).eigenvalues
    assert np.allclose(lam_a, lam_b, atol=1e-10)


def test_gft_of_eigenvector_is_canonical(gso20):
    eig = eigendecompose(gso20)
    xt = gft(eig.eigenvectors, eig.eigenvectors[:, 3])
    expected = np.zeros(20)
    expected[3] = 1.0
    assert np.allclose(xt, expected, atol=1e-12)


def test_gft_zero(gso20):
    V = eigendecompose(gso20).eigenvectors
    assert np.array_equal(gft(V, np.zeros(20)), np.zeros(20))


def test_gft_roundtrip_and_parseval():
    S = build_gso(random_weighted_graph(16, seed=6))
    V = eigendecompose(S).eigenvectors
    x = np.random.default_rng(7).standard_normal(16)
    assert np.allclose(igft(V, gft(V, x)), x, atol=1e-10)
    assert abs(np.linalg.norm(gft(V, x)) - np.linalg.norm(x)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_parseval_property(seed):
    S = build_gso(random_weighted_graph(9, seed))
    V = eigendecompose(S).eigenvectors
    x = np.random.default_rng(seed).standard_normal(9)
    assert abs(np.linalg.norm(gft(V, x)) - np.linalg.norm(x)) < 1e-10


def test_frequency_response_constant():
    grid = np.linspace(-3, 3, 11)
    assert np.allclose(frequency_response([0.7], grid), 0.7)


def test_frequency_response_pure_shift():
    grid = np.linspace(-3, 3, 11)
    assert np.allclose(frequency_response([0.0, 1.0], grid), grid)


def test_frequency_response_hand_value():
    assert frequency_response([1.0, 2.0, 3.0], np.array([2.0]))[0] == 17.0


def test_filter_diagonalization():
    # GFT of the filter output is the frequency response times the GFT input
    S = build_gso(random_weighted_graph(12, seed=8))
    eig = eigendecompose(S)
    h = np.random.default_rng(9).standard_normal(4)
    x = np.random.default_rng(10).standard_normal(12)
    lhs = gft(eig.eigenvectors, graph_convolution(S, h, x))
    rhs = frequency_response(h, eig.eigenvalues) * gft(eig.eigenvectors, x)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_response_derivative_scaled_constant():
    assert np.allclose(response_derivative_scaled([0.5], np.linspace(-2, 2, 9)),
                       0.0)


def test_response_derivative_scaled_shift():
    out = response_derivative_scaled([0.0, 1.0], np.array([0.0, 2.0]))
    assert np.allclose(out, [0.0, 2.0])
    assert out.max() == 2.0


def test_response_derivative_scaled_quadratic():
    out = response_derivative_scaled([0.0, 0.0, 1.0], np.array([1.0]))
    assert out[0] == pytest.approx(2.0)


def test_response_derivative_matches_finite_difference():
    h = np.random.default_rng(11).standard_normal(5)
    grid = np.linspace(-2.0, 2.0, 21)
    analytic = response_derivative_scaled(h, grid)
    delta = 1e-6
    fd = np.abs(grid * (frequency_response(h, grid + delta)
                        - frequency_response(h, grid - delta)) / (2 * delta))
    assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-10)


def test_integral_lipschitz_constant_filter():
    check = integral_lipschitz_check([0.5], (-2.0, 2.0))
    assert check.C == 0.0 and check.bounded


def test_integral_lipschitz_shift_grows_with_interval():
    check = integral_lipschitz_check([0.0, 1.0], (0.0, 10.0))
    assert check.C == pytest.approx(10.0)


def test_integral_lipschitz_grid_refinement():
    taps = design_il_taps((-3.0, 3.0), K=5, c_target=1.0)
    coarse = integral_lipschitz_check(taps, (-3.0, 3.0), grid_size=1001)
    fine = integral_lipschitz_check(taps, (-3.0, 3.0), grid_size=10001)
    assert coarse.bounded
    assert np.isfinite(coarse.C)
    assert abs(fine.C - coarse.C) <= 0.05 * fine.C


def test_integral_lipschitz_empty_interval():
    with pytest.raises(ValueError):
        integral_lipschitz_check([1.0], (2.0, 2.0))


def test_response_csv(tmp_path):
    grid = np.linspace(0, 1, 5)
    path = tmp_path / "resp.csv"
    _write_csv(path, [], ["lambda", "value"],
               list(zip(grid, frequency_response([1.0, 1.0], grid))))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,value"
    assert len(lines) == 6
