import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstab import (
    GSO,
    bank_response,
    build_gso,
    eigendecompose,
    extreme_eigenvalues,
    graph_convolution,
    integral_lipschitz_check,
    permute_gso,
    random_weighted_graph,
    relative_distance,
    spectral,
)
from graphstab.cli import _write_csv, spectral_residuals
from graphstab.stability import design_il_taps

from conftest import traced_peak


def horner(h, grid):
    """Reference h(lambda) = sum_k h_k lambda^k by Horner's rule."""
    out = np.full_like(grid, h[-1])
    for hk in h[-2::-1]:
        out = out * grid + hk
    return out


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


def test_eigendecompose_runs_once_per_gso(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(M):
        calls.append(M)
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    S = build_gso(random_weighted_graph(6, seed=2))
    eig = eigendecompose(S)
    assert eigendecompose(S) is eig and len(calls) == 1
    with pytest.raises(ValueError):
        eig.eigenvectors[0, 0] = 0.0
    with pytest.raises(ValueError):
        eig.eigenvalues[0] = 0.0
    # the brute-force search solves against S once per permutation, and
    # every solve reuses the one decomposition of S
    S_hat = permute_gso(S, np.array([1, 0, 2, 3, 4, 5]))
    assert relative_distance(S, S_hat, "brute_force") <= 1e-9
    assert len(calls) == 1


def assert_extremes_match_eigvalsh(A):
    lam = np.linalg.eigvalsh(A)
    lam_min, lam_max = extreme_eigenvalues(A)
    scale = max(np.abs(lam).max(), 1e-300)
    assert abs(lam_min - lam[0]) <= 1e-10 * scale
    assert abs(lam_max - lam[-1]) <= 1e-10 * scale


def gaussian_symmetric(n, seed):
    A = np.random.default_rng(seed).standard_normal((n, n))
    return (A + A.T) / 2.0


@pytest.mark.parametrize("n", [600, 1682])
def test_extreme_eigenvalues_of_symmetrized_gaussians(n):
    assert_extremes_match_eigvalsh(gaussian_symmetric(n, seed=n))


def test_extreme_eigenvalues_repeat_for_equal_inputs(lanczos_runs):
    A = gaussian_symmetric(600, seed=1)
    first = extreme_eigenvalues(A)
    spectral._extremes_memo.clear()  # compare two runs, not a run and a hit
    assert extreme_eigenvalues(A.copy()) == first
    assert len(lanczos_runs) == 2


def test_extreme_eigenvalues_memo_keys_on_content(lanczos_runs):
    A = gaussian_symmetric(600, seed=2)
    first = extreme_eigenvalues(A)
    # a copy, or the same entries in Fortran order, is the same matrix
    assert extreme_eigenvalues(A.copy()) == first
    assert extreme_eigenvalues(np.asfortranarray(A)) == first
    assert len(lanczos_runs) == 1
    B = A.copy()
    B[3, 5] += 1e-3
    B[5, 3] = B[3, 5]
    changed = extreme_eigenvalues(B)
    assert len(lanczos_runs) == 2
    assert_extremes_match_eigvalsh(B)  # a hit on B, still B's extremes
    assert len(lanczos_runs) == 2
    # a hit returns what a fresh run gives, bit for bit
    spectral._extremes_memo.clear()
    assert extreme_eigenvalues(A) == first
    assert extreme_eigenvalues(B) == changed
    assert len(lanczos_runs) == 4


def test_extreme_eigenvalues_memo_stays_at_its_bound(lanczos_runs,
                                                      monkeypatch):
    monkeypatch.setattr(spectral, "EXTREMES_MEMO_SIZE", 3)
    mats = [np.diag([-1.0, float(i)]) for i in range(5)]
    pairs = [extreme_eigenvalues(M) for M in mats]
    assert len(spectral._extremes_memo) == 3
    assert len(lanczos_runs) == 5
    # the newest three are kept; the oldest was evicted and runs again
    for M in mats[2:]:
        extreme_eigenvalues(M)
    assert len(lanczos_runs) == 5
    assert extreme_eigenvalues(mats[0]) == pairs[0]
    assert len(lanczos_runs) == 6
    assert len(spectral._extremes_memo) == 3


def test_extreme_eigenvalues_memory_within_budget(lanczos_runs):
    # the basis grows by doubling from LANCZOS_BASIS_ROWS rows as the
    # iteration fills it; an N x N basis alone would be N^2 * 8 bytes
    N = 600
    A = gaussian_symmetric(N, seed=7)
    assert traced_peak(extreme_eigenvalues, A) <= 0.5 * N * N * 8
    assert len(lanczos_runs) == 1


def test_extreme_eigenvalues_with_repeated_extremes():
    # Q diag(lam) Q^T with the smallest and largest eigenvalues each 3-fold
    n = 200
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(-1.0, 2.0, n)
    lam[:3], lam[3:6] = -1.5, 2.5
    A = (Q * lam) @ Q.T
    assert_extremes_match_eigvalsh((A + A.T) / 2.0)


def test_extreme_eigenvalues_of_rank_one_break_down_early():
    v = np.random.default_rng(4).standard_normal(300)
    A = np.outer(v, v)
    assert_extremes_match_eigvalsh(A)
    lam_min, lam_max = extreme_eigenvalues(A)
    assert lam_max == pytest.approx(v @ v, rel=1e-12)
    assert abs(lam_min) <= 1e-12 * (v @ v)


def test_extreme_eigenvalues_of_trivial_matrices():
    assert extreme_eigenvalues(np.zeros((50, 50))) == (0.0, 0.0)
    assert extreme_eigenvalues(np.array([[-3.5]])) == (-3.5, -3.5)
    with pytest.raises(ValueError, match="square"):
        extreme_eigenvalues(np.zeros((2, 3)))


def test_extreme_eigenvalues_with_dominant_negative_end():
    A = gaussian_symmetric(400, seed=6) - 30.0 * np.eye(400)
    lam_min, lam_max = extreme_eigenvalues(A)
    assert -lam_min > abs(lam_max)
    assert_extremes_match_eigvalsh(A)


def test_eigendecompose_permutation_consistent():
    S = build_gso(random_weighted_graph(12, seed=4))
    perm = np.random.default_rng(5).permutation(12)
    lam_a = eigendecompose(S).eigenvalues
    lam_b = eigendecompose(permute_gso(S, perm)).eigenvalues
    assert np.allclose(lam_a, lam_b, atol=1e-10)


def test_gft_of_eigenvector_is_canonical(gso20):
    eig = eigendecompose(gso20)
    xt = eig.eigenvectors.T @ eig.eigenvectors[:, 3]
    expected = np.zeros(20)
    expected[3] = 1.0
    assert np.allclose(xt, expected, atol=1e-12)


def test_gft_zero(gso20):
    V = eigendecompose(gso20).eigenvectors
    assert np.array_equal(V.T @ np.zeros(20), np.zeros(20))


def test_gft_roundtrip_and_parseval():
    S = build_gso(random_weighted_graph(16, seed=6))
    V = eigendecompose(S).eigenvectors
    x = np.random.default_rng(7).standard_normal(16)
    assert np.allclose(V @ (V.T @ x), x, atol=1e-10)
    assert spectral_residuals(S, x)[1] < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_parseval_property(seed):
    S = build_gso(random_weighted_graph(9, seed))
    x = np.random.default_rng(seed).standard_normal(9)
    assert spectral_residuals(S, x)[1] < 1e-10


def test_frequency_response_constant():
    grid = np.linspace(-3, 3, 11)
    assert np.allclose(bank_response([0.7], grid), 0.7)


def test_frequency_response_pure_shift():
    grid = np.linspace(-3, 3, 11)
    assert np.allclose(bank_response([0.0, 1.0], grid), grid)


def test_frequency_response_hand_value():
    assert bank_response([1.0, 2.0, 3.0], np.array([2.0]))[0] == 17.0


def test_bank_response_of_tap_vectors_matches_horner():
    rng = np.random.default_rng(12)
    grid = np.linspace(-2.5, 2.5, 101)
    for K in range(1, 9):
        h = rng.standard_normal(K)
        value = bank_response(h, grid)
        assert value.shape == grid.shape
        assert np.allclose(value, horner(h, grid), rtol=1e-12, atol=1e-12)
        dh = np.append(h[1:] * np.arange(1, K), 0.0)  # h' with a zero pad
        assert np.allclose(bank_response(h, grid, derivative=True),
                           grid * horner(dh, grid),
                           rtol=1e-12, atol=1e-12)


def test_bank_response_of_a_bank_is_one_tensordot():
    # the training penalty contracts banks this way; its bits are pinned
    taps = np.random.default_rng(13).standard_normal((3, 4, 5))
    grid = np.linspace(-1.7, 2.3, 57)
    powers = grid[:, None] ** np.arange(5)
    assert np.array_equal(bank_response(taps, grid),
                          np.tensordot(powers, taps, axes=([1], [2])))
    assert np.array_equal(bank_response(taps, grid, derivative=True),
                          np.tensordot(powers, taps * np.arange(5.0),
                                       axes=([1], [2])))


def test_filter_diagonalization():
    # GFT of the filter output is the frequency response times the GFT input
    S = build_gso(random_weighted_graph(12, seed=8))
    eig = eigendecompose(S)
    h = np.random.default_rng(9).standard_normal(4)
    x = np.random.default_rng(10).standard_normal(12)
    lhs = eig.eigenvectors.T @ graph_convolution(S, h, x)
    rhs = bank_response(h, eig.eigenvalues) * (eig.eigenvectors.T @ x)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_response_derivative_scaled_constant():
    out = bank_response([0.5], np.linspace(-2, 2, 9), derivative=True)
    assert np.allclose(out, 0.0)


def test_response_derivative_scaled_shift():
    out = bank_response([0.0, 1.0], np.array([0.0, 2.0]), derivative=True)
    assert np.allclose(out, [0.0, 2.0])
    assert np.abs(out).max() == 2.0


def test_response_derivative_scaled_quadratic():
    out = bank_response([0.0, 0.0, 1.0], np.array([1.0]), derivative=True)
    assert out[0] == pytest.approx(2.0)


def test_response_derivative_matches_finite_difference():
    h = np.random.default_rng(11).standard_normal(5)
    grid = np.linspace(-2.0, 2.0, 21)
    analytic = bank_response(h, grid, derivative=True)
    delta = 1e-6
    fd = grid * (bank_response(h, grid + delta)
                 - bank_response(h, grid - delta)) / (2 * delta)
    assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-10)


def test_integral_lipschitz_constant_filter():
    assert integral_lipschitz_check([0.5], (-2.0, 2.0)) == 0.0


def test_integral_lipschitz_shift_grows_with_interval():
    C = integral_lipschitz_check([0.0, 1.0], (0.0, 10.0))
    assert C == pytest.approx(10.0)


def test_integral_lipschitz_grid_refinement():
    taps = design_il_taps((-3.0, 3.0), K=5, c_target=1.0)
    coarse = integral_lipschitz_check(taps, (-3.0, 3.0))
    fine = np.abs(bank_response(taps, np.linspace(-3.0, 3.0, 10001),
                                derivative=True)).max()
    assert np.isfinite(coarse)
    assert abs(fine - coarse) <= 0.05 * fine


def test_integral_lipschitz_empty_interval():
    with pytest.raises(ValueError):
        integral_lipschitz_check([1.0], (2.0, 2.0))


@pytest.mark.parametrize("interval", [(0.0, 1.0, 2.0), (1.0,)])
def test_il_grid_takes_exactly_two_endpoints(interval):
    with pytest.raises(ValueError, match="values to unpack"):
        spectral.il_grid(interval)


def test_response_csv(tmp_path):
    grid = np.linspace(0, 1, 5)
    path = tmp_path / "resp.csv"
    _write_csv(path, [], ["lambda", "value"],
               list(zip(grid, bank_response([1.0, 1.0], grid))))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,value"
    assert len(lines) == 6
