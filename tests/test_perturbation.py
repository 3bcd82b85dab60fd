import numpy as np
import pytest

from graphstab import (
    GSO,
    SingularEquationError,
    build_gso,
    build_task,
    edge_dilation,
    eigendecompose,
    graph_shift,
    graphs,
    knn_sparsify,
    load_ratings,
    misalignment,
    permute_gso,
    random_relative_perturbation,
    random_weighted_graph,
    relative_distance,
    solve_relative_error,
    spectral_norm,
)
from graphstab.graphs import shared_scope
from graphstab.perturbation import match_eigenbases, spec_misalignment
from graphstab.stability import linear_fit_r2

from conftest import make_ratings_file, traced_peak


def test_dilation_zero_epsilon(gso20):
    spec = edge_dilation(gso20, 0.0)
    assert np.array_equal(spec.perturbed.matrix, gso20.matrix)
    assert np.array_equal(spec.error, np.zeros((20, 20)))


def test_dilation_error_matrix(gso20):
    spec = edge_dilation(gso20, 0.08)
    assert np.array_equal(spec.error, 0.04 * np.eye(20))
    assert spectral_norm(spec.error) == pytest.approx(0.04)
    assert spectral_norm(spec.error) <= 0.08


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
def test_dilation_matches_its_closed_form(gso20, eps):
    # S_hat is formed as any perturbation's is, S + (E S + S E), so it
    # equals (1 + eps) S to rounding and not bit for bit
    for S in [gso20] + [build_gso(random_weighted_graph(100, seed))
                        for seed in range(3)]:
        spec = edge_dilation(S, eps)
        M, S_hat = S.matrix, spec.perturbed.matrix
        P = spec.error @ M
        assert S_hat.tobytes() == (M + (P + P.T)).tobytes()
        assert (np.abs(S_hat - (1 + eps) * M).max()
                <= 4 * np.finfo(float).eps * np.abs(M).max())


def test_dilation_scales_eigenvalues(gso20):
    eps = 0.1
    spec = edge_dilation(gso20, eps)
    lam = eigendecompose(gso20).eigenvalues
    lam_hat = eigendecompose(spec.perturbed).eigenvalues
    assert np.allclose(lam_hat, (1 + eps) * lam, atol=1e-10)
    V = eigendecompose(gso20).eigenvectors
    V_hat = eigendecompose(spec.perturbed).eigenvectors
    assert np.allclose(np.abs(V.T @ V_hat), np.eye(20), atol=1e-8)


def test_random_perturbation_zero_epsilon(gso20):
    spec = random_relative_perturbation(gso20, 0.0, seed=0)
    assert np.array_equal(spec.perturbed.matrix, gso20.matrix)


def test_random_perturbation_norm_in_range(gso20):
    for seed in range(5):
        spec = random_relative_perturbation(gso20, 0.2, seed=seed)
        norm = spectral_norm(spec.error)
        assert 0.1 - 1e-10 <= norm <= 0.2 + 1e-10


def test_random_perturbation_membership_exact(gso20):
    spec = random_relative_perturbation(gso20, 0.1, seed=1)
    S, E = gso20.matrix, spec.error
    assert spectral_norm(spec.perturbed.matrix - S - (E @ S + S @ E)) <= 1e-12


def test_solve_recovers_dilation_error(gso20):
    spec = edge_dilation(gso20, 0.06)
    E = solve_relative_error(gso20, spec.perturbed)
    assert np.allclose(E, 0.03 * np.eye(20), atol=1e-9)


def test_solve_roundtrip(gso20):
    spec = random_relative_perturbation(gso20, 0.05, seed=2)
    E = solve_relative_error(gso20, spec.perturbed)
    assert np.abs(E - spec.error).max() <= 1e-8


def test_solve_singular_on_two_node_path():
    S = build_gso(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SingularEquationError):
        solve_relative_error(S, S)


def test_relative_distance_zero(gso20):
    assert relative_distance(gso20, gso20) <= 1e-12


def test_relative_distance_dilation_is_half_epsilon(gso20):
    for eps in (0.02, 0.1):
        spec = edge_dilation(gso20, eps)
        assert relative_distance(gso20, spec.perturbed) == pytest.approx(
            eps / 2, abs=1e-10
        )


def test_relative_distance_linear_in_epsilon(gso20):
    eps_list = [0.01, 0.05, 0.1, 0.15, 0.2]
    dists = [relative_distance(gso20, edge_dilation(gso20, e).perturbed)
             for e in eps_list]
    slope, intercept, r2 = linear_fit_r2(eps_list, dists)
    assert slope == pytest.approx(0.5, abs=1e-8)
    assert r2 >= 0.9999


def test_relative_distance_permuted_brute_force():
    for seed in range(3):
        S = build_gso(random_weighted_graph(6, seed=seed))
        perm = np.random.default_rng(seed).permutation(6)
        S_hat = permute_gso(S, perm)
        assert relative_distance(S, S_hat, "brute_force") <= 1e-9


def test_misalignment_identity():
    V = eigendecompose(build_gso(random_weighted_graph(8, 3))).eigenvectors
    assert misalignment(V, V) == pytest.approx(0.0, abs=1e-12)


def test_misalignment_rotation_hand_value():
    # rotating two basis vectors by 30 degrees gives ||U - V|| = 2 sin(15deg),
    # hence delta = (2 sin(15deg) + 1)^2 - 1
    theta = np.pi / 6
    V = np.eye(4)
    U = np.eye(4)
    U[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                 [np.sin(theta), np.cos(theta)]]
    gap = 2 * np.sin(theta / 2)
    assert misalignment(U, V) == pytest.approx((gap + 1) ** 2 - 1)


@pytest.mark.parametrize("theta", [1e-3, 1e-9, 1e-13])
def test_misalignment_of_a_small_rotation(theta):
    # U - V is antisymmetric here, so the gap is its 2-norm 2 sin(theta/2),
    # not the eigenvalue of its symmetric part, which is zero
    V = np.eye(4)
    U = np.eye(4)
    U[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                 [np.sin(theta), np.cos(theta)]]
    gap = 2 * np.sin(theta / 2)
    assert misalignment(U, V) == pytest.approx((gap + 1) ** 2 - 1, rel=1e-6)
    assert misalignment(U, V) > 1.99 * theta


def test_misalignment_matching_handles_sign_and_order():
    V = eigendecompose(build_gso(random_weighted_graph(7, 4))).eigenvectors
    U = V[:, ::-1] * np.array([1, -1, 1, -1, 1, -1, 1])
    assert np.allclose(match_eigenbases(U, V), V)
    assert misalignment(U, V) == pytest.approx(0.0, abs=1e-12)


def test_misalignment_rejects_nonorthonormal():
    with pytest.raises(ValueError):
        misalignment(np.ones((3, 3)), np.eye(3))


def test_dilation_misalignment_zero(gso20):
    spec = edge_dilation(gso20, 0.1)
    assert spec_misalignment(spec) == 0.0


def test_roundtrip_many_random_specs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(5, 16))
        S = build_gso(random_weighted_graph(n, int(rng.integers(2**31))))
        spec = random_relative_perturbation(S, 0.05, int(rng.integers(2**31)))
        E = solve_relative_error(S, spec.perturbed)
        assert np.abs(E - spec.error).max() <= 1e-8


def test_random_perturbation_of_a_sparse_movie_graph(tmp_path):
    # a k-NN movie graph large enough for the Lanczos norm, and sparse
    path = make_ratings_file(tmp_path / "u.data", users=400, movies=600)
    S = build_task(load_ratings(path), target_item_id=7).gso
    assert S.node_count >= 512 and S.nonzero_rows is not None
    eps = 0.1
    spec = random_relative_perturbation(S, eps, seed=3)
    M, E, S_hat = S.matrix, spec.error, spec.perturbed.matrix
    assert np.abs(S_hat - (M + E @ M + M @ E)).max() <= 1e-13
    assert np.array_equal(S_hat, S_hat.T)
    norm = np.abs(np.linalg.eigvalsh(E)).max()
    assert eps / 2 <= norm <= eps * (1 + 1e-10)
    again = random_relative_perturbation(S, eps, seed=3)
    assert again.perturbed.matrix.tobytes() == S_hat.tobytes()
    assert again.error.tobytes() == E.tobytes()


def tiled_gso(n, sparse):
    """A GSO over two full 128-node tiles and a ragged one: a random graph,
    dense, or its 3-NN pruning, sparse enough for `graph_shift` to shift a
    vector over its nonzeros."""
    W = random_weighted_graph(n, seed=4)
    S = build_gso(knn_sparsify(W, 3) if sparse else W)
    assert (S.nonzero_rows is not None) == sparse
    return S


@pytest.mark.parametrize("sparse", [False, True])
def test_random_perturbation_across_tiles_matches_reference(sparse):
    N, eps, seed = 300, 0.1, 5
    S = tiled_gso(N, sparse)
    spec = random_relative_perturbation(S, eps, seed)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N))
    E = (A + A.T) / 2.0
    E *= rng.uniform(eps / 2.0, eps) / spectral_norm(E)
    assert spec.error.tobytes() == E.tobytes()
    M = S.matrix
    P = E @ M
    assert spec.perturbed.matrix.tobytes() == (M + (P + P.T)).tobytes()


@pytest.mark.parametrize("sparse", [False, True])
def test_random_perturbation_memory_within_budget(sparse, lanczos_runs):
    # a draw forms E alone, in the buffer of the Gaussian draw; the Lanczos
    # basis of its norm (at N >= 512) is small beside it. S_hat is formed
    # in the product's buffer, which the GSO keeps, on the first read of
    # `perturbed`, and a second read forms nothing. Outside a scope the norm
    # is a real run in both cases.
    N = 600
    S = tiled_gso(N, sparse)
    specs = []
    assert traced_peak(lambda: specs.append(
        random_relative_perturbation(S, 0.1, 3))) <= 1.5 * N * N * 8
    assert len(lanczos_runs) == 1
    spec, = specs
    assert traced_peak(lambda: spec.perturbed) <= 2.5 * N * N * 8
    assert traced_peak(lambda: spec.perturbed) <= N * 8


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("columns", [(), (3,)], ids=["vector", "block"])
@pytest.mark.parametrize("make", [
    lambda S, eps: random_relative_perturbation(S, eps, 6),
    edge_dilation,
], ids=["random", "dilation"])
def test_shift_matches_the_formed_s_hat(sparse, columns, make):
    N = 300
    S = tiled_gso(N, sparse)
    x = np.random.default_rng(7).standard_normal((N,) + columns)
    spec = make(S, 0.1)
    got = spec.shift(x)
    want = spec.perturbed.matrix @ x
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert make(S, 0.0).shift(x).tobytes() == graph_shift(S, x).tobytes()


def test_random_perturbation_runs_lanczos_once_per_seed(lanczos_runs):
    # one seed draws one unscaled E at every epsilon and for every GSO of N
    # nodes, so in a scope its norm is taken once and each draw is scaled
    # to its own target, with the bits it has outside a scope
    N, seed = 600, 11
    gsos = [tiled_gso(N, sparse=True), tiled_gso(N, sparse=False)]
    with shared_scope():
        specs = {(eps, i): random_relative_perturbation(S, eps, seed)
                 for eps in (0.01, 0.05, 0.1) for i, S in enumerate(gsos)}
    assert len(lanczos_runs) == 1
    for (eps, _), spec in specs.items():
        rng = np.random.default_rng(seed)
        rng.standard_normal((N, N))
        target = rng.uniform(eps / 2.0, eps)
        norm = np.abs(np.linalg.eigvalsh(spec.error)).max()
        assert abs(norm - target) <= 1e-10 * target
    alone = random_relative_perturbation(gsos[1], 0.05, seed)
    assert alone.error.tobytes() == specs[0.05, 1].error.tobytes()


def test_random_perturbation_takes_every_norm_outside_a_scope(lanczos_runs):
    S = tiled_gso(600, sparse=True)
    for eps in (0.01, 0.05, 0.1):
        random_relative_perturbation(S, eps, 11)
    assert len(lanczos_runs) == 3
    assert graphs._shared is None


def test_random_perturbation_reuses_no_norm_without_an_integer_seed(
        lanczos_runs):
    # two generators in one state draw the same E, but only an integer seed
    # names a draw, so each draw's norm is taken anew
    N, eps = 600, 0.1
    S = tiled_gso(N, sparse=True)
    seeds = [None, None, np.random.default_rng(5), np.random.default_rng(5)]
    with shared_scope():
        specs = [random_relative_perturbation(S, eps, seed) for seed in seeds]
    assert len(lanczos_runs) == 4
    assert specs[2].error.tobytes() == specs[3].error.tobytes()
    for spec in specs:
        norm = np.abs(np.linalg.eigvalsh(spec.error)).max()
        assert eps / 2.0 * (1 - 1e-10) <= norm <= eps * (1 + 1e-10)


def _ill_conditioned_pair():
    """S with an eigenvalue pair summing to 1e-9, above the singularity
    cutoff of 1e-10 ||S||, and a perturbation whose recovered E misses the
    membership identity by about 1e-6 (tolerance 1e-8 ||S||)."""
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    S = Q @ np.diag([1.0, -1.0 + 1e-9, 0.5, 2.0]) @ Q.T
    A = rng.standard_normal((4, 4))
    return GSO(S), GSO(S + (A + A.T) / 2.0)


@pytest.mark.parametrize("call,error,message", [
    (lambda S: edge_dilation(S, -1.0), ValueError,
     "edge dilation requires epsilon > -1"),
    (lambda S: random_relative_perturbation(S, -0.1, 0), ValueError,
     "epsilon must be nonnegative"),
    (lambda S: edge_dilation(S, np.nan), ValueError,
     "edge dilation requires epsilon > -1 and finite, got nan"),
    (lambda S: random_relative_perturbation(S, np.inf, 0), ValueError,
     "epsilon must be nonnegative and finite, got inf"),
    (lambda S: random_relative_perturbation(S, np.nan, 0), ValueError,
     "epsilon must be nonnegative and finite, got nan"),
    (lambda S: relative_distance(S, S, "nearest"), ValueError,
     "unknown mode 'nearest'"),
    # every pair sum of path3's spectrum {-sqrt 2, 0, sqrt 2} hits 0 + 0
    (lambda S: relative_distance(S, S, "brute_force"), SingularEquationError,
     "no permutation yields a solvable error-matrix equation"),
    (lambda S: misalignment(np.eye(3), np.eye(4)), ValueError,
     "U and V must be square matrices of equal shape"),
    (lambda S: solve_relative_error(*_ill_conditioned_pair()), ValueError,
     "recovered E fails the membership identity"),
    (lambda S: solve_relative_error(
        build_gso(random_weighted_graph(8, seed=0)),
        build_gso(random_weighted_graph(6, seed=0))), ValueError,
     "GSOs have different sizes"),
    (lambda S: relative_distance(
        build_gso(random_weighted_graph(8, seed=0)),
        build_gso(random_weighted_graph(6, seed=0))), ValueError,
     "GSOs have different sizes"),
], ids=["dilation", "random", "nan dilation", "inf random", "nan random",
        "mode", "no permutation", "misalignment", "membership",
        "solve sizes", "distance sizes"])
def test_perturbation_rejects(path3_adjacency, call, error, message):
    with pytest.raises(error, match=message):
        call(path3_adjacency)
