"""End-to-end acceptance checks for the stability toolkit.

Each test exercises one headline guarantee at its stated tolerance; the
MovieLens tests require the real ml-100k `u.data` file and skip with an
explanation when the environment does not provide it.
"""

import time
from collections import deque

import numpy as np
import pytest

from graphstab import (
    SingularEquationError,
    TrainConfig,
    bank_response,
    build_gso,
    build_task,
    edge_dilation,
    eigendecompose,
    empirical_filter_distance_sweep,
    empirical_gnn_distance_sweep,
    forward,
    frequency_mixing_demo,
    gnn_stability_bound,
    graph_convolution,
    init_model,
    integral_lipschitz_check,
    load_ratings,
    random_relative_perturbation,
    random_weighted_graph,
    relative_distance,
    rmse,
    solve_relative_error,
    train,
)
from graphstab.cli import (equivariance_residual, gradient_residual,
                           spectral_residuals)
from graphstab.gnn import GNNModel
from graphstab.stability import design_il_taps, il_layer, linear_fit_r2

from conftest import movielens_data_path

ML100K = movielens_data_path()
ML_SKIP_REASON = (
    "MovieLens-100k u.data not available in this environment; set "
    "GRAPHSTAB_ML100K or place the file at data/ml-100k/u.data"
)


def test_permutation_equivariance_100_draws():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 31))
        S = build_gso(random_weighted_graph(n, int(rng.integers(2**31))))
        x = rng.standard_normal(n)
        perm = rng.permutation(n)
        h = rng.standard_normal(int(rng.integers(2, 6)))
        worst = max(worst, equivariance_residual(
            lambda S, x: graph_convolution(S, h, x), S, perm, x))
        depth = int(rng.integers(1, 3))
        widths = [1] + [int(rng.integers(2, 5)) for _ in range(depth)]
        model = init_model(int(rng.integers(2**31)), widths, [3] * depth,
                           ["relu" if rng.random() < 0.5 else "tanh"] * depth,
                           node=0)
        worst = max(worst, equivariance_residual(
            lambda S, x: forward(model, S, x).features, S, perm, x))
    assert worst <= 1e-9
    assert time.perf_counter() - start < 30.0


def test_spectral_correctness_50_cases():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(5, 26))
        S = build_gso(random_weighted_graph(n, int(rng.integers(2**31))))
        x = rng.standard_normal(n)
        recon, parseval = spectral_residuals(S, x)
        assert recon <= 1e-10 and parseval <= 1e-10
        eig = eigendecompose(S)
        V, lam = eig.eigenvectors, eig.eigenvalues
        h = rng.standard_normal(4)
        lhs = V.T @ graph_convolution(S, h, x)
        rhs = bank_response(h, lam) * (V.T @ x)
        assert np.linalg.norm(lhs - rhs) <= 1e-8


@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.1])
def test_edge_dilation_exactness(gso20, epsilon):
    spec = edge_dilation(gso20, epsilon)
    lam = eigendecompose(gso20).eigenvalues
    lam_hat = eigendecompose(spec.perturbed).eigenvalues
    assert np.max(np.abs(lam_hat - (1 + epsilon) * lam)) <= 1e-10
    E = solve_relative_error(gso20, spec.perturbed)
    assert np.max(np.abs(E - (epsilon / 2) * np.eye(20))) <= 1e-9
    dist = relative_distance(gso20, spec.perturbed, mode="identity")
    assert abs(dist - epsilon / 2) <= 1e-10


def test_filter_stability_bound_sweeps(gso20):
    start = time.perf_counter()
    lam = np.linalg.eigvalsh(gso20.matrix)
    interval = (1.2 * lam[0], 1.2 * lam[-1])
    taps = design_il_taps(interval, K=5, c_target=1.0)
    assert integral_lipschitz_check(taps, interval) <= 1.0 + 1e-9
    epsilons = [0.01, 0.02, 0.05, 0.1]
    seeds = list(range(10))
    for kind in ("dilation", "relative"):
        reports = empirical_filter_distance_sweep(gso20, taps, kind,
                                                  epsilons, seeds)
        assert all(r.satisfied for r in reports)
        # measured distance grows linearly in epsilon (averaged over seeds,
        # since the drawn error norm is itself random within [eps/2, eps])
        means = [np.mean([r.measured for r in reports if r.epsilon == e])
                 for e in epsilons]
        _, _, r2 = linear_fit_r2(epsilons, means)
        assert r2 >= 0.99, kind
    assert time.perf_counter() - start < 120.0


def test_gnn_stability_bound_sweeps(gso20):
    lam = np.linalg.eigvalsh(gso20.matrix)
    interval = (1.2 * lam[0], 1.2 * lam[-1])
    layers = [il_layer(1, 2, 5, interval, c_target=1.0, seed=0),
              il_layer(2, 1, 5, interval, c_target=1.0, seed=1)]
    model = GNNModel(layers, np.ones(1), 0.0, 0)
    epsilons = [0.01, 0.02, 0.05, 0.1]
    seeds = list(range(10))
    for kind in ("dilation", "relative"):
        reports = empirical_gnn_distance_sweep(
            model, gso20, kind, epsilons, seeds, probe_count=30,
        )
        # the Monte-Carlo estimate sits below the depth-scaled bound without
        # needing any quadratic slack
        assert all(r.measured <= r.bound for r in reports), kind
        assert all(r.bound == gnn_stability_bound(
            r.C, r.delta, gso20.node_count, r.epsilon, 2) for r in reports)


def test_gradient_oracle_five_models():
    start = time.perf_counter()
    S = build_gso(random_weighted_graph(8, seed=2))
    rng = np.random.default_rng(3)
    config = TrainConfig(mu=0.2, lambda_interval=(-2.0, 2.0))
    for trial in range(5):
        model = init_model(trial, [1, 3], [4],
                           ["relu" if trial % 2 else "tanh"], node=1)
        samples = [(rng.standard_normal(8), float(rng.normal()))
                   for _ in range(3)]
        assert gradient_residual(model, S, samples, config) <= 1e-4
    assert time.perf_counter() - start < 10.0


def _connected_and_nonbipartite(W):
    n = len(W)
    color = np.full(n, -1)
    color[0] = 0
    queue = deque([0])
    odd_cycle = False
    while queue:
        i = queue.popleft()
        for j in np.flatnonzero(W[i] > 0):
            if color[j] == -1:
                color[j] = 1 - color[i]
                queue.append(j)
            elif color[j] == color[i]:
                odd_cycle = True
    return bool(np.all(color >= 0)), odd_cycle


def test_frequency_mixing():
    W = random_weighted_graph(10, seed=4, p=0.5)
    connected, nonbipartite = _connected_and_nonbipartite(W)
    assert connected and nonbipartite
    S = build_gso(W, "laplacian")
    relu_report = frequency_mixing_demo(S, "relu")
    # the input is the top eigenvector, the last coefficient
    others = relu_report.magnitudes[:-1]
    assert np.count_nonzero(others > 1e-10) >= 2
    assert relu_report.off_energy_fraction > 0.0
    linear_report = frequency_mixing_demo(S, "linear")
    others = linear_report.magnitudes[:-1]
    assert np.max(others) <= 1e-12


@pytest.fixture(scope="module")
def movielens_models():
    """Train the rating-prediction models once for both regularization
    strengths over 10 split realizations (shared by the two slow tests)."""
    if ML100K is None:
        pytest.skip(ML_SKIP_REASON)
    ratings = load_ratings(ML100K)
    results = {}
    for mu in (0.0, 0.5):
        per_split = []
        for seed in range(10):
            task = build_task(ratings, target_item_id=50, seed=seed)
            model = init_model(seed, [1, 64], [5], ["relu"],
                               task.target_index)
            config = TrainConfig(mu=mu, epochs=40, rng_seed=seed)
            trained, _ = train(model, task.gso, task.train, config)
            preds = [forward(trained, task.gso, x).prediction
                     for x, _ in task.test]
            labels = [y for _, y in task.test]
            per_split.append((trained, task, rmse(preds, labels)))
        results[mu] = per_split
    return results


def test_movielens_star_wars_rmse(movielens_models):
    for mu, per_split in movielens_models.items():
        mean_rmse = float(np.mean([r for _, _, r in per_split]))
        assert 0.70 <= mean_rmse <= 1.05, f"mu={mu}: {mean_rmse}"


def test_movielens_penalty_improves_stability(movielens_models):
    epsilon = 0.1
    degradation = {}
    for mu, per_split in movielens_models.items():
        diffs = []
        for split_seed, (model, task, base) in enumerate(per_split[:3]):
            for draw in range(10):
                spec = random_relative_perturbation(
                    task.gso, epsilon, seed=1000 * split_seed + draw
                )
                preds = [forward(model, spec.perturbed, x).prediction
                         for x, _ in task.test]
                labels = [y for _, y in task.test]
                diffs.append(rmse(preds, labels) - base)
        degradation[mu] = float(np.mean(diffs))
    assert degradation[0.5] <= degradation[0.0]


def test_error_recovery_roundtrip_100_specs():
    rng = np.random.default_rng(5)
    solved = 0
    while solved < 100:
        n = int(rng.integers(5, 21))
        S = build_gso(random_weighted_graph(n, int(rng.integers(2**31))))
        eps = float(rng.uniform(0.01, 0.1))
        spec = random_relative_perturbation(S, eps, int(rng.integers(2**31)))
        try:
            E = solve_relative_error(S, spec.perturbed)
        except SingularEquationError:
            # bipartite draws have a symmetric spectrum, so the recovery
            # equation is legitimately singular; redraw
            continue
        assert np.max(np.abs(E - spec.error)) <= 1e-8
        solved += 1
    two_path = build_gso(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SingularEquationError):
        solve_relative_error(two_path, two_path)
