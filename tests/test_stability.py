import numpy as np
import pytest

from graphstab import (
    GNNModel,
    LayerSpec,
    build_gso,
    edge_dilation,
    empirical_filter_distance_sweep,
    empirical_gnn_distance,
    empirical_gnn_distance_sweep,
    filter_distance,
    filter_stability_bound,
    frequency_mixing_demo,
    gnn_stability_bound,
    integral_lipschitz_check,
    permute_gso,
    random_weighted_graph,
    spectral_norm,
)
from graphstab.cli import _write_csv
from graphstab.spectral import bank_response
from graphstab.stability import (
    _make_perturbation,
    bank_il_constant,
    design_il_taps,
    discriminability_tradeoff_demo,
    il_layer,
    linear_fit_r2,
)


def test_filter_bound_arithmetic():
    assert filter_stability_bound(1.0, 0.0, 25, 0.1) == pytest.approx(0.2)
    assert filter_stability_bound(1.0, 1.0, 4, 0.5) == pytest.approx(3.0)
    assert filter_stability_bound(0.0, 2.0, 9, 1.0) == 0.0


def test_gnn_bound_arithmetic():
    assert gnn_stability_bound(0.5, 0.0, 25, 0.01, 3) == pytest.approx(0.03)
    assert gnn_stability_bound(1.0, 0.0, 4, 0.1, 1) == pytest.approx(
        filter_stability_bound(1.0, 0.0, 4, 0.1)
    )


def test_bound_rejects_negative_inputs():
    with pytest.raises(ValueError):
        filter_stability_bound(-1.0, 0.0, 4, 0.1)
    with pytest.raises(ValueError):
        gnn_stability_bound(1.0, 0.0, 4, 0.1, 0)


def test_design_il_taps_meets_targets():
    interval = (-3.0, 3.0)
    taps = design_il_taps(interval, K=5, c_target=1.0)
    assert integral_lipschitz_check(taps, interval) <= 1.0 + 1e-9
    grid = np.linspace(*interval, 1001)
    assert np.max(np.abs(bank_response(taps, grid))) <= 1.0 + 1e-9


def test_bank_constants_match_scalar_case():
    taps = design_il_taps((-2.0, 2.0), K=4, c_target=0.5)
    bank = taps[None, None, :]
    C = integral_lipschitz_check(taps, (-2.0, 2.0))
    assert bank_il_constant(bank, (-2.0, 2.0)) == pytest.approx(C)
    grid = np.linspace(-2.0, 2.0, 1001)
    response = bank_response(bank, grid)
    assert response.shape == (1001, 1, 1)
    assert np.allclose(response[:, 0, 0], bank_response(taps, grid))
    scaled = bank_response(bank, grid, derivative=True)[:, 0, 0]
    assert np.allclose(scaled, bank_response(taps, grid, derivative=True))


def test_il_layer_respects_constraints():
    layer = il_layer(2, 3, 5, (-2.0, 2.0), c_target=0.8, seed=0)
    assert layer.taps.shape == (2, 3, 5)
    assert bank_il_constant(layer.taps, (-2.0, 2.0)) <= 0.8 + 1e-9
    response = bank_response(layer.taps, np.linspace(-2.0, 2.0, 1001))
    assert np.linalg.norm(response, 2, axis=(1, 2)).max() <= 1.0 + 1e-9


def test_linear_fit_r2():
    slope, intercept, r2 = linear_fit_r2([0, 1, 2], [1, 3, 5])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def test_filter_sweep_dilation_satisfied(gso20):
    taps = design_il_taps((-2.5, 2.5), K=5, c_target=1.0)
    reports = empirical_filter_distance_sweep(
        gso20, taps, "dilation", [0.01, 0.05, 0.1], [0]
    )
    assert all(r.satisfied for r in reports)
    assert all(r.delta == 0.0 for r in reports)


def test_filter_sweep_relative_satisfied(gso20):
    taps = design_il_taps((-2.5, 2.5), K=5, c_target=1.0)
    reports = empirical_filter_distance_sweep(
        gso20, taps, "relative", [0.02, 0.05, 0.1], range(3)
    )
    assert all(r.satisfied for r in reports)
    assert all(r.measured >= 0 for r in reports)


def test_filter_sweep_decomposes_each_gso_once(gso20, monkeypatch):
    # S is decomposed once for the whole sweep; each point decomposes its
    # S_hat (interval and H(S_hat)) and its E (misalignment), and takes two
    # norms of symmetric matrices (scaling E, ||H(S) - H(S_hat)||)
    taps = design_il_taps((-2.5, 2.5), K=5, c_target=1.0)
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np.linalg, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    reports = empirical_filter_distance_sweep(
        gso20, taps, "relative", [0.02, 0.05, 0.1], range(2)
    )
    assert len(reports) == 6
    assert calls == {"eigh": 1 + 2 * 6, "eigvalsh": 2 * 6}


def test_pure_shift_filter_instability(gso20):
    # h(S) = S is not integral Lipschitz on growing intervals; under dilation
    # the measured distance equals epsilon * ||S|| exactly
    for eps in (0.05, 0.2):
        spec = edge_dilation(gso20, eps)
        measured = filter_distance(gso20, spec.perturbed, [0.0, 1.0])
        assert measured == pytest.approx(eps * spectral_norm(gso20.matrix),
                                         rel=1e-10)


def test_gnn_distance_zero_for_same_gso(gso20):
    layer = il_layer(1, 3, 4, (-2.5, 2.5), c_target=1.0, seed=1)
    model = GNNModel([layer], np.ones(3), 0.0, 0)
    assert empirical_gnn_distance(model, gso20, gso20) == 0.0


def test_linear_single_filter_gnn_matches_filter_distance(gso20):
    taps = design_il_taps((-2.5, 2.5), K=4, c_target=1.0)
    model = GNNModel([LayerSpec(taps[None, None, :], "linear")],
                     np.ones(1), 0.0, 0)
    spec = edge_dilation(gso20, 0.1)
    gnn_dist = empirical_gnn_distance(model, gso20, spec.perturbed,
                                      probe_count=400, seed=0)
    filt_dist = filter_distance(gso20, spec.perturbed, taps)
    assert gnn_dist <= filt_dist + 1e-10
    assert gnn_dist >= 0.9 * filt_dist


def test_gnn_sweep_satisfied(gso20):
    interval = (-2.5, 2.5)
    layers = [il_layer(1, 2, 4, interval, 0.8, seed=2),
              il_layer(2, 1, 4, interval, 0.8, seed=3)]
    model = GNNModel(layers, np.ones(1), 0.0, 0)
    reports = empirical_gnn_distance_sweep(
        model, gso20, "dilation", [0.02, 0.05, 0.1], [0],
        probe_count=30, c_interval=interval,
    )
    assert all(r.satisfied for r in reports)
    assert all(r.L == 2 for r in reports)


def test_gnn_sweep_fails_with_understated_constant(gso20):
    # C taken on a tiny interval understates the constant on the spectrum
    # by orders of magnitude, so the bound falls below the measured distance
    interval = (-2.5, 2.5)
    layers = [il_layer(1, 2, 4, interval, 0.8, seed=2),
              il_layer(2, 1, 4, interval, 0.8, seed=3)]
    model = GNNModel(layers, np.ones(1), 0.0, 0)
    for kind in ("dilation", "relative"):
        reports = empirical_gnn_distance_sweep(
            model, gso20, kind, [0.02, 0.05, 0.1], range(2),
            probe_count=30, c_interval=(-1e-3, 1e-3),
        )
        assert not any(r.satisfied for r in reports), kind


def test_frequency_mixing_relu_on_laplacian():
    S = build_gso(random_weighted_graph(20, seed=0), "laplacian")
    report = frequency_mixing_demo(S, "relu")
    assert report.off_energy_fraction > 0.05
    others = np.delete(report.magnitudes, report.input_coefficient)
    assert np.count_nonzero(others > 1e-10) >= 2


def test_frequency_mixing_linear_is_exactly_diagonal(gso20):
    report = frequency_mixing_demo(gso20, "linear")
    assert report.off_energy_fraction <= 1e-12


def test_tradeoff_demo():
    S = build_gso(random_weighted_graph(12, seed=7))
    report = discriminability_tradeoff_demo(S, epsilon=0.1, seed=0)
    assert report.feasible
    # the sharp filter separates perfectly on S but its response is wildly
    # different at the dilated eigenvalues
    assert report.sharp_margin_original > 0.8
    sharp_drift = abs(report.sharp_margin_dilated
                      - report.sharp_margin_original)
    assert sharp_drift > 0.5
    # the integral Lipschitz filter barely moves under dilation
    il_drift = abs(report.il_margin_original - report.il_margin_dilated)
    assert il_drift <= 0.1 * max(abs(report.il_margin_original), 1e-3) + 1e-3
    assert sharp_drift > 10 * il_drift
    # the relu GNN keeps most of its separation margin
    assert report.gnn_margin_original > 0.5
    assert report.gnn_margin_dilated > 0.5 * report.gnn_margin_original


def test_bound_reports_csv(tmp_path, gso20):
    taps = design_il_taps((-2.5, 2.5), K=4, c_target=1.0)
    reports = empirical_filter_distance_sweep(gso20, taps, "dilation",
                                              [0.1], [0])
    path = tmp_path / "bounds.csv"
    _write_csv(path, ["meta"],
               ["epsilon", "seed", "measured", "bound", "C", "delta",
                "satisfied"],
               [(r.epsilon, r.seed, r.measured, r.bound, r.C, r.delta,
                 r.satisfied) for r in reports])
    lines = path.read_text().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "epsilon,seed,measured,bound,C,delta,satisfied"
    assert len(lines) == 3


def test_equivalent_gso_brute_force_gnn_distance():
    S = build_gso(random_weighted_graph(6, seed=9))
    perm = np.random.default_rng(10).permutation(6)
    S_hat = permute_gso(S, perm)
    # the permuted GSO is a different operator in the identity alignment,
    # so the naive distance is generally nonzero ...
    layer = il_layer(1, 2, 3, (-2.5, 2.5), c_target=1.0, seed=4)
    model = GNNModel([layer], np.ones(2), 0.0, 0)
    assert empirical_gnn_distance(model, S, S_hat) > 0
    # ... while the brute-force filter distance recognizes the relabeling
    assert filter_distance(S, S_hat, layer.taps[0, 0], "brute_force") <= 1e-9


def test_il_taps_are_rescaled_to_a_unit_peak():
    # the degree-1 fit of this Gaussian reaches 1.138 on the interval
    h = design_il_taps((-1.0, 3.0), K=2)
    grid = np.linspace(-1.0, 3.0, 501)
    assert np.abs(bank_response(h, grid)).max() == pytest.approx(1.0,
                                                                 rel=1e-12)


def _two_edges():
    # two disjoint edges: eigenvalues -1, -1, 1, 1
    return build_gso(np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("call,message", [
    (lambda S: _make_perturbation(S, "shear", 0.1, 0),
     "unknown perturbation kind 'shear'"),
    (lambda S: empirical_gnn_distance(
        GNNModel([LayerSpec(np.ones((1, 1, 2)))], np.ones(1), 0.0, 0),
        S, build_gso(random_weighted_graph(5, seed=0))),
     "GSOs have different sizes"),
    (lambda S: discriminability_tradeoff_demo(_two_edges(), 0.1),
     "top eigenvalues are degenerate"),
    (lambda S: bank_il_constant(np.ones((1, 2, 3)), (1.0, 1.0)),
     r"empty interval \[1.0, 1.0\]"),
    (lambda S: bank_il_constant(np.ones((1, 2, 3)), (2.0, -2.0)),
     r"empty interval \[2.0, -2.0\]"),
    (lambda S: bank_il_constant(np.ones((1, 2, 3)), (np.nan, 1.0)),
     r"empty interval \[nan, 1.0\]"),
    (lambda S: design_il_taps((-1.0, np.nan)), "empty interval"),
    (lambda S: il_layer(1, 1, 3, (1.0, 1.0), c_target=1.0, seed=0),
     "empty interval"),
], ids=["kind", "sizes", "degenerate", "bank point interval",
        "bank reversed interval", "bank nan interval", "taps nan interval",
        "layer point interval"])
def test_stability_rejects(call, message):
    with pytest.raises(ValueError, match=message):
        call(build_gso(random_weighted_graph(4, seed=0)))
