"""Empirical stability lab: bound calculators, perturbation sweeps, and the
discriminability / frequency-mixing demonstrations.

The central quantity is the first-order stability bound

    2 C (1 + delta sqrt(N)) epsilon        (times L for an L-layer GNN)

where C is the integral Lipschitz constant of the filters and delta the
misalignment between the eigenbases of the error matrix and the GSO. Sweeps
compare this bound against measured filter / GNN output distances.
"""

from dataclasses import dataclass

import numpy as np

from .filters import filter_distance
from .gnn import (_ACTIVATIONS, GNNModel, LayerSpec, TrainConfig, forward,
                  init_model, train)
from .graphs import GSO
from .perturbation import (
    PerturbationSpec,
    edge_dilation,
    random_relative_perturbation,
    spec_misalignment,
)
from .spectral import (IL_GRID_POINTS, bank_response, check_interval,
                       eigendecompose, integral_lipschitz_check)


@dataclass(frozen=True)
class BoundReport:
    epsilon: float
    measured: float
    bound: float
    C: float
    delta: float
    L: int
    N: int
    satisfied: bool
    seed: int = 0


@dataclass(frozen=True)
class MixingReport:
    magnitudes: np.ndarray
    off_energy_fraction: float
    input_coefficient: int


@dataclass(frozen=True)
class TradeoffReport:
    feasible: bool
    sharp_margin_original: float
    sharp_margin_dilated: float
    il_margin_original: float
    il_margin_dilated: float
    gnn_margin_original: float
    gnn_margin_dilated: float


def filter_stability_bound(C: float, delta: float, N: int,
                           epsilon: float) -> float:
    """First-order filter stability bound 2C(1 + delta sqrt(N)) epsilon."""
    if min(C, delta, N, epsilon) < 0:
        raise ValueError("bound arguments must be nonnegative")
    return 2.0 * C * (1.0 + delta * np.sqrt(N)) * epsilon


def gnn_stability_bound(C: float, delta: float, N: int, epsilon: float,
                        L: int) -> float:
    """L-layer GNN bound: the filter bound scaled by the depth L."""
    if L < 1:
        raise ValueError("L must be at least 1")
    return filter_stability_bound(C, delta, N, epsilon) * L


def design_il_taps(interval, K: int = 5, c_target: float = 1.0,
                   width: float | None = None) -> np.ndarray:
    """Polynomial taps approximating a Gaussian bump, rescaled so the grid
    estimate of the integral Lipschitz constant is at most c_target.

    A Gaussian response flattens away from 0, which is exactly the behavior
    the integral Lipschitz condition asks for; the least-squares polynomial
    fit inherits it on the interval. Rescaling the taps scales both h and
    lambda h'(lambda) linearly, so |h| <= 1 is preserved as well.
    """
    a, b = check_interval(interval)
    if width is None:
        width = (b - a) / 3.0
    grid = np.linspace(a, b, 501)
    target = np.exp(-(grid ** 2) / (2.0 * width ** 2))
    vand = grid[:, None] ** np.arange(K)[None, :]
    taps, *_ = np.linalg.lstsq(vand, target, rcond=None)
    C = integral_lipschitz_check(taps, (a, b))
    if C > c_target > 0:
        taps = taps * (c_target / C)
    peak = np.max(np.abs(bank_response(taps, grid)))
    if peak > 1.0:
        taps = taps / peak
    return taps


def bank_il_constant(taps: np.ndarray, interval) -> float:
    """Integral Lipschitz constant of an (F_in, F_out, K) bank: the maximum
    of the spectral norm of the matrix lambda H'(lambda) on the
    IL_GRID_POINTS grid."""
    grid = np.linspace(*check_interval(interval), IL_GRID_POINTS)
    v = bank_response(taps, grid, derivative=True)
    return float(np.linalg.norm(v, 2, axis=(1, 2)).max())


def _spectral_interval(*gsos):
    """Smallest interval holding every eigenvalue of the GSOs, widened on
    each side by 1e-6 * max(span, 1)."""
    lo, hi = np.inf, -np.inf
    for S in gsos:
        lam = eigendecompose(S).eigenvalues
        lo, hi = min(lo, lam[0]), max(hi, lam[-1])
    pad = 1e-6 * max(hi - lo, 1.0)
    return (lo - pad, hi + pad)


def _make_perturbation(S: GSO, kind: str, epsilon: float,
                       seed: int) -> PerturbationSpec:
    if kind == "dilation":
        return edge_dilation(S, epsilon)
    if kind == "relative":
        return random_relative_perturbation(S, epsilon, seed)
    raise ValueError(f"unknown perturbation kind {kind!r}")


def linear_fit_r2(xs, ys):
    """Least-squares line fit; returns (slope, intercept, R^2)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _bound_sweep(S: GSO, kind: str, epsilons, seeds, L: int,
                 il_constant, distance) -> list:
    """One BoundReport per (epsilon, seed) for an L-layer map on S, with C
    = il_constant(spec) and the measured distance(spec, seed) of each drawn
    perturbation spec; `satisfied` is measured <= bound."""
    N = S.node_count
    reports = []
    for epsilon in epsilons:
        for seed in seeds:
            spec = _make_perturbation(S, kind, epsilon, seed)
            C = il_constant(spec)
            delta = spec_misalignment(spec)
            measured = distance(spec, seed)
            bound = gnn_stability_bound(C, delta, N, epsilon, L)
            reports.append(BoundReport(
                epsilon=float(epsilon), measured=measured, bound=bound,
                C=C, delta=delta, L=L, N=N, satisfied=measured <= bound,
                seed=seed,
            ))
    return reports


def empirical_filter_distance_sweep(S: GSO, h: np.ndarray, kind: str,
                                    epsilons, seeds) -> list:
    """Measure filter distances under generated perturbations and compare to
    the first-order bound (the L = 1 case of the GNN bound)."""
    return _bound_sweep(
        S, kind, epsilons, seeds, 1,
        lambda spec: integral_lipschitz_check(
            h, _spectral_interval(S, spec.perturbed)),
        lambda spec, seed: filter_distance(S, spec.perturbed, h,
                                           mode="identity"),
    )


def il_layer(f_in: int, f_out: int, K: int, interval, c_target: float,
             seed: int) -> LayerSpec:
    """Random-ish relu filter bank whose matrix response is integral
    Lipschitz with constant at most c_target and spectral norm at most 1."""
    rng = np.random.default_rng(seed)
    a, b = check_interval(interval)
    taps = np.empty((f_in, f_out, K))
    for f in range(f_in):
        for g in range(f_out):
            width = (b - a) / rng.uniform(2.0, 5.0)
            taps[f, g] = rng.uniform(0.3, 1.0) * design_il_taps(
                interval, K, c_target=0.0, width=width
            )
    C = bank_il_constant(taps, interval)
    if C > c_target > 0:
        taps *= c_target / C
    grid = np.linspace(a, b, IL_GRID_POINTS)
    peak = np.linalg.norm(bank_response(taps, grid), 2, axis=(1, 2)).max()
    if peak > 1.0:
        taps /= peak
    return LayerSpec(taps, "relu")


def empirical_gnn_distance(model: GNNModel, S: GSO, S_hat: GSO,
                           probe_count: int = 200,
                           seed: int = 0) -> float:
    """Monte-Carlo lower estimate of the operator-norm distance between the
    pre-readout feature maps on S and on S_hat.

    Probes are random unit-norm signals plus the eigenvectors of S.
    """
    if S.node_count != S_hat.node_count:
        raise ValueError("GSOs have different sizes")
    N, F0 = S.node_count, model.input_features
    rng = np.random.default_rng(seed)
    probes = [rng.standard_normal((N, F0)) for _ in range(probe_count)]
    if F0 == 1:
        probes += [v[:, None] for v in eigendecompose(S).eigenvectors.T]
    best = 0.0
    for x in probes:
        x = x / np.linalg.norm(x)
        fa = forward(model, S, x).features
        fb = forward(model, S_hat, x).features
        best = max(best, float(np.linalg.norm(fa - fb)))
    return best


def empirical_gnn_distance_sweep(model: GNNModel, S: GSO, kind: str,
                                 epsilons, seeds, probe_count: int = 50,
                                 c_interval=None) -> list:
    """GNN analogue of the filter sweep against the L-scaled bound; C is the
    largest bank constant on c_interval (default: the spectra of S and the
    perturbed S)."""

    def il_constant(spec):
        interval = c_interval or _spectral_interval(S, spec.perturbed)
        return max(bank_il_constant(layer.taps, interval)
                   for layer in model.layers)

    return _bound_sweep(
        S, kind, epsilons, seeds, len(model.layers), il_constant,
        lambda spec, seed: empirical_gnn_distance(
            model, S, spec.perturbed, probe_count=probe_count, seed=seed),
    )


def frequency_mixing_demo(S: GSO, activation: str = "relu") -> MixingReport:
    """Feed the top eigenvector through a pointwise nonlinearity and report
    how much spectral energy leaks away from the top coefficient."""
    eig = eigendecompose(S)
    N = S.node_count
    x = eig.eigenvectors[:, -1]
    act = _ACTIVATIONS[activation][0]
    y = act(x)
    yt = eig.eigenvectors.T @ y
    total = float(np.sum(yt ** 2))
    off = 0.0 if total == 0 else 1.0 - yt[-1] ** 2 / total
    return MixingReport(
        magnitudes=np.abs(yt), off_energy_fraction=float(off),
        input_coefficient=N - 1,
    )


def discriminability_tradeoff_demo(S: GSO, epsilon: float,
                                   seed: int = 0) -> TradeoffReport:
    """Show that sharp filters discriminate but destabilize under dilation,
    integral Lipschitz filters are stable but cannot separate the top two
    eigenvectors, while a relu GNN manages both.

    The separation margin of a filter is |h| at the top eigenvalue minus |h|
    at the second one (the filter acts diagonally on eigenvectors); for the
    GNN it is the prediction gap between the two eigenvectors as inputs.
    """
    eig = eigendecompose(S)
    lam, V = eig.eigenvalues, eig.eigenvectors
    N = S.node_count
    if abs(lam[-1] - lam[-2]) < 1e-9 * max(1.0, abs(lam[-1])):
        raise ValueError("top eigenvalues are degenerate; demo needs a gap")
    dilated = lam * (1.0 + epsilon)
    S_hat = edge_dilation(S, epsilon).perturbed
    interval = _spectral_interval(S, S_hat)

    # sharp filter: exact polynomial interpolation putting response 1 at the
    # top eigenvalue and 0 at every other one (degree N-1)
    vand = lam[:, None] ** np.arange(N)[None, :]
    target = np.zeros(N)
    target[-1] = 1.0
    sharp, residual, *_ = np.linalg.lstsq(vand, target, rcond=None)
    resp = bank_response(sharp, lam)
    feasible = bool(resp[-1] >= 0.9 and abs(resp[-2]) <= 0.1)

    def margin(taps, grid_points):
        vals = np.abs(bank_response(taps, grid_points))
        return float(vals[-1] - vals[-2])

    il = design_il_taps(interval, K=5, c_target=0.2)

    # 1-layer relu GNN trained to tell the two eigenvectors apart
    node = int(np.argmax(np.abs(V[:, -1])))
    model = init_model(seed, [1, 4], [5], ["relu"], node)
    dataset = [(V[:, -1], 1.0), (V[:, -2], 0.0)]
    config = TrainConfig(mu=0.02, lambda_interval=interval,
                         learning_rate=0.01, epochs=150,
                         batch_size=2, rng_seed=seed)
    trained, _ = train(model, S, dataset, config)

    def gnn_margin(op):
        return (forward(trained, op, V[:, -1]).prediction
                - forward(trained, op, V[:, -2]).prediction)

    return TradeoffReport(
        feasible=feasible,
        sharp_margin_original=margin(sharp, lam),
        sharp_margin_dilated=margin(sharp, dilated),
        il_margin_original=margin(il, lam),
        il_margin_dilated=margin(il, dilated),
        gnn_margin_original=gnn_margin(S),
        gnn_margin_dilated=gnn_margin(S_hat),
    )
