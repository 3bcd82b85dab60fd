"""Graph neural network: layered graph convolutions with pointwise
nonlinearities, a single-node linear readout, analytic gradients, ADAM, and
penalty-regularized training.

The training objective is

    sum_T smooth_l1(prediction, label) + mu * penalty

where the penalty sums, over every filter in every bank, the maximum of
|lambda h'(lambda)| on the `spectral.il_grid` of a fixed eigenvalue
interval. Keeping that quantity small keeps the filters integral Lipschitz,
hence the trained network stable to relative graph perturbations.

The readout reads row `node` of the last layer only, and S is symmetric, so
row `node` of S^k F is (S^k e_node)^T F. `predict` takes that (K, F) product
where `forward` shifts all N rows of the features K - 1 times. Given a
first-layer shift stack, as in training, `forward` applies the last bank and
its activation at row `node` alone.
"""

import copy
import inspect
import json
from dataclasses import asdict, dataclass
from numbers import Integral, Real

import numpy as np

from .filters import bank_apply, shift_stack
from .graphs import GSO, shared
from .movielens import check_train_fraction
from .spectral import bank_response, check_interval, eigendecompose, il_grid

_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "linear": (lambda z: z, lambda z: np.ones_like(z)),
}

# ADAM's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


def _require(name, v, kinds, what, holds=lambda v: True):
    """v, if it is of kinds (a bool is not) and holds; else a ValueError."""
    if isinstance(v, bool) or not (isinstance(v, kinds) and holds(v)):
        raise ValueError(f"{name} must be {what}, got {v!r}")
    return v


@dataclass
class LayerSpec:
    """One GNN layer: an (F_in, F_out, K) filter bank and its nonlinearity."""

    taps: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=float)
        if self.taps.ndim != 3 or 0 in self.taps.shape:
            raise ValueError("layer taps must have shape (F_in, F_out, K) "
                             f"with no empty axis, got {self.taps.shape}")
        if not np.isfinite(self.taps).all():
            raise ValueError("layer taps must be finite")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class GNNModel:
    """Layered GNN with a linear readout at a single node of interest."""

    layers: list
    readout_weights: np.ndarray
    readout_bias: np.ndarray  # stored as a 1-element array so optimizers share it
    node: int

    def __post_init__(self):
        self.readout_weights = np.asarray(self.readout_weights, dtype=float)
        self.readout_bias = np.atleast_1d(np.asarray(self.readout_bias,
                                                     dtype=float))
        if self.readout_bias.shape != (1,):
            raise ValueError("readout bias must be a single scalar")
        if not (np.isfinite(self.readout_weights).all()
                and np.isfinite(self.readout_bias).all()):
            raise ValueError("readout weights and bias must be finite")
        if not self.layers:
            raise ValueError("model needs at least one layer")
        # a JSON integer: int() would cut 3.7, read true as 1, overflow on inf
        _require("readout node", self.node, Integral, "an integer")
        if self.node < 0:
            raise ValueError(f"readout node {self.node} is negative")
        f = self.layers[0].taps.shape[0]
        for i, layer in enumerate(self.layers):
            if layer.taps.shape[0] != f:
                raise ValueError(
                    f"layer {i} expects {layer.taps.shape[0]} input features, "
                    f"previous layer produces {f}"
                )
            f = layer.taps.shape[1]
        if self.readout_weights.shape != (f,):
            raise ValueError(
                f"readout expects {self.readout_weights.shape} weights for "
                f"{f} output features"
            )

    @property
    def input_features(self) -> int:
        return self.layers[0].taps.shape[0]


@dataclass
class TrainConfig:
    """Training settings; a set lambda_interval is `check_interval`'s pair.
    `train` sets rng_seed to the split seed: (mu, rng_seed) names a model."""

    mu: float = 0.0
    lambda_interval: tuple | None = None  # default: eigenvalue range of S
    learning_rate: float = 0.005
    epochs: int = 40
    batch_size: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        # a chained comparison is False for NaN, so NaN fails it too
        _require("mu", self.mu, Real, "nonnegative and finite",
                 lambda mu: 0 <= mu < np.inf)
        _require("learning rate", self.learning_rate, Real,
                 "positive and finite", lambda rate: 0 < rate < np.inf)
        for name, count in (("epochs", self.epochs),
                            ("batch size", self.batch_size)):
            _require(name, count, Integral, "at least 1", lambda n: n >= 1)
        _require("rng_seed", self.rng_seed, Integral,
                 "a nonnegative integer", lambda seed: seed >= 0)
        if self.lambda_interval is not None:
            self.lambda_interval = check_interval(self.lambda_interval)


@dataclass(frozen=True)
class TaskRecord:
    """A `train` checkpoint's task: `run`, a digest of its run's settings,
    movie_id, train_fraction and test_rmse (NaN: no test users)."""

    run: str
    movie_id: int
    train_fraction: float
    test_rmse: float

    def __post_init__(self):
        _require("run", self.run, str, "a string")
        _require("movie_id", self.movie_id, Integral, "an integer")
        check_train_fraction(_require("train_fraction", self.train_fraction,
                                      Real, "a number"))
        # `not rmse <= 0` holds for NaN
        _require("test_rmse", self.test_rmse, Real,
                 "a positive number or NaN", lambda rmse: not rmse <= 0)


@dataclass
class ForwardCache:
    """What `forward` computed; the last layer's full arrays are None when it
    was given a first-layer stack (see `forward`)."""

    prediction: float
    layer_shifts: list             # (K, N, F_in) per layer
    preactivations: list           # H_l(S) x_{l-1}, (N, F_l) per layer
    features: np.ndarray | None    # final (N, F_L)
    readout_preactivation: np.ndarray  # (F_L,) row `node` of the last z
    readout_features: np.ndarray   # (F_L,) row `node` of the final features


def init_model(seed, layer_dims, taps_per_layer, activations, node) -> GNNModel:
    """Seeded initialization: taps uniform in +-1/sqrt(F_in * K) per layer,
    readout uniform in +-1/sqrt(F_L). No biases inside convolution layers."""
    n = len(layer_dims) - 1
    if not 0 < n == len(taps_per_layer) == len(activations):
        raise ValueError(f"layer widths {list(layer_dims)} make {n} layers, "
                         f"but {len(taps_per_layer)} taps counts and "
                         f"{len(activations)} activations are given")
    if min(layer_dims) < 1 or min(taps_per_layer) < 1:
        raise ValueError(f"layer widths {list(layer_dims)} and taps "
                         f"{list(taps_per_layer)} must all be at least 1")
    rng = np.random.default_rng(seed)
    layers = []
    for (f_in, f_out), K, act in zip(
        zip(layer_dims[:-1], layer_dims[1:]), taps_per_layer, activations
    ):
        bound = 1.0 / np.sqrt(f_in * K)
        layers.append(LayerSpec(rng.uniform(-bound, bound, (f_in, f_out, K)), act))
    f_last = layer_dims[-1]
    bound = 1.0 / np.sqrt(f_last)
    return GNNModel(
        layers=layers,
        readout_weights=rng.uniform(-bound, bound, f_last),
        readout_bias=float(rng.uniform(-bound, bound)),
        node=node,
    )


def _check_input(model: GNNModel, S: GSO, x) -> np.ndarray:
    """x as an (N, F_0) array; raises ValueError on a shape or node misfit."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != (S.node_count, model.input_features):
        raise ValueError(
            f"input of shape {x.shape} does not match N = {S.node_count}, "
            f"F_0 = {model.input_features}"
        )
    if not 0 <= model.node < S.node_count:
        raise ValueError(f"readout node {model.node} is not one of the "
                         f"{S.node_count} nodes")
    return x


def _layer(S: GSO, layer: LayerSpec, feat, shifts=None):
    """A layer's shift stack of feat (unless given), preactivation, output."""
    if shifts is None:
        shifts = shift_stack(S, feat, layer.taps.shape[2])
    z = bank_apply(shifts, layer.taps)
    return shifts, z, _ACTIVATIONS[layer.activation][0](z)


def _readout_row(row, taps):
    """row, a row of the output of the bank `taps`, laid out as that row of
    `bank_apply`'s full (N, F_out) result. The result is in Fortran order
    when F_in = 1 < K, so its rows are strided, and BLAS sums a strided
    vector in another order than a contiguous one: the readout's dot
    product keeps its bits only on the same stride."""
    f_in, f_out, K = taps.shape
    if not f_in == 1 < K:
        return row
    strided = np.empty((f_out, 2))
    strided[:, 0] = row
    return strided[:, 0]


def forward(model: GNNModel, S: GSO, x: np.ndarray,
            first_layer_shifts: np.ndarray | None = None) -> ForwardCache:
    """Run the network; caches per-layer shifts and pre-activations.

    first_layer_shifts, when given, is the precomputed (K, N, F_0) shift
    stack of x; shifts do not depend on the parameters, so each caller
    builds its stacks once. `train` passes a stack that is true only
    inside the readout's receptive field, and `cli._evaluate` one that is
    true only at row `node`. Either way the prediction is exact, because
    the last bank and its activation then run at row `node` alone: the
    cache holds that row as readout_preactivation and readout_features,
    and its features and last preactivations are None. Without a stack,
    every layer runs on all N rows and the cache holds them, the readout
    row being a view of the features. The row keeps the stride of the full
    result on both paths (see `_readout_row`), so both give the same bits.
    """
    feat = _check_input(model, S, x)
    if first_layer_shifts is not None:
        want = (model.layers[0].taps.shape[2], S.node_count,
                model.input_features)
        if np.shape(first_layer_shifts) != want:
            raise ValueError(
                f"first-layer shift stack of shape "
                f"{np.shape(first_layer_shifts)} does not match "
                f"(K, N, F_0) = {want}"
            )
    *lower, last = model.layers
    shifts, layer_shifts, preactivations = first_layer_shifts, [], []
    for layer in lower:
        shifts, z, feat = _layer(S, layer, feat, shifts)
        layer_shifts.append(shifts)
        preactivations.append(z)
        shifts = None
    if shifts is None:
        shifts = shift_stack(S, feat, last.taps.shape[2])
    layer_shifts.append(shifts)
    node, activation = model.node, _ACTIVATIONS[last.activation][0]
    if first_layer_shifts is None:
        z = bank_apply(shifts, last.taps)
        feat = activation(z)
        z_row, f_row = z[node], feat[node]
    else:
        z_row = bank_apply(shifts[:, node:node + 1], last.taps)[0]
        f_row = _readout_row(activation(z_row), last.taps)
        z = feat = None
    preactivations.append(z)
    prediction = float(f_row @ model.readout_weights + model.readout_bias[0])
    return ForwardCache(prediction, layer_shifts, preactivations, feat,
                        z_row, f_row)


def predict(model: GNNModel, S: GSO, signals) -> np.ndarray:
    """`forward`'s prediction, to rounding, for each of a nonempty sequence
    of signals, with its ValueErrors. The last layer takes the K rows S^k
    e_node once and a (K, F) product per signal (see the module docstring)."""
    *lower, last = model.layers
    # zero rows for a node outside S, which the first signal's check rejects
    rows = shift_stack(S, np.arange(S.node_count) == model.node,
                       last.taps.shape[2])  # (K, N)
    readout_shifts = []
    for x in signals:
        feat = _check_input(model, S, x)
        for layer in lower:
            feat = _layer(S, layer, feat)[2]
        readout_shifts.append(rows @ feat)  # (K, F)
    out = _layer(S, last, None, np.stack(readout_shifts, axis=1))[2]
    return out @ model.readout_weights + model.readout_bias[0]


def smooth_l1_loss(prediction: float, target: float) -> float:
    r = prediction - target
    if abs(r) < 1.0:
        return 0.5 * r * r
    return abs(r) - 0.5


def smooth_l1_grad(prediction: float, target: float) -> float:
    return float(np.clip(prediction - target, -1.0, 1.0))


def penalty(model: GNNModel, config: TrainConfig):
    """Stability penalty: per-filter maxima of |lambda h'(lambda)| on the
    `il_grid` of the lambda interval, summed over every filter of every
    bank.

    Returns (value, per-layer tap subgradients). The subgradient of each
    filter's max is taken at its (first) argmax grid point.
    """
    if config.lambda_interval is None:
        raise ValueError("penalty needs a configured lambda interval")
    grid = il_grid(config.lambda_interval)
    value = 0.0
    grads = []
    for layer in model.layers:
        v = bank_response(layer.taps, grid, derivative=True)  # (G, F_in, F_out)
        idx = np.argmax(np.abs(v), axis=0)             # first argmax per filter
        v_star = np.take_along_axis(v, idx[None], axis=0)[0]
        value += float(np.sum(np.abs(v_star)))
        lam_star = grid[idx]                           # (F_in, F_out)
        ks = np.arange(layer.taps.shape[2], dtype=float)
        grads.append(np.sign(v_star)[:, :, None] * ks
                     * lam_star[:, :, None] ** ks)
    return value, grads


def sample_gradients(model: GNNModel, S: GSO, y: float, cache: ForwardCache):
    """Analytic gradients of smooth_l1(cache.prediction, y) w.r.t. all
    parameters.

    The readout reads row `model.node` only, so the last layer's upstream
    gradient is zero on every other row and its tap gradient is the exact
    outer product of that row's shifts with the readout-row gradient. So
    the last layer is read through the cache's readout row alone, which
    `forward` fills with or without a first-layer stack. The full N-row
    gradient is built only to backpropagate into earlier layers; there,
    layer l's gradient is nonzero only within sum_{m > l} (K_m - 1) hops of
    the readout node.

    Returns (tap_grads per layer, readout_weight_grad, bias_grad).
    """
    node = model.node
    dpred = smooth_l1_grad(cache.prediction, y)
    g_w = dpred * cache.readout_features
    g_b = dpred
    last = len(model.layers) - 1
    dact = _ACTIVATIONS[model.layers[last].activation][1]
    gp = dpred * model.readout_weights * dact(cache.readout_preactivation)
    tap_grads = [None] * last + [
        np.einsum("kf,g->fgk", cache.layer_shifts[last][:, node], gp)
    ]
    if last > 0:
        Gp = np.zeros((S.node_count, gp.size))
        Gp[node] = gp
    for i in range(last, 0, -1):
        taps = model.layers[i].taps
        # S is symmetric, so the adjoint of shifting is shifting; the
        # transposed view (not a copy) keeps the bits of the direct sum
        G = bank_apply(shift_stack(S, Gp, taps.shape[2]),
                       taps.transpose(1, 0, 2))
        dact = _ACTIVATIONS[model.layers[i - 1].activation][1]
        Gp = G * dact(cache.preactivations[i - 1])
        tap_grads[i - 1] = np.einsum("knf,ng->fgk",
                                     cache.layer_shifts[i - 1], Gp)
    return tap_grads, g_w, g_b


def _parameters(model: GNNModel):
    return [layer.taps for layer in model.layers] + [
        model.readout_weights, model.readout_bias
    ]


def _zero_like(params):
    return [np.zeros_like(p) for p in params]


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0


def adam_init(params) -> AdamState:
    return AdamState(m=_zero_like(params), v=_zero_like(params), step=0)


def adam_step(params, grads, state: AdamState, config: TrainConfig):
    """Standard ADAM update with bias correction, applied in place."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** state.step)
        v_hat = v / (1 - b2 ** state.step)
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def objective(model: GNNModel, S: GSO, samples, config: TrainConfig) -> float:
    """Total training objective: summed data loss plus mu * penalty."""
    total = sum(
        smooth_l1_loss(forward(model, S, x).prediction, y) for x, y in samples
    )
    if config.mu > 0:
        total += config.mu * penalty(model, config)[0]
    return float(total)


def _data_gradients(model: GNNModel, S: GSO, samples, shifts):
    """Summed data-loss gradients over samples, in parameter order, and the
    loss of each sample. shifts holds each sample's precomputed first-layer
    shift stack, or None (see `forward`)."""
    acc = _zero_like(_parameters(model))
    losses = []
    for (x, y), first_layer_shifts in zip(samples, shifts):
        cache = forward(model, S, x, first_layer_shifts=first_layer_shifts)
        losses.append(smooth_l1_loss(cache.prediction, y))
        tap_grads, g_w, g_b = sample_gradients(model, S, y, cache)
        for slot, g in zip(acc, tap_grads + [g_w, np.atleast_1d(g_b)]):
            slot += g
    return acc, losses


def _add_penalty_gradients(acc, model: GNNModel, config: TrainConfig) -> None:
    if config.mu > 0:
        _, pen_grads = penalty(model, config)
        for slot, g in zip(acc, pen_grads):
            slot += config.mu * g


def objective_gradients(model: GNNModel, S: GSO, samples, config: TrainConfig):
    """Gradients of `objective` as a flat parameter-ordered list."""
    acc, _ = _data_gradients(model, S, samples, [None] * len(samples))
    _add_penalty_gradients(acc, model, config)
    return acc


def resolve_lambda_interval(S: GSO, config: TrainConfig) -> tuple:
    """Default penalty interval: the eigenvalue range of the training GSO."""
    if config.lambda_interval is not None:
        return tuple(config.lambda_interval)
    lam = eigendecompose(S).eigenvalues
    a, b = float(lam[0]), float(lam[-1])
    if not a < b:
        b = a + 1e-6
    return (a, b)


def _first_layer_stack(S, X0, node, K0, H) -> np.ndarray:
    """`train`'s read-only first-layer stack; near[j]: nodes within j hops."""
    adjacent = S != 0
    near = [np.arange(S.shape[0]) == node]
    for _ in range(H):
        near.append(near[-1] | adjacent[near[-1]].any(axis=0))
    stack = np.zeros((K0,) + X0.shape)
    stack[0] = X0
    for k in range(1, K0):
        rows = np.flatnonzero(near[H - k])
        stack[k][:, rows] = np.einsum("ij,sjf->sif", S[rows], stack[k - 1])
    stack.setflags(write=False)
    return stack


def train(model: GNNModel, S: GSO, train_set, config: TrainConfig):
    """Mini-batch ADAM on the penalized objective.

    train_set is a list of (signal, label) pairs; every signal and label
    must be finite. Batches are drawn by a seeded shuffle each epoch;
    gradients are averaged over the batch before each ADAM step. Returns
    (trained model, per-epoch trace) where the trace rows are (epoch, mean
    data loss, penalty value). Raises ValueError naming the epoch whose loss
    is not finite.

    The readout reads one node, and a network whose layers have K_l taps
    sees only the H = sum_l (K_l - 1) hops around it. So the first layer's
    parameter-free shift stack holds power k only on the nodes within H - k
    hops of `model.node` along the nonzeros of S, and zeros elsewhere,
    unreachable nodes included. Each kept row is a full row
    of S times the previous power, and a dropped entry only ever meets a
    zero of S, so every value the loss reads has the same bits as with the
    full stack. It is built once for all samples and, inside a
    `graphs.shared_scope`, once for equal S, signals, node, K_0 and H.
    """
    if not train_set:
        raise ValueError("training set is empty")
    X0 = np.stack(
        [np.atleast_2d(np.asarray(x, dtype=float).T).T for x, _ in train_set]
    )  # (n, N, F_0)
    labels = np.array([y for _, y in train_set], dtype=float)
    if not (np.isfinite(X0).all() and np.isfinite(labels).all()):
        raise ValueError("training signals and labels must be finite")
    model = copy.deepcopy(model)
    config = copy.copy(config)
    config.lambda_interval = resolve_lambda_interval(S, config)
    params = _parameters(model)
    state = adam_init(params)
    rng = np.random.default_rng(config.rng_seed)
    n = len(train_set)
    H = sum(layer.taps.shape[2] - 1 for layer in model.layers)
    shifts_all = shared("first-layer stack", _first_layer_stack, S.matrix, X0,
                        model.node, model.layers[0].taps.shape[2], H)
    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            acc, losses = _data_gradients(
                model, S, [train_set[i] for i in batch],
                [shifts_all[:, i] for i in batch])
            for loss in losses:
                epoch_loss += loss
            for slot in acc:
                slot /= len(batch)
            _add_penalty_gradients(acc, model, config)
            adam_step(params, acc, state, config)
        if not np.isfinite(epoch_loss):
            raise ValueError(f"training loss is not finite at epoch {epoch}: "
                             f"{epoch_loss}")
        pen_value = penalty(model, config)[0]
        trace.append((epoch, epoch_loss / n, pen_value))
    return model, trace


# --- checkpoints -------------------------------------------------------------

def model_to_dict(model: GNNModel) -> dict:
    layers = [{"taps": layer.taps.tolist(), "activation": layer.activation}
              for layer in model.layers]
    return {"layers": layers, "readout_weights": model.readout_weights.tolist(),
            "readout_bias": float(model.readout_bias[0]), "node": model.node}


def save_checkpoint(path, model: GNNModel, config: TrainConfig,
                    task: TaskRecord) -> None:
    """Write model, config and task as one JSON object under those keys."""
    with open(path, "w") as fh:
        json.dump({"model": model_to_dict(model), "config": asdict(config),
                   "task": asdict(task)}, fh)


def _from_json(what, d, build, **parse):
    """build(**d) for a JSON object d whose keys are build's parameters (a
    dataclass's fields), each value passed through parse[key] if given."""
    if type(d) is not dict:
        raise ValueError(f"{what} is a JSON {type(d).__name__}, not an object")
    names = inspect.signature(build).parameters
    wrong = [f"{kind} keys {keys}" for kind, keys in (
        ("missing", sorted(set(names) - set(d))),
        ("unknown", sorted(set(d) - set(names)))) if keys]
    if wrong:
        raise ValueError(f"{what} has {' and '.join(wrong)}")
    return build(**{k: parse.get(k, lambda v: v)(v) for k, v in d.items()})


def load_checkpoint(path):
    """(model, config, task) of a checkpoint written by `save_checkpoint`;
    a ValueError naming the file if it is not one: not a JSON object,
    missing or unknown keys, or values the model, config or task reject."""
    def model(d):
        return _from_json("model", d, GNNModel, layers=lambda layers: [
            _from_json(f"layer {i}", layer, LayerSpec)
            for i, layer in enumerate(layers)])

    try:  # an OSError passes as it is
        with open(path) as fh:
            return _from_json(
                "checkpoint", json.load(fh),
                lambda model, config, task: (model, config, task), model=model,
                config=lambda d: _from_json("config", d, TrainConfig),
                task=lambda d: _from_json("task", d, TaskRecord))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from exc
