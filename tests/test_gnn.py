import copy
import json
import re
from types import SimpleNamespace

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from graphstab import (
    GSO,
    GNNModel,
    LayerSpec,
    TrainConfig,
    adam_init,
    adam_step,
    build_gso,
    build_task,
    forward,
    gnn,
    init_model,
    load_ratings,
    penalty,
    predict,
    random_weighted_graph,
    smooth_l1_grad,
    smooth_l1_loss,
    train,
)
from graphstab.cli import equivariance_residual, gradient_residual
from graphstab.filters import shift_stack
from graphstab.graphs import shared_scope
from graphstab.gnn import (
    _ACTIVATIONS,
    _parameters,
    TaskRecord,
    load_checkpoint,
    model_to_dict,
    objective_gradients,
    resolve_lambda_interval,
    sample_gradients,
    save_checkpoint,
)
from graphstab.spectral import IL_GRID_POINTS

from conftest import make_ratings_file


@pytest.fixture
def gso8():
    return build_gso(random_weighted_graph(8, seed=1))


def identity_network(node):
    return GNNModel(
        layers=[LayerSpec(np.array([[[1.0]]]), "linear")],
        readout_weights=np.array([1.0]),
        readout_bias=0.0,
        node=node,
    )


def test_forward_identity_network(gso8):
    x = np.random.default_rng(0).standard_normal(8)
    model = identity_network(node=3)
    assert forward(model, gso8, x).prediction == pytest.approx(x[3])


def test_forward_dead_relu_returns_bias(gso8):
    model = GNNModel(
        layers=[LayerSpec(np.array([[[-5.0]]]), "relu")],
        readout_weights=np.array([2.0]),
        readout_bias=0.7,
        node=2,
    )
    x = np.abs(np.random.default_rng(1).standard_normal(8))
    assert forward(model, gso8, x).prediction == pytest.approx(0.7)


def test_forward_hand_pass(path3_adjacency):
    model = GNNModel(
        layers=[LayerSpec(np.array([[[0.0, 1.0]]]), "relu")],
        readout_weights=np.array([1.0]),
        readout_bias=0.0,
        node=1,
    )
    x = np.array([1.0, 0.0, 0.0])
    # (Sx)_1 = 1, relu keeps it
    assert forward(model, path3_adjacency, x).prediction == pytest.approx(1.0)


def test_forward_shape_mismatch(gso8):
    with pytest.raises(ValueError):
        forward(identity_network(0), gso8, np.zeros(5))


@pytest.mark.parametrize("shape", [(2, 8, 1), (3, 7, 1), (3, 8, 2)],
                         ids=["wrong K", "wrong N", "wrong F"])
def test_forward_rejects_first_layer_shifts_of_wrong_shape(gso8, shape):
    model = init_model(0, [1, 2], [3], ["relu"], node=1)
    x = np.random.default_rng(0).standard_normal(8)
    with pytest.raises(ValueError, match=r"\(K, N, F_0\) = \(3, 8, 1\)"):
        forward(model, gso8, x, first_layer_shifts=np.zeros(shape))
    # the stack of the right shape is the stack forward builds itself
    shifts = shift_stack(gso8, x[:, None], 3)
    assert (forward(model, gso8, x, first_layer_shifts=shifts).prediction
            == forward(model, gso8, x).prediction)


def test_readout_node_and_layers_validated(gso8):
    with pytest.raises(ValueError, match="not one of the 8 nodes"):
        forward(identity_network(8), gso8, np.zeros(8))
    with pytest.raises(ValueError, match="not one of the 8 nodes"):
        train(init_model(0, [1, 2], [3], ["relu"], node=8), gso8,
              [(np.ones(8), 1.0)], TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="negative"):
        identity_network(-1)
    with pytest.raises(ValueError, match="at least one layer"):
        GNNModel(layers=[], readout_weights=np.array([1.0]),
                 readout_bias=0.0, node=0)


@pytest.mark.parametrize("dims,taps", [([1, 0], [3]), ([0, 2], [3]),
                                       ([1, 2], [0])])
def test_init_model_rejects_empty_layers(dims, taps):
    with pytest.raises(ValueError, match="must all be at least 1"):
        init_model(0, dims, taps, ["relu"], node=0)


@pytest.mark.parametrize("shape", [(0, 2, 3), (1, 0, 3), (1, 2, 0)])
def test_layer_spec_rejects_an_empty_axis(shape):
    with pytest.raises(ValueError, match="no empty axis"):
        LayerSpec(np.zeros(shape))


def test_smooth_l1_values():
    assert smooth_l1_loss(1.0, 1.0) == 0.0
    assert smooth_l1_loss(3.0, 1.0) == pytest.approx(1.5)
    assert smooth_l1_loss(1.5, 1.0) == pytest.approx(0.125)
    assert smooth_l1_grad(3.0, 1.0) == 1.0
    assert smooth_l1_grad(1.5, 1.0) == pytest.approx(0.5)


def test_activations_normalized_lipschitz(gso8):
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal(1000), rng.standard_normal(1000)
    for name, (act, _) in _ACTIVATIONS.items():
        assert np.all(np.abs(act(b) - act(a)) <= np.abs(b - a) + 1e-12), name


def test_penalty_zero_taps():
    model = GNNModel([LayerSpec(np.zeros((1, 2, 4)), "relu")],
                     np.zeros(2), 0.0, 0)
    value, grads = penalty(model, TrainConfig(lambda_interval=(-2, 2)))
    assert value == 0.0


def test_penalty_pure_shift_filter():
    model = GNNModel([LayerSpec(np.array([[[0.0, 1.0]]]), "linear")],
                     np.ones(1), 0.0, 0)
    config = TrainConfig(lambda_interval=(0.0, 2.0))
    value, grads = penalty(model, config)
    assert value == pytest.approx(2.0)
    # |lambda h'| = |lambda| peaks at 2; d/dh_1 there is lambda = 2
    assert grads[0][0, 0, 1] == pytest.approx(2.0)
    assert grads[0][0, 0, 0] == 0.0


def test_penalty_constant_filters():
    model = GNNModel([LayerSpec(np.full((2, 2, 1), 3.7), "relu")],
                     np.zeros(2), 0.0, 0)
    value, _ = penalty(model, TrainConfig(lambda_interval=(-1, 1)))
    assert value == 0.0


def test_penalty_matches_response_derivative_max():
    rng = np.random.default_rng(3)
    taps = rng.standard_normal((2, 3, 4))
    model = GNNModel([LayerSpec(taps, "relu")], np.zeros(3), 0.0, 0)
    config = TrainConfig(lambda_interval=(-1.5, 1.5))
    value, _ = penalty(model, config)
    grid = np.linspace(-1.5, 1.5, IL_GRID_POINTS)
    # |lambda h'(lambda)| of each tap polynomial, from numpy's polynomials
    expected = sum(
        np.abs(grid * P.polyval(grid, P.polyder(taps[f, g]))).max()
        for f in range(2) for g in range(3)
    )
    assert value == pytest.approx(expected)


def test_gradients_zero_upstream(gso8):
    model = identity_network(node=0)
    x = np.zeros(8)
    grads = objective_gradients(model, gso8, [(x, 0.0)],
                                TrainConfig(lambda_interval=(-1, 1)))
    assert all(np.allclose(g, 0.0) for g in grads)


def test_gradient_matches_finite_differences(gso8):
    rng = np.random.default_rng(4)
    for trial in range(5):
        model = init_model(trial, [1, 3], [4],
                           ["tanh" if trial % 2 else "relu"], node=3)
        samples = [(rng.standard_normal(8), float(rng.normal()))
                   for _ in range(3)]
        config = TrainConfig(mu=0.3, lambda_interval=(-2.0, 2.0))
        assert gradient_residual(model, gso8, samples, config) <= 1e-4


def test_adam_zero_gradient_keeps_parameters():
    params = [np.array([1.0, -2.0])]
    state = adam_init(params)
    adam_step(params, [np.zeros(2)], state, TrainConfig())
    assert np.array_equal(params[0], [1.0, -2.0])


def test_adam_constant_gradient_reaches_lr_magnitude():
    config = TrainConfig(learning_rate=0.01)
    params = [np.array([0.0])]
    state = adam_init(params)
    g = np.array([3.0])
    prev = params[0].copy()
    for _ in range(500):
        prev = params[0].copy()
        adam_step(params, [g], state, config)
    assert abs(params[0][0] - prev[0]) == pytest.approx(config.learning_rate,
                                                        rel=1e-3)


def test_adam_deterministic():
    def run():
        params = [np.array([0.5, -0.5])]
        state = adam_init(params)
        rng = np.random.default_rng(5)
        for _ in range(50):
            adam_step(params, [rng.standard_normal(2)], state, TrainConfig())
        return params[0]

    assert np.array_equal(run(), run())


def test_train_single_sample_overfits(gso8):
    model = init_model(0, [1, 4], [5], ["relu"], node=2)
    data = [(np.random.default_rng(6).standard_normal(8), 2.5)]
    config = TrainConfig(mu=0.0, epochs=40, batch_size=1,
                         learning_rate=0.01, rng_seed=0)
    _, trace = train(model, gso8, data, config)
    losses = [row[1] for row in trace]
    assert all(b <= a + 1e-12 for a, b in zip(losses[3:], losses[4:]))
    assert losses[-1] < losses[0]


def test_train_huge_penalty_drives_taps_down(gso8):
    model = init_model(1, [1, 4], [5], ["relu"], node=2)
    rng = np.random.default_rng(7)
    data = [(rng.standard_normal(8), float(rng.uniform(1, 5)))
            for _ in range(6)]
    config = TrainConfig(mu=1e6, epochs=60, batch_size=3, rng_seed=0)
    _, trace = train(model, gso8, data, config)
    penalties = [row[2] for row in trace]
    assert penalties[-1] < penalties[0]
    assert penalties[-1] < 0.5 * penalties[0]


def test_train_deterministic(gso8):
    model = init_model(2, [1, 3], [4], ["relu"], node=1)
    rng = np.random.default_rng(8)
    data = [(rng.standard_normal(8), float(rng.normal())) for _ in range(5)]
    config = TrainConfig(epochs=5, batch_size=2, rng_seed=3)
    trace_a = train(model, gso8, data, config)[1]
    trace_b = train(model, gso8, data, config)[1]
    assert trace_a == trace_b


def test_train_empty_dataset(gso8):
    with pytest.raises(ValueError):
        train(identity_network(0), gso8, [], TrainConfig())


def test_gnn_permutation_equivariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(5, 20))
        S = build_gso(random_weighted_graph(n, int(rng.integers(2**31))))
        model = init_model(int(rng.integers(2**31)), [1, 3, 2], [3, 2],
                           ["relu", "tanh"], node=0)
        x = rng.standard_normal(n)
        perm = rng.permutation(n)

        def features(S, x):
            return forward(model, S, x).features

        # an absolute bound: ||features|| exceeds 1 on these draws, where a
        # relative 1e-9 would be the looser test
        assert (equivariance_residual(features, S, perm, x)
                * np.linalg.norm(features(S, x)) <= 1e-9)


def test_checkpoint_roundtrip(tmp_path, gso8):
    model = init_model(3, [1, 4], [5], ["relu"], node=6)
    config = TrainConfig(mu=0.5, lambda_interval=(-2.0, 2.0))
    task = TaskRecord("0123456789abcdef", 7, 0.9, float("nan"))
    path = tmp_path / "model.json"
    save_checkpoint(path, model, config, task)
    loaded, loaded_config, loaded_task = load_checkpoint(path)
    x = np.random.default_rng(10).standard_normal(8)
    assert forward(loaded, gso8, x).prediction == pytest.approx(
        forward(model, gso8, x).prediction
    )
    assert loaded_config.mu == 0.5
    assert loaded_config.lambda_interval == (-2.0, 2.0)
    # NaN marks a split without test users
    assert loaded_task.run == task.run and np.isnan(loaded_task.test_rmse)
    assert (loaded_task.movie_id, loaded_task.train_fraction) == (7, 0.9)


@pytest.mark.parametrize("drop, add, message", [
    ("mu", None, "config has missing keys ['mu']"),
    (None, "dropout", "config has unknown keys ['dropout']"),
    # the penalty grid is fixed, so an older checkpoint's setting is refused
    (None, "grid_size", "config has unknown keys ['grid_size']"),
    ("mu", "dropout",
     "config has missing keys ['mu'] and unknown keys ['dropout']"),
])
def test_checkpoint_names_only_the_wrong_keys(tmp_path, drop, add, message):
    path = tmp_path / "model.json"
    save_checkpoint(path, init_model(3, [1, 2], [2], ["relu"], node=0),
                    TrainConfig(), TaskRecord("0123456789abcdef", 7, 0.9, 1.0))
    payload = json.loads(path.read_text())
    if drop:
        del payload["config"][drop]
    if add:
        payload["config"][add] = 0.1
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).endswith(f": {message}")


@pytest.mark.parametrize("seed", [-1, 0.0, True, "0", None])
def test_train_config_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    # numpy would reject -1 and 0.0 naming no field, and take True as 1
    with pytest.raises(ValueError, match=re.escape(
            f"rng_seed must be a nonnegative integer, got {seed!r}")):
        TrainConfig(rng_seed=seed)
    assert TrainConfig(rng_seed=np.int64(3)).rng_seed == 3


@pytest.mark.parametrize("field, name", [("epochs", "epochs"),
                                         ("batch_size", "batch size")])
@pytest.mark.parametrize("value", [0, -1])
def test_train_config_rejects_fewer_than_one_epoch_or_sample(field, name,
                                                             value):
    with pytest.raises(ValueError,
                       match=f"{name} must be at least 1, got {value}"):
        TrainConfig(**{field: value})


# --- exactness of the receptive-field training path --------------------------

def _full_n_sample_gradients(model, S, y, cache):
    """Oracle: backpropagate through every layer as full (N, F) arrays."""
    dpred = smooth_l1_grad(cache.prediction, y)
    G = np.zeros_like(cache.features)
    G[model.node] = dpred * model.readout_weights
    tap_grads = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        Gp = G * _ACTIVATIONS[layer.activation][1](cache.preactivations[i])
        tap_grads[i] = np.einsum("knf,ng->fgk", cache.layer_shifts[i], Gp)
        if i > 0:
            T = shift_stack(S, Gp, layer.taps.shape[2])
            G = np.einsum("kng,fgk->nf", T, layer.taps)
    return tap_grads, dpred * cache.features[model.node], dpred


def _full_n_forward(model, S, x, first_layer_shifts):
    """Oracle: every layer on all N rows, the first on the given stack, and
    the readout on row `node` of the full features."""
    feat = np.atleast_2d(np.asarray(x, dtype=float).T).T
    shifts = first_layer_shifts
    layer_shifts, preactivations = [], []
    for layer in model.layers:
        if shifts is None:
            shifts = shift_stack(S, feat, layer.taps.shape[2])
        z = np.einsum("knf,fgk->ng", shifts, layer.taps)
        feat = _ACTIVATIONS[layer.activation][0](z)
        layer_shifts.append(shifts)
        preactivations.append(z)
        shifts = None
    prediction = float(feat[model.node] @ model.readout_weights
                       + model.readout_bias[0])
    return SimpleNamespace(prediction=prediction, layer_shifts=layer_shifts,
                           preactivations=preactivations, features=feat)


def _full_n_train(model, S, train_set, config):
    """Oracle: the per-sample training loop on the full N-row first-layer
    shift stack, with a full N-row forward pass and full N-row gradients."""
    model = copy.deepcopy(model)
    config = copy.copy(config)
    config.lambda_interval = resolve_lambda_interval(S, config)
    params = _parameters(model)
    state = adam_init(params)
    rng = np.random.default_rng(config.rng_seed)
    n = len(train_set)
    X0 = np.stack([np.atleast_2d(np.asarray(x, dtype=float).T).T
                   for x, _ in train_set])
    shifts_all = np.empty((model.layers[0].taps.shape[2],) + X0.shape)
    shifts_all[0] = X0
    for k in range(1, shifts_all.shape[0]):
        shifts_all[k] = np.einsum("ij,sjf->sif", S.matrix, shifts_all[k - 1])
    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            acc = [np.zeros_like(p) for p in params]
            for idx in batch:
                x, y = train_set[idx]
                cache = _full_n_forward(model, S, x, shifts_all[:, idx])
                epoch_loss += smooth_l1_loss(cache.prediction, y)
                tap_grads, g_w, g_b = _full_n_sample_gradients(model, S, y,
                                                               cache)
                for slot, g in zip(acc, tap_grads + [g_w, np.atleast_1d(g_b)]):
                    slot += g
            for slot in acc:
                slot /= len(batch)
            if config.mu > 0:
                for slot, g in zip(acc, penalty(model, config)[1]):
                    slot += config.mu * g
            adam_step(params, acc, state, config)
        trace.append((epoch, epoch_loss / n, penalty(model, config)[0]))
    return model, trace


def _ring(n):
    rng = np.random.default_rng(11)
    W = np.zeros((n, n))
    w = rng.uniform(0.2, 1.0, n)
    for i in range(n):
        W[i, (i + 1) % n] = W[(i + 1) % n, i] = w[i]
    return W


def _exactness_gso(kind):
    if kind == "ring":  # sparse: the readout sees a few nodes of 60
        return build_gso(_ring(60))
    if kind == "split":  # node 7 is on the ring: the readout cannot reach
        # the dense component or the isolated last node
        W = np.zeros((33, 33))
        W[:20, :20] = _ring(20)
        W[20:32, 20:32] = random_weighted_graph(12, seed=12, p=0.9)
        return build_gso(W)
    return build_gso(random_weighted_graph(30, seed=12, p=0.9))


def _sparse_samples(n, features, count, seed):
    """Signals with exact zeros at most nodes, like per-user ratings."""
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((n, features)) * (rng.random((n, 1)) < 0.3),
             float(rng.uniform(1, 5))) for _ in range(count)]


EXACTNESS_NETS = [
    ([1, 4], [4], ["relu"]),
    ([1, 3, 2], [3, 4], ["relu", "tanh"]),
    ([2, 3, 2, 3], [2, 3, 2], ["relu", "tanh", "relu"]),
    # the paper's model, whose readout row is strided (see
    # `gnn._readout_row`), and one whose readout row is as wide but
    # contiguous
    ([1, 64], [5], ["relu"]),
    ([1, 3, 16], [3, 2], ["relu", "relu"]),
]


@pytest.mark.parametrize("graph", ["ring", "dense", "split"])
@pytest.mark.parametrize("dims,taps,acts", EXACTNESS_NETS)
@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_train_matches_full_n_oracle(graph, dims, taps, acts, mu):
    S = _exactness_gso(graph)
    model = init_model(4, dims, taps, acts, node=7)
    data = _sparse_samples(S.node_count, dims[0], count=9, seed=5)
    config = TrainConfig(mu=mu, epochs=3, batch_size=4, rng_seed=1)
    got_model, got_trace = train(model, S, data, config)
    want_model, want_trace = _full_n_train(model, S, data, config)
    assert got_trace == want_trace
    assert model_to_dict(got_model) == model_to_dict(want_model)
    assert model_to_dict(got_model) != model_to_dict(model)


@pytest.mark.parametrize("graph", ["ring", "dense"])
@pytest.mark.parametrize("dims,taps,acts", EXACTNESS_NETS)
def test_sample_gradients_match_full_n(graph, dims, taps, acts):
    S = _exactness_gso(graph)
    model = init_model(6, dims, taps, acts, node=7)
    for x, y in _sparse_samples(S.node_count, dims[0], count=5, seed=8):
        cache = forward(model, S, x)
        tap_grads, g_w, g_b = sample_gradients(model, S, y, cache)
        want_taps, want_w, want_b = _full_n_sample_gradients(model, S, y, cache)
        assert all(np.array_equal(a, b) for a, b in zip(tap_grads, want_taps))
        assert np.array_equal(g_w, want_w) and g_b == want_b


def test_train_rejects_non_finite_inputs(gso8):
    model = init_model(0, [1, 4], [5], ["relu"], node=2)
    x = np.ones(8)
    x_nan = x.copy()
    x_nan[3] = np.nan
    for data in ([(x, 1.0), (x_nan, 2.0)], [(x, np.inf)]):
        with pytest.raises(ValueError, match="finite"):
            train(model, gso8, data, TrainConfig(epochs=1))


def test_train_stops_on_non_finite_loss(gso8):
    model = identity_network(node=2)
    model.readout_weights[:] = 1e308  # the prediction overflows
    with pytest.raises(ValueError, match="epoch 0"), \
            np.errstate(over="ignore", invalid="ignore"):
        train(model, gso8, [(np.full(8, 10.0), 1.0)],
              TrainConfig(epochs=3, batch_size=1))


def _one_layer_model(bias=0.0, readout=2):
    return GNNModel([LayerSpec(np.ones((1, 2, 2)))], np.ones(readout), bias, 0)


@pytest.mark.parametrize("build,message", [
    (lambda: LayerSpec(np.ones((1, 1, 2)), "softmax"),
     "unknown activation 'softmax'"),
    (lambda: _one_layer_model(bias=np.zeros(2)),
     "readout bias must be a single scalar"),
    (lambda: GNNModel([LayerSpec(np.ones((1, 2, 2))),
                       LayerSpec(np.ones((3, 1, 2)))], np.ones(1), 0.0, 0),
     "layer 1 expects 3 input features, previous layer produces 2"),
    (lambda: _one_layer_model(readout=3), "readout expects"),
    (lambda: TrainConfig(mu=-0.1), "mu must be nonnegative"),
    (lambda: TrainConfig(learning_rate=0.0), "learning rate must be positive"),
    (lambda: TrainConfig(lambda_interval=(1.0, 1.0)),
     r"empty interval \[1.0, 1.0\]"),
    (lambda: penalty(_one_layer_model(), TrainConfig()),
     "penalty needs a configured lambda interval"),
    (lambda: LayerSpec(np.array([[[1.0, np.nan]]])),
     "layer taps must be finite"),
    (lambda: GNNModel([LayerSpec(np.ones((1, 2, 2)))], [1.0, np.inf], 0.0, 0),
     "readout weights and bias must be finite"),
    (lambda: _one_layer_model(bias=np.nan),
     "readout weights and bias must be finite"),
    (lambda: TrainConfig(mu=np.nan), "mu must be nonnegative and finite"),
    (lambda: TrainConfig(mu=np.inf), "mu must be nonnegative and finite"),
    (lambda: TrainConfig(learning_rate=np.nan),
     "learning rate must be positive and finite"),
    (lambda: TrainConfig(learning_rate=np.inf),
     "learning rate must be positive and finite"),
    (lambda: TrainConfig(lambda_interval=(-np.inf, 1.0)),
     r"interval \[-inf, 1.0\] must have finite endpoints"),
    # zip would stop at the shortest list
    (lambda: init_model(0, [1, 3, 3], [3], ["relu"], 0),
     r"layer widths \[1, 3, 3\] make 2 layers, but 1 taps counts and 1 "
     "activations are given"),
    (lambda: init_model(0, [1, 3, 2], [3, 3], ["relu"], 0),
     r"layer widths \[1, 3, 2\] make 2 layers, but 2 taps counts and 1 "
     "activations are given"),
    (lambda: init_model(0, [1], [], [], 0),
     r"layer widths \[1\] make 0 layers, but 0 taps counts and 0 "
     "activations are given"),
], ids=["activation", "bias", "layer chain", "readout", "mu",
        "learning rate", "interval", "no interval", "nan tap",
        "inf readout", "nan bias", "nan mu", "inf mu", "nan learning rate",
        "inf learning rate", "infinite interval", "fewer taps counts",
        "fewer activations", "no layers"])
def test_gnn_rejects(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_lambda_interval_widens_a_degenerate_spectrum():
    S = build_gso(np.zeros((3, 3)))
    assert resolve_lambda_interval(S, TrainConfig()) == (0.0, 1e-6)


def _assert_predict_matches_forward(model, S, signals):
    got = predict(model, S, signals)
    want = [forward(model, S, x).prediction for x in signals]
    assert got.shape == (len(signals),)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


def test_predict_matches_forward_on_a_task_gso(tmp_path):
    """The paper's [1, 64] K = 5 model on a k-NN task GSO, which is sparse
    enough for `graph_shift` to shift single columns over its nonzeros."""
    ratings = load_ratings(make_ratings_file(tmp_path / "u.data", users=60,
                                             movies=200))
    task = build_task(ratings, target_item_id=7, train_fraction=0.8, seed=0)
    assert task.gso.nonzero_rows is not None
    model = init_model(3, [1, 64], [5], ["relu"], node=task.target_index)
    _assert_predict_matches_forward(model, task.gso,
                                    [x for x, _ in task.test])


@pytest.mark.parametrize("graph", ["ring", "dense"])
@pytest.mark.parametrize("dims,taps,acts", [
    ([1, 4], [4], ["linear"]),
    ([2, 3, 2], [3, 4], ["relu", "tanh"]),
])
def test_predict_matches_forward(graph, dims, taps, acts):
    S = _exactness_gso(graph)
    model = init_model(2, dims, taps, acts, node=7)
    signals = [x for x, _ in _sparse_samples(S.node_count, dims[0], count=6,
                                             seed=3)]
    _assert_predict_matches_forward(model, S, signals)


def test_predict_raises_forwards_errors(gso8):
    model = init_model(0, [1, 2], [3], ["relu"], node=1)
    x = np.ones(8)
    with pytest.raises(ValueError, match=r"input of shape \(5, 1\) does not "
                                         r"match N = 8, F_0 = 1"):
        predict(model, gso8, [x, np.ones(5)])
    model.node = 8
    with pytest.raises(ValueError, match="readout node 8 is not one of the "
                                         "8 nodes"):
        predict(model, gso8, [x])


def _sharing_case():
    """A graph, a two-layer network and sparse per-user signals."""
    S = build_gso(random_weighted_graph(14, seed=5, p=0.3))
    model = init_model(3, [1, 3, 2], [3, 2], ["relu", "tanh"], node=4)
    rng = np.random.default_rng(9)
    data = [(rng.integers(0, 6, 14) * (rng.random(14) < 0.5),
             float(rng.uniform(1, 5))) for _ in range(6)]
    return S, model, data, TrainConfig(mu=0.5, epochs=3, batch_size=4)


@pytest.fixture
def stack_builds(monkeypatch):
    """The stacks `train` builds, in order."""
    stacks = []
    build = gnn._first_layer_stack
    monkeypatch.setattr(gnn, "_first_layer_stack",
                        lambda *inputs: stacks.append(build(*inputs))
                        or stacks[-1])
    return stacks


def _assert_same_training(a, b):
    (model_a, trace_a), (model_b, trace_b) = a, b
    assert trace_a == trace_b
    assert model_to_dict(model_a) == model_to_dict(model_b)


@pytest.mark.parametrize("change", ["one edge", "one rating"])
def test_train_in_a_scope_recomputes_for_a_changed_input(change,
                                                         stack_builds):
    S, model, data, config = _sharing_case()
    W, changed = S.matrix.copy(), list(data)
    if change == "one edge":
        i, j = np.argwhere(W > 0)[0]
        W[i, j] = W[j, i] = W[i, j] + 0.25
    else:
        x = data[0][0].copy()
        x[np.flatnonzero(x)[0]] += 1
        changed[0] = (x, data[0][1])
    alone = train(model, build_gso(W), changed, config)
    with shared_scope():
        first = train(model, GSO(S.matrix), data, config)
        assert len(stack_builds) == 2
        again = train(model, GSO(S.matrix), data, config)
        assert len(stack_builds) == 2  # the same inputs share the stack
        second = train(model, build_gso(W), changed, config)
        assert len(stack_builds) == 3
    _assert_same_training(second, alone)
    _assert_same_training(again, first)
    _assert_same_training(first, train(model, S, data, config))


def test_shared_stack_is_read_only(stack_builds):
    S, model, data, config = _sharing_case()
    with shared_scope():
        train(model, S, data, config)
    with pytest.raises(ValueError, match="read-only"):
        stack_builds[0][0, 0, 0, 0] = 1.0
