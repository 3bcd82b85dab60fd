"""Experiment runner: trains the recommendation GNNs, runs the transfer /
perturbation / split sweeps, verifies the theory invariants on synthetic
graphs, and regenerates the demonstration figures as CSV.

Exit codes: 0 success, 1 invariant failure, 2 configuration or IO error.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .filters import graph_convolution, spectral_norm
from .gnn import (
    TaskRecord,
    TrainConfig,
    _parameters,
    _require,
    forward,
    init_model,
    load_checkpoint,
    objective,
    objective_gradients,
    predict,
    save_checkpoint,
    train,
)
from .graphs import (
    build_gso,
    graph_shift,
    permute_gso,
    permute_signal,
    random_weighted_graph,
    shared_scope,
)
from .movielens import build_task, check_train_fraction, load_ratings, rmse
from .perturbation import (SingularEquationError, random_relative_perturbation,
                           solve_relative_error)
from .spectral import bank_response, eigendecompose
from .stability import (
    design_il_taps,
    discriminability_tradeoff_demo,
    empirical_filter_distance_sweep,
    frequency_mixing_demo,
)

PAPER_FEATURES = 64
PAPER_TAPS = 5

# perturb-sweep draws split s, draw d from seed DRAW_SEEDS_PER_SPLIT * s + d,
# so each draw has its own E only while --draws stays within this stride
DRAW_SEEDS_PER_SPLIT = 1000


def _header_lines(args, extra=()):
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return [f"graphstab {__version__}", f"config: {json.dumps(echo, default=str)}",
            *extra]


def _write_csv(path, header_lines, columns, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _mean_std(values):
    """Mean and sample standard deviation (0 for a single value)."""
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return statistics.fmean(values), std


def _check_distinct(*flags) -> None:
    for flag, values in flags:
        if len(set(values)) < len(values):
            raise ValueError(f"{flag} repeats a value: {values}")


def _check_seeds(flag, seeds) -> None:
    # numpy's own message for a negative seed names no flag
    if np.min(seeds) < 0:
        raise ValueError(f"{flag} must be nonnegative, got {seeds}")


def _load_run(args):
    """The sweep's output directory (made only when it writes its CSV), a
    task record of the `train` run in --checkpoints, the ratings, and each
    checkpoint's (model, test RMSE) by (mu, split seed), ascending. Every
    checkpoint_*.json is checked first: one run, one-layer models, as
    `train` writes, and each (mu, seed) of the mu x seed grid once."""
    ckpt_dir = Path(args.checkpoints)
    models, runs = {}, set()
    for path in sorted(ckpt_dir.glob("checkpoint_*.json")):
        model, config, record = load_checkpoint(path)
        if len(model.layers) > 1:
            raise ValueError(
                f"checkpoint {path} has {len(model.layers)} layers; the "
                "sweeps read one-layer models, as `train` writes")
        key = float(config.mu), config.rng_seed
        if key in models:
            raise ValueError(f"checkpoint {path} repeats mu {key[0]} at "
                             f"split seed {key[1]}")
        models[key] = model, record.test_rmse
        runs.add((record.run, record.movie_id, record.train_fraction))
    if len(runs) != 1:
        raise ValueError(f"{ckpt_dir} holds checkpoints of {len(runs)} runs"
                         if runs else f"no checkpoint in {ckpt_dir}")
    mus, seeds = (sorted({key[i] for key in models}) for i in (0, 1))
    for key in ((mu, seed) for mu in mus for seed in seeds):
        if key not in models:
            raise ValueError(f"{ckpt_dir} holds no checkpoint of mu {key[0]} "
                             f"at split seed {key[1]}")
    return (Path(args.out), record, load_ratings(args.data),
            {key: models[key] for key in sorted(models)})


def _evaluate(model, S, samples, spec=None, where="on the task's GSO"):
    """RMSE of a one-layer model's predictions on samples over the GSO S,
    or over the S_hat of spec (a perturbation of S), one `forward` per
    sample. A non-finite RMSE raises ValueError naming `where`; no
    floating-point warning escapes.

    The model reads its shift stack only at row `node`, where
    (S^k x)[node] = r_k . x with r_k = S^k e_node (S is symmetric). The
    rows come from K - 1 shifts of e_node, by `graph_shift` or by
    spec.shift, which never forms S_hat. Each `forward` takes a (K, N, 1)
    stack exact at row node and zero elsewhere, so it applies the bank and
    the activation at that row alone, and reads its GSO only for N and the
    node check. Both arms take the same arithmetic, so they have the same
    bits at epsilon = 0. The benchmark pins the `forward` count, so this
    does not call `predict`.
    """
    X = np.stack([x for x, _ in samples], axis=1)
    K = model.layers[0].taps.shape[2]
    shift = functools.partial(graph_shift, S) if spec is None else spec.shift
    with np.errstate(over="ignore", invalid="ignore"):
        # zero for a node outside S, which the first `forward` rejects
        e_node = (np.arange(S.node_count) == model.node).astype(float)
        rows = [e_node]
        for _ in range(K - 1):
            rows.append(shift(rows[-1]))
        A = np.stack(rows) @ X  # (K, n)
        preds = [forward(model, S, x,
                         (A[:, j, None] * e_node)[:, :, None]).prediction
                 for j, (x, _) in enumerate(samples)]
        score = rmse(preds, [y for _, y in samples])
    return _finite_rmse(score, where)


def _finite_rmse(score, where):
    """score, or a ValueError naming `where` if it is not finite."""
    if not np.isfinite(score):
        raise ValueError(f"test RMSE {where} is {score}, not finite")
    return score


def _test_set(task, train_fraction):
    """The task's test samples; a sweep cannot evaluate an empty one."""
    if not task.test:
        raise ValueError(f"movie id {task.target_item_id} has no test users "
                         f"at train fraction {train_fraction}")
    return task.test


def _evaluate_on_task(model, ratings, movie_id, train_fraction, split_seed,
                      samples=None):
    """RMSE of `predict` on samples (default: the task's test set) over the
    GSO of the task built for movie_id, by a copy of model whose readout is
    moved to that movie; and the samples. The task is dropped on return, so
    a sweep never holds one task while it builds the next. A non-finite
    RMSE raises ValueError naming the movie and the train fraction; no
    floating-point warning escapes."""
    task = build_task(ratings, target_item_id=movie_id,
                      train_fraction=train_fraction, seed=split_seed)
    samples = samples or _test_set(task, train_fraction)
    signals, labels = zip(*samples)
    model = dataclasses.replace(model, node=task.target_index)
    with np.errstate(over="ignore", invalid="ignore"):
        score = rmse(predict(model, task.gso, signals), labels)
    return _finite_rmse(score, f"for movie {movie_id} at train fraction "
                               f"{train_fraction}"), samples


def _train_one_split(ratings, args, split_seed, config: TrainConfig,
                     out: Path, write_split: bool):
    task = build_task(ratings, target_item_id=args.movie_id,
                      train_fraction=args.train_fraction, seed=split_seed)
    model = init_model(split_seed, [1, args.features], [args.taps], ["relu"],
                       task.target_index)
    config = dataclasses.replace(config, rng_seed=split_seed)
    trained, trace = train(model, task.gso, task.train, config)
    # a plain `forward` per test user: the benchmark pins the RMSE's bits
    # and each user's shift counts
    preds = [forward(trained, task.gso, x).prediction for x, _ in task.test]
    test_rmse = (rmse(preds, [y for _, y in task.test]) if task.test
                 else float("nan"))
    tag = f"mu{config.mu}_split{split_seed}"
    out.mkdir(parents=True, exist_ok=True)  # a rejected task writes nothing
    # the run digest: of the settings the `config:` header line echoes
    run = hashlib.sha256(_header_lines(args)[1].encode()).hexdigest()[:16]
    save_checkpoint(out / f"checkpoint_{tag}.json", trained, config,
                    TaskRecord(run, args.movie_id, args.train_fraction,
                               test_rmse))
    _write_csv(out / f"trace_{tag}.csv", [], ["epoch", "loss", "penalty"],
               trace)
    if write_split:
        _write_csv(out / f"split_{split_seed}.csv", [], ["user_id", "subset"],
                   [(uid, "train") for uid in task.train_user_ids]
                   + [(uid, "test") for uid in task.test_user_ids])
    return test_rmse


def cmd_train(args) -> int:
    _check_distinct(("--seeds", args.seeds), ("--mu", args.mu))
    # bad settings are rejected before the ratings are read
    configs = [TrainConfig(mu=mu, epochs=args.epochs) for mu in args.mu]
    check_train_fraction(args.train_fraction)
    init_model(0, [1, args.features], [args.taps], ["relu"], 0)
    _check_seeds("--seeds", args.seeds)
    ratings = load_ratings(args.data)
    out = Path(args.out)
    test_rmse = {}
    for split_seed in args.seeds:
        with shared_scope():  # one eigensystem and stack per split
            for mu, config in zip(args.mu, configs):
                test_rmse[mu, split_seed] = _train_one_split(
                    ratings, args, split_seed, config, out, mu == args.mu[0])
    rows = [(mu, s, test_rmse[mu, s]) for mu in args.mu for s in args.seeds]
    for mu in args.mu:
        per_split = [test_rmse[mu, s] for s in args.seeds]
        mean, std = _mean_std(per_split)
        print(f"mu={mu}: test RMSE {mean:.4f} (+-{std:.4f}) "
              f"over {len(per_split)} splits")
    hashes = [f"split manifest {s}: " + hashlib.sha256(
        (out / f"split_{s}.csv").read_bytes()).hexdigest()[:16]
        for s in args.seeds]
    _write_csv(out / "rmse.csv", _header_lines(args, hashes),
               ["mu", "split_seed", "test_rmse"], rows)
    return 0


def cmd_transfer(args) -> int:
    _check_distinct(("--movie-ids", args.movie_ids or []))
    out, record, ratings, models = _load_run(args)
    movie_ids = args.movie_ids or _most_rated(ratings, record.movie_id, 5)
    rows = []
    for mu in dict.fromkeys(mu for mu, _ in models):
        splits = [(seed, *models[mu, seed]) for m, seed in models if m == mu]
        # the mean of train's test RMSEs, as its stdout prints it
        baseline = statistics.fmean(test_rmse for *_, test_rmse in splits)
        for movie_id in movie_ids:
            mean, std = _mean_std([_evaluate_on_task(
                model, ratings, movie_id, record.train_fraction, seed)[0]
                for seed, model, _ in splits])
            degradation = 100.0 * (mean - baseline) / baseline
            rows.append((mu, movie_id, mean, std, degradation))
            print(f"mu={mu} movie {movie_id}: RMSE {mean:.4f} "
                  f"(+-{std:.4f}), degradation {degradation:+.1f}%")
    _write_csv(out / "transfer.csv", _header_lines(args),
               ["mu", "movie_id", "rmse_mean", "rmse_std",
                "degradation_percent"], rows)
    return 0


def _most_rated(ratings, exclude_item_id, count):
    counts = (ratings.matrix > 0).sum(axis=0)
    order = np.argsort(-counts, kind="stable")
    ids = [ratings.movie_ids[i] for i in order
           if ratings.movie_ids[i] != exclude_item_id]
    return ids[:count]


def cmd_perturb_sweep(args) -> int:
    _require("--draws", args.draws, int, "at least 1", lambda n: n >= 1)
    _require("--draws", args.draws, int, f"at most {DRAW_SEEDS_PER_SPLIT}",
             lambda n: n <= DRAW_SEEDS_PER_SPLIT)
    _check_distinct(("--epsilon", args.epsilon))
    for eps in args.epsilon:
        _require("--epsilon", eps, float, "nonnegative and finite",
                 lambda eps: 0 <= eps < np.inf)
    out, record, ratings, models = _load_run(args)
    rows = []
    with shared_scope():  # one norm per draw seed, for every eps and mu
        for (mu, split_seed), (model, _) in models.items():
            task = build_task(ratings, target_item_id=record.movie_id,
                              train_fraction=record.train_fraction,
                              seed=split_seed)
            test = _test_set(task, record.train_fraction)
            base = _evaluate(model, task.gso, test)
            for eps in args.epsilon:
                for draw in range(args.draws):
                    # only E is kept, and only while it is evaluated
                    seed = DRAW_SEEDS_PER_SPLIT * split_seed + draw
                    spec = random_relative_perturbation(task.gso, eps, seed)
                    perturbed = _evaluate(model, task.gso, test, spec,
                                          f"at epsilon {eps}, draw {draw}")
                    del spec
                    rows.append((mu, split_seed, eps, draw,
                                 base, perturbed, perturbed - base))
            del task, test  # before the next model's task is built
    _write_csv(out / "perturb_sweep.csv", _header_lines(args),
               ["mu", "split_seed", "epsilon", "draw", "rmse_base",
                "rmse_perturbed", "rmse_difference"], rows)
    _print_sweep_summary(rows)
    return 0


def _print_sweep_summary(rows):
    by_mu_eps = {}
    for mu, _, eps, _, _, _, diff in rows:
        by_mu_eps.setdefault((mu, eps), []).append(diff)
    for mu, eps in sorted(by_mu_eps):
        print(f"mu={mu} eps={eps}: mean RMSE difference "
              f"{statistics.fmean(by_mu_eps[mu, eps]):+.4f}")


def cmd_split_sweep(args) -> int:
    # every ratio scores the checkpoint's own test users; a ratio above the
    # run's train fraction would build its graph from their ratings
    _check_distinct(("--splits", args.splits))
    for ratio in args.splits:
        check_train_fraction(ratio)
    out, record, ratings, models = _load_run(args)
    fraction = record.train_fraction
    if max(args.splits) > fraction:
        raise ValueError(f"--splits {max(args.splits)} exceeds the run's "
                         f"train fraction {fraction}")
    rows = []
    for (mu, split_seed), (model, _) in models.items():
        base, test = _evaluate_on_task(model, ratings, record.movie_id,
                                       fraction, split_seed)
        for ratio in args.splits:
            perturbed, _ = _evaluate_on_task(
                model, ratings, record.movie_id, ratio, split_seed, test)
            rows.append((mu, split_seed, ratio, base, perturbed,
                         perturbed - base))
    _write_csv(out / "split_sweep.csv", _header_lines(args),
               ["mu", "split_seed", "train_fraction", "rmse_base",
                "rmse_at_ratio", "rmse_difference"], rows)
    return 0


# --- verify ------------------------------------------------------------------

def _check(name, residuals, tolerance):
    # the largest of 0 and residuals; np.max keeps a NaN, the builtin drops it
    residual = float(np.max(residuals, initial=0.0))
    return (name, residual, tolerance, residual <= tolerance)


def equivariance_residual(f, S, perm, x):
    """||f(P^T S P, P^T x) - P^T f(S, x)|| / ||f(S, x)|| for a map f(S, x)
    of a GSO and a signal, with P the permutation perm."""
    y = f(S, x)
    y_perm = f(permute_gso(S, perm), permute_signal(x, perm))
    return (np.linalg.norm(y_perm - permute_signal(y, perm))
            / max(np.linalg.norm(y), 1e-300))


def spectral_residuals(S, x):
    """(reconstruction error, Parseval gap) of the eigendecomposition
    S = V diag(lam) V^T: ||V diag(lam) V^T - S|| / ||S|| and
    | ||V^T x|| - ||x|| | for the signal x."""
    eig = eigendecompose(S)
    V, lam = eig.eigenvectors, eig.eigenvalues
    recon = V @ np.diag(lam) @ V.T
    return (spectral_norm(recon - S.matrix)
            / max(spectral_norm(S.matrix), 1e-300),
            abs(np.linalg.norm(V.T @ x) - np.linalg.norm(x)))


def gradient_residual(model, S, samples, config):
    """Largest |g - fd| / max(|fd|, 1e-4) over the model's parameters, with
    g the analytic gradient of the objective and fd its central difference
    of step 1e-5 (NaN if any is NaN). Each parameter is restored after it
    is moved."""
    grads = objective_gradients(model, S, samples, config)
    errors = []
    step = 1e-5
    for p, g in zip(_parameters(model), grads):
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            up = objective(model, S, samples, config)
            p[idx] = orig - step
            down = objective(model, S, samples, config)
            p[idx] = orig
            fd = (up - down) / (2 * step)
            errors.append(abs(g[idx] - fd) / max(abs(fd), 1e-4))
    return float(np.max(errors))


def invariant_suite(seed: int = 0):
    """Residuals-vs-tolerance table for the theory invariants on synthetic
    graphs."""
    rng = np.random.default_rng(seed)
    checks = []
    draws, max_n = 40, 25

    # permutation equivariance of filters and GNNs
    res_filter, res_gnn = [], []
    for _ in range(draws):
        n = int(rng.integers(5, max_n + 1))
        S = build_gso(random_weighted_graph(n, int(rng.integers(2**31))))
        x = rng.standard_normal(n)
        perm = rng.permutation(n)
        h = rng.standard_normal(4)
        res_filter.append(equivariance_residual(
            lambda S, x: graph_convolution(S, h, x), S, perm, x))
        model = init_model(int(rng.integers(2**31)), [1, 3, 2], [3, 3],
                           ["relu", "tanh"], node=0)
        res_gnn.append(equivariance_residual(
            lambda S, x: forward(model, S, x).features, S, perm, x))
    checks.append(_check("filter permutation equivariance", res_filter, 1e-9))
    checks.append(_check("gnn permutation equivariance", res_gnn, 1e-9))

    # spectral identities
    residuals = []
    for _ in range(draws):
        n = int(rng.integers(5, max_n + 1))
        S = build_gso(random_weighted_graph(n, int(rng.integers(2**31))))
        residuals.append(spectral_residuals(S, rng.standard_normal(n)))
    res_recon, res_parseval = zip(*residuals)
    checks.append(_check("eigendecomposition reconstruction", res_recon, 1e-10))
    checks.append(_check("gft parseval", res_parseval, 1e-10))

    # gradient check against finite differences
    model = init_model(seed, [1, 3], [4], ["tanh"], node=2)
    S = build_gso(random_weighted_graph(8, seed))
    samples = [(rng.standard_normal(8), float(rng.normal())) for _ in range(3)]
    config = TrainConfig(mu=0.3, lambda_interval=(-2.0, 2.0))
    checks.append(_check("analytic vs finite-difference gradients",
                         gradient_residual(model, S, samples, config), 1e-4))

    # perturbation round trip; E is undetermined when an eigenvalue pair
    # sums to zero, so such draws are skipped (all skipped fails the check)
    res_round, singular = [], 0
    for _ in range(draws):
        n = int(rng.integers(5, max_n + 1))
        S = build_gso(random_weighted_graph(n, int(rng.integers(2**31))))
        spec = random_relative_perturbation(S, 0.05, int(rng.integers(2**31)))
        try:
            E = solve_relative_error(S, spec.perturbed)
        except SingularEquationError:
            singular += 1
            continue
        res_round.append(spectral_norm(E - spec.error))
    name = "error-matrix round trip" + (f" ({singular} singular skipped)"
                                        if singular else "")
    checks.append(_check(name, res_round or np.inf, 1e-8))

    # bound sweep on a 20-node graph
    S = build_gso(random_weighted_graph(20, seed))
    lam = eigendecompose(S).eigenvalues
    h = design_il_taps((1.2 * lam[0], 1.2 * lam[-1]), K=5, c_target=1.0)
    eps_list = [0.02, 0.05, 0.1]
    seeds = range(5)
    reports = empirical_filter_distance_sweep(S, h, "relative", eps_list, seeds)
    checks.append(_check("filter stability bound slack", [
        (r.measured - r.bound) / max(r.bound, 1e-300) for r in reports], 0.0))
    return checks


def cmd_verify(args) -> int:
    _check_seeds("--seed", args.seed)
    checks = invariant_suite(seed=args.seed)
    width = max(len(name) for name, *_ in checks)
    for name, residual, tol, ok in checks:
        status = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  residual {residual:.3e}  "
              f"tolerance {tol:.0e}  {status}")
    if not all(ok for *_, ok in checks):
        print(f"verification FAILED (seed {args.seed})")
        return 1
    print("all invariants satisfied")
    return 0


# --- demo --------------------------------------------------------------------

def cmd_demo(args) -> int:
    _check_seeds("--seed", args.seed)
    out = Path(args.out)
    S = build_gso(random_weighted_graph(10, args.seed))
    lam = eigendecompose(S).eigenvalues
    eps = 0.1
    header = _header_lines(args, [f"seed: {args.seed}"])

    # panel 1: IL response with original and dilated eigenvalues
    interval = (1.3 * lam[0], 1.3 * lam[-1])
    h = design_il_taps(interval, K=5, c_target=1.0)
    grid = np.linspace(*interval, 400)
    _write_csv(out / "il_response.csv", header, ["lambda", "response"],
               list(zip(grid, bank_response(h, grid))))
    _write_csv(out / "eigenvalues.csv", header,
               ["index", "lambda", "lambda_dilated"],
               [(i, v, (1 + eps) * v) for i, v in enumerate(lam)])

    # panel 2: sharp vs IL filter under dilation
    report = discriminability_tradeoff_demo(S, eps, seed=args.seed)
    _write_csv(out / "tradeoff.csv", header,
               ["filter", "margin_original", "margin_dilated"],
               [("sharp", report.sharp_margin_original,
                 report.sharp_margin_dilated),
                ("integral_lipschitz", report.il_margin_original,
                 report.il_margin_dilated),
                ("gnn", report.gnn_margin_original,
                 report.gnn_margin_dilated)])

    # panel 3: frequency mixing spectrum
    for activation in ("relu", "linear"):
        mix = frequency_mixing_demo(S, activation)
        _write_csv(out / f"mixing_{activation}.csv", header,
                   ["coefficient", "magnitude"],
                   list(enumerate(mix.magnitudes)))

    print(f"demo outputs written to {out}")
    return 0


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: `train --seed 3` must fail, not mean `--seeds 3`
    parser = argparse.ArgumentParser(
        prog="graphstab",
        description="stability experiments for graph filters and GNNs",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help):
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def add_out(p):
        p.add_argument("--out", default="out", help="output directory")

    def add_run(p):
        p.add_argument("--data", required=True, help="path to u.data")
        p.add_argument("--checkpoints", required=True,
                       help="output directory of a previous train run")
        add_out(p)

    p = add_parser("train", help="train the recommendation GNNs")
    p.add_argument("--data", required=True, help="path to u.data")
    p.add_argument("--movie-id", type=int, default=50)
    p.add_argument("--mu", type=float, nargs="+", default=[0.0, 0.5])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(10)),
                   help="one training split realization per seed")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--train-fraction", type=float, default=0.9)
    p.add_argument("--features", type=int, default=PAPER_FEATURES)
    p.add_argument("--taps", type=int, default=PAPER_TAPS)
    add_out(p)
    p.set_defaults(func=cmd_train)

    p = add_parser("transfer", help="evaluate trained models on other movies")
    add_run(p)
    p.add_argument("--movie-ids", type=int, nargs="+", default=None)
    p.set_defaults(func=cmd_transfer)

    p = add_parser("perturb-sweep",
                   help="evaluate under synthetic GSO perturbations")
    add_run(p)
    p.add_argument("--epsilon", type=float, nargs="+",
                   default=[0.01, 0.02, 0.05, 0.1])
    p.add_argument("--draws", type=int, default=10)
    p.set_defaults(func=cmd_perturb_sweep)

    p = add_parser("split-sweep",
                   help="evaluate under changed train/test ratios")
    add_run(p)
    p.add_argument("--splits", type=float, nargs="+",
                   default=[0.5, 0.6, 0.7, 0.8, 0.9])
    p.set_defaults(func=cmd_split_sweep)

    p = add_parser("verify", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = add_parser("demo", help="regenerate the demonstration figures")
    add_out(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
