import dataclasses
import gc
import inspect
import json
import statistics
import weakref

import numpy as np
import pytest

from graphstab import cli, gnn, graphs, perturbation
from graphstab.cli import _write_csv, build_parser, invariant_suite, main
from graphstab.movielens import MIN_RATERS, RatingsMatrix

from conftest import as_samples, make_ratings_file


def csv_body(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def csv_table(path):
    """The CSV's rows as dicts keyed by its column names."""
    rows = [line.split(",") for line in csv_body(path)]
    return [dict(zip(rows[0], row)) for row in rows[1:]]


@pytest.fixture
def trained_dir(tmp_path, ratings_file):
    out = tmp_path / "run"
    code = main([
        "train", "--data", str(ratings_file), "--movie-id", "7",
        "--mu", "0.0", "0.5", "--seeds", "0", "1", "--epochs", "3",
        "--features", "4", "--taps", "3", "--out", str(out),
    ])
    assert code == 0
    return out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("command", ["train", "transfer", "perturb-sweep",
                                     "split-sweep"])
def test_seed_option_is_rejected(command, tmp_path, capsys):
    # with abbreviations allowed, `train --seed 3` would mean `--seeds 3`
    argv = [command, "--data", "u.data", "--seed", "3"]
    if command != "train":
        argv += ["--checkpoints", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "demo"])
def test_negative_seed_is_named(command, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--seed", "-1"]
    if command == "demo":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: --seed must be nonnegative, got -1" in err
    assert not out.exists()


def test_write_csv(tmp_path):
    path = tmp_path / "table.csv"
    _write_csv(path, ["meta"], ["lambda", "value"], [(0.1, 1 / 3), (2, "x")])
    assert path.read_text() == ("# meta\nlambda,value\n"
                                "0.1,0.3333333333333333\n2,x\n")


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all invariants satisfied" in out
    assert "residual" in out and "tolerance" in out


def test_verify_detects_injected_fault(monkeypatch, capsys):
    exact = cli.objective_gradients

    def corrupted(*args):
        grads = exact(*args)
        grads[0].flat[0] *= 1.01
        return grads

    monkeypatch.setattr(cli, "objective_gradients", corrupted)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "analytic vs finite-difference gradients" in out
    assert "FAIL" in out


def _verify_row(out, name):
    return next(line for line in out.splitlines() if line.startswith(name))


@pytest.mark.parametrize("name,check", [
    ("graph_convolution", "filter permutation equivariance"),
    ("forward", "gnn permutation equivariance"),
])
def test_verify_fails_on_a_map_that_is_not_equivariant(monkeypatch, capsys,
                                                       name, check):
    # a ramp over the node index, added to the output, does not move with
    # the nodes when they are relabeled
    exact = getattr(cli, name)
    if name == "graph_convolution":
        def planted(S, h, x):
            return exact(S, h, x) + 1e-6 * np.arange(len(x))
    else:
        def planted(model, S, x):
            cache = exact(model, S, x)
            ramp = 1e-6 * np.arange(len(x))[:, None]
            return dataclasses.replace(cache, features=cache.features + ramp)

    monkeypatch.setattr(cli, name, planted)
    assert main(["verify"]) == 1
    assert _verify_row(capsys.readouterr().out, check).endswith("FAIL")


def _all_nan(value):
    """value with every float entry NaN: an array, a list of arrays or a
    `forward` cache, whose features are replaced."""
    if isinstance(value, list):
        return [np.full_like(v, np.nan) for v in value]
    if isinstance(value, np.ndarray):
        return np.full_like(value, np.nan)
    return dataclasses.replace(value,
                               features=np.full_like(value.features, np.nan))


@pytest.mark.parametrize("name,check", [
    ("graph_convolution", "filter permutation equivariance"),
    ("forward", "gnn permutation equivariance"),
    ("objective_gradients", "analytic vs finite-difference gradients"),
])
def test_verify_fails_on_a_nan_residual(monkeypatch, capsys, name, check):
    # every residual of the row is NaN, which the builtin max would drop
    exact = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: _all_nan(exact(*args)))
    assert main(["verify"]) == 1
    row = _verify_row(capsys.readouterr().out, check)
    assert "residual nan" in row and row.endswith("FAIL")


@pytest.mark.parametrize("part,check", [
    ("eigenvalues", "eigendecomposition reconstruction"),
    ("eigenvectors", "gft parseval"),
])
def test_verify_fails_on_a_perturbed_eigensystem(monkeypatch, capsys, part,
                                                 check):
    # scaling either part by 1 + 1e-8 moves its residual to about 1e-8, at
    # least 100 times the tolerance
    exact = cli.eigendecompose

    def perturbed(S):
        eig = exact(S)
        scaled = getattr(eig, part) * (1 + 1e-8)
        return dataclasses.replace(eig, **{part: scaled})

    monkeypatch.setattr(cli, "eigendecompose", perturbed)
    assert main(["verify"]) == 1
    assert _verify_row(capsys.readouterr().out, check).endswith("FAIL")


def test_verify_fails_on_an_understated_il_constant(monkeypatch, capsys):
    # the bound sweep measures distances of about 1/50 of the bound, so C
    # understated by this factor puts some of them above it
    factor = 100.0
    exact = cli.empirical_filter_distance_sweep

    def understated(*args):
        # the bound is linear in C
        return [dataclasses.replace(r, C=r.C / factor, bound=r.bound / factor)
                for r in exact(*args)]

    monkeypatch.setattr(cli, "empirical_filter_distance_sweep", understated)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert _verify_row(out, "filter stability bound slack").endswith("FAIL")


def test_verify_has_no_fault_injection_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--inject-fault"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err


def test_verify_runs_one_suite(capsys):
    # the planted-fault tests above check the suite users and the benchmark
    # run, so there is no smaller one
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--quick"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err
    assert list(inspect.signature(invariant_suite).parameters) == ["seed"]


def test_verify_skips_singular_round_trips(capsys):
    # this seed draws a graph with an eigenvalue pair summing to zero, for
    # which the error-matrix equation is singular
    assert main(["verify", "--seed", "6"]) == 0
    out = capsys.readouterr().out
    assert "error-matrix round trip (1 singular skipped)" in out


def test_verify_fails_when_every_round_trip_is_singular(monkeypatch, capsys):
    def singular(S, S_hat):
        raise cli.SingularEquationError("singular")

    monkeypatch.setattr(cli, "solve_relative_error", singular)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "(40 singular skipped)  residual inf" in out


def test_invariant_suite_structure():
    checks = invariant_suite(seed=1)
    assert [name for name, *_ in checks] == [
        "filter permutation equivariance", "gnn permutation equivariance",
        "eigendecomposition reconstruction", "gft parseval",
        "analytic vs finite-difference gradients", "error-matrix round trip",
        "filter stability bound slack"]
    for _, residual, tol, ok in checks:
        assert ok == (residual <= tol)
        assert ok


def test_train_outputs(trained_dir):
    # the checkpoints are the one record of the run: no summary is written
    rmse_rows = csv_body(trained_dir / "rmse.csv")
    assert rmse_rows[0] == "mu,split_seed,test_rmse"
    assert len(rmse_rows) == 5
    runs = set()
    for row in rmse_rows[1:]:
        mu, seed, test_rmse = row.split(",")
        _, config, task = gnn.load_checkpoint(
            trained_dir / f"checkpoint_mu{mu}_split{seed}.json")
        assert (config.mu, config.rng_seed) == (float(mu), int(seed))
        assert (task.movie_id, task.train_fraction) == (7, 0.9)
        assert task.test_rmse == float(test_rmse)
        runs.add(task.run)
        trace = csv_body(trained_dir / f"trace_mu{mu}_split{seed}.csv")
        assert trace[0] == "epoch,loss,penalty"
        assert len(trace) == 4
    assert len(runs) == 1
    assert sorted(p.name for p in trained_dir.glob("*.json")) == [
        f"checkpoint_mu{mu}_split{seed}.json" for mu in ("0.0", "0.5")
        for seed in (0, 1)]
    for seed in (0, 1):
        assert (trained_dir / f"split_{seed}.csv").is_file()


def test_train_deterministic(tmp_path, ratings_file):
    bodies = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "train", "--data", str(ratings_file), "--movie-id", "7",
            "--mu", "0.0", "--seeds", "0", "--epochs", "2",
            "--features", "3", "--taps", "2", "--out", str(out),
        ]) == 0
        bodies.append(csv_body(out / "rmse.csv"))
    assert bodies[0] == bodies[1]


def _train_two_splits(ratings_file, out, *mus):
    return main(["train", "--data", str(ratings_file), "--movie-id", "7",
                 "--mu", *mus, "--seeds", "3", "4", "--epochs", "2",
                 "--features", "3", "--taps", "3", "--out", str(out)])


@pytest.fixture
def eigh_runs(monkeypatch):
    """Count GSO decompositions by a weakref to each eigenvector array."""
    refs = []
    decompose = graphs._decompose

    def counted(S):
        eig = decompose(S)
        refs.append(weakref.ref(eig.eigenvectors))
        return eig

    monkeypatch.setattr(graphs, "_decompose", counted)
    return refs


def test_train_decomposes_and_stacks_once_per_split(ratings_file, tmp_path,
                                                    monkeypatch, eigh_runs):
    stacks = []
    build = gnn._first_layer_stack

    def counted(*inputs):
        stacks.append(inputs[3:])
        return build(*inputs)

    monkeypatch.setattr(gnn, "_first_layer_stack", counted)
    assert _train_two_splits(ratings_file, tmp_path / "run", "0", "0.5") == 0
    # one per split, where each mu used to decompose and stack anew
    assert len(eigh_runs) == 2
    assert len(stacks) == 2


def test_train_shares_without_changing_outputs(ratings_file, tmp_path,
                                               eigh_runs):
    assert _train_two_splits(ratings_file, tmp_path / "both", "0", "0.5") == 0
    assert len(eigh_runs) == 2
    for mu in ("0", "0.5"):
        # a run of one mu has nothing to share within a split
        assert _train_two_splits(ratings_file, tmp_path / mu, mu) == 0
        for seed in (3, 4):
            tag = f"mu{float(mu)}_split{seed}"
            name = f"trace_{tag}.csv"
            assert ((tmp_path / "both" / name).read_bytes()
                    == (tmp_path / mu / name).read_bytes())
            # the task records differ by design: each names its own run
            both, alone = (json.loads(
                (tmp_path / run / f"checkpoint_{tag}.json").read_text())
                for run in ("both", mu))
            for part in ("model", "config"):
                assert both[part] == alone[part]
            assert both["task"]["run"] != alone["task"]["run"]
    assert len(eigh_runs) == 6
    rows = csv_body(tmp_path / "both" / "rmse.csv")[1:]
    assert [row.split(",")[:2] for row in rows] == [
        ["0.0", "3"], ["0.0", "4"], ["0.5", "3"], ["0.5", "4"]]


def test_train_holds_no_shared_entry_after_main(ratings_file, tmp_path,
                                                eigh_runs):
    assert _train_two_splits(ratings_file, tmp_path / "run", "0", "0.5") == 0
    assert len(eigh_runs) == 2  # each split's eigenvectors served both mus
    gc.collect()
    assert [ref() for ref in eigh_runs] == [None, None]
    assert graphs._shared is None
    # perturb-sweep keeps its draws' norms in a scope of its own too
    assert main(["perturb-sweep", "--data", str(ratings_file),
                 "--checkpoints", str(tmp_path / "run"), "--epsilon", "0.05",
                 "--draws", "2", "--out", str(tmp_path / "sweep")]) == 0
    assert graphs._shared is None


def test_perturb_sweep_takes_one_norm_per_draw_seed(ratings_file, tmp_path,
                                                    monkeypatch):
    run = tmp_path / "run"
    assert main(["train", "--data", str(ratings_file), "--movie-id", "7",
                 "--mu", "0", "0.5", "--seeds", "0", "--epochs", "1",
                 "--features", "2", "--taps", "2", "--out", str(run)]) == 0
    norms = []
    norm = perturbation.spectral_norm
    monkeypatch.setattr(perturbation, "spectral_norm",
                        lambda E: norms.append(E.shape) or norm(E))
    assert main(["perturb-sweep", "--data", str(ratings_file),
                 "--checkpoints", str(run), "--epsilon", "0.01", "0.05",
                 "0.1", "--draws", "2", "--out", str(tmp_path / "sweep")]) == 0
    # 2 mu x 3 epsilon x 2 draws, over the 2 draw seeds of one split
    assert len(csv_body(tmp_path / "sweep" / "perturb_sweep.csv")) == 1 + 12
    assert len(norms) == 2
    assert graphs._shared is None


def test_failed_train_leaves_earlier_splits_complete(ratings_file, tmp_path,
                                                     monkeypatch, capsys):
    calls = []
    run = cli.train

    def failing(*args):
        calls.append(args[3].mu)
        if len(calls) == 3:  # the first mu of the second split
            raise ValueError("training loss is not finite at epoch 0: nan")
        return run(*args)

    monkeypatch.setattr(cli, "train", failing)
    out = tmp_path / "run"
    assert _train_two_splits(ratings_file, out, "0", "0.5") == 2
    assert calls == [0.0, 0.5, 0.0]
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint_mu0.0_split3.json", "checkpoint_mu0.5_split3.json",
        "split_3.csv", "trace_mu0.0_split3.csv", "trace_mu0.5_split3.csv"]
    assert graphs._shared is None
    assert "not finite" in capsys.readouterr().err
    # the sweeps read what was written as a run of split 3 alone
    assert main(["split-sweep", "--data", str(ratings_file),
                 "--checkpoints", str(out), "--splits", "0.5",
                 "--out", str(tmp_path / "sweep")]) == 0
    rows = csv_body(tmp_path / "sweep" / "split_sweep.csv")[1:]
    assert [row.split(",")[:2] for row in rows] == [["0.0", "3"], ["0.5", "3"]]


def test_transfer(trained_dir, ratings_file, tmp_path, capsys):
    out = tmp_path / "transfer"
    assert main([
        "transfer", "--data", str(ratings_file),
        "--checkpoints", str(trained_dir), "--movie-ids", "3", "5",
        "--out", str(out),
    ]) == 0
    rows = csv_body(out / "transfer.csv")
    assert rows[0] == "mu,movie_id,rmse_mean,rmse_std,degradation_percent"
    assert len(rows) == 1 + 2 * 2  # two mus, two movies
    assert "degradation" in capsys.readouterr().out


def test_transfer_rejects_an_empty_movie_list(trained_dir, ratings_file,
                                              tmp_path, monkeypatch, capsys):
    # `--movie-ids` with no value must not fall back to the default movies
    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_ratings", unread)
    out = tmp_path / "transfer"
    with pytest.raises(SystemExit) as exc:
        main(["transfer", "--data", str(ratings_file), "--checkpoints",
              str(trained_dir), "--out", str(out), "--movie-ids"])
    assert exc.value.code == 2
    assert "--movie-ids: expected at least one argument" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_perturb_sweep(trained_dir, ratings_file, tmp_path, capsys):
    out = tmp_path / "perturb"
    assert main([
        "perturb-sweep", "--data", str(ratings_file),
        "--checkpoints", str(trained_dir), "--epsilon", "0", "0.05",
        "--draws", "2", "--out", str(out),
    ]) == 0
    rows = csv_body(out / "perturb_sweep.csv")
    assert rows[0].startswith("mu,split_seed,epsilon,draw")
    assert len(rows) == 1 + 2 * 2 * 2 * 2  # mus x seeds x epsilons x draws
    # at epsilon = 0, S_hat is S and both arms take the same arithmetic
    # path: every difference is exactly 0 and none prints as -0.0000
    rows = [dict(zip(rows[0].split(","), row.split(","))) for row in rows[1:]]
    zero = [row for row in rows if row["epsilon"] == "0.0"]
    assert len(zero) == 2 * 2 * 2
    for row in zero:
        assert row["rmse_perturbed"] == row["rmse_base"]
        assert row["rmse_difference"] == "0.0"
    summary = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[1] for line in summary
            if "eps=0.0:" in line] == ["mean RMSE difference +0.0000"] * 2


def test_sweep_summary_orders_mu_as_numbers(capsys):
    # mu comes as a float from each checkpoint's config; as strings,
    # "10.0" < "2.0"
    rows = [(mu, 0, eps, 0, 1.0, 1.25, 0.25)
            for mu in (10.0, 2.0, 0.5) for eps in (0.1, 0.05)]
    cli._print_sweep_summary(rows)
    lines = capsys.readouterr().out.splitlines()
    heads = [line.split(":")[0] for line in lines]
    assert heads == [f"mu={mu} eps={eps}" for mu in ("0.5", "2.0", "10.0")
                     for eps in (0.05, 0.1)]


def test_split_sweep(trained_dir, ratings_file, tmp_path):
    out = tmp_path / "splits"
    assert main([
        "split-sweep", "--data", str(ratings_file),
        "--checkpoints", str(trained_dir), "--splits", "0.5", "0.8",
        "--out", str(out),
    ]) == 0
    rows = csv_body(out / "split_sweep.csv")
    assert len(rows) == 1 + 2 * 2 * 2


def test_split_sweep_scores_the_checkpoints_test_users_at_every_ratio(
        trained_dir, ratings_file, tmp_path, monkeypatch):
    # only the graph changes with the ratio: every `_evaluate` call, the
    # base and each ratio, scores the test users of the checkpoint's own split
    exact, scored = cli._evaluate, []

    def recording(model, S, samples, *args, **kwargs):
        scored.append(len(samples))
        return exact(model, S, samples, *args, **kwargs)

    monkeypatch.setattr(cli, "_evaluate", recording)
    assert main(["split-sweep", "--data", str(ratings_file),
                 "--checkpoints", str(trained_dir),
                 "--splits", "0.5", "0.7", "0.9",
                 "--out", str(tmp_path / "splits")]) == 0
    test_users = {seed: sum(line.endswith(",test") for line in
                            csv_body(trained_dir / f"split_{seed}.csv"))
                  for seed in (0, 1)}
    # models in the order mu, then seed; the base task, then three ratios
    assert scored == [test_users[seed] for _ in ("0.0", "0.5")
                      for seed in (0, 1) for _ in range(4)]


def test_demo_outputs(tmp_path):
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out), "--seed", "1"]) == 0
    for name in ("il_response.csv", "eigenvalues.csv", "tradeoff.csv",
                 "mixing_relu.csv", "mixing_linear.csv"):
        body = csv_body(out / name)
        assert len(body) > 1, name
    tradeoff = csv_body(out / "tradeoff.csv")
    assert {row.split(",")[0] for row in tradeoff[1:]} == {
        "sharp", "integral_lipschitz", "gnn"
    }


def test_missing_data_exits_2(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nope.data"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit,named", [("unknown", "dropout"),
                                        ("missing", "learning_rate"),
                                        ("layer key", "activation"),
                                        ("no layers", "layer"),
                                        ("empty taps", "no empty axis")])
def test_malformed_checkpoint_exits_2(trained_dir, ratings_file, tmp_path,
                                      capsys, edit, named):
    path = trained_dir / "checkpoint_mu0.5_split1.json"
    payload = json.loads(path.read_text())
    if edit == "unknown":
        payload["config"]["dropout"] = 0.1
    elif edit == "missing":
        del payload["config"]["learning_rate"]
    elif edit == "layer key":
        del payload["model"]["layers"][0]["activation"]
    elif edit == "empty taps":
        payload["model"]["layers"][0]["taps"] = [[[], [], [], []]]
    else:
        payload["model"]["layers"] = []
    path.write_text(json.dumps(payload))
    assert main([
        "perturb-sweep", "--data", str(ratings_file),
        "--checkpoints", str(trained_dir), "--epsilon", "0.05",
        "--draws", "1", "--out", str(tmp_path / "perturb"),
    ]) == 2
    err = capsys.readouterr().err
    assert path.name in err and named in err


def test_checkpoint_node_outside_graph_exits_2(trained_dir, ratings_file,
                                               tmp_path, capsys):
    path = trained_dir / "checkpoint_mu0.0_split0.json"
    payload = json.loads(path.read_text())
    payload["model"]["node"] = 100000
    path.write_text(json.dumps(payload))
    assert main([
        "perturb-sweep", "--data", str(ratings_file),
        "--checkpoints", str(trained_dir), "--epsilon", "0.05",
        "--draws", "1", "--out", str(tmp_path / "perturb"),
    ]) == 2
    assert "readout node 100000" in capsys.readouterr().err


@pytest.mark.parametrize("fraction", ["-0.1", "1.5"])
@pytest.mark.parametrize("command", ["train", "split-sweep"])
def test_train_fraction_outside_unit_interval_exits_2(
        trained_dir, ratings_file, tmp_path, monkeypatch, capsys, command,
        fraction):
    def unread(path):  # each command checks its fractions before any input
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_ratings", unread)
    if command == "train":
        argv = ["train", "--data", str(ratings_file), "--movie-id", "7",
                "--seeds", "0", "--epochs", "1", "--features", "2",
                "--taps", "2", "--train-fraction", fraction]
    else:
        argv = ["split-sweep", "--data", str(ratings_file),
                "--checkpoints", str(trained_dir), "--splits", "0.5",
                fraction]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"train fraction {fraction} is outside (0, 1]" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["train", "perturb-sweep"])
def test_fewer_than_one_epoch_or_draw_exits_2(
        trained_dir, ratings_file, tmp_path, capsys, command, value):
    if command == "train":
        argv = ["train", "--data", str(ratings_file), "--movie-id", "7",
                "--seeds", "0", "--features", "2", "--taps", "2",
                "--epochs", value]
        named = f"epochs must be at least 1, got {value}"
    else:
        argv = ["perturb-sweep", "--data", str(ratings_file),
                "--checkpoints", str(trained_dir), "--epsilon", "0.05",
                "--draws", value]
        named = f"--draws must be at least 1, got {value}"
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not list(out.glob("*"))



@pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
def test_perturb_sweep_rejects_epsilon_before_reading_input(tmp_path, capsys,
                                                            value):
    # neither the ratings nor the train run exists: the flag is checked first
    out = tmp_path / "out"
    assert main(["perturb-sweep", "--data", str(tmp_path / "u.data"),
                 "--checkpoints", str(tmp_path / "run"),
                 "--epsilon", "0.05", value, "--out", str(out)]) == 2
    assert (f"--epsilon must be nonnegative and finite, got {float(value)}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("draws,named", [
    # draw 1000 of split s would be draw 0 of split s + 1 (seed 1000 s + d)
    ("1001", "--draws must be at most 1000, got 1001"),
    # 1000 passes the check and fails on the missing train run
    ("1000", "no checkpoint in"),
])
def test_perturb_sweep_rejects_more_draws_than_seeds_per_split(
        tmp_path, capsys, draws, named):
    out = tmp_path / "out"
    assert main(["perturb-sweep", "--data", str(tmp_path / "u.data"),
                 "--checkpoints", str(tmp_path / "run"),
                 "--epsilon", "0.05", "--draws", draws,
                 "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,named", [
    ("--epochs", "0", "epochs must be at least 1, got 0"),
    ("--mu", "-1", "mu must be nonnegative"),
    # NaN fails `mu < 0` as well; it must not train without the penalty
    ("--mu", "nan", "mu must be nonnegative and finite, got nan"),
    ("--features", "0", "layer widths [1, 0] and taps [5] must all be at "
                        "least 1"),
    ("--taps", "0", "layer widths [1, 64] and taps [0] must all be at "
                    "least 1"),
    # numpy's own message would name no flag
    ("--seeds", "-1", "--seeds must be nonnegative, got [-1]"),
])
def test_train_rejects_settings_before_reading_the_ratings(
        ratings_file, tmp_path, monkeypatch, capsys, flag, value, named):
    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_ratings", unread)
    out = tmp_path / "run"
    assert main(["train", "--data", str(ratings_file), "--movie-id", "7",
                 "--seeds", "0", flag, value, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# each malformed checkpoint_mu0.5_split1.json as a function of the one
# `train` wrote (None: a file that is not JSON)
CHECKPOINT_EDITS = {
    "rng_seed True": lambda c: _edit(c, "config", rng_seed=True),
    "fraction string": lambda c: _edit(c, "task", train_fraction="0.9"),
    "mu a list": lambda c: _edit(c, "config", mu=[0.5]),
    "rng_seed 0.0": lambda c: _edit(c, "config", rng_seed=0.0),
    "boolean movie id": lambda c: _edit(c, "task", movie_id=True),
    "fraction above 1": lambda c: _edit(c, "task", train_fraction=1.5),
    "no rng_seed": lambda c: _edit(c, "config", drop="rng_seed"),
    "checkpoint a list": list,
    "checkpoint not json": lambda c: None,
    "seed repeated": lambda c: _edit(c, "config", rng_seed=0),
    "rng_seed -1": lambda c: _edit(c, "config", rng_seed=-1),
    "task an integer": lambda c: {**c, "task": 5},
    "no test_rmse": lambda c: _edit(c, "task", drop="test_rmse"),
    "test_rmse zero": lambda c: _edit(c, "task", test_rmse=0),
    "test_rmse boolean": lambda c: _edit(c, "task", test_rmse=True),
    "mu not a number": lambda c: _edit(c, "config", mu="zero"),
    "mu negative": lambda c: _edit(c, "config", mu=-0.5),
    "no ratings_digest": lambda c: _edit(c, "task", drop="ratings_digest"),
    "ratings_digest a list": lambda c: _edit(c, "task", ratings_digest=[]),
    "split_digest a number": lambda c: _edit(c, "task", split_digest=5),
    "no split_digest": lambda c: _edit(c, "task", drop="split_digest"),
}


def _edit(checkpoint, part, drop=None, **values):
    """The checkpoint with values set in its part (model, config or task)
    and the key drop removed from it."""
    edited = {**checkpoint[part], **values}
    return {**checkpoint, part: {k: v for k, v in edited.items()
                                 if k != drop}}


@pytest.mark.parametrize("command,bad,named", [
    ("train", "empty data", "no ratings"),
    ("train", "missing data", "not found"),
    ("transfer", "empty data", "no ratings"),
    ("transfer", "missing data", "not found"),
    ("transfer", "missing checkpoints", "no checkpoint in {run}"),
    # the input reads, but the task it asks for is rejected
    ("train", "absent movie", "movie id 99999 not present"),
    ("transfer", "absent movie", "movie id 99999 not present"),
    ("split-sweep", "no test users", "no test users at train fraction 1.0"),
    # the ratio's graph would be estimated from the scored users' ratings
    ("split-sweep", "ratio above train fraction",
     "--splits 1.0 exceeds the run's train fraction 0.9"),
    ("perturb-sweep", "no test users", "no test users at train fraction 1.0"),
    # the checkpoint reads, but the model it holds is not finite
    ("perturb-sweep", "nan tap", "split1.json: layer taps must be finite"),
    ("transfer", "inf readout", "split1.json: readout weights and bias"),
    ("split-sweep", "nan bias", "split1.json: readout weights and bias"),
    # the readout node must be a JSON integer, not cut or overflowed to one
    ("split-sweep", "inf node",
     "split1.json: readout node must be an integer, got inf"),
    # finite taps whose predictions overflow: the RMSE is checked as
    # perturb-sweep checks it
    ("transfer", "huge taps",
     "test RMSE for movie 3 at train fraction 0.9 is inf, not finite"),
    ("split-sweep", "huge taps",
     "test RMSE for movie 7 at train fraction 0.9 is inf, not finite"),
    ("transfer", "fractional node",
     "split1.json: readout node must be an integer, got 3.7"),
    ("perturb-sweep", "boolean node",
     "split1.json: readout node must be an integer, got True"),
    # the checkpoint reads, but its config or task record is malformed
    *((command, bad, f"malformed checkpoint {{ckpt}}: {named}")
      for command in ("transfer", "perturb-sweep", "split-sweep")
      for bad, named in (
          ("rng_seed True",
           "rng_seed must be a nonnegative integer, got True"),
          ("fraction string", "train_fraction must be a number, got '0.9'"),
          ("mu a list", "mu must be nonnegative and finite, got [0.5]"))),
    ("transfer", "rng_seed 0.0", "malformed checkpoint {ckpt}: rng_seed must "
                                 "be a nonnegative integer, got 0.0"),
    ("perturb-sweep", "boolean movie id",
     "malformed checkpoint {ckpt}: movie_id must be an integer, got True"),
    ("split-sweep", "fraction above 1",
     "malformed checkpoint {ckpt}: train fraction 1.5 is outside (0, 1]"),
    ("transfer", "no rng_seed",
     "malformed checkpoint {ckpt}: config has missing keys ['rng_seed']"),
    ("perturb-sweep", "checkpoint a list",
     "malformed checkpoint {ckpt}: checkpoint is a JSON list, not an object"),
    ("split-sweep", "checkpoint not json", "malformed checkpoint {ckpt}: "),
    # a sweep over no checkpoint would write a header-only CSV, and a
    # repeated (mu, seed) would score its split twice
    *((command, bad, "no checkpoint in {run}")
      for command in ("transfer", "perturb-sweep", "split-sweep")
      for bad in ("checkpoints removed", "empty run directory")),
    ("transfer", "seed repeated",
     "checkpoint {ckpt} repeats mu 0.5 at split seed 0"),
    # numpy's own message would name neither the file nor the field
    *((command, "rng_seed -1", "malformed checkpoint {ckpt}: rng_seed must "
                               "be a nonnegative integer, got -1")
      for command in ("transfer", "perturb-sweep", "split-sweep")),
    # transfer divides by each mu's mean test RMSE; train writes NaN for a
    # split without test users, which the "no test users" rows above read
    ("transfer", "task an integer",
     "malformed checkpoint {ckpt}: task is a JSON int, not an object"),
    ("transfer", "no test_rmse",
     "malformed checkpoint {ckpt}: task has missing keys ['test_rmse']"),
    ("transfer", "test_rmse zero", "malformed checkpoint {ckpt}: "
     "test_rmse must be a positive number or NaN, got 0"),
    ("perturb-sweep", "test_rmse boolean", "malformed checkpoint {ckpt}: "
     "test_rmse must be a positive number or NaN, got True"),
    # every sweep orders the models by mu as a number
    *((command, "mu not a number", "malformed checkpoint {ckpt}: "
                                   "mu must be nonnegative and finite, "
                                   "got 'zero'")
      for command in ("transfer", "perturb-sweep", "split-sweep")),
    ("perturb-sweep", "mu negative", "malformed checkpoint {ckpt}: "
     "mu must be nonnegative and finite, got -0.5"),
    # each checkpoint names the ratings and the split it was trained on
    ("transfer", "no ratings_digest", "malformed checkpoint {ckpt}: "
     "task has missing keys ['ratings_digest']"),
    ("perturb-sweep", "ratings_digest a list", "malformed checkpoint {ckpt}: "
     "ratings_digest must be a string, got []"),
    ("split-sweep", "split_digest a number", "malformed checkpoint {ckpt}: "
     "split_digest must be a string, got 5"),
    ("perturb-sweep", "no split_digest", "malformed checkpoint {ckpt}: "
     "task has missing keys ['split_digest']"),
])
def test_unreadable_input_creates_no_output(trained_dir, ratings_file,
                                            tmp_path, monkeypatch, capsys,
                                            command, bad, named):
    data, checkpoints, movie_id, extra = ratings_file, trained_dir, "7", []
    ckpt = checkpoints / "checkpoint_mu0.5_split1.json"
    if bad == "empty data":
        data = tmp_path / "empty.data"
        data.write_text("")
    elif bad == "missing data":
        data = tmp_path / "missing.data"
    elif bad in ("missing checkpoints", "empty run directory"):
        checkpoints = tmp_path / "run_without_checkpoints"
        if bad == "empty run directory":
            checkpoints.mkdir()
    elif bad == "checkpoints removed":
        for path in checkpoints.glob("checkpoint_*.json"):
            path.unlink()
    elif bad == "absent movie":
        movie_id, extra = "99999", ["--movie-ids", "99999"]
    elif bad in ("nan tap", "inf readout", "nan bias", "inf node",
                 "fractional node", "boolean node"):
        payload = json.loads(ckpt.read_text())
        model = payload["model"]
        if bad == "nan tap":
            model["layers"][0]["taps"][0][0][0] = float("nan")
        elif bad == "inf readout":
            model["readout_weights"][0] = float("inf")
        elif bad == "nan bias":
            model["readout_bias"] = float("nan")
        else:
            model["node"] = {"inf node": float("inf"),
                             "fractional node": 3.7,
                             "boolean node": True}[bad]
        ckpt.write_text(json.dumps(payload))
    elif bad in CHECKPOINT_EDITS:
        payload = CHECKPOINT_EDITS[bad](json.loads(ckpt.read_text()))
        ckpt.write_text("" if payload is None else json.dumps(payload))
    elif bad == "huge taps":
        payload = json.loads(ckpt.read_text())
        payload["model"]["layers"][0]["taps"][0][0][:2] = [1e300, 1e300]
        ckpt.write_text(json.dumps(payload))
        if command == "transfer":
            extra = ["--movie-ids", "3"]
    elif bad == "ratio above train fraction":
        extra = ["--splits", "0.5", "1.0"]

        def unbuilt(*args, **kwargs):
            raise AssertionError("a task was built")

        monkeypatch.setattr(cli, "build_task", unbuilt)
    else:
        checkpoints = tmp_path / "run_without_test_users"
        assert main(["train", "--data", str(data), "--movie-id", "7",
                     "--mu", "0.0", "--seeds", "0", "--epochs", "1",
                     "--features", "2", "--taps", "2",
                     "--train-fraction", "1.0", "--out", str(checkpoints)]) == 0
        if command == "perturb-sweep":
            extra = ["--epsilon", "0.05", "--draws", "1"]
    if "split1.json" in named or "{" in named:
        named = named.format(run=checkpoints, ckpt=ckpt)

        def unread(path):  # a bad run stops the sweep before this
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "load_ratings", unread)
    argv = [command, "--data", str(data)]
    if command == "train":
        argv += ["--movie-id", movie_id, "--seeds", "0", "--epochs", "1"]
    else:
        argv += ["--checkpoints", str(checkpoints), *extra]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_perturb_sweep_names_an_empty_test_set(ratings_file, tmp_path,
                                               monkeypatch, capsys):
    run = tmp_path / "run"
    assert main(["train", "--data", str(ratings_file), "--movie-id", "7",
                 "--mu", "0.0", "--seeds", "0", "--epochs", "1",
                 "--features", "2", "--taps", "2", "--train-fraction", "1.0",
                 "--out", str(run)]) == 0
    draws = []
    monkeypatch.setattr(cli, "random_relative_perturbation",
                        lambda *a, **k: draws.append(a))
    assert main(["perturb-sweep", "--data", str(ratings_file),
                 "--checkpoints", str(run), "--epsilon", "0.05",
                 "--draws", "1", "--out", str(tmp_path / "perturb")]) == 2
    assert ("movie id 7 has no test users at train fraction 1.0"
            in capsys.readouterr().err)
    assert draws == []


def _count_perturb_sweep_calls(monkeypatch, argv):
    """Run perturb-sweep with argv and count its `forward` calls, those
    given a first-layer stack, the stacks that `forward` builds itself and
    the S_hat it forms."""
    from graphstab import gnn, perturbation

    calls = {"forward": 0, "forward_given_shifts": 0, "per_sample": 0,
             "formed": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "forward" and (len(args) > 3
                                      or "first_layer_shifts" in kwargs):
                calls["forward_given_shifts"] += 1
            return f(*args, **kwargs)
        return wrapper

    formed = perturbation.PerturbationSpec.perturbed
    monkeypatch.setattr(cli, "forward", counted("forward", cli.forward))
    monkeypatch.setattr(gnn, "shift_stack",
                        counted("per_sample", gnn.shift_stack))
    monkeypatch.setattr(perturbation.PerturbationSpec, "perturbed",
                        property(counted("formed", formed.func)))
    assert main(["perturb-sweep", *argv]) == 0
    monkeypatch.undo()
    return calls


def _per_user_rmse(model, S, samples):
    from graphstab import gnn
    from graphstab.movielens import rmse

    return rmse([gnn.forward(model, S, samples.X[:, :, j]).prediction
                 for j in range(len(samples))], samples.y)


def test_perturb_sweep_scores_one_layer_models_at_the_readout_rows(
        trained_dir, ratings_file, tmp_path, monkeypatch):
    """A one-layer checkpoint is scored through the readout rows: every
    `forward` takes a stack and no S_hat is formed; both columns match one
    plain `forward` per user to 1e-12."""
    from graphstab import gnn
    from graphstab.movielens import build_task, load_ratings

    out = tmp_path / "perturb"
    calls = _count_perturb_sweep_calls(monkeypatch, [
        "--data", str(ratings_file), "--checkpoints", str(trained_dir),
        "--epsilon", "0.02", "0.05", "--draws", "2", "--out", str(out)])
    rows = csv_table(out / "perturb_sweep.csv")
    models, draws = 2 * 2, 2 * 2  # (mu, seed) pairs; epsilons x draws
    assert len(rows) == models * draws

    ratings = load_ratings(ratings_file)
    task = build_task(ratings, target_item_id=7, train_fraction=0.9, seed=0)
    n_test = len(task.test)
    assert calls == {"forward": models * (1 + draws) * n_test,
                     "forward_given_shifts": models * (1 + draws) * n_test,
                     "per_sample": 0, "formed": 0}

    row = rows[0]
    assert (row["mu"], row["split_seed"], row["draw"]) == ("0.0", "0", "0")
    model, _, _ = gnn.load_checkpoint(
        trained_dir / "checkpoint_mu0.0_split0.json")
    assert len(model.layers) == 1
    S_hat = cli.random_relative_perturbation(
        task.gso, float(row["epsilon"]), seed=0).perturbed
    for column, S in (("rmse_base", task.gso), ("rmse_perturbed", S_hat)):
        assert float(row[column]) == pytest.approx(
            _per_user_rmse(model, S, task.test), rel=1e-12, abs=0)


@pytest.mark.parametrize("arm", ["base", "perturbed"])
def test_evaluate_has_the_bits_of_one_plain_forward_per_user(arm):
    """`_evaluate` scores the paper's [1, 64] K = 5 model at the readout
    row; its RMSE equals, bit for bit, that of one plain `forward` per user
    over S or S_hat. Weights, E and signals are dyadic and small, so every
    shift is exact in any order and the bits show how the readout row is
    laid out and summed. A lone user of label 0 scores |prediction|, so
    there no last bit of a prediction rounds away in the mean."""
    from graphstab import gnn
    from graphstab.perturbation import PerturbationSpec

    rng = np.random.default_rng(4)
    n = 30
    W = np.triu(rng.choice([0.0, 0.25, 0.5], (n, n), p=[0.85, 0.1, 0.05]), 1)
    S = graphs.build_gso(W + W.T)
    E = np.triu(rng.choice([-1.0, 0.0, 1.0], (n, n), p=[0.1, 0.8, 0.1]) / 16)
    spec = (PerturbationSpec(S, E + np.triu(E, 1).T) if arm == "perturbed"
            else None)
    model = gnn.init_model(5, [1, 64], [5], ["relu"], node=3)
    samples = [(rng.integers(0, 6, n) * (rng.random(n) < 0.4),
                float(rng.integers(1, 6))) for _ in range(40)]
    for users in [samples] + [[(x, 0.0)] for x, _ in samples]:
        users = as_samples(users)
        want = _per_user_rmse(model, S if spec is None else spec.perturbed,
                              users)
        assert cli._evaluate(model, S, users, spec) == want


def _sweep_rejects_the_run(ratings_file, tmp_path, monkeypatch, capsys,
                           command, run, named):
    """command over run exits 2 with named in its message, before the
    ratings are read and before any output directory is made."""
    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_ratings", unread)
    out = tmp_path / "out"
    assert main([command, "--data", str(ratings_file),
                 "--checkpoints", str(run), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command",
                         ["transfer", "perturb-sweep", "split-sweep"])
def test_sweeps_reject_a_deeper_checkpoint(ratings_file, tmp_path,
                                           monkeypatch, capsys, command):
    """The sweeps read the one-layer checkpoints `train` writes: a
    two-layer one exits 2 naming the file and its layer count, before the
    ratings are read and before any output directory is made."""
    from graphstab import gnn

    model = gnn.init_model(3, [1, 3, 2], [3, 2], ["relu", "tanh"], 0)
    run = tmp_path / "run"
    run.mkdir()
    path = run / "checkpoint_mu0.0_split0.json"
    gnn.save_checkpoint(path, model, gnn.TrainConfig(),
                        gnn.TaskRecord("0123456789abcdef", 7, 0.9, 1.0, "",
                                       ""))
    _sweep_rejects_the_run(ratings_file, tmp_path, monkeypatch, capsys,
                           command, run, f"checkpoint {path} has 2 layers")


def test_checkpoints_record_the_ratings_and_split_digests(trained_dir,
                                                         ratings_file):
    ratings = cli.load_ratings(ratings_file)
    for seed in (0, 1):
        task = cli.build_task(ratings, target_item_id=7, seed=seed)
        # the split manifest lists the users the split digest is taken of
        listed = [line.split(",") for line in
                  csv_body(trained_dir / f"split_{seed}.csv")[1:]]
        assert [int(uid) for uid, subset in listed if subset == "train"] == (
            list(task.train_user_ids))
        assert [int(uid) for uid, subset in listed if subset == "test"] == (
            list(task.test_user_ids))
        for mu in ("0.0", "0.5"):
            _, _, record = gnn.load_checkpoint(
                trained_dir / f"checkpoint_mu{mu}_split{seed}.json")
            assert record.ratings_digest == ratings.digest
            assert record.split_digest == task.split_digest
    assert len({cli.build_task(ratings, target_item_id=7, seed=seed)
                .split_digest for seed in (0, 1)}) == 2


@pytest.mark.parametrize("command",
                         ["transfer", "perturb-sweep", "split-sweep"])
def test_sweeps_reject_another_ratings_file(trained_dir, ratings_file,
                                            tmp_path, monkeypatch, capsys,
                                            command):
    """A sweep rebuilds each task from --data: a file other than the run's
    would score other users on another graph. It exits 2 naming both
    digests, before any task is built and with no output."""
    other = make_ratings_file(tmp_path / "other.data", seed=1)

    def unbuilt(*args, **kwargs):
        raise AssertionError("a task was built")

    monkeypatch.setattr(cli, "build_task", unbuilt)
    out = tmp_path / "out"
    assert main([command, "--data", str(other), "--checkpoints",
                 str(trained_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"{other} has ratings digest {cli.load_ratings(other).digest}, "
            f"but the run in {trained_dir} was trained on ratings digest "
            f"{cli.load_ratings(ratings_file).digest}") in err
    assert not out.exists()


@pytest.mark.parametrize("command,code", [("perturb-sweep", 2),
                                          ("split-sweep", 2),
                                          ("transfer", 0)])
def test_sweeps_reject_another_split(trained_dir, ratings_file, tmp_path,
                                     monkeypatch, capsys, command, code):
    """With the shuffle of `build_task` changed, perturb-sweep and
    split-sweep would score other test users than the checkpoint's: they
    exit 2 naming both split digests, with no output. transfer scores
    other movies, whose splits no checkpoint records."""
    build = cli.build_task
    monkeypatch.setattr(cli, "build_task", lambda ratings, seed, **kwargs:
                        build(ratings, seed=seed + 7, **kwargs))
    out = tmp_path / "out"
    extra = ["--draws", "1"] if command == "perturb-sweep" else []
    assert main([command, "--data", str(ratings_file), "--checkpoints",
                 str(trained_dir), *extra, "--out", str(out)]) == code
    if code == 2:
        ratings = cli.load_ratings(ratings_file)
        got, want = (build(ratings, target_item_id=7, seed=seed).split_digest
                     for seed in (7, 0))
        assert (f"split seed 0 splits the users with digest {got}, but its "
                f"checkpoint was trained on split digest {want}"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("command",
                         ["transfer", "perturb-sweep", "split-sweep"])
def test_sweeps_reject_two_runs_in_one_directory(ratings_file, tmp_path,
                                                 monkeypatch, capsys, command):
    # the second run overwrites the mu = 0 checkpoints and leaves the first
    # run's mu = 0.5 ones: a sweep would mix the two runs' models
    run = tmp_path / "run"
    assert _train_two_splits(ratings_file, run, "0", "0.5") == 0
    assert _train_two_splits(ratings_file, run, "0") == 0
    _sweep_rejects_the_run(ratings_file, tmp_path, monkeypatch, capsys,
                           command, run, f"{run} holds checkpoints of 2 runs")


@pytest.mark.parametrize("command",
                         ["transfer", "perturb-sweep", "split-sweep"])
def test_sweeps_reject_a_hole_in_the_mu_seed_grid(trained_dir, ratings_file,
                                                  tmp_path, monkeypatch,
                                                  capsys, command):
    # mu 0.5 would be averaged over fewer splits than mu 0
    (trained_dir / "checkpoint_mu0.5_split1.json").unlink()
    _sweep_rejects_the_run(
        ratings_file, tmp_path, monkeypatch, capsys, command, trained_dir,
        f"{trained_dir} holds no checkpoint of mu 0.5 at split seed 1")


def test_perturb_sweep_rejects_a_non_finite_rmse(trained_dir, ratings_file,
                                                 tmp_path, capsys):
    """An epsilon large enough to overflow the shifts exits 2 naming it,
    writes no CSV, and lets no floating-point warning escape (every
    warning fails a test here)."""
    out = tmp_path / "perturb"
    assert main([
        "perturb-sweep", "--data", str(ratings_file),
        "--checkpoints", str(trained_dir), "--epsilon", "0.05", "1e200",
        "--draws", "1", "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert "test RMSE at epsilon 1e+200, draw 0 is nan, not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("taps,features", [("0", "2"), ("2", "0")])
def test_train_rejects_an_empty_layer(ratings_file, tmp_path, capsys, taps,
                                      features):
    assert main(["train", "--data", str(ratings_file), "--movie-id", "7",
                 "--seeds", "0", "--epochs", "1", "--taps", taps,
                 "--features", features, "--out", str(tmp_path)]) == 2
    assert "must all be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,seeds,mus", [("--seeds", ["1", "1"], ["0.5"]),
                                            ("--mu", ["0"], ["0", "0.0"])])
def test_train_rejects_repeated_values(ratings_file, tmp_path, capsys, flag,
                                       seeds, mus):
    out = tmp_path / "run"
    assert main(["train", "--data", str(ratings_file), "--movie-id", "7",
                 "--epochs", "1", "--features", "2", "--taps", "2",
                 "--out", str(out), "--seeds", *seeds, "--mu", *mus]) == 2
    assert f"{flag} repeats a value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,values", [
    ("transfer", "--movie-ids", ["3", "5", "3"]),
    ("split-sweep", "--splits", ["0.5", "0.50"]),
    ("perturb-sweep", "--epsilon", ["0.05", "0.1", "5e-2"]),
])
def test_sweeps_reject_repeated_values(tmp_path, capsys, command, flag,
                                       values):
    # neither the ratings nor the train run exists: the flag is checked first
    out = tmp_path / "out"
    assert main([command, "--data", str(tmp_path / "u.data"),
                 "--checkpoints", str(tmp_path / "run"), flag, *values,
                 "--out", str(out)]) == 2
    assert f"{flag} repeats a value" in capsys.readouterr().err
    assert not out.exists()


def test_transfer_and_split_sweep_match_a_per_sample_forward(
        trained_dir, ratings_file, tmp_path):
    """Both sweeps' RMSE columns match a plain per-sample `forward` on the
    same tasks to 1e-12 relative."""
    from graphstab import gnn
    from graphstab.movielens import build_task, load_ratings, rmse

    common = ["--data", str(ratings_file), "--checkpoints", str(trained_dir)]
    assert main(["transfer", *common, "--movie-ids", "3", "5",
                 "--out", str(tmp_path / "transfer")]) == 0
    assert main(["split-sweep", *common, "--splits", "0.5", "0.8",
                 "--out", str(tmp_path / "splits")]) == 0

    ratings = load_ratings(ratings_file)
    models = {(mu, seed): gnn.load_checkpoint(
        trained_dir / f"checkpoint_mu{mu}_split{seed}.json")[0]
        for mu in ("0.0", "0.5") for seed in (0, 1)}

    def per_sample(mu, seed, movie_id, fraction):
        """RMSE of `forward` on the test users of the run's split (train
        fraction 0.9), over the GSO of the task at fraction."""
        test = build_task(ratings, target_item_id=movie_id, seed=seed).test
        task = build_task(ratings, target_item_id=movie_id,
                          train_fraction=fraction, seed=seed)
        model = dataclasses.replace(models[mu, seed], node=task.target_index)
        return rmse([gnn.forward(model, task.gso, test.X[:, :, j]).prediction
                     for j in range(len(test))], test.y)

    def close(got, want):
        return float(got) == pytest.approx(want, rel=1e-12, abs=0)

    rows = csv_table(tmp_path / "transfer" / "transfer.csv")
    assert len(rows) == 2 * 2  # mus x movies
    for row in rows:
        per_split = [per_sample(row["mu"], seed, int(row["movie_id"]), 0.9)
                     for seed in (0, 1)]
        mean, std = cli._mean_std(per_split)
        assert close(row["rmse_mean"], mean) and close(row["rmse_std"], std)
    rows = csv_table(tmp_path / "splits" / "split_sweep.csv")
    assert len(rows) == 2 * 2 * 2  # mus x seeds x ratios
    for row in rows:
        seed = int(row["split_seed"])
        assert close(row["rmse_base"], per_sample(row["mu"], seed, 7, 0.9))
        assert close(row["rmse_at_ratio"], per_sample(
            row["mu"], seed, 7, float(row["train_fraction"])))


def test_every_sweep_scores_one_base_rmse(tmp_path):
    """perturb-sweep and split-sweep score each checkpoint of the paper's
    [1, 64] K = 5 model on its own task with the same bits, and transfer
    to the run's own movie gives their mean over the split seeds."""
    data = str(make_ratings_file(tmp_path / "u.data", users=60, movies=200))
    run = str(tmp_path / "run")
    assert main(["train", "--data", data, "--movie-id", "7",
                 "--mu", "0.0", "0.5", "--seeds", "0", "1", "--epochs", "1",
                 "--out", run]) == 0
    common = ["--data", data, "--checkpoints", run]
    assert main(["perturb-sweep", *common, "--epsilon", "0.1",
                 "--draws", "1", "--out", str(tmp_path / "perturb")]) == 0
    assert main(["split-sweep", *common, "--splits", "0.5",
                 "--out", str(tmp_path / "splits")]) == 0
    assert main(["transfer", *common, "--movie-ids", "7",
                 "--out", str(tmp_path / "transfer")]) == 0

    def base(path):
        return {(row["mu"], row["split_seed"]): float(row["rmse_base"])
                for row in csv_table(path)}

    perturbed = base(tmp_path / "perturb" / "perturb_sweep.csv")
    assert sorted(perturbed) == [(mu, seed) for mu in ("0.0", "0.5")
                                 for seed in ("0", "1")]
    assert base(tmp_path / "splits" / "split_sweep.csv") == perturbed
    transfer = {row["mu"]: float(row["rmse_mean"])
                for row in csv_table(tmp_path / "transfer" / "transfer.csv")}
    assert transfer == {mu: statistics.fmean(perturbed[mu, seed]
                                             for seed in ("0", "1"))
                        for mu in ("0.0", "0.5")}


@pytest.mark.parametrize("fraction,users", [("0.03", 1), ("0.01", 0)])
def test_train_rejects_an_edgeless_training_graph(ratings_file, tmp_path,
                                                  capsys, fraction, users):
    # all 40 fixture users rate movie 7: 0.03 keeps one, 0.01 none
    assert main(["train", "--data", str(ratings_file), "--movie-id", "7",
                 "--seeds", "0", "--epochs", "1", "--features", "2",
                 "--taps", "2", "--train-fraction", fraction,
                 "--out", str(tmp_path / "run")]) == 2
    assert (f"movie id 7 at train fraction {fraction} has a training graph "
            f"without edges ({users} training users)"
            in capsys.readouterr().err)


def test_key_error_prints_without_quotes(ratings_file, tmp_path, capsys):
    assert main(["train", "--data", str(ratings_file), "--movie-id", "99999",
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        "error: movie id 99999 not present in the ratings\n")


def test_most_rated_takes_only_movies_a_task_can_be_built_for():
    # rater counts 12, 9, 15, 10, 3, 11 for movie ids 1..6; movie 3 is the
    # excluded target and movies 2 and 5 have fewer than MIN_RATERS raters
    counts = [12, 9, 15, 10, 3, 11]
    matrix = np.zeros((20, len(counts)), dtype=np.uint8)
    for m, c in enumerate(counts):
        matrix[:c, m] = 4
    ratings = RatingsMatrix(matrix, tuple(range(1, 21)),
                            tuple(range(1, len(counts) + 1)))
    assert MIN_RATERS == 10
    assert cli._most_rated(ratings, 3, 5) == [1, 6, 4]
    assert cli._most_rated(ratings, 3, 2) == [1, 6]


def test_transfer_default_skips_movies_with_too_few_raters(tmp_path):
    # 40 users rate 8 of 200 movies each, so only the target, movie 50, has
    # the raters a task needs (the next most-rated have 5): the default
    # takes no movie and writes an empty table
    data = str(make_ratings_file(tmp_path / "u.data", users=40, movies=200,
                                 target_item=50))
    run = tmp_path / "run"
    assert main(["train", "--data", data, "--movie-id", "50", "--mu", "0.0",
                 "--seeds", "0", "--epochs", "1", "--features", "4",
                 "--taps", "3", "--out", str(run)]) == 0
    out = tmp_path / "transfer"
    assert main(["transfer", "--data", data, "--checkpoints", str(run),
                 "--out", str(out)]) == 0
    assert csv_body(out / "transfer.csv") == [
        "mu,movie_id,rmse_mean,rmse_std,degradation_percent"]


def test_transfer_defaults_to_the_five_most_rated_other_movies(
        trained_dir, ratings_file, tmp_path):
    counts = {}
    for line in ratings_file.read_text().splitlines():
        movie = int(line.split()[1])
        counts[movie] = counts.get(movie, 0) + 1
    # most raters first, ties by lower movie id (ids are 1..15 in order)
    expected = sorted((m for m in counts if m != 7),
                      key=lambda m: (-counts[m], m))[:5]
    assert len({counts[m] for m in expected}) < 5  # the order meets a tie
    out = tmp_path / "transfer"
    assert main(["transfer", "--data", str(ratings_file),
                 "--checkpoints", str(trained_dir), "--out", str(out)]) == 0
    rows = [row.split(",") for row in csv_body(out / "transfer.csv")[1:]]
    for mu in ("0.0", "0.5"):
        assert [int(r[1]) for r in rows if r[0] == mu] == expected
