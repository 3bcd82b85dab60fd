import ctypes
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphstab import cli
from graphstab.cli import _write_csv, build_parser, invariant_suite, main


def csv_body(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


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
    summary = json.loads((trained_dir / "train_summary.json").read_text())
    assert set(summary["mus"]) == {"0.0", "0.5"}
    for mu in ("0.0", "0.5"):
        assert len(summary["mus"][mu]["rmse_per_split"]) == 2
        for seed in (0, 1):
            assert (trained_dir / f"checkpoint_mu{mu}_split{seed}.json").is_file()
            trace = csv_body(trained_dir / f"trace_mu{mu}_split{seed}.csv")
            assert trace[0] == "epoch,loss,penalty"
            assert len(trace) == 4
    rmse_rows = csv_body(trained_dir / "rmse.csv")
    assert rmse_rows[0] == "mu,split_seed,test_rmse"
    assert len(rmse_rows) == 5
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
    # mu comes as a string key of train_summary.json; "10.0" < "2.0"
    rows = [(mu, 0, eps, 0, 1.0, 1.25, 0.25)
            for mu in ("10.0", "2.0", "0.5") for eps in (0.1, 0.05)]
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
    # only the graph changes with the ratio: every `predict` call, the base
    # and each ratio, scores the test users of the checkpoint's own split
    exact, scored = cli.predict, []

    def recording(model, S, signals):
        scored.append(len(signals))
        return exact(model, S, signals)

    monkeypatch.setattr(cli, "predict", recording)
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
    ("1000", "train_summary.json"),
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


# each malformed train_summary.json as a function of the one `train` wrote
# (None: a file that is not JSON)
SUMMARY_EDITS = {
    "seeds 0": lambda summary: {**summary, "seeds": 0},
    "fraction string": lambda summary: {**summary, "train_fraction": "0.9"},
    "mus list": lambda summary: {**summary, "mus": ["0.0"]},
    "float seed": lambda summary: {**summary, "seeds": [0.0]},
    "boolean movie id": lambda summary: {**summary, "movie_id": True},
    "fraction above 1": lambda summary: {**summary, "train_fraction": 1.5},
    "no seeds": lambda summary: {k: v for k, v in summary.items()
                                 if k != "seeds"},
    "summary a list": list,
    "summary not json": lambda summary: None,
    "no seeds listed": lambda summary: {**summary, "seeds": []},
    "no mus listed": lambda summary: {**summary, "mus": {}},
    "seed repeated": lambda summary: {**summary, "seeds": [1, 1]},
    "mus entry an integer": lambda summary: _edit_mu(summary, lambda s: 5),
    "mus entry empty": lambda summary: _edit_mu(summary, lambda s: {}),
    "rmse_mean zero": lambda summary: _edit_mu(
        summary, lambda s: {"rmse_mean": 0}),
    "rmse_mean boolean": lambda summary: _edit_mu(
        summary, lambda s: {"rmse_mean": True}),
}


def _edit_mu(summary, edit):
    """The summary with its mu 0.5 entry replaced by edit(entry)."""
    return {**summary, "mus": {**summary["mus"],
                               "0.5": edit(summary["mus"]["0.5"])}}


@pytest.mark.parametrize("command,bad,named", [
    ("train", "empty data", "no ratings"),
    ("train", "missing data", "not found"),
    ("transfer", "empty data", "no ratings"),
    ("transfer", "missing data", "not found"),
    ("transfer", "missing checkpoints", "train_summary.json"),
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
    ("transfer", "fractional node",
     "split1.json: readout node must be an integer, got 3.7"),
    ("perturb-sweep", "boolean node",
     "split1.json: readout node must be an integer, got True"),
    # the run's summary reads, but a field a sweep needs is malformed
    *((command, bad, f"malformed run summary {{run}}: {named}")
      for command in ("transfer", "perturb-sweep", "split-sweep")
      for bad, named in (
          ("seeds 0", "seeds must be a list of integers, got 0"),
          ("fraction string", "train_fraction must be a number, got '0.9'"),
          ("mus list", "mus must be a mapping, got ['0.0']"))),
    ("transfer", "float seed", "malformed run summary {run}: seeds must be "
                               "a list of integers, got [0.0]"),
    ("perturb-sweep", "boolean movie id",
     "malformed run summary {run}: movie_id must be an integer, got True"),
    ("split-sweep", "fraction above 1",
     "malformed run summary {run}: train fraction 1.5 is outside (0, 1]"),
    ("transfer", "no seeds", "malformed run summary {run}: no key 'seeds'"),
    ("perturb-sweep", "summary a list", "malformed run summary {run}: "),
    ("split-sweep", "summary not json", "malformed run summary {run}: "),
    # a sweep over no split or no mu would write a header-only CSV, and a
    # repeated seed would score its split twice
    *((command, bad, f"malformed run summary {{run}}: {named}")
      for command in ("transfer", "perturb-sweep", "split-sweep")
      for bad, named in (("no seeds listed", "seeds is empty"),
                         ("no mus listed", "mus is empty"))),
    ("transfer", "seed repeated",
     "malformed run summary {run}: seeds repeats a value: [1, 1]"),
    # transfer divides by each mu's rmse_mean; train writes NaN for a split
    # without test users, which the "no test users" rows above read
    ("transfer", "mus entry an integer", "malformed run summary {run}: "
     "mus['0.5'] must map rmse_mean to a positive number or NaN, got 5"),
    ("transfer", "mus entry empty", "malformed run summary {run}: "
     "mus['0.5'] must map rmse_mean to a positive number or NaN, got {{}}"),
    ("transfer", "rmse_mean zero", "malformed run summary {run}: "
     "mus['0.5'] must map rmse_mean to a positive number or NaN, "
     "got {{'rmse_mean': 0}}"),
    ("perturb-sweep", "rmse_mean boolean", "malformed run summary {run}: "
     "mus['0.5'] must map rmse_mean to a positive number or NaN, "
     "got {{'rmse_mean': True}}"),
])
def test_unreadable_input_creates_no_output(trained_dir, ratings_file,
                                            tmp_path, monkeypatch, capsys,
                                            command, bad, named):
    data, checkpoints, movie_id, extra = ratings_file, trained_dir, "7", []
    if bad == "empty data":
        data = tmp_path / "empty.data"
        data.write_text("")
    elif bad == "missing data":
        data = tmp_path / "missing.data"
    elif bad == "missing checkpoints":
        checkpoints = tmp_path / "missing_run"
    elif bad == "absent movie":
        movie_id, extra = "99999", ["--movie-ids", "99999"]
    elif bad in ("nan tap", "inf readout", "nan bias", "inf node",
                 "fractional node", "boolean node"):
        path = checkpoints / "checkpoint_mu0.5_split1.json"
        payload = json.loads(path.read_text())
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
        path.write_text(json.dumps(payload))

        def unread(path):  # a bad checkpoint stops the sweep before this
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "load_ratings", unread)
    elif bad in SUMMARY_EDITS:
        path = checkpoints / "train_summary.json"
        named = named.format(run=path)
        summary = SUMMARY_EDITS[bad](json.loads(path.read_text()))
        path.write_text("" if summary is None else json.dumps(summary))

        def unread(path):  # a bad summary stops the sweep before this
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "load_checkpoint", unread)
        monkeypatch.setattr(cli, "load_ratings", unread)
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


def _perturb_sweep_rows(out):
    rows = [line.split(",") for line in csv_body(out / "perturb_sweep.csv")]
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def _per_user_rmse(model, S, samples):
    from graphstab import gnn
    from graphstab.movielens import rmse

    return rmse([gnn.forward(model, S, x).prediction for x, _ in samples],
                [y for _, y in samples])


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
    rows = _perturb_sweep_rows(out)
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
    model, _ = gnn.load_checkpoint(
        trained_dir / "checkpoint_mu0.0_split0.json")
    assert len(model.layers) == 1
    S_hat = cli.random_relative_perturbation(
        task.gso, float(row["epsilon"]), seed=0).perturbed
    for column, S in (("rmse_base", task.gso), ("rmse_perturbed", S_hat)):
        assert float(row[column]) == pytest.approx(
            _per_user_rmse(model, S, task.test), rel=1e-12, abs=0)


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
    gnn.save_checkpoint(path, model, gnn.TrainConfig())
    (run / "train_summary.json").write_text(json.dumps({
        "movie_id": 7, "train_fraction": 0.9, "seeds": [0],
        "mus": {"0.0": {"rmse_mean": 1.0}}}))

    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_ratings", unread)
    out = tmp_path / "out"
    assert main([command, "--data", str(ratings_file),
                 "--checkpoints", str(run), "--out", str(out)]) == 2
    assert f"checkpoint {path} has 2 layers" in capsys.readouterr().err
    assert not out.exists()


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


def test_transfer_and_split_sweep_score_without_forward(
        trained_dir, ratings_file, tmp_path, monkeypatch):
    """Both sweeps score through `predict`; their RMSE columns match a
    per-sample `forward` on the same tasks to 1e-12 relative."""
    from graphstab import gnn
    from graphstab.movielens import build_task, load_ratings, rmse

    def unused(*args, **kwargs):
        raise AssertionError("forward was called")

    monkeypatch.setattr(cli, "forward", unused)
    monkeypatch.setattr(gnn, "forward", unused)
    common = ["--data", str(ratings_file), "--checkpoints", str(trained_dir)]
    assert main(["transfer", *common, "--movie-ids", "3", "5",
                 "--out", str(tmp_path / "transfer")]) == 0
    assert main(["split-sweep", *common, "--splits", "0.5", "0.8",
                 "--out", str(tmp_path / "splits")]) == 0
    monkeypatch.undo()

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
        return rmse([gnn.forward(model, task.gso, x).prediction
                     for x, _ in test], [y for _, y in test])

    def close(got, want):
        return float(got) == pytest.approx(want, rel=1e-12, abs=0)

    def table(path):
        rows = [line.split(",") for line in csv_body(path)]
        return [dict(zip(rows[0], row)) for row in rows[1:]]

    rows = table(tmp_path / "transfer" / "transfer.csv")
    assert len(rows) == 2 * 2  # mus x movies
    for row in rows:
        per_split = [per_sample(row["mu"], seed, int(row["movie_id"]), 0.9)
                     for seed in (0, 1)]
        mean, std = cli._mean_std(per_split)
        assert close(row["rmse_mean"], mean) and close(row["rmse_std"], std)
    rows = table(tmp_path / "splits" / "split_sweep.csv")
    assert len(rows) == 2 * 2 * 2  # mus x seeds x ratios
    for row in rows:
        seed = int(row["split_seed"])
        assert close(row["rmse_base"], per_sample(row["mu"], seed, 7, 0.9))
        assert close(row["rmse_at_ratio"], per_sample(
            row["mu"], seed, 7, float(row["train_fraction"])))


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


MAPPED_BYTES = """
import ctypes
import numpy as np
from graphstab.cli import fix_mmap_threshold


class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
before = libc.mallinfo2().hblkhd
a = np.ones(2**19)  # 4 MiB, nothing freed before it
after_a = libc.mallinfo2().hblkhd
fix_mmap_threshold()
b = np.ones(2**19)
print(after_a - before, libc.mallinfo2().hblkhd - after_a)
"""


@pytest.mark.skipif(
    sys.platform != "linux"
    or not hasattr(ctypes.CDLL(None), "mallinfo2"),
    reason="needs glibc's mallinfo2")
def test_fix_mmap_threshold_serves_large_blocks_from_the_heap():
    # a fresh process: the threshold of this one is whatever earlier tests
    # left, as main() fixes it
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", MAPPED_BYTES], env=env,
                            capture_output=True, text=True, check=True)
    mapped_before, mapped_after = map(int, result.stdout.split())
    assert mapped_before >= 2**22  # the default rule maps the first one
    assert mapped_after == 0
