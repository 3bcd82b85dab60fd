"""`train`'s and `perturb-sweep`'s quality values against the benchmark's
recorded reference.

The benchmark's `train` workload checks its two test RMSEs on seed-1 data
against perfbench/reference.json, to run.REFERENCE_RTOL. That run diverges,
so its RMSEs follow the last bits of every training step: a change that
reorders one floating-point sum moves them far outside the tolerance. Its
`perturb-sweep` workload checks, the same way, each model's mean
|rmse_difference| over its draws, which moves with the sweep's scorer.
These tests run the same commands the same way, so such a change fails
here first. They read perfbench/ and write only under their tmp_path.
"""

import importlib
import json
import statistics
import subprocess
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's `ratings` and `run` modules, imported as it runs them."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("ratings"), importlib.import_module("run")


def _run_cli(run, args):
    # a child with the benchmark's one-thread BLAS settings
    subprocess.run(run.child_argv("cli", args), env=run.child_env(),
                   check=True, capture_output=True)


def _assert_matches_reference(run, workload, seed, got):
    want = json.loads((BENCH / "reference.json").read_text())[workload][
        str(seed)]
    assert got.keys() == want.keys()
    for name, value in got.items():
        assert value == pytest.approx(want[name], rel=run.REFERENCE_RTOL,
                                      abs=0), name


def test_train_matches_the_benchmark_reference_at_seed_1(tmp_path, bench):
    ratings, run = bench
    seed = 1
    data = ratings.write_ratings(tmp_path / "u.data", seed).path
    out = tmp_path / "run"
    _run_cli(run, ["train", "--data", data, "--mu", *run.MUS, "--seeds", seed,
                   "--epochs", run.TRAIN_EPOCHS, "--out", out])
    _assert_matches_reference(run, "train", seed, {
        f"test_rmse_mu{float(row['mu']):g}": float(row["test_rmse"])
        for row in run.read_table(out / "rmse.csv")})


def test_perturb_sweep_matches_the_benchmark_reference_at_seed_1(tmp_path,
                                                                 bench):
    ratings, run = bench
    seed = 1
    data = ratings.write_ratings(tmp_path / "u.data", seed).path
    ckpt, out = tmp_path / "run", tmp_path / "sweep"
    _run_cli(run, ["train", "--data", data, "--mu", *run.MUS, "--seeds", seed,
                   "--epochs", run.SETUP_EPOCHS, "--out", ckpt])
    _run_cli(run, ["perturb-sweep", "--data", data, "--checkpoints", ckpt,
                   "--epsilon", *run.EPSILONS, "--draws", run.DRAWS,
                   "--out", out])
    rows = run.read_table(out / "perturb_sweep.csv")
    # as the benchmark names them: the penalized model's is rmse_shift
    got = {"rmse_shift" if mu > 0 else f"rmse_shift_mu{mu:g}":
           statistics.fmean(abs(float(row["rmse_difference"])) for row in rows
                            if float(row["mu"]) == mu)
           for mu in run.MUS}
    _assert_matches_reference(run, "perturb-sweep", seed, got)
