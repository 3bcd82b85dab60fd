"""`train`'s test RMSEs against the benchmark's recorded reference.

The benchmark's `train` workload checks its two test RMSEs on seed-1 data
against perfbench/reference.json, to run.REFERENCE_RTOL. That run diverges,
so its RMSEs follow the last bits of every training step: a change that
reorders one floating-point sum moves them far outside the tolerance. This
test runs the same command the same way, so such a change fails here
first. It reads perfbench/ and writes only under its tmp_path.
"""

import importlib
import json
import subprocess
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's `ratings` and `run` modules, imported as it runs them."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("ratings"), importlib.import_module("run")


def test_train_matches_the_benchmark_reference_at_seed_1(tmp_path, bench):
    ratings, run = bench
    seed = 1
    data = ratings.write_ratings(tmp_path / "u.data", seed).path
    out = tmp_path / "run"
    # a child with the benchmark's one-thread BLAS settings
    subprocess.run(run.child_argv("cli", [
        "train", "--data", data, "--mu", *run.MUS, "--seeds", seed,
        "--epochs", run.TRAIN_EPOCHS, "--out", out]),
        env=run.child_env(), check=True, capture_output=True)
    got = {f"test_rmse_mu{float(row['mu']):g}": float(row["test_rmse"])
           for row in run.read_table(out / "rmse.csv")}
    want = json.loads((BENCH / "reference.json").read_text())["train"][
        str(seed)]
    assert got.keys() == want.keys()
    for name, value in got.items():
        assert value == pytest.approx(want[name], rel=run.REFERENCE_RTOL,
                                      abs=0), name
