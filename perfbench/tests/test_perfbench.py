"""Tests for the benchmark's own code: generator, tracer and metric names.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ratings  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = dict(users=60, movies=40, ratings=1500, target_item=7,
            target_raters=30)


def test_generator_has_paper_shape(tmp_path):
    from graphstab.movielens import load_ratings

    info = ratings.write_ratings(tmp_path / "u.data", seed=3)
    assert (info.users, info.movies, info.ratings, info.target_raters) == (
        943, 1682, 100_000, ratings.TARGET_RATERS)
    R = load_ratings(info.path).matrix
    assert R.shape == (943, 1682)
    rated = R > 0
    assert rated.sum() == 100_000                 # no duplicate pairs
    assert rated.sum(axis=1).min() >= ratings.MIN_PER_USER
    assert rated.sum(axis=0).min() >= 1
    assert rated[:, ratings.TARGET_ITEM - 1].sum() == ratings.TARGET_RATERS
    assert set(np.unique(R[rated])) <= {1.0, 2.0, 3.0, 4.0, 5.0}


def test_generator_is_seeded(tmp_path):
    a = ratings.write_ratings(tmp_path / "a", seed=5, **TINY)
    b = ratings.write_ratings(tmp_path / "b", seed=5, **TINY)
    c = ratings.write_ratings(tmp_path / "c", seed=6, **TINY)
    assert a.sha256 == b.sha256 != c.sha256
    assert (a.users, a.movies, a.ratings, a.target_raters) == (60, 40, 1500,
                                                               30)


def test_generator_rejects_impossible_shape():
    with pytest.raises(ValueError):
        ratings.synthetic_ratings(0, users=60, movies=40, ratings=500)


def test_traced_train_counts_match_expected(tmp_path):
    """A missed rebinding (cli imports forward and train from gnn, filters
    imports graph_shift from graphs) shows as a count below the expected."""
    from graphstab import cli, gnn

    data = ratings.write_ratings(tmp_path / "u.data", seed=2, **TINY).path
    epochs, taps, mus = 2, 5, 2
    t = tracer.Tracer()
    with t:
        assert cli.forward is gnn.forward
        assert hasattr(cli.forward, "__wrapped__")
        code = cli.main(["train", "--data", str(data), "--movie-id", "7",
                         "--mu", "0", "0.5", "--seeds", "3",
                         "--epochs", str(epochs), "--features", "4",
                         "--taps", str(taps), "--out", str(tmp_path / "run")])
    assert code == 0
    assert not hasattr(cli.forward, "__wrapped__")  # uninstalled
    n_train, n_test = run.split_sizes(tmp_path / "run" / "split_3.csv")
    assert (n_train, n_test) == (27, 3)
    batches = math.ceil(n_train / run.BATCH_SIZE)
    t.write(tmp_path / "spans.json")
    summary = tracer.summarize([tracer.read_spans(tmp_path / "spans.json")])
    expected = {
        "cli.main": 1,
        "movielens.load_ratings": 1,
        "movielens.build_task": mus,
        "movielens.pearson_graph": mus,
        "graphs.knn_sparsify": mus,
        "graphs.build_gso": mus,
        "gnn.train": mus,
        "gnn.resolve_lambda_interval": mus,
        "spectral.eigendecompose": mus,
        "gnn.forward": mus * n_train * epochs + mus * n_test,
        "gnn.sample_gradients": mus * n_train * epochs,
        "gnn.adam_step": mus * batches * epochs,
        "gnn.penalty": batches * epochs + mus * epochs,
        # test-set evaluation shifts inside forward; training reuses the
        # precomputed first-layer stack
        "filters.shift_stack": mus * n_test,
        "graphs.graph_shift": mus * n_test * (taps - 1),
        "perturbation.random_relative_perturbation": 0,
    }
    assert {k: summary[k]["calls"] for k in expected} == expected
    # train rebuilds the same task for each mu
    assert tracer.unique_ratio(summary["movielens.build_task"]) == 0.5


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path):
    from graphstab import filters, graphs, perturbation

    original = filters.spectral_norm
    S = graphs.build_gso(graphs.random_weighted_graph(8, seed=0))
    t = tracer.Tracer()
    with t:
        assert perturbation.spectral_norm is filters.spectral_norm
        assert perturbation.spectral_norm is not original
        perturbation.random_relative_perturbation(S, 0.1, seed=1)
        perturbation.random_relative_perturbation(S, 0.1, seed=1)
        perturbation.random_relative_perturbation(S, 0.1, seed=2)
    assert perturbation.spectral_norm is original
    t.write(tmp_path / "spans.json")
    spans = tracer.read_spans(tmp_path / "spans.json")
    names = [s[0] for s in spans]
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == "filters.spectral_norm":
            assert names[parent] == "perturbation.random_relative_perturbation"
    summary = tracer.summarize([spans])
    entry = summary["perturbation.random_relative_perturbation"]
    assert entry["calls"] == 3
    assert tracer.unique_ratio(entry) == pytest.approx(2 / 3)
    assert summary["filters.spectral_norm"]["calls"] == 3


def test_self_time_excludes_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1, None),
        ("gnn.train", 1.0, 4.0, 0, None),
        ("gnn.forward", 2.0, 3.0, 1, None),
        (tracer.FINGERPRINT_SPAN, 5.0, 5.5, 0, None),
        ("gnn.forward", 6.0, 6.5, 0, None),
    ]
    summary = tracer.summarize([spans, spans[:1]])
    assert summary["cli.main"]["calls"] == 2
    assert summary["cli.main"]["self_s"] == pytest.approx(
        (10.0 - 3.0 - 0.5 - 0.5) + 10.0)
    assert summary["gnn.train"]["self_s"] == pytest.approx(2.0)
    assert summary["gnn.forward"]["calls"] == 2
    assert summary["gnn.forward"]["self_s"] == pytest.approx(1.5)
    assert summary["graphs.graph_shift"] == {"calls": 0, "self_s": 0.0,
                                             "fingerprints": []}
    # no call repeated work when there was no call
    assert tracer.unique_ratio(summary["movielens.build_task"]) == 1.0


def test_scaled_workloads_calibrate_after_every_command(tmp_path):
    for scaled in (True, False):
        ctx = run.Context(1, tmp_path, {}, deadline=time.perf_counter() + 60,
                          scaled=scaled)
        for i in range(2):
            cmd = run.run_command(ctx, f"job{i}", "calibrate", [], tmp_path)
            assert cmd.returncode == 0 and not cmd.failures
        assert len(ctx.calibrations) == (2 if scaled else 0)
        assert all(t > 0 for t in ctx.calibrations)


def test_metric_names_are_declared_in_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    produced = {**run.END_TO_END, **run.per_layer_units()}
    for name in produced:
        assert pattern.fullmatch(name) and len(name) <= 64, name
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert bench["command"] == ["python3", "perfbench/run.py"]


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
