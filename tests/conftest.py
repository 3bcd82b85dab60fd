import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graphstab import build_gso, filters, random_weighted_graph

PATH3 = np.array([[0.0, 1.0, 0.0],
                  [1.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0]])


@pytest.fixture
def path3_adjacency():
    return build_gso(PATH3, "adjacency")


@pytest.fixture
def gso20():
    return build_gso(random_weighted_graph(20, seed=0))


def make_ratings_file(path: Path, seed: int = 0, users: int = 40,
                      movies: int = 15, target_item: int = 7) -> Path:
    """Synthetic u.data-format fixture: low-rank ratings plus noise, with
    every user rating the target movie so split tasks are well posed."""
    rng = np.random.default_rng(seed)
    user_bias = rng.normal(3.0, 0.7, users)
    movie_bias = rng.normal(0.0, 0.7, movies)
    lines = []
    for u in range(1, users + 1):
        rated = set(rng.choice(np.arange(1, movies + 1), size=8, replace=False))
        rated.add(target_item)
        for m in sorted(rated):
            r = user_bias[u - 1] + movie_bias[m - 1] + rng.normal(0, 0.4)
            r = int(np.clip(round(r), 1, 5))
            lines.append(f"{u}\t{m}\t{r}\t{880000000 + u * 100 + m}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def ratings_file(tmp_path):
    return make_ratings_file(tmp_path / "u.data")


def movielens_data_path():
    """Real MovieLens-100k u.data, if the environment provides one."""
    candidates = [os.environ.get("GRAPHSTAB_ML100K", "")]
    candidates += [str(Path(__file__).resolve().parent.parent
                       / "data" / "ml-100k" / "u.data")]
    for c in candidates:
        if c and Path(c).is_file():
            return Path(c)
    return None


def traced_peak(f, *args) -> int:
    """Peak bytes that f(*args) holds (its result included) beyond what was
    allocated when it was called, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def lanczos_runs(monkeypatch):
    """List the shapes of the matrices `filters.spectral_norm` runs Lanczos
    on, one entry per run, so a test can count them."""
    runs = []
    run = filters.extreme_eigenvalues

    def counted(A):
        runs.append(A.shape)
        return run(A)

    monkeypatch.setattr(filters, "extreme_eigenvalues", counted)
    return runs
