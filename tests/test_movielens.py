import dataclasses
import tracemalloc

import numpy as np
import pytest

from graphstab import (
    RatingsMatrix,
    Samples,
    build_task,
    load_ratings,
    pearson_graph,
    rmse,
)
from graphstab import cli, init_model, movielens
from graphstab.cli import main
from graphstab.graphs import _TILE

from conftest import make_ratings_file, traced_peak


def ratings_from_matrix(matrix):
    matrix = np.asarray(matrix)
    return RatingsMatrix(
        matrix=matrix,
        user_ids=tuple(range(1, matrix.shape[0] + 1)),
        movie_ids=tuple(range(1, matrix.shape[1] + 1)),
    )


def test_load_two_lines(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\t100\n2\t20\t3\t200\n")
    ratings = load_ratings(path)
    assert ratings.user_ids == (1, 2)
    assert ratings.movie_ids == (10, 20)
    assert ratings.matrix[0, 0] == 5.0
    assert ratings.matrix[1, 1] == 3.0
    assert ratings.matrix[0, 1] == 0.0
    assert np.count_nonzero(ratings.matrix) == 2


def test_load_duplicate_keeps_latest_timestamp(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\t100\n1\t10\t2\t300\n1\t10\t4\t200\n")
    ratings = load_ratings(path)
    assert ratings.matrix[0, 0] == 2.0


def test_load_rejects_bad_lines(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\n")
    with pytest.raises(ValueError, match="line 1: expected 4 "
                       "whitespace-separated fields, got 3"):
        load_ratings(path)
    path.write_text("1\t10\t9\t100\n")
    with pytest.raises(ValueError, match="outside 1..5"):
        load_ratings(path)
    path.write_text("1\tten\t5\t100\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_ratings(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\t100\n\n2\t10\t4\t100\n")
    assert np.count_nonzero(load_ratings(path).matrix) == 2


def load_ratings_by_line(path):
    """Reference parser: one line at a time into a dict keyed by (user,
    movie), keeping the latest timestamp and the later line on a tie."""
    records = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields")
            user, item, rating, ts = (int(p) for p in parts)
            if not 1 <= rating <= 5:
                raise ValueError(f"line {lineno}: rating outside 1..5")
            key = (user, item)
            if key not in records or ts >= records[key][1]:
                records[key] = (rating, ts)
    user_ids = tuple(sorted({u for u, _ in records}))
    movie_ids = tuple(sorted({m for _, m in records}))
    u_index = {u: i for i, u in enumerate(user_ids)}
    m_index = {m: j for j, m in enumerate(movie_ids)}
    matrix = np.zeros((len(user_ids), len(movie_ids)))
    for (user, item), (rating, _) in records.items():
        matrix[u_index[user], m_index[item]] = rating
    return RatingsMatrix(matrix=matrix, user_ids=user_ids, movie_ids=movie_ids)


@pytest.mark.parametrize("seed", range(5))
def test_load_matches_the_line_by_line_parser(tmp_path, seed):
    # shuffled lines with duplicate pairs, equal timestamps among them,
    # blank lines and mixed whitespace
    rng = np.random.default_rng(seed)
    n = 600
    fields = np.column_stack([rng.integers(1, 30, n), rng.integers(1, 20, n),
                              rng.integers(1, 6, n), rng.integers(0, 4, n)])
    lines = ["\t".join(map(str, row)) for row in fields]
    lines[::7] = [line.replace("\t", "  ") for line in lines[::7]]
    for at in rng.integers(0, len(lines), 10):
        lines.insert(int(at), "" if at % 2 else "   ")
    path = tmp_path / "u.data"
    path.write_text("\n".join(lines) + "\n")
    got, want = load_ratings(path), load_ratings_by_line(path)
    assert got.user_ids == want.user_ids
    assert got.movie_ids == want.movie_ids
    assert got.matrix.tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize("bad, message", [
    ("3\t30\t5", "expected 4"),
    ("3\t30\t5.0\t300", "non-integer"),
    ("3\t30\t0\t300", "outside 1..5"),
])
def test_load_names_the_first_bad_line(tmp_path, bad, message):
    path = tmp_path / "u.data"
    path.write_text(f"1\t10\t5\t100\n\n{bad}\n4\t40\t9\t400\n")
    with pytest.raises(ValueError, match=f"line 3: .*{message}"):
        load_ratings(path)


@pytest.mark.parametrize("bad", [2.5, -1.0, 6.0, np.nan])
def test_ratings_matrix_rejects_non_rating_entries(bad):
    with pytest.raises(ValueError, match="integers in 0..5"):
        ratings_from_matrix([[5.0, 0.0], [1.0, bad]])


def test_ratings_matrix_keeps_one_read_only_byte_per_rating(ratings_file):
    # so the samples a task builds from it on first read cannot go stale
    for ratings in (load_ratings(ratings_file),
                    ratings_from_matrix([[5.0, 0.0], [1.0, 3.0]])):
        assert ratings.matrix.dtype == np.uint8
        with pytest.raises(ValueError, match="read-only"):
            ratings.matrix[0, 0] = 2
    # integers are checked by range before the cast, which wraps 256 to 0
    for bad in (2.5, 256):
        with pytest.raises(ValueError, match="integers in 0..5"):
            ratings_from_matrix([[5, 0], [1, bad]])


def test_ratings_matrix_cannot_be_made_writable(ratings_file):
    # a write would change the samples a built task makes on first read,
    # while the task's GSO keeps the old ratings
    for ratings in (load_ratings(ratings_file),
                    ratings_from_matrix([[5.0, 0.0], [1.0, 3.0]])):
        with pytest.raises(ValueError, match="WRITEABLE"):
            ratings.matrix.setflags(write=True)


def test_movie_index_missing():
    ratings = ratings_from_matrix([[5.0]])
    with pytest.raises(KeyError):
        ratings.movie_index(99)


def test_pearson_identical_columns():
    # columns move together over every co-rater -> correlation 1
    ratings = ratings_from_matrix([[1, 1], [2, 2], [3, 3]])
    W = pearson_graph(ratings, range(3))
    assert W[0, 1] == pytest.approx(1.0)
    assert W[0, 0] == 0.0


def test_pearson_negative_clipped_to_zero():
    ratings = ratings_from_matrix([[1, 3], [2, 2], [3, 1]])
    W = pearson_graph(ratings, range(3))
    assert W[0, 1] == 0.0


def test_pearson_no_corater_overlap():
    ratings = ratings_from_matrix([[1, 0], [2, 0], [0, 3], [0, 4]])
    W = pearson_graph(ratings, range(4))
    assert W[0, 1] == 0.0


def test_pearson_single_corater_below_minimum():
    ratings = ratings_from_matrix([[1, 2], [3, 0]])
    W = pearson_graph(ratings, range(2))
    assert W[0, 1] == 0.0


def test_pearson_hand_value():
    # co-raters of both movies: users 0..2 with columns (1,2,3) and (1,3,2);
    # Pearson correlation is 0.5
    ratings = ratings_from_matrix([[1, 1], [2, 3], [3, 2], [4, 0]])
    W = pearson_graph(ratings, range(4))
    assert W[0, 1] == pytest.approx(0.5)


def test_pearson_restricts_to_subset():
    ratings = ratings_from_matrix([[1, 3], [2, 2], [3, 1], [1, 1], [3, 3]])
    # over users 3..4 the movies agree perfectly
    W = pearson_graph(ratings, [3, 4])
    assert W[0, 1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pearson_graph(ratings, [])


def pearson_oracle(R):
    """Double-precision Pearson weights, symmetrized by averaging: the
    reference that pearson_graph must match bit for bit."""
    R = R.astype(float)
    B = (R > 0).astype(float)
    n = B.T @ B
    sum_i = R.T @ B
    sum_sq = (R * R).T @ B
    cross = R.T @ R
    with np.errstate(divide="ignore", invalid="ignore"):
        cov = cross - sum_i * sum_i.T / n
        var_i = sum_sq - sum_i ** 2 / n
        corr = cov / np.sqrt(var_i * var_i.T)
    corr = np.nan_to_num(corr, nan=0.0, posinf=0.0, neginf=0.0)
    corr[n < 2] = 0.0
    corr = np.clip(corr, 0.0, 1.0)
    np.fill_diagonal(corr, 0.0)
    return (corr + corr.T) / 2.0


def assert_weight_matrix(W, n):
    """W is what build_gso takes, and nothing re-checks it on the way: an
    n x n float64 array that is finite, in [0, 1], zero on the diagonal and
    exactly symmetric."""
    assert type(W) is np.ndarray and W.shape == (n, n)
    assert W.dtype == np.float64
    assert np.isfinite(W).all() and W.min() >= 0.0 and W.max() <= 1.0
    assert not np.diag(W).any()
    assert np.array_equal(W, W.T)


@pytest.mark.parametrize("users", [range(200), range(0, 200, 3), [5, 9]])
def test_pearson_matches_double_precision_reference(tmp_path, users):
    path = make_ratings_file(tmp_path / "u.data", users=200, movies=60)
    ratings = load_ratings(path)
    W = pearson_graph(ratings, users)
    assert_weight_matrix(W, 60)
    expected = pearson_oracle(ratings.matrix[list(users)])
    assert np.count_nonzero(W) > 0
    assert W.tobytes() == expected.tobytes()


def random_ratings(users, movies, seed, density=0.3):
    """Uniform ratings at the given density. Movies 127 and 129 are unrated
    and movies 128 and the last are rated by user 0 alone, so pairs without
    co-raters sit at the first 128-movie tile boundary and at the edge."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(1, 6, (users, movies))
    matrix[rng.random((users, movies)) >= density] = 0
    matrix[:, [127, 129]] = 0
    matrix[0, [128, movies - 1]] = 3
    matrix[1:, [128, movies - 1]] = 0
    return ratings_from_matrix(matrix)


@pytest.mark.parametrize("movies", [256, 300])
@pytest.mark.parametrize("users", [range(150), range(1, 150, 2)])
def test_pearson_across_tiles_matches_reference(movies, users):
    # two full tiles, and at 300 movies a ragged third: a slip at a tile
    # boundary or in the mirrored half shows against the full reference
    ratings = random_ratings(150, movies, seed=movies)
    W = pearson_graph(ratings, users)
    assert_weight_matrix(W, movies)
    expected = pearson_oracle(ratings.matrix[list(users)])
    assert np.count_nonzero(W[:128, 128:]) > 0
    assert W.tobytes() == expected.tobytes()


def test_pearson_double_precision_sums_match_reference(monkeypatch):
    # past 2**24 / 25 users the sums are formed in double precision
    monkeypatch.setattr(movielens, "_FLOAT32_EXACT", 0)
    ratings = random_ratings(150, 300, seed=3)
    W = pearson_graph(ratings, range(150))
    assert_weight_matrix(W, 300)
    assert W.tobytes() == pearson_oracle(ratings.matrix).tobytes()


def test_pearson_memory_within_budget():
    # the co-rater sums are formed tile by tile from (N, U) single-precision
    # stacks, so the output is the only N x N array
    N = 600
    ratings = random_ratings(150, N, seed=1)
    assert traced_peak(pearson_graph, ratings, range(150)) <= 2.0 * N * N * 8


def test_pearson_memory_across_many_tiles():
    # N >> _TILE: beyond the output, the build holds one byte per rating of
    # the raters (and its transposed source) and the (4 * _TILE, U)
    # single-precision stacks of the blocks in use, not stacks of all N
    N, U = 1200, 600
    ratings = random_ratings(U, N, seed=2)
    budget = N * N * 8 + 2 * N * U + 4 * (4 * _TILE * U * 4)
    assert traced_peak(pearson_graph, ratings, range(U)) <= budget


def test_build_task_memory_within_budget():
    # the k-NN selection writes into the Pearson weights and the GSO keeps
    # them, so one N x N array serves the whole build
    N = 600
    ratings = random_ratings(150, N, seed=1)
    assert traced_peak(build_task, ratings, 1, 0.9, 0) <= 2.0 * N * N * 8


def test_evaluate_holds_no_second_copy_of_the_test_block():
    # the test signals are one (N, n) block already: scoring them holds the
    # K readout rows and one user's prediction at a time, not a second block
    N = 200
    ratings = random_ratings(1000, N, seed=4, density=0.9)
    task = build_task(ratings, 1, 0.4, 0)
    test = task.test
    n = len(test)
    assert n >= 500
    model = init_model(0, [1, 64], [5], ["relu"], task.target_index)
    assert traced_peak(cli._evaluate, model, task.gso, test) <= 0.5 * 8 * N * n


def test_load_ratings_memory_within_budget(tmp_path):
    # the matrix and at most one full-size temporary of its checks
    path = make_ratings_file(tmp_path / "u.data", users=300, movies=1000)
    size = load_ratings(path).matrix.nbytes
    assert traced_peak(load_ratings, path) <= 2.5 * size


def _per_user_samples(task, rows):
    """The (signal, label) pairs of the users in rows, one vector per user,
    as tasks built them before `Samples`: the oracle of their bits."""
    samples = []
    for u in rows:
        x = task.ratings.matrix[u].astype(float)
        samples.append((x, float(x[task.target_index])))
        x[task.target_index] = 0.0
    return samples


def _assert_per_user_layout(task, samples, rows):
    """samples is one read-only, C-ordered (N, 1, n) array with the bits of
    the per-user vectors and labels of rows."""
    N = task.ratings.matrix.shape[1]
    assert samples.X.shape == (N, 1, len(rows))
    assert samples.X.flags.c_contiguous and not samples.X.flags.writeable
    assert samples.X.dtype == np.float64
    want = _per_user_samples(task, rows)
    for j, (x, y) in enumerate(want):
        assert samples.X[:, 0, j].tobytes() == x.tobytes()
        assert samples.y[j] == y
    assert len(samples) == len(want)


def test_build_task_split_invariants(ratings_file):
    ratings = load_ratings(ratings_file)
    split = build_task(ratings, target_item_id=7, train_fraction=0.9, seed=0)
    total = len(split.train) + len(split.test)
    assert total == int(np.count_nonzero(ratings.matrix[:, split.target_index]))
    assert len(split.train) == int(round(0.9 * total))
    assert set(split.train_user_ids).isdisjoint(split.test_user_ids)
    for samples, rows in ((split.train, split.train_rows),
                          (split.test, split.test_rows)):
        _assert_per_user_layout(split, samples, rows)
        assert not np.shares_memory(samples.X, ratings.matrix)
        assert (samples.X[split.target_index] == 0.0).all()
        assert ((1.0 <= samples.y) & (samples.y <= 5.0)).all()
    S = split.gso.matrix
    assert np.array_equal(S, S.T)
    assert np.all(np.diag(S) == 0.0)


def test_build_task_builds_training_samples_on_first_read():
    # 800-odd training raters of 200 movies: their samples are four times
    # the GSO's bytes, and a command that reads only `test` never needs them
    N = 200
    ratings = random_ratings(1000, N, seed=4, density=0.9)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        task = build_task(ratings, 1, 0.9, 0)
        n_test = len(task.test)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    n_train = len(task.train_user_ids)
    assert n_train > 4 * N
    assert held <= N * N * 8 + (n_test + n_train / 4) * N * 8
    dense = ratings.matrix.astype(float)
    assert len(task.train) == n_train
    _assert_per_user_layout(task, task.train, task.train_rows)
    for j, uid in enumerate(task.train_user_ids):
        want = dense[ratings.user_ids.index(uid)].copy()
        assert task.train.y[j] == want[0]
        want[0] = 0.0
        assert task.train.X[:, 0, j].tobytes() == want.tobytes()


@pytest.mark.parametrize("X,y,message", [
    (np.array([[[1.0, np.nan]], [[2.0, 3.0]]]), [1.0, 2.0], "finite"),
    (np.ones((2, 1, 2)), [1.0, np.inf], "finite"),
    (np.ones((2, 1, 2)), [1.0, 2.0, 3.0],
     r"got shapes \(2, 1, 2\) and \(3,\)"),
    (np.ones((2, 2)), [1.0, 2.0], r"\(N, F, n\) signals"),
], ids=["nan signal", "inf label", "label count", "2-D signals"])
def test_samples_rejects(X, y, message):
    with pytest.raises(ValueError, match=message):
        Samples(X, y)


def test_samples_keep_a_read_only_array_and_copy_any_other():
    X = np.ones((3, 1, 2))
    X.setflags(write=False)
    y = np.array([1.0, 2.0])
    y.setflags(write=False)
    kept = Samples(X, y)
    assert kept.X is X and kept.y is y
    for given in (np.ones((3, 1, 2)), np.asfortranarray(np.ones((3, 1, 2))),
                  X[::1], np.ones((3, 1, 2), dtype=np.float32)):
        copied = Samples(given, [1.0, 2.0])
        assert not np.shares_memory(copied.X, given)
        assert copied.X.flags.c_contiguous and not copied.X.flags.writeable
        assert copied.X.dtype == np.float64 and not copied.y.flags.writeable


def test_build_task_seeded_splits_differ(ratings_file):
    ratings = load_ratings(ratings_file)
    a = build_task(ratings, 7, seed=0)
    b = build_task(ratings, 7, seed=1)
    assert a.train_user_ids != b.train_user_ids
    assert build_task(ratings, 7, seed=0).train_user_ids == a.train_user_ids


def test_build_task_gso_ignores_test_users(ratings_file):
    # corrupting a test user's other ratings must not change the train GSO
    ratings = load_ratings(ratings_file)
    split = build_task(ratings, 7, seed=0)
    test_row = ratings.user_ids.index(split.test_user_ids[0])
    corrupted = ratings.matrix.copy()
    mask = corrupted[test_row] > 0
    corrupted[test_row, mask] = 5.0
    split2 = build_task(
        RatingsMatrix(corrupted, ratings.user_ids, ratings.movie_ids),
        7, seed=0,
    )
    assert np.array_equal(split.gso.matrix, split2.gso.matrix)


def test_build_task_too_few_raters():
    ratings = ratings_from_matrix(np.eye(3) * 5 + (np.eye(3) == 0))
    with pytest.raises(ValueError, match="raters"):
        build_task(ratings, target_item_id=1)


def test_rmse_values():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([2.0, 3.0, 1.0, 4.0], [1.0, 2.0, 2.0, 2.0]) == pytest.approx(
        np.sqrt(7 / 4)
    )
    with pytest.raises(ValueError):
        rmse([], [])
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])


def test_split_manifest(tmp_path, ratings_file):
    out = tmp_path / "run"
    assert main(["train", "--data", str(ratings_file), "--movie-id", "7",
                 "--mu", "0.0", "--seeds", "0", "--epochs", "1",
                 "--features", "2", "--taps", "2", "--out", str(out)]) == 0
    split = build_task(load_ratings(ratings_file), 7, seed=0)
    lines = (out / "split_0.csv").read_text().strip().splitlines()
    assert lines[0] == "user_id,subset"
    assert lines[1:] == ([f"{uid},train" for uid in split.train_user_ids]
                         + [f"{uid},test" for uid in split.test_user_ids])


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
def test_load_rejects_a_file_without_ratings(tmp_path, text):
    path = tmp_path / "u.data"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"{path}: no ratings"):
        load_ratings(path)


def test_ratings_digest_names_the_ids_and_the_ratings():
    base = ratings_from_matrix([[1, 2], [3, 4]])
    assert base.digest == ratings_from_matrix([[1, 2], [3, 4]]).digest
    assert len(base.digest) == 64
    others = [ratings_from_matrix([[1, 2], [3, 5]]),
              RatingsMatrix(base.matrix, (1, 3), (1, 2)),
              RatingsMatrix(base.matrix, (1, 2), (2, 1)),
              # the same id and rating bytes in another shape
              RatingsMatrix([[1], [2]], (1, 2), (3,)),
              RatingsMatrix([[1, 2]], (1,), (2, 3))]
    assert len({base.digest, *(r.digest for r in others)}) == 6


def test_split_digest_names_the_train_and_the_test_users(ratings_file):
    ratings = load_ratings(ratings_file)
    task = build_task(ratings, 7, seed=0)
    assert task.split_digest == build_task(ratings, 7, seed=0).split_digest
    moved = dataclasses.replace(
        task, train_user_ids=task.train_user_ids[:-1],
        test_user_ids=task.train_user_ids[-1:] + task.test_user_ids)
    assert len({task.split_digest, moved.split_digest,
                build_task(ratings, 7, seed=1).split_digest}) == 3


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_ratings_matrix_must_be_2d(shape):
    with pytest.raises(ValueError, match="ratings must be a matrix"):
        RatingsMatrix(np.zeros(shape), (1, 2), (1, 2))
