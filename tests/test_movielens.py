import numpy as np
import pytest

from graphstab import (
    RatingsMatrix,
    build_task,
    load_ratings,
    pearson_graph,
    rmse,
)
from graphstab.cli import main


def ratings_from_matrix(matrix):
    matrix = np.asarray(matrix, dtype=float)
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
    assert ratings.rating_count == 2


def test_load_duplicate_keeps_latest_timestamp(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\t100\n1\t10\t2\t300\n1\t10\t4\t200\n")
    ratings = load_ratings(path)
    assert ratings.matrix[0, 0] == 2.0


def test_load_rejects_bad_lines(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\n")
    with pytest.raises(ValueError, match="line 1"):
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
    assert load_ratings(path).rating_count == 2


def test_movie_index_missing():
    ratings = ratings_from_matrix([[5.0]])
    with pytest.raises(KeyError):
        ratings.movie_index(99)


def test_pearson_identical_columns():
    # columns move together over every co-rater -> correlation 1
    ratings = ratings_from_matrix([[1, 1], [2, 2], [3, 3]])
    W = pearson_graph(ratings, range(3)).weights
    assert W[0, 1] == pytest.approx(1.0)
    assert W[0, 0] == 0.0


def test_pearson_negative_clipped_to_zero():
    ratings = ratings_from_matrix([[1, 3], [2, 2], [3, 1]])
    W = pearson_graph(ratings, range(3)).weights
    assert W[0, 1] == 0.0


def test_pearson_no_corater_overlap():
    ratings = ratings_from_matrix([[1, 0], [2, 0], [0, 3], [0, 4]])
    W = pearson_graph(ratings, range(4)).weights
    assert W[0, 1] == 0.0


def test_pearson_single_corater_below_minimum():
    ratings = ratings_from_matrix([[1, 2], [3, 0]])
    W = pearson_graph(ratings, range(2)).weights
    assert W[0, 1] == 0.0


def test_pearson_hand_value():
    # co-raters of both movies: users 0..2 with columns (1,2,3) and (1,3,2);
    # Pearson correlation is 0.5
    ratings = ratings_from_matrix([[1, 1], [2, 3], [3, 2], [4, 0]])
    W = pearson_graph(ratings, range(4)).weights
    assert W[0, 1] == pytest.approx(0.5)


def test_pearson_restricts_to_subset():
    ratings = ratings_from_matrix([[1, 3], [2, 2], [3, 1], [1, 1], [3, 3]])
    # over users 3..4 the movies agree perfectly
    W = pearson_graph(ratings, [3, 4]).weights
    assert W[0, 1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pearson_graph(ratings, [])


def test_build_task_split_invariants(ratings_file):
    ratings = load_ratings(ratings_file)
    split = build_task(ratings, target_item_id=7, train_fraction=0.9, seed=0)
    total = len(split.train) + len(split.test)
    assert total == int(np.count_nonzero(ratings.matrix[:, split.target_index]))
    assert len(split.train) == int(round(0.9 * total))
    assert set(split.train_user_ids).isdisjoint(split.test_user_ids)
    for x, y in split.train + split.test:
        assert x[split.target_index] == 0.0
        assert 1.0 <= y <= 5.0
    S = split.gso.matrix
    assert np.array_equal(S, S.T)
    assert np.all(np.diag(S) == 0.0)


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
