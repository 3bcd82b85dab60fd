"""MovieLens-100k ingestion, Pearson-correlation movie graph construction and
rating-prediction task assembly.

The movie graph has one node per movie; edge weights are pairwise Pearson
correlations of ratings over the users that rated both movies (negative
correlations are clipped to zero so the adjacency stays nonnegative). The
prediction task for a target movie takes each rater's signal, uses the rating
at the target node as the label, zeroes that entry, and builds the GSO from
training users only.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import GSO, Graph, build_gso, knn_sparsify

MIN_COMMON_RATERS = 2
DEFAULT_KNN = 10
STAR_WARS_ITEM_ID = 50


@dataclass(frozen=True)
class RatingsMatrix:
    """Dense user-by-movie rating matrix; 0 encodes "unrated"."""

    matrix: np.ndarray
    user_ids: tuple
    movie_ids: tuple

    @property
    def rating_count(self) -> int:
        return int(np.count_nonzero(self.matrix))

    def movie_index(self, item_id: int) -> int:
        try:
            return self.movie_ids.index(item_id)
        except ValueError:
            raise KeyError(f"movie id {item_id} not present in the ratings")


@dataclass(frozen=True)
class TaskSplit:
    """Train/test datasets for one target movie plus the train-only GSO."""

    target_index: int
    target_item_id: int
    train: list
    test: list
    gso: GSO
    train_user_ids: tuple
    test_user_ids: tuple


def load_ratings(path) -> RatingsMatrix:
    """Parse a MovieLens-100k `u.data` file.

    Layout: tab-separated `user_id item_id rating timestamp`, 1-indexed ids.
    Duplicate (user, movie) pairs keep the rating with the latest timestamp.
    """
    records = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 4 tab-separated fields, "
                    f"got {len(parts)}"
                )
            try:
                user, item, rating, ts = (int(p) for p in parts)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer field in {line!r}"
                )
            if not 1 <= rating <= 5:
                raise ValueError(
                    f"{path}: line {lineno}: rating {rating} outside 1..5"
                )
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


def pearson_graph(ratings: RatingsMatrix, user_subset) -> Graph:
    """Movie graph weighted by pairwise Pearson correlation over co-raters.

    Pairs with fewer than MIN_COMMON_RATERS co-raters or zero variance get
    weight 0; negative correlations are clipped to 0. All sums are restricted
    per pair to the users that rated both movies (no global mean-centering).
    """
    user_subset = np.asarray(list(user_subset), dtype=int)
    if user_subset.size == 0:
        raise ValueError("user subset is empty")
    R = ratings.matrix[user_subset]            # (U, M)
    B = (R > 0).astype(float)
    n = B.T @ B                                # co-rater counts
    sum_i = R.T @ B                            # sum of movie-i ratings over co-raters with j
    sum_sq = (R * R).T @ B
    cross = R.T @ R
    with np.errstate(divide="ignore", invalid="ignore"):
        cov = cross - sum_i * sum_i.T / n
        var_i = sum_sq - sum_i ** 2 / n
        corr = cov / np.sqrt(var_i * var_i.T)
    corr = np.nan_to_num(corr, nan=0.0, posinf=0.0, neginf=0.0)
    corr[n < MIN_COMMON_RATERS] = 0.0
    corr = np.clip(corr, 0.0, 1.0)
    np.fill_diagonal(corr, 0.0)
    corr = (corr + corr.T) / 2.0
    return Graph(corr)


def build_task(ratings: RatingsMatrix, target_item_id: int = STAR_WARS_ITEM_ID,
               train_fraction: float = 0.9, seed: int = 0,
               knn: int = DEFAULT_KNN) -> TaskSplit:
    """Assemble the rating-prediction task for one target movie.

    Only users who rated the target participate. The split is a seeded
    shuffle; the graph (Pearson correlations, k-NN pruned, symmetrized) is
    estimated from training users only. Every signal has its target entry
    zeroed, with the removed rating as the label.
    """
    n = ratings.movie_index(target_item_id)
    raters = np.flatnonzero(ratings.matrix[:, n] > 0)
    if raters.size < 10:
        raise ValueError(
            f"movie id {target_item_id} has only {raters.size} raters; "
            "need at least 10"
        )
    rng = np.random.default_rng(seed)
    raters = raters[rng.permutation(raters.size)]
    n_train = int(round(train_fraction * raters.size))
    train_users, test_users = raters[:n_train], raters[n_train:]
    W = knn_sparsify(pearson_graph(ratings, train_users).weights, knn)
    gso = build_gso(Graph(W), "adjacency")

    def make_samples(users):
        samples = []
        for u in users:
            x = ratings.matrix[u].astype(float).copy()
            y = float(x[n])
            x[n] = 0.0
            samples.append((x, y))
        return samples

    return TaskSplit(
        target_index=n,
        target_item_id=target_item_id,
        train=make_samples(train_users),
        test=make_samples(test_users),
        gso=gso,
        train_user_ids=tuple(ratings.user_ids[u] for u in train_users),
        test_user_ids=tuple(ratings.user_ids[u] for u in test_users),
    )


def rmse(predictions, labels) -> float:
    predictions = np.asarray(predictions, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError("predictions and labels must be equal-length and nonempty")
    return float(np.sqrt(np.mean((predictions - labels) ** 2)))
