"""MovieLens-100k ingestion, Pearson-correlation movie graph construction and
rating-prediction task assembly.

The movie graph has one node per movie; edge weights are pairwise Pearson
correlations of ratings over the users that rated both movies (negative
correlations are clipped to zero so the adjacency stays nonnegative). The
prediction task for a target movie takes each rater's signal, uses the rating
at the target node as the label, zeroes that entry, and builds the GSO from
training users only.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import GSO, Graph, _mirror_tiles, build_gso, knn_sparsify

MIN_COMMON_RATERS = 2
DEFAULT_KNN = 10
STAR_WARS_ITEM_ID = 50
MAX_RATING = 5

# float32 holds every integer below this exactly
_FLOAT32_EXACT = 2 ** 24


@dataclass(frozen=True)
class RatingsMatrix:
    """Dense user-by-movie rating matrix; 0 encodes "unrated".

    Every entry must be an integer in 0..MAX_RATING: `pearson_graph` relies
    on it to sum ratings exactly in single precision.
    """

    matrix: np.ndarray
    user_ids: tuple
    movie_ids: tuple

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2:
            raise ValueError(f"ratings must be a matrix, got shape {M.shape}")
        if not np.array_equal(M, np.clip(np.rint(M), 0, MAX_RATING)):
            raise ValueError("ratings must be integers in "
                             f"0..{MAX_RATING} (0 = unrated)")
        object.__setattr__(self, "matrix", M)

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

    Layout: whitespace-separated `user_id item_id rating timestamp`, one
    rating per line, 1-indexed ids; blank lines are skipped. Duplicate
    (user, movie) pairs keep the rating with the latest timestamp, and the
    later line among equal timestamps. The file is read in one pass by
    np.loadtxt; if that fails, or a rating is outside 1..MAX_RATING, it is
    read again line by line to name the first bad line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty file
            data = np.loadtxt(path, dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        data = None
    if (data is None or data.shape[1] != 4
            or np.any((data[:, 2] < 1) | (data[:, 2] > MAX_RATING))):
        data = _parse_lines(path)
    # a stable sort by (user, item, timestamp) puts the rating each pair
    # keeps last in its run
    user, item, rating, _ = data[np.lexsort(data[:, [3, 1, 0]].T)].T
    last = np.ones(user.size, dtype=bool)
    last[:-1] = (user[1:] != user[:-1]) | (item[1:] != item[:-1])
    user_ids, u_index = np.unique(user[last], return_inverse=True)
    movie_ids, m_index = np.unique(item[last], return_inverse=True)
    matrix = np.zeros((user_ids.size, movie_ids.size))
    matrix[u_index, m_index] = rating[last]
    return RatingsMatrix(matrix=matrix, user_ids=tuple(user_ids.tolist()),
                         movie_ids=tuple(movie_ids.tolist()))


def _parse_lines(path) -> np.ndarray:
    """The four integer fields of each nonblank line of a `u.data` file,
    read one line at a time; raises ValueError naming the first bad line."""
    rows = []
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
                fields = [int(p) for p in parts]
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer field in {line!r}"
                )
            if not 1 <= fields[2] <= MAX_RATING:
                raise ValueError(
                    f"{path}: line {lineno}: rating {fields[2]} outside "
                    f"1..{MAX_RATING}"
                )
            rows.append(fields)
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def pearson_graph(ratings: RatingsMatrix, user_subset) -> Graph:
    """Movie graph weighted by pairwise Pearson correlation over co-raters.

    Pairs with fewer than MIN_COMMON_RATERS co-raters or zero variance get
    weight 0; negative correlations are clipped to 0. All sums are restricted
    per pair to the users that rated both movies (no global mean-centering).

    The sums are sums of integer ratings. While U * MAX_RATING**2 stays below
    2**24 they are computed exactly in single precision (in any order) and
    kept so; each tile is widened to double precision on its own, so the
    result has the bits of a double-precision computation. The element-wise
    tail runs one tile pair (I, J >= I) at a time in `graphs._mirror_tiles`:
    tile [I, J] is computed once and written to [I, J] and, transposed, to
    [J, I]. The mirror is exact, since corr[j, i] is the same operations on
    commuted operands, so the result is exactly symmetric.
    """
    user_subset = np.asarray(list(user_subset), dtype=int)
    if user_subset.size == 0:
        raise ValueError("user subset is empty")
    exact32 = user_subset.size * MAX_RATING ** 2 < _FLOAT32_EXACT
    R = ratings.matrix[user_subset].astype(np.float32 if exact32 else float)
    B = (R > 0).astype(R.dtype)                # (U, M)
    # co-rater counts; sums of movie-i ratings (and of their squares) over
    # the co-raters of movie j; cross products
    n = B.T @ B
    sum_i = R.T @ B
    sum_sq = (R * R).T @ B
    cross = R.T @ R
    del R, B
    corr = _mirror_tiles(np.empty(n.shape), lambda I, J: _pearson_tile(
        n[I, J], sum_i[I, J], sum_i[J, I].T, sum_sq[I, J], sum_sq[J, I].T,
        cross[I, J]))
    del n, sum_i, sum_sq, cross
    np.fill_diagonal(corr, 0.0)
    return Graph(corr)


def _pearson_tile(n, sum_i, sum_j, sq_i, sq_j, cross) -> np.ndarray:
    """Pearson weights of one tile from its co-rater sums, each given as a
    tile of the same shape (sum_j and sq_j are the mirrored tiles of sum_i
    and sum_sq, transposed); works in double precision and in place.
    Nonfinite ratios and pairs with too few co-raters become 0."""
    n, sum_i, sum_j = (a.astype(float) for a in (n, sum_i, sum_j))
    with np.errstate(divide="ignore", invalid="ignore"):
        cov = sum_i * sum_j
        cov /= n
        corr = np.subtract(cross.astype(float), cov, out=cov)
        var_i = np.square(sum_i, out=sum_i)
        var_i /= n
        np.subtract(sq_i.astype(float), var_i, out=var_i)
        var_j = np.square(sum_j, out=sum_j)
        var_j /= n
        np.subtract(sq_j.astype(float), var_j, out=var_j)
        scale = np.multiply(var_i, var_j, out=var_i)
        np.sqrt(scale, out=scale)
        corr /= scale
    zero = ~np.isfinite(corr)
    zero |= n < MIN_COMMON_RATERS
    np.copyto(corr, 0.0, where=zero)
    np.clip(corr, 0.0, 1.0, out=corr)
    return corr


def build_task(ratings: RatingsMatrix, target_item_id: int = STAR_WARS_ITEM_ID,
               train_fraction: float = 0.9, seed: int = 0,
               knn: int = DEFAULT_KNN) -> TaskSplit:
    """Assemble the rating-prediction task for one target movie.

    Only users who rated the target participate. The split is a seeded
    shuffle; the graph (Pearson correlations, k-NN pruned, symmetrized) is
    estimated from training users only. Every signal has its target entry
    zeroed, with the removed rating as the label. train_fraction must lie
    in (0, 1]; at 1 the test set is empty.
    """
    if not 0 < train_fraction <= 1:
        raise ValueError(
            f"train fraction {train_fraction} is outside (0, 1]")
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
