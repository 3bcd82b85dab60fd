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

from .graphs import GSO, _TILE, _mirror_tiles, build_gso, knn_sparsify

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
        # one full-size temporary at most: the ratings may be large
        if not (((M >= 0) & (M <= MAX_RATING)).all()
                and (M == np.rint(M)).all()):
            raise ValueError("ratings must be integers in "
                             f"0..{MAX_RATING} (0 = unrated)")
        object.__setattr__(self, "matrix", M)

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
    read again line by line to name the first bad line. A file without
    ratings raises ValueError.
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
    if not data.size:
        raise ValueError(f"{path}: no ratings")
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


def pearson_graph(ratings: RatingsMatrix, user_subset) -> np.ndarray:
    """Movie graph weight matrix: pairwise Pearson correlation over co-raters.

    Pairs with fewer than MIN_COMMON_RATERS co-raters or zero variance get
    weight 0; negative correlations are clipped to 0. All sums are restricted
    per pair to the users that rated both movies (no global mean-centering).

    The sums are sums of integer ratings. While U * MAX_RATING**2 stays below
    2**24 they are computed exactly in single precision (in any order); each
    tile is widened to double precision on its own, so the result has the
    bits of a double-precision computation. The work runs one tile pair
    (I, J >= I) at a time in `graphs._mirror_tiles`, from the (3 * _TILE, U)
    stack [B; R; R*R] of each tile's movies (B marks a rating): the six
    co-rater sums of tile [I, J] come from three products of row blocks of
    the stacks of I and J, its weights are computed from them, and the tile
    is written to [I, J] and, transposed, to [J, I]. So the output is the
    only N x N array made. The mirror is exact, since corr[j, i] is the same
    operations on commuted operands, so the result is exactly symmetric.
    """
    user_subset = np.asarray(list(user_subset), dtype=int)
    if user_subset.size == 0:
        raise ValueError("user subset is empty")
    exact32 = user_subset.size * MAX_RATING ** 2 < _FLOAT32_EXACT
    R = ratings.matrix[user_subset].T.astype(
        np.float32 if exact32 else float, order="C")   # (M, U)
    N = R.shape[0]
    stacks = [np.concatenate([(part > 0).astype(R.dtype), part, part * part])
              for part in (R[a:a + _TILE] for a in range(0, N, _TILE))]
    del R

    def tile(I, J):
        X, Y = stacks[I.start // _TILE], stacks[J.start // _TILE]
        t, u = I.stop - I.start, J.stop - J.start
        # over the co-raters of each pair: counts and the sums of movie-i
        # ratings and of their squares (rows of `own`), the same sums for
        # movie j (columns of `other`), and the cross products
        own = X @ Y[:u].T
        other = X[:t] @ Y[u:].T
        return _pearson_tile(own[:t], own[t:2 * t], other[:, :u],
                             own[2 * t:], other[:, u:],
                             X[t:2 * t] @ Y[u:2 * u].T)

    corr = _mirror_tiles(np.empty((N, N)), tile)
    np.fill_diagonal(corr, 0.0)
    return corr


def _pearson_tile(n, sum_i, sum_j, sq_i, sq_j, cross) -> np.ndarray:
    """Pearson weights of one tile from its co-rater sums, each given as a
    tile of the same shape: the sums over co-raters of the ratings of movie
    i (of its squares) and of movie j (of its squares), and of their
    products; works in double precision (a single-precision operand meets
    a double-precision one in each operation, which widens it exactly).
    Nonfinite ratios and pairs with too few co-raters become 0."""
    n, sum_i, sum_j = (a.astype(float) for a in (n, sum_i, sum_j))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = ((cross - sum_i * sum_j / n)
                / np.sqrt((sq_i - sum_i ** 2 / n) * (sq_j - sum_j ** 2 / n)))
    corr[~np.isfinite(corr) | (n < MIN_COMMON_RATERS)] = 0.0
    return np.clip(corr, 0.0, 1.0)


def check_train_fraction(train_fraction: float) -> None:
    """Raise ValueError unless train_fraction lies in (0, 1]."""
    if not 0 < train_fraction <= 1:
        raise ValueError(
            f"train fraction {train_fraction} is outside (0, 1]")


def build_task(ratings: RatingsMatrix, target_item_id: int = STAR_WARS_ITEM_ID,
               train_fraction: float = 0.9, seed: int = 0) -> TaskSplit:
    """Assemble the rating-prediction task for one target movie.

    Only users who rated the target participate. The split is a seeded
    shuffle; the graph (Pearson correlations, k-NN pruned, symmetrized) is
    estimated from training users only. Every signal has its target entry
    zeroed, with the removed rating as the label. train_fraction must lie
    in (0, 1]; at 1 the test set is empty. Raises ValueError when the
    training users give a graph without edges.
    """
    check_train_fraction(train_fraction)
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
    W = (knn_sparsify(pearson_graph(ratings, train_users), DEFAULT_KNN)
         if n_train else np.zeros(0))
    if not W.any():
        raise ValueError(
            f"movie id {target_item_id} at train fraction {train_fraction} "
            f"has a training graph without edges ({n_train} training users)")
    W.setflags(write=False)  # so the GSO keeps W rather than a copy
    gso = build_gso(W, "adjacency")

    def make_samples(users):
        samples = []
        for u in users:
            x = ratings.matrix[u].astype(float)
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
