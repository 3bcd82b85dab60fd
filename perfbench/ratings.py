"""Seeded generator of MovieLens-100k-shaped ratings in `u.data` format.

The shape matches ml-100k: 943 users, 1682 movies, exactly 100,000 distinct
(user, movie) ratings on the 1..5 scale, every user with at least 20 ratings
and every movie with at least one. The target movie (item 50, Star Wars in
the real file) gets a fixed number of raters, so the training-set size of a
workload does not change with the seed.

Ratings follow a low-rank preference model (global mean + user bias + movie
bias + a rank-8 user-movie interaction + noise), rounded and clipped to 1..5,
so Pearson correlations between movies carry signal. Who rates what is drawn
without replacement with weights proportional to user activity times movie
popularity (both heavy-tailed), using one exponential key per cell
(Efraimidis-Spirakis), so the whole draw is vectorized.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

USERS = 943
MOVIES = 1682
RATINGS = 100_000
TARGET_ITEM = 50
TARGET_RATERS = 650
MIN_PER_USER = 20
RANK = 8


@dataclass(frozen=True)
class RatingsFile:
    path: Path
    sha256: str
    users: int
    movies: int
    ratings: int
    target_raters: int


def synthetic_ratings(seed: int, users: int = USERS, movies: int = MOVIES,
                      ratings: int = RATINGS, target_item: int = TARGET_ITEM,
                      target_raters: int = TARGET_RATERS):
    """Return (user_ids, item_ids, ratings, timestamps) as int arrays.

    Ids are 1-based as in u.data. Raises ValueError when the requested shape
    cannot be met (too few cells for the per-user minimum, and so on).
    """
    if not 1 <= target_item <= movies:
        raise ValueError(f"target item {target_item} outside 1..{movies}")
    if not 10 <= target_raters <= users:
        raise ValueError(f"target raters {target_raters} outside 10..{users}")
    forced_max = movies + users * MIN_PER_USER + target_raters
    if not forced_max <= ratings <= users * (movies - 1) + target_raters:
        raise ValueError(f"{ratings} ratings cannot fit {users}x{movies}")
    rng = np.random.default_rng(seed)
    t = target_item - 1

    activity = rng.lognormal(0.0, 0.9, users)
    popularity = rng.pareto(1.2, movies) + 0.05
    weights = activity[:, None] * popularity[None, :]
    keys = rng.exponential(1.0, (users, movies)) / weights
    keys[:, t] = np.inf

    # forced cells: each movie's best key, each user's MIN_PER_USER best keys,
    # and the target movie's raters, chosen by activity
    forced = np.zeros((users, movies), dtype=bool)
    others = np.delete(np.arange(movies), t)
    forced[np.argmin(keys[:, others], axis=0), others] = True
    per_user = np.argpartition(keys, MIN_PER_USER - 1, axis=1)
    forced[np.arange(users)[:, None], per_user[:, :MIN_PER_USER]] = True
    target_keys = rng.exponential(1.0, users) / activity
    raters = np.argpartition(target_keys, target_raters - 1)[:target_raters]
    forced[raters, t] = True
    keys[forced] = -np.inf

    flat = np.argpartition(keys.ravel(), ratings - 1)[:ratings]
    flat.sort()
    u, m = np.divmod(flat, movies)

    user_bias = rng.normal(0.0, 0.45, users)
    movie_bias = rng.normal(0.0, 0.5, movies)
    P = rng.normal(0.0, 0.45, (users, RANK))
    Q = rng.normal(0.0, 0.45, (movies, RANK))
    score = (3.53 + user_bias[u] + movie_bias[m]
             + np.einsum("ir,ir->i", P[u], Q[m])
             + rng.normal(0.0, 0.6, ratings))
    stars = np.clip(np.rint(score), 1, 5).astype(np.int64)
    stamps = rng.integers(874_724_710, 893_286_638, ratings)
    return u + 1, m + 1, stars, stamps


def write_ratings(path, seed: int, **shape) -> RatingsFile:
    """Write a synthetic u.data file and return its description."""
    u, m, stars, stamps = synthetic_ratings(seed, **shape)
    order = np.random.default_rng([seed, 1]).permutation(u.size)
    table = np.stack([u, m, stars, stamps], axis=1)[order]
    text = "\n".join("\t".join(map(str, row)) for row in table.tolist()) + "\n"
    data = text.encode()
    path = Path(path)
    path.write_bytes(data)
    target = shape.get("target_item", TARGET_ITEM)
    return RatingsFile(
        path=path,
        sha256=hashlib.sha256(data).hexdigest(),
        users=int(np.unique(u).size),
        movies=int(np.unique(m).size),
        ratings=int(u.size),
        target_raters=int(np.count_nonzero(m == target)),
    )


def main(argv=None) -> int:
    """Write the paper-shaped file; print its description as one JSON line.

    Exits with 1 when the file does not have the paper's shape.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="u.data path to write")
    args = parser.parse_args(argv)
    info = write_ratings(args.out, args.seed)
    print(json.dumps(dataclasses.asdict(info), default=str))
    shape = (info.users, info.movies, info.ratings, info.target_raters)
    if shape != (USERS, MOVIES, RATINGS, TARGET_RATERS):
        print(f"wrong shape {shape}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
