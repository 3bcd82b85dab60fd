"""Graph and graph-signal representations and the graph shift operation.

Graphs are stored as dense N x N weight matrices (the largest graph we care
about has ~1600 nodes, so dense double precision is simplest and fast enough).
A graph shift operator (GSO) is any symmetric matrix respecting the graph's
sparsity; shifting a signal means multiplying by it.
"""

from dataclasses import dataclass

import numpy as np

GSO_KINDS = ("adjacency", "laplacian", "markov")


class DegenerateGraphError(ValueError):
    """Raised when a graph cannot support the requested operation
    (e.g. a zero-degree node when building a Markov shift operator)."""


@dataclass(frozen=True)
class Graph:
    """Weighted undirected-or-directed graph given by its weight matrix.

    weights[i, j] is the weight of edge (j, i); 0 encodes absence.
    The diagonal must be zero and all weights finite and nonnegative.
    """

    weights: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {W.shape}")
        if W.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if not np.isfinite(W).all():
            raise ValueError("edge weights must be finite")
        if np.any(W < 0):
            raise ValueError("edge weights must be nonnegative")
        if np.any(np.diag(W) != 0):
            raise ValueError("diagonal (self-loops) must be zero")
        object.__setattr__(self, "weights", W)

    @property
    def node_count(self) -> int:
        return self.weights.shape[0]

    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)


@dataclass(frozen=True)
class GSO:
    """Graph shift operator: symmetric matrix respecting a graph's sparsity."""

    matrix: np.ndarray
    kind: str = "adjacency"

    def __post_init__(self):
        S = np.asarray(self.matrix, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError(f"GSO must be square, got shape {S.shape}")
        if self.kind not in GSO_KINDS:
            raise ValueError(f"unknown GSO kind {self.kind!r}")
        # Force exact symmetry so spectral code can rely on real
        # eigendecompositions.
        S = (S + S.T) / 2.0
        object.__setattr__(self, "matrix", S)

    @property
    def node_count(self) -> int:
        return self.matrix.shape[0]


def build_gso(graph: Graph, kind: str = "adjacency") -> GSO:
    """Build a shift operator from a graph: adjacency, Laplacian or Markov.

    The Markov operator D^-1 W is not symmetric in general; it is symmetrized
    by averaging with its transpose.
    """
    W = graph.weights
    if kind == "adjacency":
        S = W
    elif kind == "laplacian":
        S = np.diag(graph.degrees()) - W
    elif kind == "markov":
        d = graph.degrees()
        if np.any(d <= 0):
            bad = int(np.argmin(d))
            raise DegenerateGraphError(
                f"markov GSO undefined: node {bad} has zero degree"
            )
        S = W / d[:, None]
    else:
        raise ValueError(f"unknown GSO kind {kind!r}")
    return GSO(S, kind)


def graph_shift(S: GSO, x: np.ndarray) -> np.ndarray:
    """One application of the shift operator: y_i = sum_j s_ij x_j.

    Works on vectors (N,) and feature matrices (N, F) alike.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != S.node_count:
        raise ValueError(
            f"signal has {x.shape[0]} rows but the GSO has {S.node_count} nodes"
        )
    return S.matrix @ x


def hop_distances(S: GSO, source: int, max_hops: int) -> np.ndarray:
    """Hops from `source` to every node along the nonzeros of S.

    Nodes farther than max_hops (or unreachable) get max_hops + 1. Since S
    is symmetric, S[i, j] != 0 implies the distances of i and j differ by at
    most one.
    """
    if not 0 <= source < S.node_count:
        raise ValueError(f"node {source} is not one of the {S.node_count} "
                         "nodes")
    adjacent = S.matrix != 0
    dist = np.full(S.node_count, max_hops + 1)
    dist[source] = 0
    reached = dist == 0
    frontier = reached
    for hop in range(1, max_hops + 1):
        frontier = adjacent[frontier].any(axis=0) & ~reached
        if not frontier.any():
            break
        dist[frontier] = hop
        reached = reached | frontier
    return dist


def knn_sparsify(W: np.ndarray, k: int) -> np.ndarray:
    """Keep each row's k largest off-diagonal weights, then symmetrize.

    Symmetrization keeps the average edge weight over the two directions,
    treating a dropped direction as 0. Ties on equal weights are broken by
    lower column index for determinism.
    """
    W = np.asarray(W, dtype=float)
    N = W.shape[0]
    if not (0 < k < N):
        raise ValueError(f"k must be in (0, {N}), got {k}")
    masked = W.copy()
    np.fill_diagonal(masked, -np.inf)
    kept = np.zeros_like(W)
    for i in range(N):
        # stable sort on descending weight keeps the lower index among ties
        order = np.argsort(-masked[i], kind="stable")[:k]
        kept[i, order] = W[i, order]
    return (kept + kept.T) / 2.0


def validate_permutation(perm: np.ndarray, n: int) -> np.ndarray:
    perm = np.asarray(perm)
    if perm.shape != (n,) or not np.issubdtype(perm.dtype, np.integer):
        raise ValueError(f"permutation must be {n} integer indices")
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("permutation must be a bijection of 0..N-1")
    return perm


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """0/1 matrix P with P x = x[perm]."""
    n = len(perm)
    perm = validate_permutation(perm, n)
    return np.eye(n)[perm]


def permute_gso(S: GSO, perm: np.ndarray) -> GSO:
    """Relabeled shift operator P^T S P."""
    P = permutation_matrix(validate_permutation(perm, S.node_count))
    return GSO(P.T @ S.matrix @ P, S.kind)


def permute_signal(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Relabeled signal P^T x."""
    x = np.asarray(x, dtype=float)
    P = permutation_matrix(validate_permutation(perm, x.shape[0]))
    return P.T @ x


def random_weighted_graph(n: int, seed: int | None = None,
                          p: float = 0.5) -> Graph:
    """Erdos-Renyi-style random weighted graph, connected by construction
    (a random spanning path is always included). Weights uniform in (0, 1]."""
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        W[a, b] = W[b, a] = rng.uniform(0.1, 1.0)
    mask = rng.random((n, n)) < p
    weights = rng.uniform(0.1, 1.0, (n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if mask[i, j] and W[i, j] == 0:
                W[i, j] = W[j, i] = weights[i, j]
    return Graph(W)
