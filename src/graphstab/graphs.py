"""Graph shift operators, their eigensystems and the graph shift operation.

A graph is its dense N x N weight matrix (at most ~1600 nodes here); a
graph shift operator (GSO), built from one by `build_gso`, is any symmetric
matrix respecting the graph's sparsity. `GSO` checks it and decomposes it
(once, on first use). Shifting multiplies a signal by it.

The shift takes one of two paths, chosen in `graph_shift` alone: a single
column (x of shape (N,) or (N, 1)) is shifted over the nonzeros of S when at
most SPARSE_MAX_DENSITY of its entries are nonzero, as in the k-NN movie
graph (about 1%); every other shift is the dense product S @ x. For many
columns the dense product wins, since a GEMM reuses each entry of S it reads.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# largest share of nonzero entries of S for which graph_shift shifts a single
# column over the nonzeros of S rather than by the dense product
SPARSE_MAX_DENSITY = 1 / 16

# a GSO must equal its transpose to within this share of max(1, max|S|)
SYMMETRY_RTOL = 1e-12

# side of the square tiles over which the symmetric N x N work (Pearson sums
# and tail, k-NN selection and symmetrization, perturbation draws) runs
_TILE = 128


class DegenerateGraphError(ValueError):
    """Raised when a graph cannot support the requested operation
    (e.g. a zero-degree node when building a Markov shift operator)."""


@dataclass(frozen=True)
class EigenSystem:
    """Orthonormal eigenvectors (columns) and ascending eigenvalues."""

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class GSO:
    """Graph shift operator: symmetric matrix respecting a graph's sparsity.

    The matrix must be finite and symmetric to within SYMMETRY_RTOL of
    max(1, max|S|); an inexactly symmetric one is averaged with its
    transpose, so the stored matrix is exactly symmetric. The stored matrix
    is read-only, so views derived from it cannot go stale: a read-only
    float64 ndarray that owns its memory is kept as it is (a builder that
    makes an array only for the GSO hands it over so, and must not make it
    writable again), and anything else is copied.
    """

    matrix: np.ndarray

    def __post_init__(self):
        S = self.matrix
        if not (type(S) is np.ndarray and S.dtype == np.float64
                and S.flags.owndata and not S.flags.writeable):
            S = np.array(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError(f"GSO must be square, got shape {S.shape}")
        if S.shape[0] < 1:
            raise ValueError("GSO needs at least one node")
        if not np.isfinite(S).all():
            raise ValueError("GSO entries must be finite")
        S = symmetrized(S)
        S.setflags(write=False)
        object.__setattr__(self, "matrix", S)

    @property
    def node_count(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def nonzero_rows(self):
        """Compressed rows of S, or None when S is too dense to shift over.

        Returns (rows, starts, cols, vals): the nonzeros of S in row-major
        order as column indices `cols` and values `vals`, the rows that hold
        any, and where each such row starts in `cols`. None when more than
        SPARSE_MAX_DENSITY of the entries are nonzero; that is decided by a
        count before any index is built.
        """
        S = self.matrix
        if np.count_nonzero(S) > SPARSE_MAX_DENSITY * S.size:
            return None
        r, cols = np.nonzero(S)
        starts = np.flatnonzero(np.diff(r, prepend=-1))
        return r[starts], starts, cols, S[r, cols]

    @cached_property
    def eigensystem(self) -> EigenSystem:
        """Eigendecomposition S = V diag(lam) V^T, computed on first use.

        Sign convention: the largest-magnitude entry of each eigenvector is
        made positive (first such entry among ties), so decompositions are
        deterministic up to degeneracy. Both arrays are read-only.
        """
        lam, V = np.linalg.eigh(self.matrix)
        flip = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0
        V[:, flip] *= -1.0
        V.setflags(write=False)
        lam.setflags(write=False)
        return EigenSystem(V, lam)


def symmetrized(A: np.ndarray) -> np.ndarray:
    """The square matrix A itself when it equals its transpose exactly, else
    (A + A^T) / 2 when max |A - A^T| is at most SYMMETRY_RTOL * max(1,
    max |A|): the symmetry rule of a GSO.

    Raises ValueError naming max |A - A^T| for any other matrix, a matrix
    with a NaN entry included.
    """
    if np.array_equal(A, A.T):
        return A
    asym = np.abs(A - A.T).max()
    if not asym <= SYMMETRY_RTOL * max(1.0, np.abs(A).max()):
        raise ValueError("matrix must be symmetric, got "
                         f"max |S - S^T| = {asym:g}")
    return (A + A.T) / 2.0


def build_gso(W: np.ndarray, kind: str = "adjacency") -> GSO:
    """Build a shift operator from weight matrix W: adjacency, Laplacian or
    Markov. W[i, j] is the weight of edge (j, i), 0 for none. W must pass
    GSO's checks (square, nonempty, finite, symmetric) and be nonnegative
    with a zero diagonal; Markov needs positive degrees. Adjacency returns
    GSO(W), which keeps a read-only float64 W without a copy; the Markov
    operator D^-1 W is averaged with its transpose.
    """
    adjacency = GSO(W)
    W = adjacency.matrix
    if np.any(W < 0):
        raise ValueError("edge weights must be nonnegative")
    if np.any(np.diag(W) != 0):
        raise ValueError("diagonal (self-loops) must be zero")
    if kind == "adjacency":
        return adjacency
    if kind == "laplacian":
        return GSO(np.diag(W.sum(axis=1)) - W)
    if kind != "markov":
        raise ValueError(f"unknown GSO kind {kind!r}")
    d = W.sum(axis=1)
    if np.any(d <= 0):
        raise DegenerateGraphError(
            f"markov GSO undefined: node {int(np.argmin(d))} has zero degree")
    S = W / d[:, None]
    return GSO((S + S.T) / 2.0)


def graph_shift(S: GSO, x: np.ndarray) -> np.ndarray:
    """One application of the shift operator: y_i = sum_j s_ij x_j.

    Works on vectors (N,) and feature matrices (N, F) alike. A single column
    on a sparse S is summed over the nonzeros of S (see the module
    docstring); the result equals S @ x up to rounding.
    """
    x = np.asarray(x, dtype=float)
    N = S.node_count
    if x.shape[0] != N:
        raise ValueError(
            f"signal has {x.shape[0]} rows but the GSO has {N} nodes"
        )
    csr = S.nonzero_rows if x.size == N else None
    if csr is not None:
        rows, starts, cols, vals = csr
        y = np.zeros(N)
        if vals.size:
            y[rows] = np.add.reduceat(vals * x.ravel()[cols], starts)
        return y.reshape(x.shape)
    return S.matrix @ x


def _mirror_tiles(out: np.ndarray, tile_of) -> np.ndarray:
    """Fill the N x N array `out` with a symmetric result, one pair of
    _TILE-sided tiles (I, J >= I) at a time, and return it.

    The new array tile_of(I, J) is written to out[I, J] and, transposed, to
    out[J, I]; so each pair of mirrored elements is computed once. tile_of
    may read out[I, J] and out[J, I], which are written after it returns.
    The last block of rows and columns may be shorter than _TILE.
    """
    N = out.shape[0]
    blocks = [slice(a, min(a + _TILE, N)) for a in range(0, N, _TILE)]
    for b, I in enumerate(blocks):
        for J in blocks[b:]:
            tile = tile_of(I, J)
            out[I, J] = tile
            out[J, I] = tile.T
    return out


def knn_sparsify(W: np.ndarray, k: int) -> np.ndarray:
    """Keep each row's k largest off-diagonal weights, then symmetrize.

    Symmetrization keeps the average edge weight over the two directions,
    treating a dropped direction as 0. Ties on equal weights are broken by
    lower column index for determinism.

    The result is written into W and W is returned, when W is a float64
    array (anything else is converted first); bad input is rejected before
    any write. The rows are selected _TILE rows at a time, each block
    reading only its own rows before it zeroes their dropped weights, and
    the kept weights are symmetrized in place by `_mirror_tiles` as
    (k_ij + k_ji) * 0.5, so no other N x N array is made.
    """
    W = np.asarray(W, dtype=float)
    N = W.shape[0]
    if not (0 < k < N):
        raise ValueError(f"k must be in (0, {N}), got {k}")
    if not np.isfinite(W).all():
        raise ValueError("weights must be finite")
    for a in range(0, N, _TILE):
        # each row keeps every off-diagonal weight above its k-th largest,
        # then fills up to k with the lowest-index weights equal to it
        rows = W[a:a + _TILE]
        diag = (np.arange(rows.shape[0]), np.arange(a, a + rows.shape[0]))
        part = rows.copy()
        part[diag] = -np.inf
        part.partition(N - k, axis=1)
        kth = part[:, N - k, None].copy()
        del part
        above = rows > kth
        tie = rows == kth
        above[diag] = False
        tie[diag] = False
        need = k - np.count_nonzero(above, axis=1)[:, None]
        keep = above | (tie & (np.cumsum(tie, axis=1, dtype=np.int32) <= need))
        np.copyto(rows, 0.0, where=~keep)
    return _mirror_tiles(W, lambda I, J: (W[I, J] + W[J, I].T) * 0.5)


def validate_permutation(perm: np.ndarray, n: int) -> np.ndarray:
    perm = np.asarray(perm)
    if perm.shape != (n,) or not np.issubdtype(perm.dtype, np.integer):
        raise ValueError(f"permutation must be {n} integer indices")
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("permutation must be a bijection of 0..N-1")
    return perm


def relabel(M: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Relabeled square matrix P^T M P, where P x = x[perm], gathered as
    M[inv][:, inv] with inv = argsort(perm)."""
    M = np.asarray(M, dtype=float)
    inv = np.argsort(validate_permutation(perm, M.shape[0]))
    return M[np.ix_(inv, inv)]


def permute_gso(S: GSO, perm: np.ndarray) -> GSO:
    """Relabeled shift operator P^T S P."""
    return GSO(relabel(S.matrix, perm))


def permute_signal(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Relabeled signal P^T x, gathered as x[argsort(perm)]."""
    x = np.asarray(x, dtype=float)
    return x[np.argsort(validate_permutation(perm, x.shape[0]))]


def random_weighted_graph(n: int, seed: int | None = None,
                          p: float = 0.5) -> np.ndarray:
    """Weights of an Erdos-Renyi-style random graph, connected by construction
    (a random spanning path is always included), uniform in [0.1, 1)."""
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        W[a, b] = W[b, a] = rng.uniform(0.1, 1.0)
    mask = rng.random((n, n)) < p
    weights = rng.uniform(0.1, 1.0, (n, n))
    add = np.triu(mask & (W == 0), 1)
    W[add] = weights[add]
    W.T[add] = weights[add]
    return W
