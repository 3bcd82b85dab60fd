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

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# largest share of nonzero entries of S for which graph_shift shifts a single
# column over the nonzeros of S rather than by the dense product
SPARSE_MAX_DENSITY = 1 / 16

# a GSO must equal its transpose to within this share of max(1, max|S|)
SYMMETRY_RTOL = 1e-12

# side of the square tiles over which the symmetric N x N work (Pearson sums
# and tail, perturbation draws) runs, and the row count of k-NN's selection
# blocks
_TILE = 128

_shared: dict | None = None  # name -> (key, value) in a `shared_scope`


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
        count of the mask S != 0 before any index is built. The index is one
        flat pass over that mask, split by divmod into rows and columns: the
        arrays `np.nonzero(S)` gives, at a fraction of its cost.
        """
        S = self.matrix
        nonzero = S != 0
        if np.count_nonzero(nonzero) > SPARSE_MAX_DENSITY * S.size:
            return None
        flat = np.flatnonzero(nonzero)
        del nonzero
        r, cols = np.divmod(flat, S.shape[1])
        starts = np.flatnonzero(np.diff(r, prepend=-1))
        return r[starts], starts, cols, S[r, cols]

    @cached_property
    def eigensystem(self) -> EigenSystem:
        """Eigendecomposition S = V diag(lam) V^T, computed on first use.

        Sign convention: the largest-magnitude entry of each eigenvector is
        made positive (first such entry among ties), so decompositions are
        deterministic up to degeneracy. Both arrays are read-only. Inside a
        `shared_scope`, an equal matrix decomposed there gives its arrays.
        """
        return shared("eigensystem", _decompose, self.matrix)


def _decompose(S: np.ndarray) -> EigenSystem:
    lam, V = np.linalg.eigh(S)
    flip = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0
    V[:, flip] *= -1.0
    V.setflags(write=False)
    lam.setflags(write=False)
    return EigenSystem(V, lam)


@contextmanager
def shared_scope():
    """A scope for `shared`, the one way work is reused across calls; what
    it kept is dropped on exit, so a command keeps nothing once it returns."""
    global _shared
    outer, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = outer


def shared(name, compute, *inputs):
    """compute(*inputs); in a `shared_scope`, the one value kept under name,
    any hashable, if its inputs had the same shapes and float64 entries (by
    the SHA-256 of the C-ordered buffer), which callers must not write. With
    no inputs, the name alone is the key."""
    if _shared is None:
        return compute(*inputs)
    arrays = [np.ascontiguousarray(x, dtype=float) for x in inputs]
    key = [(x.shape, hashlib.sha256(memoryview(x)).digest()) for x in arrays]
    if _shared.get(name, (None,))[0] != key:
        _shared.pop(name, None)  # drop the old value before computing anew
        _shared[name] = key, compute(*inputs)
    return _shared[name][1]


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


def check_signal(S: GSO, x) -> np.ndarray:
    """x as a float array with one row per node of S, else ValueError."""
    x = np.asarray(x, dtype=float)
    rows = x.shape[0] if x.ndim else 0
    if rows != S.node_count:
        raise ValueError(
            f"signal has {rows} rows but the GSO has {S.node_count} nodes")
    return x


def graph_shift(S: GSO, x: np.ndarray) -> np.ndarray:
    """One application of the shift operator: y_i = sum_j s_ij x_j.

    Works on vectors (N,) and feature matrices (N, F) alike. A single column
    on a sparse S is summed over the nonzeros of S (see the module
    docstring); the result equals S @ x up to rounding.
    """
    x = check_signal(S, x)
    N = S.node_count
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
    any write. `_knn_rows` selects the rows _TILE at a time, each block
    reading only its own rows before it zeroes their dropped weights. Then
    only the kept entries (i, j) and their mirrors (j, i) are symmetrized,
    each set to m = (w_ij + w_ji) * 0.5. A pair kept both ways is set twice,
    the second time (when its rows lie in two blocks) as (m + m) * 0.5,
    which is m exactly. No other N x N array is made: beyond W, one block's
    selection arrays and the N * k kept positions are held.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"weights must be square, got shape {W.shape}")
    N = W.shape[0]
    if not (0 < k < N):
        raise ValueError(f"k must be in (0, {N}), got {k}")
    if not np.isfinite(W).all():
        raise ValueError("weights must be finite")
    # a list, so every block is selected before any entry is mirrored
    for kept in [_knn_rows(W, a, k) for a in range(0, N, _TILE)]:
        i, j = np.divmod(kept, N)
        w = (W[i, j] + W[j, i]) * 0.5
        W[i, j] = w
        W[j, i] = w
    return W


def _knn_rows(W: np.ndarray, a: int, k: int) -> np.ndarray:
    """Zero all but the k weights each of the rows a .. a + _TILE - 1 of W
    keeps (its diagonal included) and return their flat indices in W.

    A row keeps every off-diagonal weight above its k-th largest, then fills
    up to k with the lowest-index weights equal to it. When k or more of its
    weights equal its maximum, that maximum is the k-th largest, as in most
    rows of a Pearson graph, where any two movies with just two co-raters
    correlate exactly 1; only the other rows are partitioned.
    """
    N = W.shape[1]
    rows = W[a:a + _TILE]
    B = rows.shape[0]
    rows[np.arange(B), np.arange(a, a + B)] = -np.inf  # never kept
    at_max = np.flatnonzero(rows == rows.max(axis=1)[:, None])
    counts = np.diff(np.searchsorted(at_max, np.arange(B + 1) * N))
    kept = [_leading(at_max, N, np.where(counts < k, 0, k))]
    # rows with fewer than k weights at their maximum, which is then above
    # their k-th largest
    short = np.flatnonzero(counts < k)
    if short.size:
        part = rows[short]
        part.partition(N - k, axis=1)
        kth = part[:, N - k, None].copy()
        del part
        sub = rows[short]
        above = np.flatnonzero(sub > kth)
        need = k - np.bincount(above // N, minlength=short.size)
        r, c = np.divmod(np.concatenate(
            (above, _leading(np.flatnonzero(sub == kth), N, need))), N)
        kept.append(short[r] * N + c)
    kept = np.concatenate(kept)
    w = rows.flat[kept]
    rows[...] = 0.0
    rows.flat[kept] = w
    return kept + a * N


def _leading(flat: np.ndarray, N: int, need: np.ndarray) -> np.ndarray:
    """The first need[r] entries of each row r in `flat`, the ascending flat
    indices of a mask with len(need) rows of N columns: for each row, its
    lowest-column entries."""
    first = np.searchsorted(flat, np.arange(need.size) * N)
    pick = np.repeat(first - (np.cumsum(need) - need), need)
    pick += np.arange(pick.size)
    return flat[pick]


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
