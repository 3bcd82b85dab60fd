"""Graph convolutions, shift stacks and filter distances.

A graph convolution y = sum_k h_k S^k x is evaluated by repeated shifting
(never by forming matrix powers), matching the distributed K-1-exchange
semantics of the operation.
"""

import itertools

import numpy as np

from .graphs import GSO, graph_shift, permutation_matrix

BRUTE_FORCE_MAX_NODES = 8


def graph_convolution(S: GSO, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the polynomial filter with taps h to signal x."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size < 1:
        raise ValueError("filter taps must be a nonempty 1-D array")
    x = np.asarray(x, dtype=float)
    z = x
    y = h[0] * x
    for hk in h[1:]:
        z = graph_shift(S, z)
        y = y + hk * z
    return y


def shift_stack(S: GSO, x: np.ndarray, K: int) -> np.ndarray:
    """Stack [x, Sx, ..., S^(K-1) x] along a leading axis."""
    x = np.asarray(x, dtype=float)
    out = np.empty((K,) + x.shape)
    out[0] = x
    for k in range(1, K):
        out[k] = graph_shift(S, out[k - 1])
    return out


def filter_matrix(S: GSO, h: np.ndarray) -> np.ndarray:
    """Dense matrix H(S) = sum_k h_k S^k (for analysis, not filtering)."""
    h = np.asarray(h, dtype=float)
    M = S.matrix
    out = h[-1] * np.eye(M.shape[0])
    for hk in h[-2::-1]:
        out = out @ M + hk * np.eye(M.shape[0])
    return out


def spectral_norm(A: np.ndarray) -> float:
    """Operator 2-norm; max |eigenvalue| for symmetric matrices."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    if np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
        return float(np.max(np.abs(np.linalg.eigvalsh((A + A.T) / 2.0))))
    return float(np.linalg.norm(A, 2))


def filter_distance(S: GSO, S_hat: GSO, h: np.ndarray,
                    mode: str = "identity") -> float:
    """Operator-norm distance between H(S) and H(S_hat), modulo permutations.

    identity mode returns ||H(S) - H(S_hat)|| (the trivial-permutation member,
    an upper bound on the permutation-minimized distance). brute_force mode
    minimizes ||H(S) - H(P^T S_hat P)|| over all permutations and is limited
    to N <= 8 nodes.
    """
    if S.node_count != S_hat.node_count:
        raise ValueError("GSOs have different sizes")
    H = filter_matrix(S, h)
    H_hat = filter_matrix(S_hat, h)
    if mode == "identity":
        return spectral_norm(H - H_hat)
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")

    def relabeled_distance(perm):
        P = permutation_matrix(perm)
        # H built on the relabeled GSO is the relabeled filter matrix
        return spectral_norm(H - P.T @ H_hat @ P)

    return _brute_force_min(S.node_count, relabeled_distance)


def _brute_force_min(N: int, distance) -> float:
    """Smallest distance(perm) over every permutation perm of N nodes,
    given as an index array; limited to N <= BRUTE_FORCE_MAX_NODES."""
    if N > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"brute_force permutation search limited to N <= "
            f"{BRUTE_FORCE_MAX_NODES}, got N = {N}"
        )
    return float(min(distance(np.array(perm))
                     for perm in itertools.permutations(range(N))))
