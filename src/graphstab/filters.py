"""Graph convolutions, filter banks and filter distances.

Every polynomial in S applied to a signal is one shift stack [x, Sx, ...,
S^(K-1) x], built by repeated shifting (never by forming matrix powers,
matching the distributed K-1-exchange semantics of the operation), and one
contraction with the taps: a tap vector for a graph convolution, an
(F_in, F_out, K) array for a filter bank. Since S is symmetric, a bank's
adjoint is the same contraction with the taps' feature axes transposed.
"""

import itertools

import numpy as np

from .graphs import GSO, check_signal, graph_shift, relabel, symmetrized
from .spectral import (LANCZOS_MIN_SIZE, bank_response, eigendecompose,
                       extreme_eigenvalues)

BRUTE_FORCE_MAX_NODES = 8


def _tap_vector(h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size < 1:
        raise ValueError("filter taps must be a nonempty 1-D array")
    return h


def graph_convolution(S: GSO, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the polynomial filter with taps h to signal x."""
    h = _tap_vector(h)
    return np.einsum("k,k...->...", h, shift_stack(S, x, h.size))


def shift_stack(S: GSO, x: np.ndarray, K: int) -> np.ndarray:
    """Stack [x, Sx, ..., S^(K-1) x] along a leading axis. x must have one
    row per node of S, even when K = 1 and it is never shifted."""
    x = check_signal(S, x)
    out = np.empty((K,) + x.shape)
    out[0] = x
    for k in range(1, K):
        out[k] = graph_shift(S, out[k - 1])
    return out


def bank_apply(shifts: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Apply an (F_in, F_out, K) filter bank to the (K, N, F_in) shift stack
    of its input: sum_k S^k X taps[:, :, k], of shape (N, F_out).

    Given the shift stack of an (N, F_out) gradient and the view
    taps.transpose(1, 0, 2), this is the bank's adjoint.
    """
    return np.einsum("knf,fgk->ng", shifts, taps)


def filter_matrix(S: GSO, h: np.ndarray) -> np.ndarray:
    """Dense matrix H(S) = sum_k h_k S^k (for analysis, not filtering),
    built in the eigenbasis of S as V diag(h(lambda)) V^T."""
    eig = eigendecompose(S)
    V = eig.eigenvectors
    return (V * bank_response(_tap_vector(h), eig.eigenvalues)) @ V.T


def spectral_norm(A: np.ndarray) -> float:
    """Operator 2-norm of a symmetric matrix: its largest |eigenvalue|.

    A must be a nonempty square matrix that `graphs.symmetrized` accepts
    (else ValueError), and is taken as that returns it. The eigenvalues come
    from eigvalsh below LANCZOS_MIN_SIZE rows, from `extreme_eigenvalues`
    above, which checks the symmetry itself."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"need a nonempty square matrix, got shape {A.shape}")
    if A.shape[0] < LANCZOS_MIN_SIZE:
        return float(np.max(np.abs(np.linalg.eigvalsh(symmetrized(A)))))
    lam_min, lam_max = extreme_eigenvalues(A)
    return max(-lam_min, lam_max)


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
        # H built on the relabeled GSO is the relabeled filter matrix
        return spectral_norm(H - relabel(H_hat, perm))

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
