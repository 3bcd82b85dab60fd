"""Relative perturbation models for graph shift operators.

A perturbed operator S_hat is related to S through a symmetric error matrix E
and a permutation P via the membership identity

    P^T S_hat P = S + (E S + S E) + residual,

and the relative distance d(S, S_hat) is the smallest ||E|| over admissible
(E, P) pairs. Recovery of E from a given pair is a Lyapunov-type equation
solved spectrally.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .filters import _brute_force_min, spectral_norm
from .graphs import GSO, _mirror_tiles, graph_shift, relabel, shared
from .spectral import eigendecompose

MEMBERSHIP_TOL = 1e-8


class SingularEquationError(ValueError):
    """The Lyapunov-type equation E S + S E = Delta is singular because some
    eigenvalue pair of S sums to (numerical) zero."""


@dataclass(frozen=True)
class PerturbationSpec:
    """A perturbation S_hat = S + E S + S E of the GSO S (`original`) by the
    symmetric relative error matrix E (`error`). `shift` applies S_hat
    without forming it; `perturbed` forms it as a GSO once, on first read.
    """

    original: GSO
    error: np.ndarray

    @cached_property
    def perturbed(self) -> GSO:
        """S_hat = M + (P + P^T) with P = E M, formed in the buffer of P by
        `graphs._mirror_tiles`, which copies each mirrored element (the same
        sum of commuted operands), so S_hat is exactly symmetric. Its GSO
        keeps it read-only, without a copy. At E = 0, S_hat has the bits of S.
        """
        M = self.original.matrix
        P = self.error @ M  # E and M are symmetric, so M E = P^T
        _mirror_tiles(P, lambda I, J: M[I, J] + (P[I, J] + P[J, I].T))
        P.setflags(write=False)
        return GSO(P)

    def shift(self, x: np.ndarray) -> np.ndarray:
        """S_hat x for a vector (N,) or a block (N, F), as
        S x + (E (S x) + S (E x)), without forming S_hat.

        The result equals `perturbed.matrix @ x` up to rounding; at E = 0
        it is `graph_shift(S, x)`, bit for bit.
        """
        S, E = self.original, self.error
        Sx = graph_shift(S, x)
        return Sx + (E @ Sx + graph_shift(S, E @ x))


def edge_dilation(S: GSO, epsilon: float) -> PerturbationSpec:
    """Scale every edge by (1 + epsilon): S_hat = (1 + epsilon) S.

    The error matrix is (epsilon/2) I, which commutes with S, so the
    eigenvectors are unchanged and the eigenvalues scale by (1 + epsilon).
    S_hat is formed like any other perturbation's, so it equals
    (1 + epsilon) S to rounding.
    """
    if not -1 < epsilon < np.inf:
        raise ValueError("edge dilation requires epsilon > -1 and finite, "
                         f"got {epsilon}")
    return PerturbationSpec(S, (epsilon / 2.0) * np.eye(S.node_count))


def random_relative_perturbation(S: GSO, epsilon: float,
                                 seed: int | None = None) -> PerturbationSpec:
    """Draw a random symmetric E with ||E|| uniform in [eps/2, eps] for
    S_hat = S + E S + S E. By construction d(S, S_hat) <= epsilon.

    Only E is made here: E = (A + A^T) / 2 is formed in the buffer of the
    Gaussian draw A by `graphs._mirror_tiles`, so it is exactly symmetric.
    S_hat is formed when the spec's `perturbed` is first read. At
    epsilon = 0, E is scaled to zero.

    An integer seed fixes the unscaled E, so in a `graphs.shared_scope` its
    norm is taken once for every epsilon and every S of N nodes.
    """
    if not 0 <= epsilon < np.inf:
        raise ValueError(
            f"epsilon must be nonnegative and finite, got {epsilon}")
    N = S.node_count
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((N, N))
    _mirror_tiles(E, lambda I, J: (E[I, J] + E[J, I].T) / 2.0)
    if isinstance(seed, int):
        norm = shared(("norm of draw", N, seed), lambda: spectral_norm(E))
    else:
        norm = spectral_norm(E)
    E *= rng.uniform(epsilon / 2.0, epsilon) / norm
    return PerturbationSpec(S, E)


def solve_relative_error(S: GSO, S_hat: GSO,
                         perm: np.ndarray | None = None) -> np.ndarray:
    """Recover the error matrix E with E S + S E = P^T S_hat P - S.

    Solved in the eigenbasis of S: E~_ij = Delta~_ij / (lambda_i + lambda_j).
    Raises SingularEquationError when some eigenvalue pair sums to zero
    relative to ||S||.
    """
    if S.node_count != S_hat.node_count:
        raise ValueError("GSOs have different sizes")
    if perm is None:
        perm = np.arange(S.node_count)
    delta = relabel(S_hat.matrix, perm) - S.matrix
    eig = eigendecompose(S)
    lam, V = eig.eigenvalues, eig.eigenvectors
    denom = lam[:, None] + lam[None, :]
    norm_s = float(np.abs(lam).max())
    small = np.abs(denom) < 1e-10 * max(norm_s, 1e-300)
    if np.any(small):
        i, j = map(int, np.argwhere(small)[0])
        raise SingularEquationError(
            f"eigenvalue pair (lambda_{i} = {lam[i]:.6g}, "
            f"lambda_{j} = {lam[j]:.6g}) sums to zero; E S + S E = Delta "
            "is singular"
        )
    E_tilde = (V.T @ delta @ V) / denom
    E = V @ E_tilde @ V.T
    E = (E + E.T) / 2.0
    residual = spectral_norm(delta - (E @ S.matrix + S.matrix @ E))
    if residual > MEMBERSHIP_TOL * max(norm_s, 1e-300):
        raise ValueError(
            f"recovered E fails the membership identity "
            f"(residual {residual:.3e} vs ||S|| {norm_s:.3e})"
        )
    return E


def relative_distance(S: GSO, S_hat: GSO, mode: str = "identity") -> float:
    """d(S, S_hat): the smallest ||E|| over admissible error matrices.

    identity mode considers P = I only; brute_force enumerates all
    permutations (N <= 8), skipping those whose Lyapunov equation is
    singular.
    """
    if mode == "identity":
        return spectral_norm(solve_relative_error(S, S_hat))
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")

    def error_norm(perm):
        try:
            return spectral_norm(solve_relative_error(S, S_hat, perm))
        except SingularEquationError:
            return np.inf

    best = _brute_force_min(S.node_count, error_norm)
    if not np.isfinite(best):
        raise SingularEquationError(
            "no permutation yields a solvable error-matrix equation"
        )
    return best


def match_eigenbases(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Reorder and sign-flip columns of U to best match V, greedily by
    maximum absolute inner product (ties by lower column index)."""
    N = V.shape[1]
    inner = U.T @ V  # inner[i, j] = <u_i, v_j>
    used = np.zeros(U.shape[1], dtype=bool)
    matched = np.empty_like(V)
    for j in range(N):
        scores = np.where(used, -np.inf, np.abs(inner[:, j]))
        i = int(np.argmax(scores))
        used[i] = True
        sign = 1.0 if inner[i, j] >= 0 else -1.0
        matched[:, j] = sign * U[:, i]
    return matched


def misalignment(U: np.ndarray, V: np.ndarray) -> float:
    """delta = (||U_hat - V||_2 + 1)^2 - 1 after greedy column matching U_hat
    of U to V; U_hat - V is not symmetric (a small rotation's is skew)."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape or U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("U and V must be square matrices of equal shape")
    eye = np.eye(U.shape[0])
    for name, B in (("U", U), ("V", V)):
        if not np.allclose(B.T @ B, eye, atol=1e-8):
            raise ValueError(f"{name} is not orthonormal")
    gap = np.linalg.norm(match_eigenbases(U, V) - V, 2)
    return float((gap + 1.0) ** 2 - 1.0)


def spec_misalignment(spec: PerturbationSpec) -> float:
    """Eigenbasis misalignment delta of a spec's error matrix against its GSO.

    For error matrices proportional to the identity any basis is an
    eigenbasis, so U is taken equal to V and delta is exactly 0.
    """
    N = spec.original.node_count
    E = spec.error
    off = E - (np.trace(E) / N) * np.eye(N)
    V = eigendecompose(spec.original).eigenvectors
    if np.abs(off).max() <= 1e-14 * max(1.0, np.abs(E).max()):
        return 0.0
    U = eigendecompose(E).eigenvectors
    return misalignment(U, V)
