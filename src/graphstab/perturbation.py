"""Relative perturbation models for graph shift operators.

A perturbed operator S_hat is related to S through a symmetric error matrix E
and a permutation P via the membership identity

    P^T S_hat P = S + (E S + S E) + residual,

and the relative distance d(S, S_hat) is the smallest ||E|| over admissible
(E, P) pairs. Recovery of E from a given pair is a Lyapunov-type equation
solved spectrally.
"""

from dataclasses import dataclass

import numpy as np

from .filters import _brute_force_min, spectral_norm
from .graphs import GSO, permutation_matrix, validate_permutation
from .spectral import eigendecompose

MEMBERSHIP_TOL = 1e-8


class SingularEquationError(ValueError):
    """The Lyapunov-type equation E S + S E = Delta is singular because some
    eigenvalue pair of S sums to (numerical) zero."""


@dataclass(frozen=True)
class PerturbationSpec:
    """A perturbed GSO together with its relative error certificate."""

    original: GSO
    perturbed: GSO
    error: np.ndarray
    permutation: np.ndarray
    epsilon: float

    def membership_residual(self) -> float:
        """||P^T S_hat P - S - (E S + S E)|| (spectral norm)."""
        S = self.original.matrix
        P = permutation_matrix(self.permutation)
        E = self.error
        return spectral_norm(P.T @ self.perturbed.matrix @ P - S
                             - (E @ S + S @ E))


@dataclass(frozen=True)
class Misalignment:
    """Eigenvector basis misalignment delta = (||U - V|| + 1)^2 - 1."""

    delta: float


def edge_dilation(S: GSO, epsilon: float) -> PerturbationSpec:
    """Scale every edge by (1 + epsilon): S_hat = (1 + epsilon) S.

    The error matrix is (epsilon/2) I, which commutes with S, so the
    eigenvectors are unchanged and the eigenvalues scale by (1 + epsilon).
    """
    if epsilon <= -1:
        raise ValueError("edge dilation requires epsilon > -1")
    N = S.node_count
    return PerturbationSpec(
        original=S,
        perturbed=GSO((1.0 + epsilon) * S.matrix, S.kind),
        error=(epsilon / 2.0) * np.eye(N),
        permutation=np.arange(N),
        epsilon=float(abs(epsilon)),
    )


def random_relative_perturbation(S: GSO, epsilon: float,
                                 seed: int | None = None) -> PerturbationSpec:
    """Draw a random symmetric E with ||E|| uniform in [eps/2, eps] and set
    S_hat = S + E S + S E. By construction d(S, S_hat) <= epsilon."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    N = S.node_count
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N))
    E = (A + A.T) / 2.0
    target = rng.uniform(epsilon / 2.0, epsilon)
    if epsilon == 0:
        E = np.zeros((N, N))
    else:
        E *= target / spectral_norm(E)
    M = S.matrix
    return PerturbationSpec(
        original=S,
        perturbed=GSO(M + E @ M + M @ E, S.kind),
        error=E,
        permutation=np.arange(N),
        epsilon=float(epsilon),
    )


def solve_relative_error(S: GSO, S_hat: GSO,
                         perm: np.ndarray | None = None) -> np.ndarray:
    """Recover the error matrix E with E S + S E = P^T S_hat P - S.

    Solved in the eigenbasis of S: E~_ij = Delta~_ij / (lambda_i + lambda_j).
    Raises SingularEquationError when some eigenvalue pair sums to zero
    relative to ||S||.
    """
    N = S.node_count
    if perm is None:
        perm = np.arange(N)
    perm = validate_permutation(np.asarray(perm), N)
    P = permutation_matrix(perm)
    delta = P.T @ S_hat.matrix @ P - S.matrix
    eig = eigendecompose(S)
    lam, V = eig.eigenvalues, eig.eigenvectors
    denom = lam[:, None] + lam[None, :]
    norm_s = spectral_norm(S.matrix)
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


def misalignment(U: np.ndarray, V: np.ndarray) -> Misalignment:
    """delta = (||U - V|| + 1)^2 - 1 after greedy column matching of U to V."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape or U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("U and V must be square matrices of equal shape")
    eye = np.eye(U.shape[0])
    for name, B in (("U", U), ("V", V)):
        if not np.allclose(B.T @ B, eye, atol=1e-8):
            raise ValueError(f"{name} is not orthonormal")
    gap = spectral_norm(match_eigenbases(U, V) - V)
    return Misalignment(delta=float((gap + 1.0) ** 2 - 1.0))


def spec_misalignment(spec: PerturbationSpec) -> Misalignment:
    """Misalignment between the eigenbases of a spec's error matrix and GSO.

    For error matrices proportional to the identity any basis is an
    eigenbasis, so U is taken equal to V and delta is exactly 0.
    """
    N = spec.original.node_count
    E = spec.error
    off = E - (np.trace(E) / N) * np.eye(N)
    V = eigendecompose(spec.original).eigenvectors
    if np.abs(off).max() <= 1e-14 * max(1.0, np.abs(E).max()):
        return Misalignment(delta=0.0)
    U = eigendecompose(E).eigenvectors
    return misalignment(U, V)
