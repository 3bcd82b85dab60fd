"""Symmetric eigendecomposition, graph Fourier transform and frequency
responses of polynomial graph filters.

The frequency response of taps h is the polynomial h(lambda) = sum_k h_k
lambda^k; its scaled derivative |lambda h'(lambda)| is what the integral
Lipschitz condition bounds. `bank_response` is the one evaluator of both,
for a tap vector and for an (F_in, F_out, K) filter bank alike.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import GSO


@dataclass(frozen=True)
class EigenSystem:
    """Orthonormal eigenvectors (columns) and ascending eigenvalues."""

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class ILCheck:
    """Grid estimate of the integral Lipschitz constant on an interval.

    C is a lower bound of the true supremum of |lambda h'(lambda)| (it is
    evaluated on a finite grid); bounded reports max |h| <= 1 on the grid.
    """

    C: float
    bounded: bool


def eigendecompose(S) -> EigenSystem:
    """Eigendecomposition S = V diag(lam) V^T of a symmetric GSO.

    A matrix that is not a GSO is first validated by the GSO's rule (finite,
    symmetric to within SYMMETRY_RTOL). Sign convention: the
    largest-magnitude entry of each eigenvector is made positive (first such
    entry among ties), so decompositions are deterministic up to degeneracy.
    Each GSO is decomposed once and keeps the result, with read-only arrays.
    """
    if not isinstance(S, GSO):
        S = GSO(S)
    return S.eigensystem


def _decompose(M: np.ndarray) -> EigenSystem:
    lam, V = np.linalg.eigh(M)
    flip = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0
    V[:, flip] *= -1.0
    V.setflags(write=False)
    lam.setflags(write=False)
    return EigenSystem(V, lam)


def gft(V: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform: projection V^T x onto the eigenbasis."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != V.shape[0]:
        raise ValueError("signal and eigenbasis sizes differ")
    return V.T @ x


def bank_response(taps: np.ndarray, grid: np.ndarray,
                  derivative: bool = False) -> np.ndarray:
    """Response of taps of shape (..., K) on a grid of G points.

    Returns h(lambda) = sum_k taps[..., k] lambda^k or, with
    derivative=True, the integral Lipschitz functional lambda h'(lambda) =
    sum_k k taps[..., k] lambda^k, of shape (G, ...): (G,) for a tap vector
    and (G, F_in, F_out) for an (F_in, F_out, K) filter bank.
    """
    taps = np.asarray(taps, dtype=float)
    K = taps.shape[-1]
    if derivative:
        taps = taps * np.arange(K, dtype=float)
    powers = np.asarray(grid, dtype=float)[:, None] ** np.arange(K)
    return np.tensordot(powers, taps, axes=([1], [taps.ndim - 1]))


def integral_lipschitz_check(h: np.ndarray, interval) -> ILCheck:
    """Estimate the integral Lipschitz constant of taps h on an interval.

    Uses the derivative form |lambda h'(lambda)| <= C on a 1001-point grid
    rather than the pairwise midpoint form; the two are equivalent in the
    limit and the derivative form is what the training penalty uses.
    """
    lam_a, lam_b = float(interval[0]), float(interval[1])
    if not lam_a < lam_b:
        raise ValueError(f"empty interval [{lam_a}, {lam_b}]")
    grid = np.linspace(lam_a, lam_b, 1001)
    C = float(np.max(np.abs(bank_response(h, grid, derivative=True))))
    bounded = bool(np.max(np.abs(bank_response(h, grid))) <= 1.0)
    return ILCheck(C=C, bounded=bounded)
