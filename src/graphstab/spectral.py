"""Symmetric eigendecomposition, graph Fourier transform and frequency
responses of polynomial graph filters.

The frequency response of taps h is the polynomial h(lambda) = sum_k h_k
lambda^k; its scaled derivative |lambda h'(lambda)| is what the integral
Lipschitz condition bounds.
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


def _as_matrix(S) -> np.ndarray:
    if isinstance(S, GSO):
        return S.matrix
    return np.asarray(S, dtype=float)


def eigendecompose(S) -> EigenSystem:
    """Eigendecomposition S = V diag(lam) V^T of a symmetric GSO.

    Sign convention: the largest-magnitude entry of each eigenvector is made
    positive (first such entry among ties), so decompositions are
    deterministic up to degeneracy.
    """
    M = _as_matrix(S)
    scale = max(np.abs(M).max(), 1.0)
    if not np.allclose(M, M.T, atol=1e-12 * scale):
        raise ValueError("eigendecompose requires a symmetric matrix")
    lam, V = np.linalg.eigh((M + M.T) / 2.0)
    flip = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0
    V[:, flip] *= -1.0
    return EigenSystem(V, lam)


def gft(V: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform: projection V^T x onto the eigenbasis."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != V.shape[0]:
        raise ValueError("signal and eigenbasis sizes differ")
    return V.T @ x


def igft(V: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform V x~."""
    xt = np.asarray(xt, dtype=float)
    if xt.shape[0] != V.shape[1]:
        raise ValueError("coefficients and eigenbasis sizes differ")
    return V @ xt


def frequency_response(h: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Evaluate h(lambda) = sum_k h_k lambda^k on a grid (Horner)."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size < 1:
        raise ValueError("filter taps must be a nonempty 1-D array")
    grid = np.asarray(grid, dtype=float)
    out = np.full_like(grid, h[-1])
    for hk in h[-2::-1]:
        out = out * grid + hk
    return out


def bank_response(taps: np.ndarray, grid: np.ndarray,
                  derivative: bool = False) -> np.ndarray:
    """Matrix response of an (F_in, F_out, K) filter bank on a grid.

    Returns shape (G, F_in, F_out): H(lambda) = sum_k taps[:, :, k] lambda^k
    or, with derivative=True, the integral Lipschitz functional's matrix
    lambda H'(lambda) = sum_k k taps[:, :, k] lambda^k.
    """
    taps = np.asarray(taps, dtype=float)
    K = taps.shape[2]
    if derivative:
        taps = taps * np.arange(K, dtype=float)
    powers = np.asarray(grid, dtype=float)[:, None] ** np.arange(K)
    return np.tensordot(powers, taps, axes=([1], [2]))


def response_derivative_scaled(h: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """|lambda h'(lambda)| on a grid; the integral Lipschitz functional."""
    h = np.asarray(h, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if h.size == 1:
        return np.zeros_like(grid)
    dh = h[1:] * np.arange(1, h.size)
    return np.abs(grid * frequency_response(dh, grid))


def integral_lipschitz_check(
    h: np.ndarray, interval, grid_size: int = 1001
) -> ILCheck:
    """Estimate the integral Lipschitz constant of taps h on an interval.

    Uses the derivative form |lambda h'(lambda)| <= C on a uniform grid
    rather than the pairwise midpoint form; the two are equivalent in the
    limit and the derivative form is what the training penalty uses.
    """
    lam_a, lam_b = float(interval[0]), float(interval[1])
    if not lam_a < lam_b:
        raise ValueError(f"empty interval [{lam_a}, {lam_b}]")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    grid = np.linspace(lam_a, lam_b, grid_size)
    C = float(np.max(response_derivative_scaled(h, grid)))
    bounded = bool(np.max(np.abs(frequency_response(h, grid))) <= 1.0)
    return ILCheck(C=C, bounded=bounded)
