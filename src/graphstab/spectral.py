"""Symmetric eigendecomposition, extreme eigenvalues and frequency responses
of polynomial graph filters.

`eigendecompose` returns a GSO's `eigensystem`, computed once and kept
on it. When only the two extreme eigenvalues are needed, as for the spectral
norm of a symmetric matrix, `extreme_eigenvalues` runs Lanczos instead. On
symmetrized Gaussian matrices of size 512 to 1682 it stops after 96 to 144
steps of O(n^2) each, against one O(n^3) eigvalsh; that pays from
n = LANCZOS_MIN_SIZE on, and below it `filters.spectral_norm` keeps eigvalsh.
It keeps nothing between calls: a caller reuses a result by `graphs.shared`.

The frequency response of taps h is h(lambda) = sum_k h_k lambda^k, and
the integral Lipschitz condition bounds |lambda h'(lambda)|. `bank_response`
evaluates both, for a tap vector or an (F_in, F_out, K) filter bank; both
are maximized on the one grid `il_grid` of an interval, which the one
interval rule `check_interval` reads as exactly two finite floats a < b.
"""

import numpy as np

from .graphs import GSO, EigenSystem, symmetrized  # EigenSystem re-exported

# extreme_eigenvalues: residual bound on both extreme Ritz pairs, relative to
# max |theta|, at which the iteration stops; Ritz values are computed every
# LANCZOS_CHECK_EVERY steps; the start vector is drawn from this seed
LANCZOS_RTOL = 1e-10
LANCZOS_CHECK_EVERY = 8
_LANCZOS_SEED = 0

# the Lanczos basis starts with this many rows and doubles as it fills
LANCZOS_BASIS_ROWS = 64

# smallest matrix size for which spectral_norm takes Lanczos over eigvalsh;
# with one BLAS thread on a 2-vCPU Xeon VM the two took 2.9 against 0.8 ms
# at n = 128, 19 against 18 ms at n = 512 and 0.20 against 0.51 s at 1682
LANCZOS_MIN_SIZE = 512

# points of the eigenvalue-interval grid on which integral Lipschitz
# constants, the training penalty and a designed bank's peak are maximized
IL_GRID_POINTS = 1001


def eigendecompose(S) -> EigenSystem:
    """Eigendecomposition S = V diag(lam) V^T of a symmetric GSO, as
    `GSO.eigensystem` gives it; a matrix that is not a GSO is first made
    one, which checks it (finite, symmetric to within SYMMETRY_RTOL)."""
    if not isinstance(S, GSO):
        S = GSO(S)
    return S.eigensystem


def extreme_eigenvalues(A: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix A by Lanczos.

    A must be a nonempty square matrix that `graphs.symmetrized` accepts
    (else ValueError, as for a NaN entry), and is taken as that returns it.

    Lanczos with full reorthogonalization (classical Gram-Schmidt, applied
    twice) from a fixed seeded start vector, so equal inputs give equal
    results (Saad, Numerical Methods for Large Eigenvalue Problems, ch. 6).
    Every LANCZOS_CHECK_EVERY steps the Ritz values of the tridiagonal T_j
    are computed; the iteration stops when the residual bound
    beta_j |y_j[-1]| of both extreme Ritz pairs is at most
    LANCZOS_RTOL * max |theta|, on breakdown, or at Krylov dimension n.
    Each step costs one product A q and O(j n) for the reorthogonalization.
    The basis holds LANCZOS_BASIS_ROWS rows at first and doubles when full,
    so its size follows the steps taken, not n.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"need a nonempty square matrix, got shape {A.shape}")
    A = np.ascontiguousarray(symmetrized(A))
    n = A.shape[0]
    Q = np.empty((min(LANCZOS_BASIS_ROWS, n), n))  # rows: Lanczos vectors
    alpha, beta = np.empty(n), np.empty(n)
    q = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    q /= np.linalg.norm(q)
    scale = 0.0
    for j in range(n):
        if j == Q.shape[0]:
            grown = np.empty((min(2 * j, n), n))
            grown[:j] = Q
            Q = grown
        Q[j] = q
        w = A @ q
        scale = max(scale, float(np.linalg.norm(w)))
        basis = Q[:j + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        alpha[j] = h[j] + h2[j]
        beta[j] = np.linalg.norm(w)
        # breakdown: what is left of A q is rounding noise, so the Krylov
        # space is invariant and holds every eigenvalue q_1 reaches
        breakdown = beta[j] <= n * np.finfo(float).eps * scale
        last = breakdown or j + 1 == n
        if last or (j + 1) % LANCZOS_CHECK_EVERY == 0:
            T = (np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1)
                 + np.diag(beta[:j], -1))
            theta, Y = np.linalg.eigh(T)
            bound = beta[j] * np.abs(Y[-1, [0, -1]])
            if last or bound.max() <= LANCZOS_RTOL * np.abs(theta).max():
                return float(theta[0]), float(theta[-1])
        q = w / beta[j]


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


def check_interval(interval) -> tuple:
    """The two endpoints (a, b) of an eigenvalue interval as floats; raises
    ValueError for any other count, unless a < b, which NaN fails too, or
    unless both are finite."""
    a, b = map(float, interval)
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    if not np.isfinite([a, b]).all():
        raise ValueError(f"interval [{a}, {b}] must have finite endpoints")
    return a, b


def il_grid(interval) -> np.ndarray:
    """The IL_GRID_POINTS evenly spaced points of an eigenvalue interval,
    endpoints included (checked by `check_interval`)."""
    return np.linspace(*check_interval(interval), IL_GRID_POINTS)


def integral_lipschitz_check(h: np.ndarray, interval) -> float:
    """Grid estimate C of the integral Lipschitz constant of taps h on an
    interval: the maximum of |lambda h'(lambda)| on its `il_grid`.

    C is a lower bound of the true supremum. The derivative form is used
    rather than the pairwise midpoint form; the two are equivalent in the
    limit and the derivative form is what the training penalty uses.
    """
    grid = il_grid(interval)
    return float(np.max(np.abs(bank_response(h, grid, derivative=True))))
