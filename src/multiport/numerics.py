"""Shared numerical building blocks.

Water-filling power allocation, Euclidean projections onto the
simplex and the trace-bounded PSD cone, and guarded matrix
factorizations used by the channel construction.
"""

from __future__ import annotations

import numpy as np


class FactorizationError(RuntimeError):
    """A matrix expected to be positive (semi)definite failed to factor."""


def hermitize(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Return the Hermitian part of a nearly Hermitian matrix.

    Raises ValueError if the anti-Hermitian part exceeds ``tol``
    relative to the matrix norm, which would indicate a bug upstream
    rather than roundoff.
    """
    a = np.asarray(matrix)
    sym = 0.5 * (a + a.conj().T)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    if float(np.linalg.norm(a - sym)) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return sym


def cholesky_psd(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, mapping LinAlgError to FactorizationError."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(str(exc)) from exc


def principal_sqrt_psd(matrix: np.ndarray, neg_tol: float = 1e-9) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues slightly below zero (within ``neg_tol`` of the matrix
    norm) are clipped; anything more negative raises
    FactorizationError.
    """
    sym = hermitize(matrix)
    w, v = np.linalg.eigh(sym)
    scale = max(float(np.max(np.abs(w))) if w.size else 0.0, 1e-300)
    if float(np.min(w)) < -neg_tol * scale:
        raise FactorizationError("matrix has a significantly negative eigenvalue")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


# Gains at or below this have an infinite reciprocal and get no power.
_MIN_GAIN = 1.0 / np.finfo(float).max
_MAX_INV = np.finfo(float).max / 2.0


def waterfill(gains: np.ndarray, budgets: float | np.ndarray) -> np.ndarray:
    """Water-filling allocation maximizing sum log2(1 + g_i p_i).

    Parameters
    ----------
    gains : array of nonnegative floats
        Per-channel power gains (1/W units cancel against watts).
    budgets : float or 1-D array of floats
        Power budget in watts, or a grid of budgets; nonnegative.

    Returns
    -------
    array of floats
        For a scalar budget, the allocation p (shape ``(n,)``) with
        p >= 0 and sum(p) == budget whenever a positive gain exists and
        the budget is positive. For P budgets, one such row per budget
        (shape ``(P, n)``).

    The gains are sorted once. With shifted inverse gains inv (inv[0] =
    0, nondecreasing) and csum their cumulative sum, the m strongest
    channels are all active exactly when the budget reaches the
    breakpoint m * inv[m] - csum[m - 1], so each budget's active count
    is a binary search over the breakpoints.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1:
        raise ValueError("gains must be 1-D")
    b = np.asarray(budgets, dtype=float)
    scalar = b.ndim == 0
    if scalar:
        b = float(b)
        if not b >= 0.0:
            raise ValueError("power budget must be nonnegative")
    elif b.ndim != 1:
        raise ValueError("budgets must be a scalar or 1-D")
    elif not (b >= 0.0).all():
        raise ValueError("power budget must be nonnegative")
    order = np.argsort(g)[::-1]
    gs = g[order]
    # Sorting puts NaN first here, so the extremes validate every gain.
    if g.size and not (gs[0] < np.inf and gs[-1] >= 0.0):
        raise ValueError("gains must be finite and nonnegative")
    active = int(np.count_nonzero(gs > _MIN_GAIN))
    if active == 0:
        return np.zeros(g.shape if scalar else (b.size, g.size))
    # Work with inverse gains shifted by their minimum so the water
    # level stays resolvable when 1/g dwarfs the budget. The cap keeps
    # every breakpoint finite; a capped channel would need a budget
    # beyond 1e300 W to turn on.
    inv = 1.0 / gs[:active]
    inv -= inv[0]
    np.minimum(inv, _MAX_INV / active, out=inv)
    csum = np.cumsum(inv)
    breaks = np.arange(1, active) * inv[1:] - csum[:-1]
    used = np.searchsorted(breaks, b, side="right") + 1
    level = (b + csum[used - 1]) / used
    if scalar:
        alloc = np.maximum(level - inv[:used], 0.0)
        # Exact budget despite clipping roundoff.
        s = float(alloc.sum())
        if s > 0.0:
            alloc *= b / s
        powers = np.zeros_like(g)
        powers[order[:used]] = alloc
        return powers
    alloc = np.maximum(level[:, None] - inv, 0.0)
    alloc[np.arange(active) >= used[:, None]] = 0.0
    s = alloc.sum(axis=1)
    alloc *= np.divide(b, s, out=np.ones_like(s), where=s > 0.0)[:, None]
    powers = np.zeros((b.size, g.size))
    powers[:, order[:active]] = alloc
    return powers


def simplex_project(values: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum(w) = total}.

    The sort-based algorithm, made robust to entries much larger than
    ``total`` by shifting with the maximum before forming cumulative
    sums.
    """
    w = np.asarray(values, dtype=float)
    if total < 0.0:
        raise ValueError("total must be nonnegative")
    if w.size == 0:
        raise ValueError("cannot project an empty vector")
    shift = float(w.max())
    v = np.sort(w - shift)[::-1]
    css = np.cumsum(v)
    ks = np.arange(1, w.size + 1)
    cond = ks * v - css + total > 0.0
    k = int(ks[cond][-1]) if np.any(cond) else 1
    theta = (css[k - 1] - total) / k
    return np.clip(w - shift - theta, 0.0, None)


def project_psd_trace(matrix: np.ndarray, max_trace: float) -> np.ndarray:
    """Project a Hermitian matrix onto {X >= 0, tr(X) <= max_trace}.

    Eigenvalues are clipped at zero; if their sum still exceeds the
    bound they are projected onto the simplex of that total.
    """
    if max_trace < 0.0:
        raise ValueError("trace bound must be nonnegative")
    sym = hermitize(np.asarray(matrix))
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    if float(w.sum()) > max_trace:
        w = simplex_project(w, max_trace)
    return (v * w) @ v.conj().T
