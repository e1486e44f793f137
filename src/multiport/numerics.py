"""Shared numerical building blocks.

Water-filling power allocation over any stack of gain rows and
budgets (leading axes broadcast), a batched log det(I + M) for rate
evaluation and guarded matrix factorizations used by the channel
construction.
"""

from __future__ import annotations

import numpy as np

_PSD_NEG_TOL = 1e-9


class FactorizationError(RuntimeError):
    """A matrix expected to be positive (semi)definite failed to factor."""


def hermitize(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Return the Hermitian part of a nearly Hermitian matrix (or stack).

    Raises ValueError if the anti-Hermitian part of any matrix exceeds
    ``tol`` relative to its norm, which would indicate a bug upstream
    rather than roundoff.
    """
    a = np.asarray(matrix)
    sym = 0.5 * (a + a.conj().swapaxes(-1, -2))
    scale = np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1e-300)
    if (np.linalg.norm(a - sym, axis=(-2, -1)) > tol * scale).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    return sym


def cholesky_psd(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, mapping LinAlgError to FactorizationError."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(str(exc)) from exc


def principal_sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues slightly below zero (within _PSD_NEG_TOL of the matrix
    norm) are clipped; anything more negative raises
    FactorizationError.
    """
    sym = hermitize(matrix)
    w, v = np.linalg.eigh(sym)
    scale = max(float(np.max(np.abs(w))) if w.size else 0.0, 1e-300)
    if float(np.min(w)) < -_PSD_NEG_TOL * scale:
        raise FactorizationError("matrix has a significantly negative eigenvalue")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def log_det_eye_plus(matrices: np.ndarray) -> np.ndarray:
    """Natural log det(I + M) of every Hermitian PSD M of a stack (..., n, n).

    An LDL^H factorisation of I + M without pivoting, vectorised over
    the leading axes; only the loop over the order n runs in Python.
    Pivot i is 1 + d_i, where d_i is diagonal entry i of M after i
    Schur-complement steps M_22 - m m^H / (1 + m_11), so the result is
    the sum of log1p(d_i): as precise as log1p of ``eigvalsh`` when M
    is tiny, where a determinant of I + M loses M's digits to the 1.
    Like ``eigvalsh``, only the lower triangle and the real diagonal
    are read. A zero M gives 0.
    """
    m = np.asarray(matrices)
    n = m.shape[-1]
    # Matrix indices first, so that every update runs over the stack contiguously.
    a = np.moveaxis(m, (-2, -1), (0, 1)).copy()
    total = np.zeros(m.shape[:-2])
    for i in range(n):
        d = a[i, i].real
        total += np.log1p(d)
        if i + 1 < n:
            col = a[i + 1 :, i]
            a[i + 1 :, i + 1 :] -= col[:, None] * (col.conj() / (1.0 + d))[None, :]
    return total


# Gains at or below this have an infinite reciprocal and get no power.
_MIN_GAIN = 1.0 / np.finfo(float).max
_MAX_INV = np.finfo(float).max / 2.0


def waterfill(gains: np.ndarray, budgets: float | np.ndarray) -> np.ndarray:
    """Water-filling allocation maximizing sum log2(1 + g_i p_i).

    Parameters
    ----------
    gains : array of nonnegative floats, shape (..., n)
        Per-channel power gains (1/W units cancel against watts), one
        row of n channels along the last axis.
    budgets : float or array of nonnegative floats, shape (...)
        Power budgets in watts. The leading axes of ``gains`` and the
        axes of ``budgets`` broadcast against each other, so a scalar
        budget serves every row, (P,) budgets against (n,) gains give a
        (P, n) grid and (N,) budgets against (N, n) gains one budget per
        row; shapes that do not broadcast raise ValueError.

    Returns
    -------
    array of floats, shape (broadcast leading shape, n)
        Each budget's allocation p of its own gains row, with p >= 0 and
        sum(p) == budget whenever a positive gain exists and the budget
        is positive.

    The gains rows are sorted as given, not once per budget. With
    shifted inverse gains inv (inv[0] = 0, nondecreasing) and csum their
    cumulative sum, the m strongest channels are all active exactly when
    the budget reaches the breakpoint m * inv[m] - csum[m - 1], so each
    budget's active count is the number of breakpoints it reaches.
    """
    g = np.asarray(gains, dtype=float)
    b = np.asarray(budgets, dtype=float)
    if g.ndim == 0:
        raise ValueError("gains need a last axis of channels")
    if not (b >= 0.0).all():
        raise ValueError("power budget must be nonnegative")
    order = np.argsort(g, axis=-1)[..., ::-1]
    gs = np.sort(g, axis=-1)[..., ::-1]
    # Sorting puts NaN first here, so the extremes validate every gain.
    if gs.size and not (gs[..., 0].max() < np.inf and gs[..., -1].min() >= 0.0):
        raise ValueError("gains must be finite and nonnegative")
    # The active gains of a row are its sorted prefix.
    active = gs > _MIN_GAIN
    n_active = active.sum(axis=-1)
    width = int(n_active.max()) if gs.size else 0
    if not width:
        return np.zeros(np.broadcast_shapes(g.shape[:-1], b.shape) + g.shape[-1:])
    gs, order, active = gs[..., :width], order[..., :width], active[..., :width]
    # Work with inverse gains shifted by their minimum so the water
    # level stays resolvable when 1/g dwarfs the budget. The cap keeps
    # every breakpoint finite; a capped channel would need a budget
    # beyond 1e300 W to turn on. Inactive entries stay 0, out of the
    # shift, so sums over a padded row cannot overflow; they are masked.
    inv = 1.0 / np.where(active, gs, np.inf)
    np.subtract(inv, inv[..., :1], out=inv, where=active)
    np.minimum(inv, _MAX_INV / width, out=inv)
    csum = np.cumsum(inv, axis=-1)
    breaks = np.arange(1, width) * inv[..., 1:] - csum[..., :-1]
    breaks[~active[..., 1:]] = np.inf
    # Broadcasting the gain rows against the budgets starts here.
    used = (breaks <= b[..., None]).sum(axis=-1) + 1
    # Per-row entries are picked by flat index: row offset plus column.
    starts = np.arange(0, csum.size, width).reshape(csum.shape[:-1])
    level = (b + csum.reshape(-1)[starts + used - 1]) / used
    alloc = np.maximum(level[..., None] - inv, 0.0)
    alloc[np.arange(width) >= np.minimum(used, n_active)[..., None]] = 0.0
    # Exact budget despite clipping roundoff. A sequential sum, unlike
    # numpy's pairwise one, ignores the zeros that pad a row to the
    # stack's width, so a row's result does not depend on its stack.
    s = np.cumsum(alloc, axis=-1)[..., -1]
    alloc *= (b / np.where(s > 0.0, s, 1.0))[..., None]
    powers = np.zeros(alloc.shape[:-1] + g.shape[-1:])
    starts = np.arange(0, powers.size, g.shape[-1]).reshape(alloc.shape[:-1])
    powers.reshape(-1)[starts[..., None] + order] = alloc
    return powers

