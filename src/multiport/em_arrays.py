"""Impedance matrices for arrays of parallel half-wave dipoles.

Self and mutual impedances come from the induced-EMF method for
infinitely thin, perfectly conducting lambda/2 dipoles with sinusoidal
current, arranged side by side. Distances are in wavelengths,
impedances in ohm. Arrays are uniform circular arrays (UCA) whose
radius is chosen so that adjacent elements sit a given spacing apart.

This module also owns the impedance CSV format, the one file format
for impedance data: a header naming the index columns (``i,j`` for a
matrix, ``realization,i,j`` for a stack such as coupling realizations),
then ``re_ohm,im_ohm``, with one row per entry. It is written by
:func:`write_impedance_csv` and read, strictly, by
:func:`read_impedance_csv`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

EULER_GAMMA = 0.5772156649015328606
FREE_SPACE_IMPEDANCE_OHM = 119.9169832 * math.pi

_SERIES_CUTOFF = 8.0
_SERIES_TOL = 1e-19
_CF_TOL = 1e-16
_CF_MAX_TERMS = 400


def sine_cosine_integrals(x: float) -> tuple[float, float]:
    """Evaluate Si(x) and Ci(x) for x > 0.

    Uses the alternating power series up to the cutoff and a modified
    Lentz continued fraction for the exponential integral of imaginary
    argument beyond it, so both regimes stay near machine precision.

    Parameters
    ----------
    x : float
        Argument, must be positive.

    Returns
    -------
    (si, ci) : tuple of float
    """
    if not x > 0.0:
        raise ValueError("argument must be positive")
    if x <= _SERIES_CUTOFF:
        x2 = x * x
        si = 0.0
        term = x
        k = 0
        while True:
            si += term / (2 * k + 1)
            k += 1
            term *= -x2 / ((2 * k) * (2 * k + 1))
            if abs(term) < _SERIES_TOL:
                break
        ci = EULER_GAMMA + math.log(x)
        term = 1.0
        k = 0
        while True:
            k += 1
            term *= -x2 / ((2 * k - 1) * (2 * k))
            ci += term / (2 * k)
            if abs(term) < _SERIES_TOL:
                break
        return si, ci
    # Continued fraction for E1 evaluated on the imaginary axis.
    b = complex(1.0, x)
    c = complex(1e300)
    d = 1.0 / b
    h = d
    for i in range(2, _CF_MAX_TERMS):
        a = -float((i - 1) * (i - 1))
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < _CF_TOL:
            break
    else:
        raise RuntimeError("continued fraction did not converge")
    h *= complex(math.cos(x), -math.sin(x))
    return math.pi / 2 + h.imag, -h.real


def dipole_self_impedance() -> complex:
    """Self impedance of a thin half-wave dipole in ohm."""
    si, ci = sine_cosine_integrals(2 * math.pi)
    scale = FREE_SPACE_IMPEDANCE_OHM / (4 * math.pi)
    return complex(
        scale * (EULER_GAMMA + math.log(2 * math.pi) - ci),
        scale * si,
    )


def dipole_mutual_impedance(spacing_wavelengths: float) -> complex:
    """Mutual impedance of two parallel side-by-side half-wave dipoles.

    Parameters
    ----------
    spacing_wavelengths : float
        Center-to-center distance in wavelengths, must be positive.

    Returns
    -------
    complex
        Mutual impedance in ohm.
    """
    s = float(spacing_wavelengths)
    if not s > 0.0:
        raise ValueError("spacing must be positive")
    mid = math.sqrt(s * s + 0.25)
    u0 = 2 * math.pi * s
    u1 = 2 * math.pi * (mid + 0.5)
    u2 = 2 * math.pi * (mid - 0.5)
    si0, ci0 = sine_cosine_integrals(u0)
    si1, ci1 = sine_cosine_integrals(u1)
    si2, ci2 = sine_cosine_integrals(u2)
    scale = FREE_SPACE_IMPEDANCE_OHM / (4 * math.pi)
    return complex(
        scale * (2 * ci0 - ci1 - ci2),
        -scale * (2 * si0 - si1 - si2),
    )


@dataclass(frozen=True)
class ArrayGeometry:
    """Planar element layout of a dipole array.

    Positions are 2-D coordinates in wavelengths. A single element sits
    at the origin; two or more lie on a circle sized so that adjacent
    elements are ``spacing_wavelengths`` apart.
    """

    n_elements: int
    spacing_wavelengths: float
    positions: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ValueError("need at least one element")
        if not 0.0 < self.spacing_wavelengths < math.inf:
            raise ValueError("spacing must be positive and finite")
        if self.positions.shape != (self.n_elements, 2):
            raise ValueError("positions must be (n_elements, 2)")


def uniform_circular_array(n_elements: int, spacing_wavelengths: float) -> ArrayGeometry:
    """Build a UCA with the given adjacent-element spacing.

    The circle radius is r = d / (2 sin(pi/N)); a single element is
    placed at the origin.
    """
    if n_elements < 1:
        raise ValueError("need at least one element")
    if not 0.0 < spacing_wavelengths < math.inf:
        raise ValueError("spacing must be positive and finite")
    if n_elements == 1:
        pos = np.zeros((1, 2))
    else:
        radius = spacing_wavelengths / (2 * math.sin(math.pi / n_elements))
        angles = 2 * math.pi * np.arange(n_elements) / n_elements
        pos = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return ArrayGeometry(n_elements, float(spacing_wavelengths), pos)


def array_impedance_matrix(geometry: ArrayGeometry) -> np.ndarray:
    """Assemble the NxN impedance matrix of a dipole array.

    Diagonal entries are the dipole self impedance, off-diagonal
    entries the pairwise mutual impedance at the element distance.
    The result is complex symmetric. The array is a UCA, so the distance
    of elements i and j depends only on min(|i - j|, N - |i - j|): the
    matrix is a symmetric circulant built from the N // 2 + 1 distinct
    impedances between element 0 and elements 0 .. N // 2.
    """
    n = geometry.n_elements
    first = [dipole_self_impedance()]
    for k in range(1, n // 2 + 1):
        dist = float(np.linalg.norm(geometry.positions[0] - geometry.positions[k]))
        first.append(dipole_mutual_impedance(dist))
    offset = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return np.array(first, dtype=complex)[np.minimum(offset, n - offset)]


def _csv_header(ndim: int) -> list[str]:
    """Header of the impedance CSV of a 2-D matrix or a 3-D stack."""
    return ["realization", "i", "j"][3 - ndim :] + ["re_ohm", "im_ohm"]


def write_impedance_csv(path: str, matrix: np.ndarray) -> None:
    """Write a complex matrix (or stack) as rows of its indices, re_ohm, im_ohm."""
    with open(path, "w", newline="") as fh:
        write_impedance_rows(fh, matrix)


def write_impedance_rows(stream: TextIO, matrix: np.ndarray) -> None:
    """Write the impedance CSV of a complex 2-D matrix or 3-D stack to a text stream.

    One CRLF-terminated row per entry, indices in row-major order; the
    values are the ``repr`` of each float, so reading them back is exact.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim not in (2, 3):
        raise ValueError("matrix must be 2-D or 3-D")
    stream.write(",".join(_csv_header(m.ndim)) + "\r\n")
    for index in np.ndindex(m.shape[:-1]):
        prefix = "".join(f"{k}," for k in index)
        stream.writelines(
            f"{prefix}{j},{z.real!r},{z.imag!r}\r\n" for j, z in enumerate(m[index].tolist())
        )


def read_impedance_csv(path: str) -> np.ndarray:
    """Read a matrix or stack written by :func:`write_impedance_csv`.

    The header picks the rank: ``i,j,re_ohm,im_ohm`` gives an (n, m)
    matrix, ``realization,i,j,re_ohm,im_ohm`` an (r, n, m) stack.
    Raises ValueError unless the header is exactly one of these, every
    row has as many fields as the header and integer, nonnegative
    indices, and every index tuple of a complete grid appears exactly
    once with a finite value. Blank lines are skipped.
    """
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        ndim = 3 if header == _csv_header(3) else 2
        if header != _csv_header(ndim):
            raise ValueError("unrecognized impedance CSV header")
        dtype = [(f"k{a}", np.int64) for a in range(ndim)] + [("re", float), ("im", float)]
        try:
            with warnings.catch_warnings():
                # A file without rows is reported below.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", ndmin=1)
        except ValueError as exc:
            raise ValueError(f"invalid CSV row, or one too short or too long: {exc}") from exc
    if not rows.size:
        raise ValueError("CSV holds no entries (no matrix entries, no realizations)")
    index = np.stack([rows[f"k{a}"] for a in range(ndim)])
    if index.min() < 0:
        bad = int(np.argmin(index.min(axis=0)))
        raise ValueError(f"negative index in CSV entry {tuple(index[:, bad].tolist())}")
    order = np.lexsort(index[::-1])
    repeated = (np.diff(index[:, order], axis=1) == 0).all(axis=0)
    if repeated.any():
        key = tuple(index[:, order[np.argmax(repeated)]].tolist())
        raise ValueError(f"duplicate CSV entry {key}")
    shape = tuple(int(v) + 1 for v in index.max(axis=1))
    if rows.size != math.prod(shape):
        raise ValueError(
            f"CSV holds {rows.size} entries, not the complete "
            f"{' x '.join(map(str, shape))} grid"
        )
    values = np.empty(rows.size, dtype=complex)
    values.real, values.imag = rows["re"], rows["im"]
    finite = np.isfinite(values)
    if not finite.all():
        key = tuple(index[:, np.argmin(finite)].tolist())
        raise ValueError(f"non-finite value (NaN or infinite) in CSV entry {key}")
    out = np.empty(shape, dtype=complex)
    out[tuple(index)] = values
    return out
