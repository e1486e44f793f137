"""Impedance matrices for arrays of parallel half-wave dipoles.

Self and mutual impedances come from the induced-EMF method for
infinitely thin, perfectly conducting lambda/2 dipoles with sinusoidal
current, arranged side by side. Distances are in wavelengths,
impedances in ohm. Arrays are uniform circular arrays (UCA) whose
radius is chosen so that adjacent elements sit a given spacing apart.
"""

from __future__ import annotations

import cmath
import csv
import math
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
        if not self.spacing_wavelengths > 0.0:
            raise ValueError("spacing must be positive")
        if self.positions.shape != (self.n_elements, 2):
            raise ValueError("positions must be (n_elements, 2)")


def uniform_circular_array(n_elements: int, spacing_wavelengths: float) -> ArrayGeometry:
    """Build a UCA with the given adjacent-element spacing.

    The circle radius is r = d / (2 sin(pi/N)); a single element is
    placed at the origin.
    """
    if n_elements < 1:
        raise ValueError("need at least one element")
    if not spacing_wavelengths > 0.0:
        raise ValueError("spacing must be positive")
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


def write_impedance_csv(path: str, matrix: np.ndarray) -> None:
    """Write a complex matrix as rows of (i, j, re_ohm, im_ohm)."""
    with open(path, "w", newline="") as fh:
        write_impedance_rows(fh, matrix)


def write_impedance_rows(stream: TextIO, matrix: np.ndarray) -> None:
    """Write the impedance CSV of a complex matrix to a text stream."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    writer = csv.writer(stream)
    writer.writerow(["i", "j", "re_ohm", "im_ohm"])
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            writer.writerow([i, j, repr(float(m[i, j].real)), repr(float(m[i, j].imag))])


def read_impedance_csv(path: str) -> np.ndarray:
    """Read a matrix written by :func:`write_impedance_csv`.

    Raises ValueError unless the file has the header and exactly one
    finite value for every (i, j) of a complete grid with nonnegative
    indices.
    """
    entries: dict[tuple[int, int], complex] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != ["i", "j", "re_ohm", "im_ohm"]:
            raise ValueError("unrecognized impedance CSV header")
        for row in reader:
            if not row:
                continue
            try:
                key = (int(row[0]), int(row[1]))
                value = complex(float(row[2]), float(row[3]))
            except IndexError as exc:
                raise ValueError(f"short impedance CSV row {row!r}") from exc
            if min(key) < 0:
                raise ValueError(f"negative index in impedance CSV row {row!r}")
            if key in entries:
                raise ValueError(f"duplicate impedance CSV entry {key}")
            if not cmath.isfinite(value):
                raise ValueError(f"non-finite impedance CSV value in row {row!r}")
            entries[key] = value
    if not entries:
        raise ValueError("empty impedance CSV")
    n_rows = max(k[0] for k in entries) + 1
    n_cols = max(k[1] for k in entries) + 1
    if len(entries) != n_rows * n_cols:
        raise ValueError(
            f"impedance CSV holds {len(entries)} entries, not the complete "
            f"{n_rows} x {n_cols} grid"
        )
    out = np.zeros((n_rows, n_cols), dtype=complex)
    for (i, j), v in entries.items():
        out[i, j] = v
    return out
