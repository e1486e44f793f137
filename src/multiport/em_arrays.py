"""Impedance matrices for arrays of parallel half-wave dipoles.

Self and mutual impedances come from the induced-EMF method for
infinitely thin, perfectly conducting lambda/2 dipoles with sinusoidal
current, arranged side by side. Distances are in wavelengths,
impedances in ohm. Every array is the uniform circular array (UCA) of
its element count and adjacent-element spacing; its element positions
are derived from those two numbers.

This module also owns the impedance CSV format, the one file format
for impedance data: a header naming the index columns (``i,j`` for a
matrix, ``realization,i,j`` for a stack such as coupling realizations),
then ``re_ohm,im_ohm``, with one row per entry. It is written by
:func:`write_impedance_csv` and read, strictly, by
:func:`read_impedance_csv`.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
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
    """The uniform circular array of an element count and adjacent spacing.

    :attr:`positions` is derived from the two, in wavelengths: a single
    element sits at the origin; two or more lie on a circle of radius
    d / (2 sin(pi/N)), element k at angle 2 pi k / N, so that adjacent
    elements are ``spacing_wavelengths`` apart. Equal geometries compare
    and hash equal.
    """

    n_elements: int
    spacing_wavelengths: float

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ValueError("need at least one element")
        if not 0.0 < self.spacing_wavelengths < math.inf:
            raise ValueError("spacing must be positive and finite")

    @property
    def positions(self) -> np.ndarray:
        """Element coordinates (n_elements, 2) in wavelengths."""
        n = self.n_elements
        if n == 1:
            return np.zeros((1, 2))
        radius = self.spacing_wavelengths / (2 * math.sin(math.pi / n))
        angles = 2 * math.pi * np.arange(n) / n
        return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def uniform_circular_array(n_elements: int, spacing_wavelengths: float) -> ArrayGeometry:
    """Build a UCA with the given adjacent-element spacing."""
    return ArrayGeometry(n_elements, float(spacing_wavelengths))


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
    positions = geometry.positions
    first = [dipole_self_impedance()]
    for k in range(1, n // 2 + 1):
        dist = float(np.linalg.norm(positions[0] - positions[k]))
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


# numpy opens a path by its suffix and would decompress these.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_impedance_csv(path: str) -> np.ndarray:
    """Read a matrix or stack written by :func:`write_impedance_csv`.

    The header picks the rank: ``i,j,re_ohm,im_ohm`` gives an (n, m)
    matrix, ``realization,i,j,re_ohm,im_ohm`` an (r, n, m) stack.
    Raises ValueError unless the header is exactly one of these, every
    row has as many fields as the header and integer, nonnegative
    indices, and every index tuple of a complete grid appears exactly
    once with a finite value. Rows may come in any order and blank
    lines are skipped; ``#`` starts no comment, and a byte that does not
    decode is an invalid field. An error in a row names its line of the
    file. A name ending in a compression suffix
    (``.gz``, ``.bz2``, ``.xz``, ``.lzma``) raises ValueError before
    any read: the file is read as plain text only.
    """
    if path.endswith(_COMPRESSED_SUFFIXES):
        raise ValueError(f"compressed impedance CSV {path} is not read; decompress it first")
    # A header byte outside ASCII decodes to U+FFFD: the header is unrecognized.
    with open(path, newline="", encoding="ascii", errors="replace") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
    ndim = 3 if header == _csv_header(3) else 2
    if header != _csv_header(ndim):
        raise ValueError("unrecognized impedance CSV header")
    dtype = [(f"k{a}", np.int64) for a in range(ndim)] + [("re", float), ("im", float)]
    try:
        with warnings.catch_warnings():
            # A file without rows is reported below.
            warnings.simplefilter("ignore", UserWarning)
            # Given a path, numpy reads the file in chunks, not line by
            # line; an absolute path never parses as a URL to fetch.
            rows = np.loadtxt(
                os.path.abspath(path),
                dtype=dtype,
                delimiter=",",
                comments=None,
                skiprows=1,
                ndmin=1,
            )
    except ValueError as exc:
        raise ValueError(f"invalid CSV row at {_first_bad_row(path, ndim)}") from exc
    if not rows.size:
        raise ValueError("CSV holds no entries (no matrix entries, no realizations)")
    index = np.stack([rows[f"k{a}"] for a in range(ndim)])
    if index.min() < 0:
        bad = int(np.argmin(index.min(axis=0)))
        raise ValueError(f"negative index in CSV entry {tuple(index[:, bad].tolist())}")
    shape = tuple(int(v) + 1 for v in index.max(axis=1))
    size = math.prod(shape)
    # Rows that fit a grid no larger than their count can be counted per
    # cell; a larger grid cannot be complete, and no array is sized by it.
    if size > rows.size:
        raise ValueError(
            f"CSV holds {rows.size} entries, not the complete "
            f"{' x '.join(map(str, shape))} grid"
        )
    flat = np.ravel_multi_index(tuple(index), shape)
    repeated = np.bincount(flat, minlength=size) > 1
    if repeated.any():
        key = np.unravel_index(int(np.argmax(repeated)), shape)
        raise ValueError(f"duplicate CSV entry {tuple(int(k) for k in key)}")
    # With no cell twice, the rows fill all size <= rows.size cells.
    values = np.empty(rows.size, dtype=complex)
    values.real, values.imag = rows["re"], rows["im"]
    finite = np.isfinite(values)
    if not finite.all():
        key = tuple(index[:, np.argmin(finite)].tolist())
        raise ValueError(f"non-finite value (NaN or infinite) in CSV entry {key}")
    out = np.empty(size, dtype=complex)
    out[flat] = values
    return out.reshape(shape)


def _first_bad_row(path: str, ndim: int) -> str:
    """Line number and fault of the first row of an impedance CSV that does not parse.

    Mirrors the rules numpy's reader applies: only empty lines are
    skipped, fields split at commas, indices are int64 and values
    ASCII floats. Runs only after numpy has rejected the file.
    """
    width = ndim + 2
    # An undecodable byte becomes a lone surrogate, which _parses rejects.
    with open(path, errors="surrogateescape") as fh:
        fh.readline()
        for number, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != width:
                size = "short" if len(fields) < width else "long"
                return f"line {number}: too {size}, {len(fields)} fields for {width} columns"
            for k, text in enumerate(fields):
                if not _parses(text, k < ndim):
                    noun = "an integer index" if k < ndim else "a number"
                    return f"line {number}: {text.strip()!r} is not {noun}"
    return "a line numpy's reader rejects"


def _parses(text: str, integer: bool) -> bool:
    """Whether numpy's reader parses ``text`` as an int64 index or a float."""
    # Python also reads digit separators and non-ASCII digits; numpy does not.
    if not text.isascii() or "_" in text:
        return False
    try:
        if integer:
            return -(2**63) <= int(text) < 2**63
        float(text)
    except ValueError:
        return False
    return True
