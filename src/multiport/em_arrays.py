"""Impedance matrices for arrays of parallel half-wave dipoles.

Self and mutual impedances come from the induced-EMF method for
infinitely thin, perfectly conducting lambda/2 dipoles with sinusoidal
current, arranged side by side. Distances are in wavelengths,
impedances in ohm. Every array is the uniform circular array (UCA) of
its element count and adjacent-element spacing; its element positions
are derived from those two numbers.

An array's matrix needs Si and Ci at 2 pi (the self impedance) and at
three arguments per distinct element distance, 49 for a 33-element UCA;
:func:`sine_cosine_integrals` takes them all in one numpy pass per regime.
Up to x = 8 it sums the power series, 26 terms in order (the last below
1e-19 at x = 8); near 8 its terms reach about 400, so cancellation
leaves up to 1e-14 absolute. Beyond 8 it evaluates the continued
fraction of E1(ix) = -Ci(x) + i (Si(x) - pi/2) backward from a fixed
depth of 40, within a few ulp. A fixed depth truncates worst at the
smallest argument: at x = 8, depth 40 is within 6e-21 relative of E1
(60-digit arithmetic), far below double rounding; depth 25 reaches 2.5e-16.

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
_CF_DEPTH = 40
# Term k = 1..25 of Si's series (column 0) and of Ci's (column 1) is
# term k - 1 times -x^2 / step, then divided by the divisor.
_K = np.arange(1.0, 26)[:, None, None]
_SERIES_STEPS = np.concatenate([2 * _K * (2 * _K + 1), (2 * _K - 1) * 2 * _K], axis=1)
_SERIES_DIVISORS = np.concatenate([2 * _K + 1, 2 * _K], axis=1)


def sine_cosine_integrals(x: float | np.ndarray) -> tuple:
    """Si(x) and Ci(x): two floats for a float x, two arrays for an array.

    Raises ValueError unless every argument is positive. Arguments up to
    8 take the power series, those beyond it the continued fraction of
    E1(ix), each regime in one numpy pass (module docstring).
    """
    arr = np.asarray(x, dtype=float)
    if not (arr > 0.0).all():
        raise ValueError("argument must be positive")
    flat, out = arr.reshape(-1), np.empty((2, arr.size))
    small = flat <= _SERIES_CUTOFF
    for part, evaluate in ((small, _series), (~small, _continued_fraction)):
        if part.any():
            out[:, part] = evaluate(flat[part])
    si, ci = out.reshape(2, *arr.shape)
    return (float(si), float(ci)) if arr.ndim == 0 else (si, ci)


def _series(x: np.ndarray) -> np.ndarray:
    """Si and Ci of a 1-D array by their power series, summed term by term in order."""
    # Term 0 of Si is x, of Ci gamma + ln x; Ci's recursion starts from 1.
    terms = np.empty((len(_K) + 1, 2, x.size))
    terms[0, 0], terms[0, 1] = x, 1.0
    np.divide(-(x * x), _SERIES_STEPS, out=terms[1:])
    np.multiply.accumulate(terms, axis=0, out=terms)
    terms[1:] /= _SERIES_DIVISORS
    terms[0, 1] = EULER_GAMMA + np.log(x)
    return np.add.reduce(terms, axis=0)


def _continued_fraction(x: np.ndarray) -> np.ndarray:
    """Si and Ci of a 1-D array from E1(ix) = -Ci(x) + i (Si(x) - pi / 2)."""
    # E1(z) = e^-z / (b_1 - 1 / (b_2 - 4 / (b_3 - ...))) with b_k = z + 2k - 1.
    b = 1j * x + np.arange(2 * _CF_DEPTH - 1, 0, -2.0)[:, None]
    tail = np.zeros(x.size, dtype=complex)
    for k, b_k in zip(range(_CF_DEPTH, 1, -1), b):
        np.add(b_k, tail, out=tail)
        np.divide(-float((k - 1) * (k - 1)), tail, out=tail)
    e1 = np.exp(-1j * x) / (b[-1] + tail)
    return np.stack([math.pi / 2 + e1.imag, -e1.real])


def _dipole_impedances(spacings: np.ndarray) -> np.ndarray:
    """Self impedance, then the mutual impedance at each of 1-D ``spacings``: one Si/Ci pass."""
    mid = np.sqrt(spacings * spacings + 0.25)
    si, ci = sine_cosine_integrals(
        2 * math.pi * np.concatenate([[1.0], spacings, mid + 0.5, mid - 0.5])
    )
    (si0, si1, si2), (ci0, ci1, ci2) = si[1:].reshape(3, -1), ci[1:].reshape(3, -1)
    out = np.empty(1 + spacings.size, dtype=complex)
    out[0] = complex(EULER_GAMMA + math.log(2 * math.pi) - ci[0], si[0])
    out[1:].real = 2 * ci0 - ci1 - ci2
    out[1:].imag = -(2 * si0 - si1 - si2)
    return FREE_SPACE_IMPEDANCE_OHM / (4 * math.pi) * out


def dipole_self_impedance() -> complex:
    """Self impedance of a thin half-wave dipole in ohm."""
    return complex(_dipole_impedances(np.empty(0))[0])


def dipole_mutual_impedance(spacing_wavelengths: float | np.ndarray) -> complex | np.ndarray:
    """Mutual impedance in ohm of two parallel side-by-side half-wave dipoles.

    ``spacing_wavelengths`` is the center-to-center distance, or an array of
    them that the result's shape follows; ValueError unless all are positive.
    """
    s = np.asarray(spacing_wavelengths, dtype=float)
    if not (s > 0.0).all():
        raise ValueError("spacing must be positive")
    z = _dipole_impedances(s.reshape(-1))[1:].reshape(s.shape)
    return complex(z) if s.ndim == 0 else z


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
    distances = np.linalg.norm(positions[1 : n // 2 + 1] - positions[0], axis=1)
    first = _dipole_impedances(distances)
    offset = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return first[np.minimum(offset, n - offset)]


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
