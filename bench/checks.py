"""Correctness checks on the outputs of one ``multiport run`` call.

Every check returns a list of problems; an empty list means the call
passed. The benchmark counts every realization of a call with a problem
as failed.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

# Tolerance of the per-realization rate theorems, relative to the larger
# rate plus an absolute floor in bits per channel use.
THEOREM_RTOL = 1e-9
THEOREM_ATOL = 1e-9
# Tolerance of the ergodic rates against the reference recorded with the
# benchmark. It leaves room for roundoff and for a different MAC solver:
# the multi-user capacity of the recorded solver agrees with a solve at
# 1e-16 relative tolerance to 4e-12 relative.
REFERENCE_RTOL = 1e-6

# Pairs (lower, upper) of strategies where the lower rate may not exceed
# the upper one in any realization: the reverse-link precoder cannot beat
# capacity, and no linear precoder beats dirty-paper sum capacity.
THEOREMS_SINGLE_USER = (("recip", "cap"),)
THEOREMS_MULTI_USER = (("cap_lin", "cap"), ("recip_lin", "cap"))


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _all_finite(rows: list[list[str]], columns: range | list[int]) -> bool:
    try:
        return all(math.isfinite(float(row[c])) for row in rows for c in columns)
    except (ValueError, IndexError):
        return False


def check_csvs(
    paths: dict[str, str],
    n_powers: int,
    n_strategies: int,
    n_realizations: int,
    kde_points: int,
    max_streams: int,
) -> list[str]:
    """Row counts, finiteness and stream bounds of the emitted CSVs.

    ``paths`` maps each emit target (``rates_csv`` ...) to its file.
    """
    problems = []
    expected_rows = {
        "rates_csv": n_powers,
        "streams_csv": n_powers * n_strategies,
        "alpha_csv": n_powers * n_realizations,
        "kde_csv": n_powers * kde_points,
    }
    for target, n_rows in expected_rows.items():
        path = paths.get(target)
        if path is None or not os.path.exists(path):
            problems.append(f"{target} was not written")
            continue
        header, rows = read_rows(path)
        if len(rows) != n_rows:
            problems.append(f"{target} has {len(rows)} rows, expected {n_rows}")
            continue
        if target == "rates_csv" and not _all_finite(rows, range(len(header))):
            problems.append("rates_csv holds a non-finite rate")
        if target == "alpha_csv" and not _all_finite(rows, [2]):
            problems.append("alpha_csv holds a non-finite alpha")
        if target == "streams_csv":
            if not _all_finite(rows, [2]):
                problems.append("streams_csv holds a non-finite stream count")
            elif any(not 0.0 <= float(row[2]) <= max_streams for row in rows):
                problems.append(f"mean active streams outside [0, {max_streams}]")
    return problems


def check_result(result) -> list[str]:
    """Per-realization checks on the in-memory ``ScenarioResult``."""
    problems = []
    config = result.config
    for s in config.strategies:
        if not np.all(np.isfinite(result.per_realization_rates[s])):
            problems.append(f"non-finite per-realization rate for {s}")
        if not np.all(np.isfinite(result.per_realization_streams[s])):
            problems.append(f"non-finite per-realization stream count for {s}")
    if result.alpha_samples is not None and not np.all(np.isfinite(result.alpha_samples)):
        problems.append("non-finite alpha sample")
    theorems = THEOREMS_SINGLE_USER if config.is_single_user else THEOREMS_MULTI_USER
    for lower, upper in theorems:
        if lower not in config.strategies or upper not in config.strategies:
            continue
        lo = result.per_realization_rates[lower]
        hi = result.per_realization_rates[upper]
        slack = THEOREM_ATOL + THEOREM_RTOL * np.maximum(np.abs(lo), np.abs(hi))
        bad = np.argwhere(lo > hi + slack)
        if bad.size:
            r, j = bad[0]
            problems.append(
                f"{lower} > {upper} in {len(bad)} (realization, power) pairs, "
                f"first at realization {r}, power index {j}: {lo[r, j]!r} > {hi[r, j]!r}"
            )
    return problems


def check_reference(rates_path: str, reference: dict[str, list[float]]) -> list[str]:
    """Ergodic rates of the named columns against recorded values."""
    header, rows = read_rows(rates_path)
    problems = []
    for column, expected in reference.items():
        if column not in header:
            problems.append(f"reference column {column} missing from rates_csv")
            continue
        c = header.index(column)
        got = np.array([float(row[c]) for row in rows])
        want = np.asarray(expected, dtype=float)
        if got.shape != want.shape or not np.allclose(got, want, rtol=REFERENCE_RTOL, atol=0.0):
            problems.append(f"{column} differs from the reference beyond rtol {REFERENCE_RTOL}")
    return problems
