"""Command line interface.

Subcommands:

- ``run``: execute a scenario described by a JSON file and write CSV
  outputs plus the resolved effective configuration. Stdout lists the
  written files and a ``failures: N`` line; stderr gets an
  ``unconverged: N`` line counting sum-capacity solves whose duality
  gap stayed above MAC_GAP_TOL * max(1, rate) bits, a
  ``mac_iterations: mean M max N`` line with their iteration counts
  and a ``mac_gap_bits: max G`` line: every solve is within G bits of
  sum capacity (both 0 without any solves). Two single-antenna users
  are solved in closed form, so such a run reads
  ``mac_iterations: mean 0.00 max 0`` and a gap at roundoff. The
  output directory is made once the run has finished, and each output
  is written to a temporary file in it and renamed into place, so a
  failed run leaves no empty directory and an aborted write no
  half-written file. An output path blocked by an existing file is
  rejected before the run.
- ``dump-impedance``: print or save the impedance matrix of a uniform
  circular dipole array.
- ``kde``: compute a Gaussian kernel density estimate from a one-column
  CSV of samples; only its first row may be a non-numeric header. A
  sample is a number by the impedance CSV's rule: ASCII, without digit
  separators. A header is text that Python's ``float`` rejects too, so
  a first cell such as ``1_0``, which ``float`` reads as 10.0, is an
  input error that names its line, not a header.

Exit codes: 0 on success, 2 for configuration or input errors (an
input or output path that cannot be read, written or made among them),
3 when a simulation aborts because a link front end cannot be built (the
receive noise covariance does not factor).
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np

from .em_arrays import (
    _parses,
    array_impedance_matrix,
    uniform_circular_array,
    write_impedance_csv,
    write_impedance_rows,
)
from .montecarlo import (
    KDE_GRID_POINTS,
    ConfigError,
    ScenarioConfig,
    ScenarioResult,
    SimulationAbort,
    config_to_json,
    from_json,
    gaussian_kde,
    reports_alpha,
    run_scenario,
)

OUTPUT_DIR_ENV = "MULTIPORT_OUTDIR"
RATE_COLUMNS = {
    "cap": "C_erg",
    "recip": "R_erg_recip",
    "hyp": "R_erg_hyp",
    "cap_lin": "R_erg_lin",
    "recip_lin": "R_erg_recip_lin",
    "hyp_lin": "R_erg_hyp_lin",
}


def _write_csv(path: str, header: list[str], rows: list[str]) -> None:
    """Write a header and preformatted rows, each line ending in CRLF.

    A row may be a block of several lines joined by CRLF, such as one
    power point's rows from :func:`_per_power_rows`.
    """
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *rows, ""]))


def _write_rates_csv(path: str, result: ScenarioResult) -> None:
    strategies = result.config.strategies
    columns = [result.ergodic_rates[s].tolist() for s in strategies]
    rows = [
        ",".join(repr(float(v)) for v in values)
        for values in zip(result.config.power_grid_dbw, *columns)
    ]
    _write_csv(path, ["P_dBW"] + [RATE_COLUMNS[s] for s in strategies], rows)


def _per_power_rows(
    result: ScenarioResult, format_column: Callable[[np.ndarray], list[str]]
) -> list[str]:
    """One block of rows ``"{P!r},{body}"`` per power point P, from its alpha column.

    ``format_column(column)`` formats each column that differs in any
    bit from the column before it; a repeated column reuses the previous
    bodies, which prints the same bytes. A single-receiver alpha does not
    depend on the budget, so all its columns repeat. A block joins its
    rows by CRLF, so the prefixing runs inside ``str.join``.
    """
    blocks, previous, bodies = [], None, []
    for p_dbw, column in zip(result.config.power_grid_dbw, result.alpha_samples.T):
        if column.tobytes() != previous:
            previous, bodies = column.tobytes(), format_column(column)
        prefix = f"{float(p_dbw)!r},"
        blocks.append(prefix + ("\r\n" + prefix).join(bodies))
    return blocks


def _alpha_rows(alpha: np.ndarray) -> list[str]:
    """``"{r},{alpha!r}"`` rows of one power point's alpha over the realizations r."""
    return [f"{r},{a!r}" for r, a in enumerate(alpha.tolist())]


def _kde_rows(grid: np.ndarray, density: np.ndarray) -> list[str]:
    """``"{g!r},{d!r}"`` rows of a KDE curve."""
    return [f"{g!r},{d!r}" for g, d in zip(grid.tolist(), density.tolist())]


def _alpha_kde_rows(column: np.ndarray) -> list[str]:
    """KDE rows of one alpha column, or ``nan,nan`` rows where :func:`gaussian_kde` rejects it.

    A column has no density with fewer than two realizations, a
    non-finite alpha or zero spread.
    """
    try:
        return _kde_rows(*gaussian_kde(column))
    except ValueError:
        return ["nan,nan"] * KDE_GRID_POINTS


def _write_alpha_csv(path: str, result: ScenarioResult) -> None:
    rows = _per_power_rows(result, _alpha_rows)
    _write_csv(path, ["P_dBW", "realization", "alpha"], rows)


def _write_streams_csv(path: str, result: ScenarioResult) -> None:
    strategies = result.config.strategies
    columns = [result.mean_active_streams[s].tolist() for s in strategies]
    rows = [
        f"{float(p_dbw)!r},{s},{streams!r}"
        for p_dbw, *values in zip(result.config.power_grid_dbw, *columns)
        for s, streams in zip(strategies, values)
    ]
    _write_csv(path, ["P_dBW", "strategy", "mean_active_streams"], rows)


def _write_kde_csv(path: str, result: ScenarioResult) -> None:
    rows = _per_power_rows(result, _alpha_kde_rows)
    _write_csv(path, ["P_dBW", "alpha", "density"], rows)


def _write_atomically(path: str, write: Callable[[str], None]) -> None:
    """Run ``write`` on a temporary file beside ``path``, then rename it over ``path``.

    The rename is atomic within one directory, so ``path`` is either
    left as it was or complete; the temporary file never survives.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


_EMIT_WRITERS = {
    "rates_csv": ("rates.csv", _write_rates_csv),
    "alpha_csv": ("alpha.csv", _write_alpha_csv),
    "streams_csv": ("streams.csv", _write_streams_csv),
    "kde_csv": ("kde.csv", _write_kde_csv),
}
EMIT_CHOICES = tuple(_EMIT_WRITERS)


@dataclass(frozen=True)
class RunConfig:
    """A run configuration file: the scenario and how to run and emit it.

    ``emit`` None means the default targets of the scenario; an
    ``output_dir`` of None defers to ``$MULTIPORT_OUTDIR``, then ".".
    """

    scenario: ScenarioConfig
    emit: tuple[str, ...] | None = None
    n_workers: int = 1
    output_dir: str | None = None

    def __post_init__(self) -> None:
        scenario = self.scenario
        has_alpha = any(reports_alpha(s, scenario.is_single_user) for s in scenario.strategies)
        if self.emit is None:
            emit = ("rates_csv", "streams_csv") + (("alpha_csv", "kde_csv") if has_alpha else ())
            object.__setattr__(self, "emit", emit)
        if not self.emit:
            raise ConfigError("emit must be a nonempty list")
        for item in self.emit:
            if item not in EMIT_CHOICES:
                raise ConfigError(f"unknown emit target {item!r}")
        if len(set(self.emit)) != len(self.emit):
            raise ConfigError("emit targets must be unique")
        if not has_alpha and ("alpha_csv" in self.emit or "kde_csv" in self.emit):
            raise ConfigError("alpha outputs need a strategy that reports alpha")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be an integer of at least 1")


def _check_output_dir(path: str) -> None:
    """Raise the error ``os.makedirs(path, exist_ok=True)`` would meet at a file.

    Checked before the run, so a path blocked by an existing file fails
    at once rather than after the whole scenario has run.
    """
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        code = errno.EEXIST if head == os.path.abspath(path) else errno.ENOTDIR
        raise OSError(code, os.strerror(code), path)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    run = from_json(RunConfig, data, "run-config")
    if args.workers is not None:
        run = replace(run, n_workers=args.workers)
    config = run.scenario
    out_dir = (
        args.output_dir
        or run.output_dir
        or os.environ.get(OUTPUT_DIR_ENV)
        or "."
    )
    _check_output_dir(out_dir)
    result = run_scenario(config, n_workers=run.n_workers)
    os.makedirs(out_dir, exist_ok=True)

    written = []
    for item in run.emit:
        suffix, writer = _EMIT_WRITERS[item]
        path = os.path.join(out_dir, f"{config.name}_{suffix}")
        _write_atomically(path, lambda tmp: writer(tmp, result))
        written.append(path)
    effective = config_to_json(replace(run, output_dir=os.path.abspath(out_dir))) + "\n"
    effective_path = os.path.join(out_dir, f"{config.name}_effective_config.json")
    _write_atomically(effective_path, lambda tmp: Path(tmp).write_text(effective))
    written.append(effective_path)
    for path in written:
        print(path)
    print(f"failures: {result.n_failures}")
    print(f"unconverged: {result.n_unconverged}", file=sys.stderr)
    print(
        f"mac_iterations: mean {result.mac_iterations_mean:.2f} "
        f"max {result.mac_iterations_max}",
        file=sys.stderr,
    )
    print(f"mac_gap_bits: max {result.mac_gap_bits_max:.3g}", file=sys.stderr)
    return 0


def cmd_dump_impedance(args: argparse.Namespace) -> int:
    try:
        geometry = uniform_circular_array(args.n, args.d)
    except ValueError as exc:
        raise ConfigError(f"invalid array: {exc}") from exc
    matrix = array_impedance_matrix(geometry)
    if args.out:
        write_impedance_csv(args.out, matrix)
        print(args.out)
    else:
        write_impedance_rows(sys.stdout, matrix)
    return 0


def _is_text(cell: str) -> bool:
    """Whether Python's ``float`` rejects ``cell``, as it does a header's name."""
    try:
        float(cell)
    except ValueError:
        return True
    return False


def cmd_kde(args: argparse.Namespace) -> int:
    samples, header_allowed = [], True
    # An undecodable byte becomes a lone surrogate, which float() rejects.
    with open(args.input, newline="", errors="surrogateescape") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row:
                continue
            # The impedance reader's float rule: no digit separators or non-ASCII digits.
            if _parses(row[0], integer=False):
                samples.append(float(row[0]))
            elif not (header_allowed and _is_text(row[0])):
                raise ConfigError(f"{args.input} line {rows.line_num}: {row[0]!r} is not a number")
            header_allowed = False
    try:
        grid, density = gaussian_kde(np.array(samples))
    except ValueError as exc:
        raise ConfigError(f"cannot estimate density: {exc}") from exc
    _write_csv(args.output, ["value", "density"], _kde_rows(grid, density))
    print(args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiport",
        description="Physically consistent MIMO link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a JSON config")
    p_run.add_argument("config", help="path to the JSON run configuration")
    p_run.add_argument("--output-dir", default=None, help="directory for CSV outputs")
    p_run.add_argument(
        "--workers", type=int, default=None, help="worker processes (default from config)"
    )
    p_run.set_defaults(func=cmd_run)

    p_dump = sub.add_parser(
        "dump-impedance", help="impedance matrix of a uniform circular dipole array"
    )
    p_dump.add_argument("--n", type=int, required=True, help="number of elements")
    p_dump.add_argument(
        "--d", type=float, default=0.5, help="adjacent spacing in wavelengths"
    )
    p_dump.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_dump.set_defaults(func=cmd_dump_impedance)

    p_kde = sub.add_parser(
        "kde", help="Gaussian kernel density estimate of a one-column CSV"
    )
    p_kde.add_argument("input", help="CSV file, samples in the first column")
    p_kde.add_argument("output", help="CSV file for (value, density) rows")
    p_kde.set_defaults(func=cmd_kde)
    return parser


# main's parser, built once per process. It bound the cmd_* functions when
# it was built, so a later patch of one does not reach main.
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # An input or output path that cannot be read, written or made.
        if exc.filename is None:
            raise
        print(f"config error: cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except SimulationAbort as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
