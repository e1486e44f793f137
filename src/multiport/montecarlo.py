"""Monte Carlo link-level simulation over random coupling realizations.

A scenario fixes both array geometries and terminations, draws the
trans-impedance coupling matrix i.i.d. complex Gaussian per
realization (or imports externally generated realizations as a
three-index impedance CSV of :mod:`multiport.em_arrays`), builds the
physically consistent forward and reverse channels, and evaluates the
configured transmit strategies over a transmit power grid. Results are
ergodic averages plus per-realization samples of rates, active stream
counts, and radiated-power ratios alpha; :func:`gaussian_kde` estimates
the density of one sample set, such as a power point's alpha column.

Configurations are frozen dataclasses. :func:`from_json` builds one
from a JSON object and reads each field's JSON type from the field's
declared type, so the scenario and noise blocks (and the command
line's run config) share one parser; each class's ``__post_init__``
checks the values.

Only the coupling block varies between realizations, so both link
front ends are built once per process for each geometry and noise; one
that cannot be built aborts the run before any coupling is read or drawn.

Realizations run in chunks of fixed size. The calling process reads or
draws each chunk's couplings; one worker call, serial or pooled, rates
that (R, ...) stack with every strategy and returns a ChunkOutcome,
which run_scenario concatenates field by field in chunk order; a pool
task carries only the config and its chunk's couplings.

Reproducibility: every realization uses a counter-based random stream
keyed by (seed, realization index, attempt 0), and its results depend
on its own coupling only, not on the chunk it is rated in, so results
are byte-identical across worker counts and chunk sizes, and a longer
run repeats the realizations of a shorter one.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, lru_cache, partial
from types import MappingProxyType
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .channel_model import (
    FrontEnd,
    ImpedanceSystem,
    NoiseConfig,
    build_bundle,  # noqa: F401  # bench/tests/test_bench.py reads montecarlo.build_bundle
    front_end,
    link_channel,
    naive_channels,
    reversed_link,
)
from .em_arrays import (
    array_impedance_matrix,
    dipole_mutual_impedance,
    read_impedance_csv,
    uniform_circular_array,
    write_impedance_csv,
)
from .numerics import FactorizationError
from .strategies import beam_design, greedy_zf_design, mac_sum_capacity_grid, mode_design

FAR_FIELD_DISTANCE_WAVELENGTHS = 1000.0
SINGLE_USER_STRATEGIES = ("cap", "recip", "hyp")
MULTI_USER_STRATEGIES = ("cap", "hyp", "cap_lin", "recip_lin", "hyp_lin")
KDE_GRID_POINTS = 128
# Realizations per worker call. Outputs do not depend on it; it trades
# per-call numpy overhead against the memory of the stacked intermediates.
CHUNK_REALIZATIONS = 128


class ConfigError(ValueError):
    """A scenario or run configuration is invalid."""


class SimulationAbort(RuntimeError):
    """The scenario's link front ends cannot be built."""


@cache
def far_field_coupling_std() -> float:
    """Calibrated coupling standard deviation in ohm.

    Matches the magnitude of the dipole mutual impedance at a far-field
    reference distance, so random realizations carry a physically
    plausible path scale. Computed once per process.
    """
    return abs(dipole_mutual_impedance(FAR_FIELD_DISTANCE_WAVELENGTHS))


def gaussian_kde(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density estimate of one sample set on an automatic grid.

    ``samples`` is one set (n,). The bandwidth is the Silverman rule
    1.06 * std * n^(-1/5); the grid of KDE_GRID_POINTS points spans the
    sample range extended by three bandwidths on both sides. Returns
    the grid and the density, (KDE_GRID_POINTS,) each. The kernels are
    evaluated in one (KDE_GRID_POINTS, n) buffer, reused for every step.

    Raises ValueError for samples of any other rank, fewer than two
    samples, a non-finite sample or zero spread.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("samples must be one set (n,)")
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    std = float(np.std(x, ddof=1))
    if std == 0.0:
        raise ValueError("samples are degenerate (zero spread)")
    bandwidth = 1.06 * std * n ** (-1.0 / 5.0)
    spread = 3 * bandwidth
    grid = np.linspace(x.min() - spread, x.max() + spread, KDE_GRID_POINTS)
    # exp(-z^2 / 2) with z = (g - x) / h in one (grid, n) buffer; scaling by
    # -0.5 is exact, so the order of the two products does not change a bit.
    kernel = np.subtract.outer(grid, x)
    kernel /= bandwidth
    kernel *= kernel
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    density = kernel.sum(axis=1) / (n * bandwidth * math.sqrt(2 * math.pi))
    return grid, density


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, strategies, power grid, and sampling plan of one run."""

    name: str
    n_tx: int
    tx_spacing: float
    rx_partition: tuple[int, ...]
    strategies: tuple[str, ...]
    power_grid_dbw: tuple[float, ...]
    n_realizations: int
    seed: int = 0
    rx_spacing: float | None = None
    coupling_std_ohm: float | None = None
    coupling_file: str | None = None
    # None means NoiseConfig.default().
    noise: NoiseConfig | None = None

    def __post_init__(self) -> None:
        if self.noise is None:
            object.__setattr__(self, "noise", NoiseConfig.default())
        if not self.name:
            raise ConfigError("scenario name must be nonempty")
        # The name prefixes output files inside the output directory.
        if any(c in self.name for c in "/\\\0"):
            raise ConfigError("scenario name must not hold a path separator or NUL")
        for name in ("tx_spacing", "rx_spacing", "coupling_std_ohm"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if self.n_tx < 1:
            raise ConfigError("n_tx must be at least 1")
        if not self.tx_spacing > 0.0:
            raise ConfigError("tx_spacing must be positive")
        if not self.rx_partition or any(m < 1 for m in self.rx_partition):
            raise ConfigError("rx_partition must be positive antenna counts")
        if any(m > 1 for m in self.rx_partition) and (
            self.rx_spacing is None or not self.rx_spacing > 0.0
        ):
            raise ConfigError("rx_spacing must be positive for multi-antenna users")
        allowed = (
            SINGLE_USER_STRATEGIES
            if len(self.rx_partition) == 1
            else MULTI_USER_STRATEGIES
        )
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        for s in self.strategies:
            if s not in allowed:
                raise ConfigError(
                    f"strategy {s!r} is not available for this topology; "
                    f"allowed: {', '.join(allowed)}"
                )
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("strategies must be unique")
        grid = self.power_grid_dbw
        if not grid or not all(math.isfinite(p) for p in grid):
            raise ConfigError("power_grid_dbw must be nonempty and finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("power_grid_dbw must be strictly increasing")
        self.powers_w  # raises ConfigError for a power beyond the float range
        if self.n_realizations < 1:
            raise ConfigError("n_realizations must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be nonnegative and below 2**64")
        if self.coupling_std_ohm is not None and not self.coupling_std_ohm > 0.0:
            raise ConfigError("coupling_std_ohm must be positive when given")

    @property
    def powers_w(self) -> np.ndarray:
        """The power grid in watt; ConfigError for a power beyond the float range."""
        try:
            return np.array([10.0 ** (p / 10.0) for p in self.power_grid_dbw])
        except OverflowError:
            raise ConfigError("power_grid_dbw entries must be below 3083 dBW") from None

    @property
    def n_rx_total(self) -> int:
        return int(sum(self.rx_partition))

    @property
    def is_single_user(self) -> bool:
        return len(self.rx_partition) == 1


def _json_default(value):
    """``json.dumps`` default: a config dataclass's fields, a complex's ``[re, im]``."""
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    return [value.real, value.imag]


def config_to_json(config) -> str:
    """JSON text of a config dataclass, indented by two with sorted keys."""
    return json.dumps(config, default=_json_default, indent=2, sort_keys=True)


def config_to_dict(config) -> dict:
    """JSON-safe dictionary form of a config dataclass; :func:`from_json` reads it back."""
    return json.loads(config_to_json(config))


def from_json(cls, data, what: str):
    """Build the config dataclass ``cls`` from the JSON object ``data``.

    Each field takes the JSON type of its declared type: ``int`` a JSON
    integer, ``float`` a number, ``str`` a string, ``complex`` a number
    or ``[re, im]``, ``tuple[X, ...]`` a list of X, a dataclass an
    object parsed by this function, and ``X | None`` null or X. Fields
    with a default may be left out. ``what`` names the block in errors.
    Raises ConfigError for an unknown or missing field, a value of
    another JSON type, or a value the constructor rejects.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    declared, required = _json_fields(cls)
    unknown = data.keys() - declared.keys()
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    missing = required - data.keys()
    if missing:
        raise ConfigError(f"missing {what} fields: {sorted(missing)}")
    values = {name: _json_value(declared[name], name, value) for name, value in data.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid {what} value: {exc}") from exc


@cache
def _json_fields(cls) -> tuple[MappingProxyType, frozenset]:
    """Declared type of every field of ``cls``, and the required field names.

    Resolving the string annotations costs more than a whole parse, so
    it runs once per class.
    """
    hints = get_type_hints(cls)
    declared = MappingProxyType({f.name: hints[f.name] for f in fields(cls)})
    required = frozenset(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return declared, required


# Python types a JSON value of a scalar field may have, and the noun of the error.
_JSON_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    complex: ((int, float), "a number or [re, im]"),
    str: ((str,), "a string"),
}


def _json_value(hint, name: str, value):
    """``value`` as the declared type ``hint`` of field ``name`` (see :func:`from_json`)."""
    if type(None) in get_args(hint):
        if value is None:
            return None
        (hint,) = (a for a in get_args(hint) if a is not type(None))
    if is_dataclass(hint):
        return from_json(hint, value, name)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, not {value!r}")
        return tuple(_json_value(get_args(hint)[0], name, v) for v in value)
    if hint is complex and isinstance(value, list) and len(value) == 2:
        return complex(*(_json_value(float, name, v) for v in value))
    accepted, noun = _JSON_SCALARS[hint]
    # bool is a subclass of int, but JSON true is not a number.
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name} must be {noun}, not {value!r}")
    try:
        return hint(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite") from None


def config_from_dict(data: dict) -> ScenarioConfig:
    """Parse a scenario configuration, applying defaults."""
    return from_json(ScenarioConfig, data, "scenario")


@dataclass(frozen=True)
class ScenarioResult:
    """Aggregated and per-realization outputs of one scenario run."""

    config: ScenarioConfig
    ergodic_rates: dict[str, np.ndarray]
    per_realization_rates: dict[str, np.ndarray]
    mean_active_streams: dict[str, np.ndarray]
    per_realization_streams: dict[str, np.ndarray]
    alpha_samples: np.ndarray | None
    # Realizations without a usable channel. Always 0: only the front
    # ends can fail to factor, and that aborts the run.
    n_failures: int
    # Sum-capacity solves (multi-user cap and hyp, one per budget of each
    # grid solve) whose duality gap stayed above MAC_GAP_TOL * max(1, rate)
    # bits: not certified within that many bits of sum capacity.
    # Always 0 for single-user runs.
    n_unconverged: int
    # Mean and max iteration count over those solves; 0 without any.
    mac_iterations_mean: float
    mac_iterations_max: int
    # Largest duality gap in bits over those solves; 0 without any.
    mac_gap_bits_max: float


def coupling_realization(
    seed: int, realization: int, attempt: int, n_rx: int, n_tx: int, std: float
) -> np.ndarray:
    """Draw one i.i.d. circularly symmetric Gaussian coupling matrix.

    Entries have standard deviation ``std`` split evenly between real
    and imaginary parts. The counter-based stream makes each
    (seed, realization, attempt) triple independent; runs always draw
    ``attempt`` 0. Raises ValueError unless each index is an integer in
    [0, 2**64) and ``std`` is positive and finite.
    """
    for name, index in (("seed", seed), ("realization", realization), ("attempt", attempt)):
        if not (isinstance(index, numbers.Integral) and 0 <= index < 2**64):
            raise ValueError(f"{name} must be an integer in [0, 2**64)")
    if not (math.isfinite(std) and std > 0.0):
        raise ValueError("std must be positive and finite")
    return _draw_couplings(seed, attempt, [realization], n_rx, n_tx, std)[0]


def _draw_couplings(
    seed: int, attempt: int, realizations, n_rx: int, n_tx: int, std: float
) -> np.ndarray:
    """Coupling matrices (R, n_rx, n_tx), one per realization index.

    One Philox generator serves all indices. Setting its counter to
    (0, 0, attempt, realization) with an empty output buffer gives the
    state of a fresh generator with that counter, which draws the real
    and then the imaginary parts straight into the realization's slot.
    The state dict holds Python integers, which the setter converts in
    about half the time of numpy scalars, and each realization writes
    only its index into the counter. ``realizations`` is a sequence of
    integers: a list, a range or a numpy integer array.
    """
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh generator's: its output buffer is empty
    counter = [0, 0, int(attempt), 0]
    state["state"] = {"counter": counter, "key": [int(seed), 0]}
    state["buffer"] = state["buffer"].tolist()
    parts = np.empty((len(realizations), 2, n_rx, n_tx))
    for r, out in zip(realizations, parts):
        counter[3] = r
        bitgen.state = state
        rng.standard_normal(out=out)
    return std / math.sqrt(2.0) * (parts[:, 0] + 1j * parts[:, 1])


def read_coupling_file(path: str) -> np.ndarray:
    """Load externally generated coupling realizations.

    The file is an impedance CSV (:func:`~multiport.em_arrays.read_impedance_csv`)
    with the header ``realization,i,j,re_ohm,im_ohm``. Returns an
    (n_realizations, n_rx, n_tx) array. Raises ConfigError unless the
    file can be read and holds exactly one finite value for every
    (realization, i, j) of a complete grid.
    """
    try:
        out = read_impedance_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read coupling file {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"coupling CSV: {exc}") from exc
    if out.ndim != 3:
        raise ConfigError("coupling CSV header must be realization,i,j,re_ohm,im_ohm")
    return out


def write_coupling_file(path: str, realizations: np.ndarray) -> None:
    """Write coupling realizations in the CSV import format."""
    if np.ndim(realizations) != 3:
        raise ValueError("realizations must be (n_realizations, n_rx, n_tx)")
    write_impedance_csv(path, realizations)


def _receive_impedance(partition: tuple[int, ...], spacing: float, z_self: complex) -> np.ndarray:
    """Block-diagonal receive impedance: one UCA block per user."""
    z_rx = np.zeros((sum(partition),) * 2, dtype=complex)
    offset = 0
    for m in partition:
        if m == 1:
            z_rx[offset, offset] = z_self
        else:
            geom = uniform_circular_array(m, spacing)
            z_rx[offset : offset + m, offset : offset + m] = array_impedance_matrix(geom)
        offset += m
    return z_rx


def _front_ends(config: ScenarioConfig) -> tuple[FrontEnd, FrontEnd]:
    """Forward and reverse link front ends; SimulationAbort if one cannot be built."""
    c = config  # tuple(): a config built in Python may hold a list partition
    return _built_front_ends(c.n_tx, c.tx_spacing, tuple(c.rx_partition), c.rx_spacing, c.noise)


@lru_cache(maxsize=1)
def _built_front_ends(
    n_tx: int, tx_spacing: float, rx_partition: tuple, rx_spacing: float, noise: NoiseConfig
) -> tuple[FrontEnd, FrontEnd]:
    """:func:`_front_ends` of one geometry and noise, in a one-entry process cache.

    Runs that differ only in seed, size, power grid or coupling file share
    the entry, and so do pool workers: a fork-started one inherits it, a
    spawn-started one fills it once. Every array is read-only, so no run
    can change a later one's. The cache stores no exception, so a failure
    raises SimulationAbort on every call.
    """
    z_tx = array_impedance_matrix(uniform_circular_array(n_tx, tx_spacing))
    # The diagonal of an array's impedance matrix is the dipole self impedance.
    termination = complex(z_tx[0, 0].real)
    forward = ImpedanceSystem(
        z_tx=z_tx,
        z_rx=_receive_impedance(rx_partition, rx_spacing, z_tx[0, 0]),
        z_coupling=np.zeros((sum(rx_partition), n_tx), dtype=complex),
        z_source=termination,
        z_load=termination,
    )
    try:
        fronts = front_end(forward, noise), front_end(reversed_link(forward), noise)
    except FactorizationError as exc:
        raise SimulationAbort(f"link front end cannot be built: {exc}") from exc
    for value in (*vars(fronts[0]).values(), *vars(fronts[1]).values()):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return fronts


def bounded_workers(requested: int, n_chunks: int, cpu_count: int | None) -> int:
    """Worker processes worth starting: at most one per CPU and per chunk."""
    return max(1, min(requested, cpu_count or 1, n_chunks))


class ChunkOutcome(NamedTuple):
    """Every strategy's results on one chunk of R realizations.

    ``rates`` and ``streams`` map each strategy to its (R, P) rates and
    active stream counts; ``alpha`` is the (R, P) alpha of the strategy
    that reports it, or None. ``mac_iterations``, ``mac_gap_bits`` and
    ``mac_converged`` hold each sum-capacity solve's iteration count,
    duality gap in bits and certificate (see MacGrid), one entry per
    (MAC strategy, realization, budget) in C order; empty without any.
    """

    rates: dict[str, np.ndarray]
    streams: dict[str, np.ndarray]
    alpha: np.ndarray | None
    mac_iterations: np.ndarray
    mac_gap_bits: np.ndarray
    mac_converged: np.ndarray


def reports_alpha(strategy: str, single_user: bool) -> bool:
    """Whether ``strategy`` reports its radiated-power ratio alpha.

    Only the naive family designs against a mismatched power model.
    Multi-user ``hyp`` rates a dual-MAC covariance, which fixes no
    broadcast covariance and hence no radiated power.
    """
    return strategy == "hyp_lin" or (strategy == "hyp" and single_user)


def _evaluate_chunk(
    config: ScenarioConfig,
    down: FrontEnd,
    channels: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    powers_w: np.ndarray,
) -> ChunkOutcome:
    """Every strategy on a chunk of channel stacks (R, m, n), with h_up (R, n, m).

    Multi-user strategies of one algorithm share one stack along a new
    leading axis: the cap and hyp sum-capacity solves form one MAC
    stack, and the _lin strategies one greedy zero-forcing design and
    rating, with the mismatched power model only when hyp_lin is
    requested. Each strategy reads its own slice. Single-user beams and
    eigenmodes stay one design per strategy: one stacked design over
    the three design channels measured slower than three designs. Every
    realization's rates, streams and alpha are bit for bit those of
    the same realization evaluated alone.
    """
    h, h_mismatched, h_assumed, h_up = channels
    # Per strategy family: the channel it is designed on, the channel it
    # is rated on (None: the design channel) and the power model it
    # designs against (None: the true one). A _lin strategy shares its
    # family's entry.
    plans = {
        "cap": (h, None, None),
        "recip": (h_up.swapaxes(1, 2), h, None),
        "hyp": (h_assumed, h_mismatched, down.mismatch_power),
    }
    sigma, partition = down.noise_scale, config.rx_partition
    single_user = config.is_single_user
    # Each strategy's (rates, streams, alpha); a sum-capacity entry has no alpha.
    grids = {}
    iterations, gaps, converged = np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=bool)
    mac = [s for s in ("cap", "hyp") if s in config.strategies and not single_user]
    lin = [s for s in ("cap_lin", "recip_lin", "hyp_lin") if s in config.strategies]
    for stack in filter(None, (mac, lin)):
        families = [plans[s.removesuffix("_lin")] for s in stack]
        design = np.stack([d for d, _, _ in families])
        rated = np.stack([d if r is None else r for d, r, _ in families])
        if stack is mac:
            grid = mac_sum_capacity_grid(design, partition, powers_w, sigma, rated)
            iterations, gaps, converged = (
                a.reshape(-1) for a in (grid.iterations, grid.gap_bits, grid.converged)
            )
            alpha = [None] * len(mac)
        else:
            power_model = down.mismatch_power if "hyp_lin" in lin else None
            grid = greedy_zf_design(design, partition, rated, power_model).evaluate(powers_w, sigma)
            alpha = grid.alpha
        grids.update(zip(stack, zip(grid.rates, grid.streams, alpha)))
    rates, streams, alphas = {}, {}, None
    for s in config.strategies:
        if s not in grids:
            design, rated, power_model = plans[s]
            if design.shape[-2] == 1:
                rated = None if rated is None else rated[:, 0]
                built = beam_design(design[:, 0], rated, power_model)
            else:
                built = mode_design(design, rated, power_model)
            grids[s] = built.evaluate(powers_w, sigma)[:3]
        rates[s], counts, alpha = grids[s]
        streams[s] = counts.astype(float)
        if reports_alpha(s, single_user):
            alphas = alpha
    return ChunkOutcome(rates, streams, alphas, iterations, gaps, converged)


def _run_chunk(config: ScenarioConfig, z21: np.ndarray) -> ChunkOutcome:
    """Every strategy on the chunk of couplings ``z21`` (R, n_rx, n_tx)."""
    down, up = _front_ends(config)
    channels = (
        link_channel(down, z21),
        *naive_channels(down, z21),
        link_channel(up, z21.swapaxes(1, 2)),
    )
    return _evaluate_chunk(config, down, channels, config.powers_w)


def _couplings(config: ScenarioConfig, chunks: list[range]):
    """Each chunk's coupling stack: a slice of the imported file, or fresh draws.

    Raises ConfigError when the imported file does not fit the scenario.
    """
    if config.coupling_file is None:
        std = config.coupling_std_ohm
        if std is None:
            std = far_field_coupling_std()
        n_rx, n_tx = config.n_rx_total, config.n_tx
        return (_draw_couplings(config.seed, 0, c, n_rx, n_tx, std) for c in chunks)
    imported = read_coupling_file(config.coupling_file)
    if imported.shape[1:] != (config.n_rx_total, config.n_tx):
        raise ConfigError(
            f"coupling file shape {imported.shape[1:]} does not match "
            f"({config.n_rx_total}, {config.n_tx})"
        )
    if imported.shape[0] < config.n_realizations:
        raise ConfigError(
            f"coupling file holds {imported.shape[0]} realizations, "
            f"need {config.n_realizations}"
        )
    return (imported[c.start : c.stop] for c in chunks)


def run_scenario(config: ScenarioConfig, n_workers: int = 1) -> ScenarioResult:
    """Run all realizations of a scenario and aggregate the results.

    Realizations run in chunks of CHUNK_REALIZATIONS. ``n_workers`` > 1
    distributes the chunks over processes, at most one per chunk and per
    CPU this process may run on; each task carries only the config and
    its own chunk's couplings, which this process reads or draws, and
    front ends come from a per-process cache (:func:`_built_front_ends`).
    Outputs are identical to the serial run, and to a run with any other
    chunk size, because every realization owns a counter-based random
    stream, its results do not depend on its chunk and results are
    reduced in index order. Raises ValueError unless ``n_workers`` is an
    integer of at least 1 (not a bool), and SimulationAbort when the
    link front ends cannot be built, before any coupling is read or drawn.
    """
    if isinstance(n_workers, bool) or not isinstance(n_workers, numbers.Integral) or n_workers < 1:
        raise ValueError("n_workers must be an integer of at least 1")
    _front_ends(config)  # aborts before any coupling is read or drawn
    n = config.n_realizations
    chunks = [range(a, min(a + CHUNK_REALIZATIONS, n)) for a in range(0, n, CHUNK_REALIZATIONS)]
    stacks = _couplings(config, chunks)
    worker = partial(_run_chunk, config)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    n_workers = bounded_workers(n_workers, len(chunks), cpus)
    if n_workers > 1:
        # Imported here: loading multiprocessing costs every serial run.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(worker, stacks))
    else:
        outcomes = [worker(z21) for z21 in stacks]

    per_rates = {s: np.vstack([out.rates[s] for out in outcomes]) for s in config.strategies}
    per_streams = {s: np.vstack([out.streams[s] for out in outcomes]) for s in config.strategies}
    has_alpha = outcomes[0].alpha is not None
    alpha_samples = np.vstack([out.alpha for out in outcomes]) if has_alpha else None
    ergodic = {s: per_rates[s].mean(axis=0) for s in config.strategies}
    mean_streams = {s: per_streams[s].mean(axis=0) for s in config.strategies}
    iterations = np.concatenate([out.mac_iterations for out in outcomes])
    gaps = np.concatenate([out.mac_gap_bits for out in outcomes])
    converged = np.concatenate([out.mac_converged for out in outcomes])
    return ScenarioResult(
        config=config,
        ergodic_rates=ergodic,
        per_realization_rates=per_rates,
        mean_active_streams=mean_streams,
        per_realization_streams=per_streams,
        alpha_samples=alpha_samples,
        n_failures=0,
        n_unconverged=int(np.count_nonzero(~converged)),
        mac_iterations_mean=float(iterations.mean()) if iterations.size else 0.0,
        mac_iterations_max=int(iterations.max(initial=0)),
        mac_gap_bits_max=float(gaps.max(initial=0.0)),
    )
