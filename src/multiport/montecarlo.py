"""Monte Carlo link-level simulation over random coupling realizations.

A scenario fixes both array geometries and terminations, draws the
trans-impedance coupling matrix i.i.d. complex Gaussian per
realization (or imports externally generated realizations, as JSON or
as a three-index impedance CSV of :mod:`multiport.em_arrays`), builds the
physically consistent forward and reverse channels, and evaluates the
configured transmit strategies over a transmit power grid. Results are
ergodic averages plus per-realization samples of rates, active stream
counts, and radiated-power ratios with a Gaussian kernel density
estimate of the latter.

Only the coupling block varies between realizations, so both link
front ends are built once per scenario; a front end that cannot be
built aborts the run before any coupling is drawn.

Realizations run in chunks of fixed size; one worker call carries a
chunk as (R, ...) stacks from the coupling draws to every strategy's
rates, in serial runs and in the process pool alike.

Reproducibility: every realization uses a counter-based random stream
keyed by (seed, realization index, attempt 0), and the chunk size does
not depend on the worker count, so results are byte-identical across
worker counts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

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
    dipole_self_impedance,
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
# Realizations per worker call. Fixed, so outputs do not depend on the
# worker count; it also bounds the memory of the stacked intermediates.
CHUNK_REALIZATIONS = 32


class ConfigError(ValueError):
    """A scenario or run configuration is invalid."""


class SimulationAbort(RuntimeError):
    """The scenario's link front ends cannot be built."""


def far_field_coupling_std() -> float:
    """Calibrated coupling standard deviation in ohm.

    Matches the magnitude of the dipole mutual impedance at a far-field
    reference distance, so random realizations carry a physically
    plausible path scale.
    """
    return abs(dipole_mutual_impedance(FAR_FIELD_DISTANCE_WAVELENGTHS))


def gaussian_kde(
    samples: np.ndarray, n_points: int = KDE_GRID_POINTS
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density estimate on an automatic grid.

    Bandwidth is the Silverman rule 1.06 * std * n^(-1/5); the grid
    spans the sample range extended by three bandwidths on both sides.
    Raises ValueError for fewer than two samples or zero spread.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size < 2:
        raise ValueError("need at least two samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    std = float(np.std(x, ddof=1))
    if std == 0.0:
        raise ValueError("samples are degenerate (zero spread)")
    bandwidth = 1.06 * std * x.size ** (-1.0 / 5.0)
    grid = np.linspace(x.min() - 3 * bandwidth, x.max() + 3 * bandwidth, n_points)
    z = (grid[:, None] - x[None, :]) / bandwidth
    density = np.exp(-0.5 * z * z).sum(axis=1) / (
        x.size * bandwidth * math.sqrt(2 * math.pi)
    )
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
    noise: NoiseConfig = field(default_factory=NoiseConfig.default)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario name must be nonempty")
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
        if self.n_realizations < 1:
            raise ConfigError("n_realizations must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.coupling_std_ohm is not None and not self.coupling_std_ohm > 0.0:
            raise ConfigError("coupling_std_ohm must be positive when given")

    @property
    def n_rx_total(self) -> int:
        return int(sum(self.rx_partition))

    @property
    def is_single_user(self) -> bool:
        return len(self.rx_partition) == 1


def config_to_dict(config: ScenarioConfig) -> dict:
    """JSON-safe dictionary form of a scenario configuration."""
    data = asdict(config)
    noise = data["noise"]
    noise["correlation"] = [
        complex(config.noise.correlation).real,
        complex(config.noise.correlation).imag,
    ]
    data["rx_partition"] = list(config.rx_partition)
    data["strategies"] = list(config.strategies)
    data["power_grid_dbw"] = list(config.power_grid_dbw)
    return data


def _noise_from_dict(data) -> NoiseConfig:
    """Parse the optional noise block: an object of NoiseConfig fields.

    ``correlation`` is a number or a ``[re, im]`` pair.
    """
    if data is None:
        return NoiseConfig.default()
    if not isinstance(data, dict):
        raise ConfigError("noise must be a JSON object")
    unknown = set(data) - {f.name for f in fields(NoiseConfig)}
    if unknown:
        raise ConfigError(f"unknown noise fields: {sorted(unknown)}")
    corr = data.get("correlation", 0.0)
    if isinstance(corr, (list, tuple)) and len(corr) == 2:
        corr = complex(*(_json_number("correlation", c) for c in corr))
    elif isinstance(corr, bool) or not isinstance(corr, (int, float, complex)):
        raise ConfigError("noise correlation must be a number or [re, im]")
    try:
        return NoiseConfig(
            voltage_noise_var=_json_number("voltage_noise_var", data["voltage_noise_var"]),
            current_noise_var=_json_number("current_noise_var", data["current_noise_var"]),
            correlation=corr,
            antenna_temperature_k=_json_number(
                "antenna_temperature_k", data.get("antenna_temperature_k", 290.0)
            ),
            bandwidth_hz=_json_number("bandwidth_hz", data.get("bandwidth_hz", 740e3)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid noise block: {exc}") from exc


def _json_int(name: str, value) -> int:
    """``value`` if it is a JSON integer; floats and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, not {value!r}")
    return value


def _json_number(name: str, value) -> float:
    """``value`` as a float if it is a JSON number; strings and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite") from None


def _json_str(name: str, value) -> str:
    """``value`` if it is a JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, not {value!r}")
    return value


def config_from_dict(data: dict) -> ScenarioConfig:
    """Parse a scenario configuration, applying defaults."""
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    config_fields = fields(ScenarioConfig)
    unknown = set(data) - {f.name for f in config_fields}
    if unknown:
        raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
    required = {
        f.name
        for f in config_fields
        if f.default is MISSING and f.default_factory is MISSING
    }
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing scenario fields: {sorted(missing)}")
    noise = _noise_from_dict(data.get("noise"))

    def optional(parse, name):
        value = data.get(name)
        return None if value is None else parse(name, value)

    try:
        return ScenarioConfig(
            name=_json_str("name", data["name"]),
            n_tx=_json_int("n_tx", data["n_tx"]),
            tx_spacing=_json_number("tx_spacing", data["tx_spacing"]),
            rx_partition=tuple(_json_int("rx_partition", m) for m in data["rx_partition"]),
            strategies=tuple(_json_str("strategies", s) for s in data["strategies"]),
            power_grid_dbw=tuple(
                _json_number("power_grid_dbw", p) for p in data["power_grid_dbw"]
            ),
            n_realizations=_json_int("n_realizations", data["n_realizations"]),
            seed=_json_int("seed", data.get("seed", 0)),
            rx_spacing=optional(_json_number, "rx_spacing"),
            coupling_std_ohm=optional(_json_number, "coupling_std_ohm"),
            coupling_file=optional(_json_str, "coupling_file"),
            noise=noise,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid scenario value: {exc}") from exc


@dataclass(frozen=True)
class ScenarioResult:
    """Aggregated and per-realization outputs of one scenario run."""

    config: ScenarioConfig
    power_grid_dbw: tuple[float, ...]
    ergodic_rates: dict[str, np.ndarray]
    per_realization_rates: dict[str, np.ndarray]
    mean_active_streams: dict[str, np.ndarray]
    per_realization_streams: dict[str, np.ndarray]
    alpha_samples: np.ndarray | None
    alpha_kde: tuple[tuple[np.ndarray, np.ndarray], ...] | None
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
    ``attempt`` 0.
    """
    return _draw_couplings(seed, attempt, [realization], n_rx, n_tx, std)[0]


def _draw_couplings(
    seed: int, attempt: int, realizations, n_rx: int, n_tx: int, std: float
) -> np.ndarray:
    """Coupling matrices (R, n_rx, n_tx), one per realization index.

    One Philox generator serves all indices. Setting its counter to
    (0, 0, attempt, realization) with an empty output buffer gives the
    state of a fresh generator with that counter.
    """
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    parts = np.empty((len(realizations), 2, n_rx, n_tx))
    for i, r in enumerate(realizations):
        state["state"]["counter"] = np.array([0, 0, attempt, r], dtype=np.uint64)
        state["buffer_pos"], state["has_uint32"] = 4, 0
        bitgen.state = state
        parts[i] = rng.standard_normal((2, n_rx, n_tx))
    return std / math.sqrt(2.0) * (parts[:, 0] + 1j * parts[:, 1])


def read_coupling_file(path: str) -> np.ndarray:
    """Load externally generated coupling realizations.

    JSON files carry {"n_rx", "n_tx", "realizations": [[[re, im], ...]]};
    CSV files are impedance CSVs (:func:`~multiport.em_arrays.read_impedance_csv`)
    with the header ``realization,i,j,re_ohm,im_ohm``. Returns an
    (n_realizations, n_rx, n_tx) array. Raises ConfigError unless the
    file holds exactly one finite value for every (realization, i, j) of
    a complete grid.
    """
    if path.endswith(".json"):
        out = _read_coupling_json(path)
        if not np.all(np.isfinite(out)):
            raise ConfigError("coupling file holds a NaN or infinite value")
        return out
    try:
        out = read_impedance_csv(path)
    except ValueError as exc:
        raise ConfigError(f"coupling CSV: {exc}") from exc
    if out.ndim != 3:
        raise ConfigError("coupling CSV header must be realization,i,j,re_ohm,im_ohm")
    return out


def _read_coupling_json(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            data = json.load(fh)
        reals = data["realizations"]
        n_rx, n_tx = (_json_int(name, data[name]) for name in ("n_rx", "n_tx"))
        shape = (len(reals), n_rx, n_tx, 2)
        parts = np.array(reals, dtype=object)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid coupling JSON: {exc}") from exc
    if not reals:
        raise ConfigError("coupling file holds no realizations")
    if parts.shape != shape:
        raise ConfigError(
            f"coupling JSON realizations have shape {parts.shape}, expected {shape}"
        )
    # Booleans and strings would convert to floats silently.
    if not {type(v) for v in parts.flat} <= {int, float}:
        raise ConfigError("coupling JSON values must be JSON numbers")
    try:
        return parts.astype(float).view(complex)[..., 0]
    except OverflowError:
        raise ConfigError("coupling file holds a NaN or infinite value") from None


def write_coupling_file(path: str, realizations: np.ndarray) -> None:
    """Write coupling realizations in the CSV import format."""
    if np.ndim(realizations) != 3:
        raise ValueError("realizations must be (n_realizations, n_rx, n_tx)")
    write_impedance_csv(path, realizations)


def _receive_impedance(config: ScenarioConfig) -> np.ndarray:
    """Block-diagonal receive impedance: one UCA block per user."""
    blocks = []
    z_self = dipole_self_impedance()
    for m in config.rx_partition:
        if m == 1:
            blocks.append(np.array([[z_self]], dtype=complex))
        else:
            geom = uniform_circular_array(m, float(config.rx_spacing))
            blocks.append(array_impedance_matrix(geom))
    total = sum(b.shape[0] for b in blocks)
    z_rx = np.zeros((total, total), dtype=complex)
    offset = 0
    for b in blocks:
        size = b.shape[0]
        z_rx[offset : offset + size, offset : offset + size] = b
        offset += size
    return z_rx


@dataclass(frozen=True)
class _ScenarioKernel:
    """Link front ends shared by all realizations."""

    config: ScenarioConfig
    down: FrontEnd
    up: FrontEnd
    coupling_std: float


def _make_kernel(config: ScenarioConfig) -> _ScenarioKernel:
    geom = uniform_circular_array(config.n_tx, config.tx_spacing)
    z_tx = array_impedance_matrix(geom)
    z_rx = _receive_impedance(config)
    termination = complex(dipole_self_impedance().real)
    std = (
        config.coupling_std_ohm
        if config.coupling_std_ohm is not None
        else far_field_coupling_std()
    )
    forward = ImpedanceSystem(
        z_tx=z_tx,
        z_rx=z_rx,
        z_coupling=np.zeros((config.n_rx_total, config.n_tx), dtype=complex),
        z_source=termination,
        z_load=termination,
    )
    try:
        down = front_end(forward, config.noise)
        up = front_end(reversed_link(forward), config.noise)
    except FactorizationError as exc:
        raise SimulationAbort(f"link front end cannot be built: {exc}") from exc
    return _ScenarioKernel(config, down, up, std)


def bounded_workers(requested: int, n_chunks: int, cpu_count: int | None) -> int:
    """Worker processes worth starting: at most one per CPU and per chunk."""
    return max(1, min(requested, cpu_count or 1, n_chunks))


Outcome = tuple[
    dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray | None, int, np.ndarray, np.ndarray
]


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
) -> Outcome:
    """Every strategy on a chunk of channel stacks (R, m, n), with h_up (R, n, m).

    Returns (R, P) rates and stream counts per strategy, the (R, P)
    alpha of the strategy that reports it (or None), the unconverged
    solve count, and the iteration count and duality gap in bits of
    every sum-capacity solve (empty without any).
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
    rates, streams, alphas, unconverged = {}, {}, None, 0
    iterations, gaps = np.zeros(0, dtype=int), np.zeros(0)
    mac = [s for s in ("cap", "hyp") if s in config.strategies and not single_user]
    if mac:
        # The cap and hyp solves of every realization share one stack.
        grid = mac_sum_capacity_grid(
            np.stack([plans[s][0] for s in mac]), partition, powers_w, sigma
        )
        unconverged = int(np.count_nonzero(~grid.converged))
        iterations = grid.iterations.reshape(-1)
        gaps = grid.gap_bits.reshape(-1)
        for i, s in enumerate(mac):
            rated = plans[s][1]
            rates[s] = grid.rates[i] if rated is None else grid.rates_on(rated, sigma)[i]
            streams[s] = grid.streams[i].astype(float)
    for s in config.strategies:
        if s in mac:
            continue
        design, rated, power_model = plans[s.removesuffix("_lin")]
        if s.endswith("_lin"):
            built = greedy_zf_design(design, partition, rated, power_model)
        elif design.shape[-2] == 1:
            rated = None if rated is None else rated[:, 0]
            built = beam_design(design[:, 0], rated, power_model)
        else:
            built = mode_design(design, rated, power_model)
        grid = built.evaluate(powers_w, sigma)
        rates[s] = grid.rates
        streams[s] = grid.streams.astype(float)
        if reports_alpha(s, single_user):
            alphas = grid.alpha
    return rates, streams, alphas, unconverged, iterations, gaps


def _run_chunk(
    kernel: _ScenarioKernel, imported: np.ndarray | None, chunk: range
) -> Outcome:
    config = kernel.config
    powers_w = np.array([10.0 ** (p / 10.0) for p in config.power_grid_dbw])
    if imported is not None:
        z21 = imported[chunk]
    else:
        z21 = _draw_couplings(
            config.seed, 0, chunk, config.n_rx_total, config.n_tx, kernel.coupling_std
        )
    channels = (
        link_channel(kernel.down, z21),
        *naive_channels(kernel.down, z21),
        link_channel(kernel.up, z21.swapaxes(1, 2)),
    )
    return _evaluate_chunk(config, kernel.down, channels, powers_w)


def run_scenario(config: ScenarioConfig, n_workers: int = 1) -> ScenarioResult:
    """Run all realizations of a scenario and aggregate the results.

    Realizations run in chunks of CHUNK_REALIZATIONS. ``n_workers`` > 1
    distributes the chunks over processes, at most one per CPU and per
    chunk; outputs are identical to the serial run because every
    realization owns a counter-based random stream, the chunks do not
    depend on the worker count and results are reduced in index order.
    Raises SimulationAbort when the link front ends cannot be built.
    """
    kernel = _make_kernel(config)
    imported = None
    if config.coupling_file is not None:
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
    worker = partial(_run_chunk, kernel, imported)
    n = config.n_realizations
    chunks = [range(a, min(a + CHUNK_REALIZATIONS, n)) for a in range(0, n, CHUNK_REALIZATIONS)]
    n_workers = bounded_workers(n_workers, len(chunks), os.cpu_count())
    if n_workers > 1:
        # Imported here: loading multiprocessing costs every serial run.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(worker, chunks))
    else:
        outcomes = [worker(c) for c in chunks]

    n_p = len(config.power_grid_dbw)
    per_rates = {s: np.vstack([out[0][s] for out in outcomes]) for s in config.strategies}
    per_streams = {s: np.vstack([out[1][s] for out in outcomes]) for s in config.strategies}
    has_alpha = outcomes[0][2] is not None
    alpha_samples = np.vstack([out[2] for out in outcomes]) if has_alpha else None
    ergodic = {s: per_rates[s].mean(axis=0) for s in config.strategies}
    mean_streams = {s: per_streams[s].mean(axis=0) for s in config.strategies}
    iterations = np.concatenate([out[4] for out in outcomes])
    gaps = np.concatenate([out[5] for out in outcomes])
    alpha_kde = None
    if has_alpha:
        curves = []
        for j in range(n_p):
            try:
                curves.append(gaussian_kde(alpha_samples[:, j]))
            except ValueError:
                grid = np.full(KDE_GRID_POINTS, np.nan)
                curves.append((grid, grid.copy()))
        alpha_kde = tuple(curves)
    return ScenarioResult(
        config=config,
        power_grid_dbw=config.power_grid_dbw,
        ergodic_rates=ergodic,
        per_realization_rates=per_rates,
        mean_active_streams=mean_streams,
        per_realization_streams=per_streams,
        alpha_samples=alpha_samples,
        alpha_kde=alpha_kde,
        n_failures=0,
        n_unconverged=sum(out[3] for out in outcomes),
        mac_iterations_mean=float(iterations.mean()) if iterations.size else 0.0,
        mac_iterations_max=int(iterations.max(initial=0)),
        mac_gap_bits_max=float(gaps.max(initial=0.0)),
    )
