"""Physically consistent MIMO channel construction from impedance matrices.

A two-sided multiport network (transmit array, receive array, and the
trans-impedance coupling between them) terminated by source and load
impedances is mapped to the standard information-theoretic model
y = H x + noise, preserving radiated transmit power and the receive
noise statistics. The map yields, per link direction:

- the voltage transfer matrix from generator voltages to load voltages,
- the transmit power-coupling matrix and its (non-Hermitian) root,
  which translate symbol covariance into radiated power,
- the receive-port noise covariance (amplifier voltage and current
  noise plus antenna thermal noise) and the output noise covariance
  after load termination, with a matched root,
- the normalized channel, plus the two mismatched channels a designer
  would infer when ignoring transmit coupling and receive noise
  correlation.

The output-noise root uses a real scalar root whenever the receive
impedance matrix is exactly scalar (a multiple of the identity), and a
Cholesky-based product root otherwise. With this convention the
single-receiver reciprocity identity and the general reverse-link
transform hold to machine precision.

Only the coupling block Z21 varies between realizations. A
:class:`FrontEnd` holds every Z21-independent factor of one direction,
and each normalized channel is a fixed linear map of Z21, so a Monte
Carlo run builds the front ends once and pays a few small matrix
products per realization.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, fields
from math import sqrt

import numpy as np

from .numerics import FactorizationError, cholesky_psd, hermitize, principal_sqrt_psd

BOLTZMANN_J_PER_K = 1.380649e-23
REFERENCE_TEMPERATURE_K = 290.0
DEFAULT_BANDWIDTH_HZ = 740e3
DEFAULT_NOISE_RESISTANCE_OHM = 5.0
DEFAULT_NOISE_CONDUCTANCE_S = 2e-3

_SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class NoiseConfig:
    """Receive-chain noise parameters.

    ``voltage_noise_var`` and ``current_noise_var`` are the variances
    of the amplifier's series voltage source (V^2) and shunt current
    source (A^2); ``correlation`` is their complex correlation
    coefficient. Antenna thermal noise is 4 k T B times the receive
    resistance matrix.
    """

    voltage_noise_var: float
    current_noise_var: float
    correlation: complex = 0j
    antenna_temperature_k: float = REFERENCE_TEMPERATURE_K
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ

    def __post_init__(self) -> None:
        for f in fields(self):
            if not cmath.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.voltage_noise_var < 0.0 or self.current_noise_var < 0.0:
            raise ValueError("noise variances must be nonnegative")
        if abs(self.correlation) > 1.0 + 1e-12:
            raise ValueError("noise correlation magnitude must not exceed 1")
        if self.antenna_temperature_k < 0.0 or self.bandwidth_hz <= 0.0:
            raise ValueError("temperature must be >= 0 and bandwidth > 0")

    @classmethod
    def default(cls) -> "NoiseConfig":
        """Amplifier noise at 290 K reference over the default bandwidth."""
        four_ktb = 4.0 * BOLTZMANN_J_PER_K * REFERENCE_TEMPERATURE_K * DEFAULT_BANDWIDTH_HZ
        return cls(
            voltage_noise_var=four_ktb * DEFAULT_NOISE_RESISTANCE_OHM,
            current_noise_var=four_ktb * DEFAULT_NOISE_CONDUCTANCE_S,
        )


@dataclass(frozen=True)
class ImpedanceSystem:
    """Partitioned impedance description of one link direction.

    ``z_tx`` couples the transmit ports among themselves, ``z_rx`` the
    receive ports, and ``z_coupling`` maps transmit currents to receive
    open-circuit voltages. The network is assumed reciprocal, so the
    reverse-direction coupling is the transpose. Every transmit port is
    driven through ``z_source`` and every receive port is terminated by
    ``z_load``.
    """

    z_tx: np.ndarray
    z_rx: np.ndarray
    z_coupling: np.ndarray
    z_source: complex
    z_load: complex

    def __post_init__(self) -> None:
        n, m = self.n_tx, self.n_rx
        if self.z_tx.shape != (n, n) or self.z_rx.shape != (m, m):
            raise ValueError("side impedance blocks must be square")
        if self.z_coupling.shape != (m, n):
            raise ValueError("coupling block must be (n_rx, n_tx)")
        for name, block in (("z_tx", self.z_tx), ("z_rx", self.z_rx)):
            scale = max(float(np.linalg.norm(block)), 1e-300)
            if float(np.linalg.norm(block - block.T)) > _SYMMETRY_TOL * scale:
                raise ValueError(f"{name} must be complex symmetric (reciprocal network)")
        if not (self.z_source.real > 0.0 and self.z_load.real > 0.0):
            raise ValueError("source and load impedances need positive real part")

    @property
    def n_tx(self) -> int:
        return self.z_tx.shape[0]

    @property
    def n_rx(self) -> int:
        return self.z_rx.shape[0]


def reversed_link(system: ImpedanceSystem) -> ImpedanceSystem:
    """Swap transmit and receive sides of a reciprocal network."""
    return ImpedanceSystem(
        z_tx=system.z_rx,
        z_rx=system.z_tx,
        z_coupling=system.z_coupling.T,
        z_source=system.z_source,
        z_load=system.z_load,
    )


def is_scalar_matrix(matrix: np.ndarray) -> bool:
    """True when the matrix is exactly a multiple of the identity."""
    m = matrix.shape[0]
    return bool(np.all(matrix == matrix[0, 0] * np.eye(m)))


def voltage_transfer(system: ImpedanceSystem) -> np.ndarray:
    """Transfer matrix from generator voltages to receive load voltages."""
    right = system.z_coupling @ _inverse(system.z_tx, system.z_source)
    return system.z_load * (_inverse(system.z_rx, system.z_load) @ right)


def _inverse(matrix: np.ndarray, shift: complex = 0.0) -> np.ndarray:
    """(matrix + shift I)^-1, raising FactorizationError when it is singular."""
    try:
        return np.linalg.inv(matrix + shift * np.eye(matrix.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(str(exc)) from exc


def power_coupling(system: ImpedanceSystem) -> np.ndarray:
    """Hermitian form mapping generator-voltage covariance to radiated power.

    With x drawn with covariance R and fed through the source network,
    the radiated power is tr(power_coupling @ R) / source_resistance
    scaled consistently; the matrix itself is PSD.
    """
    root = power_coupling_root(system)
    return hermitize(root @ root.conj().T, tol=1e-6)


def power_coupling_root(system: ImpedanceSystem) -> np.ndarray:
    """Non-Hermitian root G with G @ G^H equal to the power coupling."""
    a_inv = _inverse(system.z_tx, system.z_source)
    r_tx = 0.5 * (system.z_tx + system.z_tx.conj().T)
    return sqrt(system.z_source.real) * a_inv.conj().T @ principal_sqrt_psd(r_tx)


def decoupled_power_root(system: ImpedanceSystem) -> np.ndarray:
    """Per-port power root a designer ignoring transmit coupling would use.

    Each port is treated as an isolated voltage divider formed by the
    source impedance and that port's self impedance. Returns a 1-D
    complex vector; the corresponding matrix root is its diagonal.
    """
    z_self = np.diag(system.z_tx)
    if np.any(z_self.real <= 0.0):
        raise FactorizationError("port self resistances must be positive")
    return sqrt(system.z_source.real) * np.sqrt(z_self.real) / np.conj(z_self + system.z_source)


def port_noise_covariance(system: ImpedanceSystem, noise: NoiseConfig) -> np.ndarray:
    """Covariance of the total noise voltage at the loaded receive ports.

    Combines amplifier voltage noise, amplifier current noise driven
    through the receive impedance matrix, their cross terms, and the
    antenna thermal noise of the receive resistances.
    """
    m = system.n_rx
    z = system.z_rx
    sigma_u = sqrt(noise.voltage_noise_var)
    sigma_i = sqrt(noise.current_noise_var)
    rho = complex(noise.correlation)
    cross = np.conj(rho) * z
    thermal = (
        4.0
        * BOLTZMANN_J_PER_K
        * noise.antenna_temperature_k
        * noise.bandwidth_hz
        * 0.5
        * (z + z.conj().T)
    )
    q = (
        noise.voltage_noise_var * np.eye(m)
        + noise.current_noise_var * (z @ z.conj().T)
        - sigma_u * sigma_i * (cross + cross.conj().T)
        + thermal
    )
    return hermitize(q, tol=1e-6)


@dataclass(frozen=True)
class FrontEnd:
    """Coupling-independent part of one link direction.

    Everything except the coupling block Z21 is fixed by the array
    impedances, the terminations and the noise model, so the normalized
    channels are linear in Z21 (see :func:`link_channel` and
    :func:`naive_channels`):

    - ``rx_map`` = noise_scale * z_load * output_noise_root^-1 * (Z_rx + z_load I)^-1.
      Unless the receive side is scalar, ``output_noise_root`` is (z_load / sqrt(r_load))
      (Z_rx + z_load I)^-1 L_q, L_q the lower Cholesky factor of ``port_noise_covariance``
      and r_load = Re z_load, so ``rx_map`` = noise_scale * sqrt(r_load) * L_q^-1.
    - ``tx_map`` = (Z_tx + z_source I)^-1 * (power_coupling_root^H)^-1, where
      ``power_coupling_root`` G = sqrt(Re z_source) (Z_tx + z_source I)^-H R_tx^1/2,
      R_tx the Hermitian part of Z_tx, and ``power_coupling`` = G G^H.
    - ``tx_map_decoupled`` = (Z_tx + z_source I)^-1 * diag(1 / conj(decoupled_power_root))
    - ``rx_map_assumed`` replaces the output noise root by the square
      root of the diagonal of its covariance, as a designer ignoring
      noise correlation would.

    ``mismatch_power`` K gives the true radiated power tr(K R) of a
    transmit covariance R designed under the decoupled power model: the
    power coupling conjugated by the inverse decoupled root.
    """

    power_coupling: np.ndarray = field(repr=False)
    power_coupling_root: np.ndarray = field(repr=False)
    decoupled_power_root: np.ndarray = field(repr=False)
    mismatch_power: np.ndarray = field(repr=False)
    port_noise_covariance: np.ndarray = field(repr=False)
    output_noise_covariance: np.ndarray = field(repr=False)
    output_noise_root: np.ndarray = field(repr=False)
    noise_scale: float
    rx_map: np.ndarray = field(repr=False)
    rx_map_assumed: np.ndarray = field(repr=False)
    tx_map: np.ndarray = field(repr=False)
    tx_map_decoupled: np.ndarray = field(repr=False)


def front_end(system: ImpedanceSystem, noise: NoiseConfig) -> FrontEnd:
    """Build the coupling-independent front end of one link direction.

    ``front_end(reversed_link(system), noise)`` builds the reverse
    direction. ``system.z_coupling`` is not read. Raises
    FactorizationError when the receive-noise covariance cannot be
    factored or a map is singular; this cannot depend on the coupling
    realization.
    """
    m = system.n_rx
    a_tx_inv = _inverse(system.z_tx, system.z_source)
    a_rx_inv = _inverse(system.z_rx, system.z_load)
    b_root = power_coupling_root(system)
    b = hermitize(b_root @ b_root.conj().T, tol=1e-6)
    b_diag_root = decoupled_power_root(system)
    q = port_noise_covariance(system, noise)

    z_load = system.z_load
    r_load = z_load.real
    if is_scalar_matrix(system.z_rx):
        # Scalar receive side: pick the real scalar root so the
        # normalized channel carries no spurious global phase.
        sigma_q = q[0, 0].real
        if not sigma_q > 0.0:
            raise FactorizationError("receive noise covariance is not positive definite")
        sigma_out = (
            abs(z_load) * sqrt(sigma_q) / (sqrt(r_load) * abs(system.z_rx[0, 0] + z_load))
        )
        noise_root = sigma_out * np.eye(m)
        rx_scale, whitener = z_load, a_rx_inv / sigma_out
    else:
        q_chol = cholesky_psd(q)
        noise_root = (z_load / sqrt(r_load)) * (a_rx_inv @ q_chol)
        rx_scale, whitener = sqrt(r_load), _inverse(q_chol)
    r_out = noise_root @ noise_root.conj().T
    sigma_theta = sqrt(float(np.trace(r_out).real) / m)

    tx_map = a_tx_inv @ _inverse(b_root.conj().T)
    diag_out_root = np.sqrt(np.diag(r_out).real)
    inv_root = 1.0 / b_diag_root
    mismatch = (inv_root[:, None] * b) * np.conj(inv_root)[None, :]

    return FrontEnd(
        power_coupling=b,
        power_coupling_root=b_root,
        decoupled_power_root=b_diag_root,
        mismatch_power=hermitize(mismatch, tol=1e-6),
        port_noise_covariance=q,
        output_noise_covariance=hermitize(r_out, tol=1e-6),
        output_noise_root=noise_root,
        noise_scale=sigma_theta,
        rx_map=(sigma_theta * rx_scale) * whitener,
        rx_map_assumed=(sigma_theta * z_load) * a_rx_inv / diag_out_root[:, None],
        tx_map=tx_map,
        tx_map_decoupled=a_tx_inv / np.conj(b_diag_root)[None, :],
    )


def link_channel(front: FrontEnd, z21: np.ndarray) -> np.ndarray:
    """Normalized channel of coupling block ``z21`` (n_rx, n_tx)."""
    return front.rx_map @ z21 @ front.tx_map


def naive_channels(front: FrontEnd, z21: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mismatched and assumed channels of coupling block ``z21``.

    Both ignore transmit coupling. The mismatched channel is the true
    whitened channel seen through the decoupled power model; the
    assumed channel also ignores receive noise correlation.
    """
    right = z21 @ front.tx_map_decoupled
    return front.rx_map @ right, front.rx_map_assumed @ right


@dataclass(frozen=True)
class ChannelBundle(FrontEnd):
    """The front end of one link direction plus one realization's channels."""

    system: ImpedanceSystem = field(repr=False)
    voltage_transfer: np.ndarray = field(repr=False)
    channel: np.ndarray = field(repr=False)
    channel_mismatched: np.ndarray = field(repr=False)
    channel_assumed: np.ndarray = field(repr=False)

    @property
    def n_tx(self) -> int:
        return self.channel.shape[1]

    @property
    def n_rx(self) -> int:
        return self.channel.shape[0]


def build_bundle(system: ImpedanceSystem, noise: NoiseConfig) -> ChannelBundle:
    """Map an impedance description to the normalized channel model.

    Applies the front end of ``system`` to its coupling block. Raises
    FactorizationError when the front end cannot be built.
    """
    front = front_end(system, noise)
    channel_mismatched, channel_assumed = naive_channels(front, system.z_coupling)
    return ChannelBundle(
        **vars(front),
        system=system,
        voltage_transfer=voltage_transfer(system),
        channel=link_channel(front, system.z_coupling),
        channel_mismatched=channel_mismatched,
        channel_assumed=channel_assumed,
    )


def reciprocal_channel(forward: ChannelBundle, reverse: ChannelBundle) -> np.ndarray:
    """Predict the forward channel from the reverse-direction bundle.

    Uses only reverse-link quantities plus the forward power and noise
    roots (known at the forward transmitter), exploiting reciprocity of
    the underlying network. With matching bundles the result equals
    ``forward.channel`` to machine precision.
    """
    ratio = forward.noise_scale / reverse.noise_scale
    core = (
        reverse.power_coupling_root.conj()
        @ reverse.channel.T
        @ reverse.output_noise_root.T
    )
    out = np.linalg.solve(forward.output_noise_root, core)
    return ratio * out @ np.linalg.inv(forward.power_coupling_root.conj().T)
