"""Transmit strategies and rate evaluation.

Single-user strategies cover the informed capacity benchmark, the
reverse-link (reciprocity-based) precoder, and the naive strategy that
optimizes against the mismatched channel a coupling-unaware designer
would assume. Each single-user strategy splits into a power-independent
design (a ``BeamDesign`` or ``ModeDesign``: beamformer or eigenbasis,
computed once per channel realization) and an allocation that covers a
whole grid of power budgets at once; the per-power functions evaluate
the same design at a one-point grid. Multi-user strategies cover
dual-decomposition sum capacity via sum-power iterative water-filling
and a greedy zero-forcing linear precoder with rate evaluation under
residual interference.

Rates are in bits per channel use throughout. The scalar noise level
is the per-port standard deviation of the whitened receive noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .numerics import project_psd_trace, waterfill

LN2 = math.log(2.0)
STREAM_POWER_REL_TOL = 1e-12


@dataclass(frozen=True)
class RateResult:
    """Achieved rate plus the number of actively used streams."""

    rate_bits: float
    active_streams: int
    per_user_rates: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SuStrategyResult:
    """Single-user outcome: rate, transmit covariance, power ratio.

    ``alpha`` is the ratio of actually radiated to intended power and
    equals 1 for strategies designed against the true power model.
    """

    rate: RateResult
    tx_covariance: np.ndarray
    alpha: float = 1.0


@dataclass(frozen=True)
class PrecodingSolution:
    """Linear precoding solution for a set of users.

    ``precoders`` holds one (n_tx, streams_k) matrix of unit-norm
    beamforming columns per user and ``stream_powers`` the matching
    per-stream watts. ``alpha`` is true over predicted radiated power.
    """

    precoders: tuple[np.ndarray, ...]
    stream_powers: tuple[np.ndarray, ...]
    partition: tuple[int, ...]
    predicted_rate_bits: float
    predicted_power_w: float
    true_power_w: float

    @property
    def n_streams(self) -> int:
        return int(sum(f.shape[1] for f in self.precoders))

    @property
    def alpha(self) -> float:
        if self.predicted_power_w <= 0.0:
            return float("nan")
        return self.true_power_w / self.predicted_power_w

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All beamformers as columns plus the flat power vector."""
        n_tx = self.precoders[0].shape[0]
        cols = [f for f in self.precoders if f.shape[1]]
        stacked = np.hstack(cols) if cols else np.zeros((n_tx, 0), dtype=complex)
        powers = (
            np.concatenate([p for p in self.stream_powers])
            if self.stream_powers
            else np.zeros(0)
        )
        return stacked, powers


@dataclass(frozen=True)
class MacSolution:
    """Sum-capacity solution of the dual multiple-access problem.

    ``objective_trace`` records the objective after every accepted
    iteration (monotone nondecreasing by construction).
    """

    rate: RateResult
    mac_covariance: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool
    objective_trace: tuple[float, ...]


def _count_active(powers: np.ndarray, total_power: float | np.ndarray) -> np.ndarray:
    """Streams above STREAM_POWER_REL_TOL of the budget, one count per budget."""
    floor = STREAM_POWER_REL_TOL * np.maximum(total_power, 1e-300)
    return np.count_nonzero(powers > np.expand_dims(floor, -1), axis=-1)


class SuGrid(NamedTuple):
    """Single-user outcome at every point of a power grid.

    ``rates``, ``streams`` and ``alpha`` have one entry per budget;
    ``mode_powers`` (P, k) holds the watts given to each transmit mode.
    """

    rates: np.ndarray
    streams: np.ndarray
    alpha: np.ndarray
    mode_powers: np.ndarray


class BeamDesign(NamedTuple):
    """Power-independent part of a single-receiver strategy: one beam.

    ``beam`` is the unit-norm beamformer (zeros when the designer sees a
    zero channel), ``gain`` the power gain |h f|^2 it achieves on the
    true channel and ``alpha`` its ratio of radiated to intended power.
    The whole budget goes to the beam.
    """

    beam: np.ndarray
    gain: float
    alpha: float = 1.0

    def evaluate(self, powers_w: np.ndarray, noise_std: float) -> SuGrid:
        """Rates log2(1 + P gain / sigma^2) over the budgets ``powers_w``."""
        p = np.asarray(powers_w, dtype=float)
        if not (p >= 0.0).all():
            raise ValueError("power budget must be nonnegative")
        streams = (p > 0.0) & bool(self.beam.any())
        return SuGrid(
            np.log2(1.0 + p * self.gain / noise_std**2),
            streams.astype(int),
            np.full(p.shape, self.alpha),
            p[:, None],
        )

    def covariance(self, mode_powers: np.ndarray) -> np.ndarray:
        return mode_powers[0] * np.outer(self.beam, self.beam.conj())


class ModeDesign(NamedTuple):
    """Power-independent part of an eigenmode strategy.

    The transmitter water-fills the design ``gains`` (k,) over the
    unit-norm transmit modes ``basis`` (n_tx, k). ``forward`` (m, k) is
    the true channel times the basis, or None when the modes diagonalize
    the true channel and the rate follows from the gains alone.
    ``radiated`` (k,) holds v_i^H M v_i, so that alpha = radiated . p / P,
    or None for strategies designed against the true power model.
    """

    basis: np.ndarray
    gains: np.ndarray
    forward: np.ndarray | None = None
    radiated: np.ndarray | None = None

    def evaluate(self, powers_w: np.ndarray, noise_std: float) -> SuGrid:
        """Water-fill every budget of ``powers_w`` at once and rate the result."""
        budgets = np.asarray(powers_w, dtype=float)
        gains = self.gains / noise_std**2
        powers = waterfill(gains, budgets)
        if self.forward is None:
            rates = np.log2(1.0 + powers * gains).sum(axis=1)
        else:
            a = self.forward
            received = (a * powers[:, None, :]) @ a.conj().T
            _, logdet = np.linalg.slogdet(np.eye(a.shape[0]) + received / noise_std**2)
            rates = logdet / LN2
        alpha = np.ones_like(budgets)
        if self.radiated is not None:
            np.divide(powers @ self.radiated, budgets, out=alpha, where=budgets > 0.0)
        return SuGrid(rates, _count_active(powers, budgets), alpha, powers)

    def covariance(self, mode_powers: np.ndarray) -> np.ndarray:
        return (self.basis * mode_powers) @ self.basis.conj().T


def _at_power(
    design: BeamDesign | ModeDesign, total_power: float, noise_std: float
) -> SuStrategyResult:
    grid = design.evaluate(np.array([total_power], dtype=float), noise_std)
    return SuStrategyResult(
        RateResult(float(grid.rates[0]), int(grid.streams[0])),
        design.covariance(grid.mode_powers[0]),
        float(grid.alpha[0]),
    )


def _matched_beam(h: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-norm conj(h)/|h| (zeros for a zero channel) and |h|^2."""
    h = np.asarray(h).reshape(-1)
    norm2 = float(np.vdot(h, h).real)
    if norm2 == 0.0:
        return np.zeros(h.size, dtype=complex), 0.0
    return h.conj() / math.sqrt(norm2), norm2


def miso_capacity_design(h: np.ndarray) -> BeamDesign:
    """Matched filter on the true channel row."""
    beam, gain = _matched_beam(h)
    return BeamDesign(beam, gain)


def miso_reciprocal_design(h_forward: np.ndarray, h_reverse: np.ndarray) -> BeamDesign:
    """Matched filter on the reverse-link vector, rated on the forward one."""
    hf = np.asarray(h_forward).reshape(-1)
    hr = np.asarray(h_reverse).reshape(-1)
    if hf.size != hr.size:
        raise ValueError("forward and reverse channels must have equal length")
    beam, _ = _matched_beam(hr)
    return BeamDesign(beam, float(abs(hf @ beam) ** 2))


def miso_naive_design(
    h_mismatched: np.ndarray, mismatch_power: np.ndarray
) -> BeamDesign:
    """Matched filter on the mismatched channel, with its power ratio f^H M f."""
    beam, gain = _matched_beam(h_mismatched)
    if gain == 0.0:
        return BeamDesign(beam, 0.0)
    return BeamDesign(beam, gain, float(np.vdot(beam, mismatch_power @ beam).real))


def _modes(design_channel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right singular vectors (n_tx, k) and squared singular values (k,)."""
    _, s, vh = np.linalg.svd(design_channel, full_matrices=False)
    return vh.conj().T, s * s


def mimo_capacity_design(channel: np.ndarray) -> ModeDesign:
    """Eigenmodes of the true channel."""
    basis, gains = _modes(np.asarray(channel))
    return ModeDesign(basis, gains)


def mimo_reciprocal_design(
    channel_forward: np.ndarray, channel_reverse: np.ndarray
) -> ModeDesign:
    """Eigenmodes of the conjugated reverse Gram, rated on the forward channel."""
    hf = np.asarray(channel_forward)
    hr = np.asarray(channel_reverse)
    if hr.shape != (hf.shape[1], hf.shape[0]):
        raise ValueError("reverse channel must have transposed shape")
    # conj(H_r) H_r^T = (H_r^T)^H H_r^T: its eigenbasis is the right
    # singular basis of H_r^T.
    basis, gains = _modes(hr.T)
    return ModeDesign(basis, gains, forward=hf @ basis)


def mimo_naive_design(
    h_mismatched: np.ndarray, h_assumed: np.ndarray, mismatch_power: np.ndarray
) -> ModeDesign:
    """Eigenmodes of the assumed channel, rated on the mismatched one."""
    basis, gains = _modes(np.asarray(h_assumed))
    radiated = np.sum(basis.conj() * (mismatch_power @ basis), axis=0).real
    return ModeDesign(
        basis, gains, forward=np.asarray(h_mismatched) @ basis, radiated=radiated
    )


def su_miso_capacity(
    h: np.ndarray, total_power: float, noise_std: float
) -> SuStrategyResult:
    """Matched-filter beamforming on the true channel row.

    Rate is log2(1 + P |h|^2 / sigma^2), the single-receiver capacity.
    """
    return _at_power(miso_capacity_design(h), total_power, noise_std)


def su_miso_reciprocal(
    h_forward: np.ndarray,
    h_reverse: np.ndarray,
    total_power: float,
    noise_std: float,
) -> SuStrategyResult:
    """Beamform with the conjugated reverse-link channel.

    The transmitter only knows the reverse-direction vector; the
    achieved gain is |h_forward . conj(h_reverse)|^2 / |h_reverse|^2,
    which meets the capacity gain exactly when the two directions are
    aligned and drops to zero when they are orthogonal.
    """
    return _at_power(
        miso_reciprocal_design(h_forward, h_reverse), total_power, noise_std
    )


def su_miso_naive(
    h_mismatched: np.ndarray,
    mismatch_power: np.ndarray,
    total_power: float,
    noise_std: float,
) -> SuStrategyResult:
    """Matched filter against the coupling-unaware channel estimate.

    The designer believes the transmit ports are uncoupled, so the
    beamformer matches the mismatched channel; the rate follows that
    same channel, while the truly radiated power is the quadratic form
    of the beamformer under ``mismatch_power`` times the budget.
    """
    return _at_power(
        miso_naive_design(h_mismatched, mismatch_power), total_power, noise_std
    )


def su_mimo_capacity(
    channel: np.ndarray, total_power: float, noise_std: float
) -> SuStrategyResult:
    """Water-filling over the eigenmodes of the true channel."""
    return _at_power(mimo_capacity_design(channel), total_power, noise_std)


def su_mimo_reciprocal(
    channel_forward: np.ndarray,
    channel_reverse: np.ndarray,
    total_power: float,
    noise_std: float,
) -> SuStrategyResult:
    """Eigenmode transmission inferred from the reverse-link channel.

    The transmit eigenbasis and water-filling gains come from the
    conjugated reverse channel Gram matrix; the achieved rate is then
    evaluated on the true forward channel.
    """
    return _at_power(
        mimo_reciprocal_design(channel_forward, channel_reverse), total_power, noise_std
    )


def su_mimo_naive(
    h_mismatched: np.ndarray,
    h_assumed: np.ndarray,
    mismatch_power: np.ndarray,
    total_power: float,
    noise_std: float,
) -> SuStrategyResult:
    """Water-filling against the fully coupling-unaware channel.

    Precoding modes and powers are designed on ``h_assumed`` (transmit
    coupling and noise correlation both ignored); the rate is evaluated
    on ``h_mismatched``, the channel actually seen through the true
    whitened front end, and ``alpha`` is the truly radiated fraction of
    the intended power.
    """
    return _at_power(
        mimo_naive_design(h_mismatched, h_assumed, mismatch_power),
        total_power,
        noise_std,
    )


def _gram_root(channel: np.ndarray, noise_std: float) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian Gram G = H H^H / sigma^2 and a square root R with G = R R^H."""
    gram = channel @ channel.conj().T / noise_std**2
    gram = 0.5 * (gram + gram.conj().T)
    lam, vec = np.linalg.eigh(gram)
    return gram, vec * np.sqrt(np.maximum(lam, 0.0))


def _dpc_bits(root: np.ndarray, xi: np.ndarray) -> float:
    """log2 det(I + R R^H Xi) via log1p of eig(R^H Xi R); precise for tiny Xi."""
    return float(np.log1p(np.linalg.eigvalsh(root.conj().T @ xi @ root)).sum() / LN2)


def dpc_sum_rate(
    channel: np.ndarray, mac_covariance: np.ndarray, noise_std: float
) -> float:
    """Sum rate log2 det(I + H^H Xi H / sigma^2) for a stacked channel."""
    return _dpc_bits(_gram_root(np.asarray(channel), noise_std)[1], mac_covariance)


def mac_sum_capacity(
    channel: np.ndarray,
    partition: tuple[int, ...],
    total_power: float,
    noise_std: float,
    initial: np.ndarray | None = None,
    rel_tol: float = 1e-12,
    max_iterations: int = 5000,
) -> MacSolution:
    """Broadcast sum capacity via its dual multiple-access problem.

    Maximizes log2 det(I + G Xi) over block-diagonal PSD Xi with
    tr(Xi) <= total power, where G is the stacked-channel Gram matrix
    over the noise variance. Sum-power iterative water-filling (Jindal,
    Rhee, Vishwanath, Jafar & Goldsmith, IEEE Trans. IT 51(4), 2005,
    Algorithm 1): water-fill the eigen-gains of every user's effective
    Gram [(I + G Xi_-k)^-1 G]_kk (Xi_-k: Xi without block k) jointly
    over the full budget and average the result into Xi with weight
    1/K. Iterates are monotone nondecreasing. Iteration stops once a
    step gains at most ``rel_tol`` times the objective (after step 2),
    or before a step that would lower it by roundoff.

    ``kkt_residual`` measures the normalized fixed-point gap of the
    projected-gradient map; values below 1e-5 set ``converged``.
    """
    h = np.asarray(channel)
    partition = tuple(int(p) for p in partition)
    m_total = h.shape[0]
    if sum(partition) != m_total or any(p < 1 for p in partition):
        raise ValueError("partition must be positive and sum to the channel rows")
    if total_power < 0.0:
        raise ValueError("power budget must be nonnegative")
    n_users = len(partition)
    offsets = np.cumsum((0,) + partition)
    blocks = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
    owner = np.repeat(np.arange(n_users), partition)
    mask = owner[:, None] == owner[None, :]
    users = np.arange(n_users)[:, None, None]
    # outside[k] masks out user k's rows and columns: Xi * outside[k] is Xi_-k.
    outside = (owner[None, :, None] != users) & (owner[None, None, :] != users)
    gram, root = _gram_root(h, noise_std)
    # numpy 1.x reads a 2-D right-hand side of a stacked solve as vectors.
    gram_stack = np.broadcast_to(gram, (n_users, m_total, m_total))
    eye = np.eye(m_total)
    if initial is not None:
        xi = project_psd_trace(np.where(mask, initial, 0j), total_power)
    else:
        xi = (total_power / m_total) * np.eye(m_total, dtype=complex)
    fx = _dpc_bits(root, xi)
    trace = [fx]
    iterations = 0
    # Streams come from the last water-fill: averaging never zeroes a user.
    powers = np.linalg.eigvalsh(xi)
    for iterations in range(1, max_iterations + 1):
        effective = np.linalg.solve(eye + gram @ (xi * outside), gram_stack)
        gains, bases = [], []
        for k, b in enumerate(blocks):
            e_k = effective[k, b, b]
            if e_k.shape[0] == 1:
                w, v = e_k[0].real, np.ones((1, 1))
            else:
                w, v = np.linalg.eigh(0.5 * (e_k + e_k.conj().T))
            gains.append(w)
            bases.append(v)
        powers = waterfill(np.maximum(np.concatenate(gains), 0.0), total_power)
        cand = xi * ((n_users - 1) / n_users)
        for b, v in zip(blocks, bases):
            cand[b, b] += (v * (powers[b] / n_users)) @ v.conj().T
        fc = _dpc_bits(root, cand)
        if fc < fx:
            break
        gain, xi, fx = fc - fx, cand, fc
        trace.append(fx)
        if gain <= rel_tol * max(abs(fx), 1e-12) and iterations > 2:
            break

    core = np.linalg.solve(eye + gram @ xi, gram)
    grad = np.where(mask, 0.5 * (core + core.conj().T) / LN2, 0.0)
    grad_norm = float(np.linalg.norm(grad))
    if total_power > 0.0 and grad_norm > 0.0:
        probe = total_power / grad_norm
        moved = project_psd_trace(np.where(mask, xi + probe * grad, 0.0), total_power)
        kkt_residual = float(np.linalg.norm(moved - xi)) / total_power
    else:
        kkt_residual = 0.0

    return MacSolution(
        rate=RateResult(fx, int(_count_active(powers, total_power))),
        mac_covariance=xi,
        iterations=iterations,
        kkt_residual=kkt_residual,
        converged=bool(kkt_residual < 1e-5),
        objective_trace=tuple(trace),
    )


def _split_rows(channel: np.ndarray, partition: tuple[int, ...]) -> list[np.ndarray]:
    offsets = np.cumsum((0,) + tuple(partition))
    return [channel[offsets[k] : offsets[k + 1]] for k in range(len(partition))]


def greedy_zf(
    channel_assumed: np.ndarray,
    partition: tuple[int, ...],
    total_power: float,
    noise_std: float,
) -> PrecodingSolution:
    """Greedy zero-forcing stream selection with exact nulling.

    Streams are added one at a time: each candidate user contributes
    the dominant singular direction of its channel projected on the
    orthogonal complement of the already selected virtual streams. The
    precoder zero-forces the stacked virtual rows via pseudo-inverse,
    powers come from water-filling the resulting stream gains, and a
    stream is kept only while the predicted sum rate still improves.
    """
    h = np.asarray(channel_assumed)
    partition = tuple(int(p) for p in partition)
    m_total, n_tx = h.shape
    if sum(partition) != m_total or any(p < 1 for p in partition):
        raise ValueError("partition must be positive and sum to the channel rows")
    if total_power < 0.0:
        raise ValueError("power budget must be nonnegative")
    users = _split_rows(h, partition)
    max_streams = min(n_tx, m_total)

    basis = np.zeros((n_tx, 0), dtype=complex)
    rows = np.zeros((0, n_tx), dtype=complex)
    owners: list[int] = []
    per_user = [0] * len(partition)
    best_rate = 0.0
    best_beams = np.zeros((n_tx, 0), dtype=complex)
    best_powers = np.zeros(0)
    best_owners: list[int] = []

    while len(owners) < max_streams:
        proj = np.eye(n_tx) - basis @ basis.conj().T
        candidate = None
        for k, hk in enumerate(users):
            if per_user[k] >= hk.shape[0]:
                continue
            u, s, vh = np.linalg.svd(hk @ proj)
            if candidate is None or s[0] > candidate[0]:
                candidate = (float(s[0]), k, u[:, 0], vh[0].conj())
        if candidate is None or candidate[0] ** 2 <= 1e-28:
            break
        _, k, left, direction = candidate
        rows_next = np.vstack([rows, (left.conj() @ users[k])[None, :]])
        inverse = np.linalg.pinv(rows_next)
        norms = np.linalg.norm(inverse, axis=0)
        gains = 1.0 / (norms**2 * noise_std**2)
        powers = waterfill(gains, total_power)
        rate = float(np.sum(np.log2(1.0 + powers * gains)))
        if rate <= best_rate + 1e-12:
            break
        rows = rows_next
        basis = np.hstack([basis, direction[:, None]])
        owners.append(k)
        per_user[k] += 1
        best_rate = rate
        best_beams = inverse / norms[None, :]
        best_powers = powers
        best_owners = list(owners)

    precoders: list[np.ndarray] = []
    stream_powers: list[np.ndarray] = []
    for k in range(len(partition)):
        idx = [i for i, owner in enumerate(best_owners) if owner == k]
        precoders.append(
            best_beams[:, idx] if idx else np.zeros((n_tx, 0), dtype=complex)
        )
        stream_powers.append(best_powers[idx] if idx else np.zeros(0))
    used_power = float(sum(float(p.sum()) for p in stream_powers))
    return PrecodingSolution(
        precoders=tuple(precoders),
        stream_powers=tuple(stream_powers),
        partition=partition,
        predicted_rate_bits=best_rate,
        predicted_power_w=used_power,
        true_power_w=used_power,
    )


def with_true_power(
    solution: PrecodingSolution, mismatch_power: np.ndarray
) -> PrecodingSolution:
    """Recompute the truly radiated power of a naive linear solution."""
    stacked, powers = solution.stacked()
    if stacked.shape[1] == 0:
        return solution
    cov = (stacked * powers) @ stacked.conj().T
    true_power = float(np.trace(mismatch_power @ cov).real)
    return replace(solution, true_power_w=true_power)


def evaluate_bc_rates(
    channel_true: np.ndarray,
    solution: PrecodingSolution,
    noise_std: float,
) -> RateResult:
    """Per-user rates of a linear solution on the true channel.

    Each user decodes its own streams jointly; the other users' beams
    act as colored interference added to the thermal noise.
    """
    h = np.asarray(channel_true)
    users = _split_rows(h, solution.partition)
    stacked, powers = solution.stacked()
    owner_of = np.concatenate(
        [
            np.full(f.shape[1], k, dtype=int)
            for k, f in enumerate(solution.precoders)
        ]
    ) if stacked.shape[1] else np.zeros(0, dtype=int)
    total_power = float(powers.sum())
    rates: list[float] = []
    for k, hk in enumerate(users):
        m_k = hk.shape[0]
        received = hk @ stacked if stacked.shape[1] else np.zeros((m_k, 0), dtype=complex)
        own = owner_of == k
        if not np.any(own):
            rates.append(0.0)
            continue
        noise_cov = noise_std**2 * np.eye(m_k, dtype=complex)
        if np.any(~own):
            other = received[:, ~own] * powers[~own]
            noise_cov = noise_cov + other @ received[:, ~own].conj().T
        signal = (received[:, own] * powers[own]) @ received[:, own].conj().T
        _, logdet = np.linalg.slogdet(
            np.eye(m_k) + np.linalg.solve(noise_cov, signal)
        )
        rates.append(float(logdet / LN2))
    active = int(_count_active(powers, total_power if total_power > 0 else 1.0))
    return RateResult(float(sum(rates)), active, tuple(rates))
