"""Transmit strategies and rate evaluation.

The transmitters differ only in the channel they design on, the
channel they are rated on and the power model they design against:
the informed capacity benchmark designs on the true channel, the
reciprocity-based precoder on the reverse channel transposed, and the
naive, coupling-unaware transmitter on the channel it assumes, rated
on the mismatched channel under the mismatched power model. Each
precoder algorithm therefore has one constructor that takes those
three inputs as ``(design, rated=None, mismatch_power=None)``:
``beam_design`` (matched filter, one receive antenna), ``mode_design``
(eigenmodes with water-filling; a wide, well-conditioned stack takes
them from ``eigh`` of the small Gram H H^H, any other from the SVD, see
``_channel_modes``) and ``greedy_zf_design`` (greedy
zero-forcing for several users, with rate evaluation under residual
interference; the user partition follows the design channel).
Multi-user sum capacity uses the dual multiple-access problem, solved
by sum-power iterative water-filling.

Every strategy splits into a power-independent design and an
evaluation that covers a whole grid of power budgets at once; both
take a stack of channel realizations along leading axes. A design
(``BeamDesign``, ``ModeDesign``, ``ZfDesign``) holds its beams or
eigenbasis, ready to rate on its rated channel, and its
``evaluate(powers_w, noise_std)`` returns one :class:`Grid`: (..., P)
rates, streams and alpha and (..., P, k) stream powers. The
water-filling over the budgets is one broadcasting
:func:`~multiport.numerics.waterfill` call. Sum capacity
(``mac_sum_capacity_grid``) iterates one stack of covariances, one per
realization and budget. ``su_mimo_capacity`` and ``mac_sum_capacity``
are one-budget views of the same code on one channel.

Rates are in bits per channel use throughout. The scalar noise level
is the per-port standard deviation of the whitened receive noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import waterfill

LN2 = math.log(2.0)
STREAM_POWER_REL_TOL = 1e-12
MAC_REL_TOL = 1e-12
MAC_GAP_TOL = 1e-5
MAC_MAX_ITERATIONS = 5000
# Smallest lambda_min / lambda_max of H H^H that _channel_modes takes from the Gram.
_GRAM_MIN_GAIN_RATIO = 1e-4


@dataclass(frozen=True)
class RateResult:
    """Achieved rate plus the number of actively used streams."""

    rate_bits: float
    active_streams: int


@dataclass(frozen=True)
class SuStrategyResult:
    """Single-user outcome at one budget: rate and transmit covariance."""

    rate: RateResult
    tx_covariance: np.ndarray


@dataclass(frozen=True)
class MacSolution:
    """Sum-capacity solution of the dual multiple-access problem.

    ``objective_trace`` records the objective after every accepted
    iteration (monotone nondecreasing by construction).
    """

    rate: RateResult
    mac_covariance: np.ndarray
    iterations: int
    gap_bits: float
    converged: bool
    objective_trace: tuple[float, ...]


def _count_active(powers: np.ndarray, total_power: float | np.ndarray) -> np.ndarray:
    """Streams above STREAM_POWER_REL_TOL of the budget, one count per budget."""
    floor = STREAM_POWER_REL_TOL * np.maximum(total_power, 1e-300)
    return np.count_nonzero(powers > np.expand_dims(floor, -1), axis=-1)


class Grid(NamedTuple):
    """Outcome of one strategy design at every point of a power grid.

    ``rates``, ``streams`` and ``alpha`` (..., P) have one entry per
    realization and budget; ``powers`` (..., P, k) holds the watts given
    to each stream: the beam (k = 1), each transmit mode, or each greedy
    zero-forcing stream in greedy order (zero past the chosen prefix).
    """

    rates: np.ndarray
    streams: np.ndarray
    alpha: np.ndarray
    powers: np.ndarray


class BeamDesign(NamedTuple):
    """Power-independent part of a single-receiver strategy: one beam.

    ``beam`` (..., n_tx) is the unit-norm beamformer (zeros when the
    designer sees a zero channel), ``gain`` (...) the power gain |h f|^2
    it achieves on the rated channel h and ``alpha`` its ratio of
    radiated to intended power. The whole budget goes to the beam.
    """

    beam: np.ndarray
    gain: np.ndarray
    alpha: np.ndarray | float = 1.0

    def evaluate(self, powers_w: np.ndarray, noise_std: float) -> Grid:
        """Rates log2(1 + P gain / sigma^2) over the budgets ``powers_w``."""
        p = np.asarray(powers_w, dtype=float)
        if not (p >= 0.0).all():
            raise ValueError("power budget must be nonnegative")
        streams = (p > 0.0) & self.beam.any(axis=-1)[..., None]
        return Grid(
            np.log1p(p * np.expand_dims(self.gain, -1) / noise_std**2) / LN2,
            streams.astype(int),
            np.broadcast_to(np.expand_dims(self.alpha, -1), streams.shape),
            np.broadcast_to(p[:, None], streams.shape + (1,)),
        )


class ModeDesign(NamedTuple):
    """Power-independent part of an eigenmode strategy.

    The transmitter water-fills the design ``gains`` (..., k) over the
    unit-norm transmit modes ``basis`` (..., n_tx, k). ``forward``
    (..., m, k) is the rated channel times the basis, or None when the
    modes diagonalize the rated channel and the rate follows from the
    gains alone. ``radiated`` (..., k) holds v_i^H M v_i, so that
    alpha = radiated . p / P, or None for strategies designed against
    the true power model. A row that allocates no power keeps alpha 1.
    """

    basis: np.ndarray
    gains: np.ndarray
    forward: np.ndarray | None = None
    radiated: np.ndarray | None = None

    def evaluate(self, powers_w: np.ndarray, noise_std: float) -> Grid:
        """Water-fill every budget of ``powers_w`` at once and rate the result."""
        budgets = np.asarray(powers_w, dtype=float)
        gains = self.gains[..., None, :] / noise_std**2
        powers = waterfill(gains, budgets)
        if self.forward is None:
            rates = np.log1p(powers * gains).sum(axis=-1) / LN2
        else:
            a = self.forward[..., None, :, :]
            received = (a * powers[..., None, :]) @ a.conj().swapaxes(-1, -2)
            received /= noise_std**2
            received += np.eye(a.shape[-2])
            rates = np.linalg.slogdet(received)[1] / LN2
        alpha = np.ones(powers.shape[:-1])
        if self.radiated is not None:
            radiated = (powers @ self.radiated[..., :, None])[..., 0]
            used = (budgets > 0.0) & powers.any(axis=-1)
            np.divide(radiated, budgets, out=alpha, where=used)
        return Grid(rates, _count_active(powers, budgets), alpha, powers)


def beam_design(
    design: np.ndarray,
    rated: np.ndarray | None = None,
    mismatch_power: np.ndarray | None = None,
) -> BeamDesign:
    """Matched filter conj(h)/|h| on the ``design`` rows h (..., n_tx).

    ``rated`` None rates the beam on the design channel, where its gain
    is |h|^2. With ``mismatch_power`` M the design records its power
    ratio f^H M f; a zero design channel gets a zero beam and alpha 1.
    """
    h = np.asarray(design)
    gain = (h.real**2 + h.imag**2).sum(axis=-1)
    beam = h.conj() / np.sqrt(np.where(gain > 0.0, gain, 1.0))[..., None]
    alpha = 1.0
    if mismatch_power is not None:
        radiated = _radiated(beam[..., None], mismatch_power)[..., 0]
        alpha = np.where(gain > 0.0, radiated, 1.0)
    if rated is not None:
        if np.shape(rated) != h.shape:
            raise ValueError("rated and design channels must have equal shapes")
        gain = np.abs((rated * beam).sum(axis=-1)) ** 2
    return BeamDesign(beam, gain, alpha)


def _radiated(beams: np.ndarray, mismatch_power: np.ndarray) -> np.ndarray:
    """Radiated power b^H M b of every unit-power column b of ``beams``."""
    return np.sum(beams.conj() * (mismatch_power @ beams), axis=-2).real


def mode_design(
    design: np.ndarray,
    rated: np.ndarray | None = None,
    mismatch_power: np.ndarray | None = None,
) -> ModeDesign:
    """Eigenmodes of the ``design`` channel (..., m, n_tx), rated on ``rated``.

    ``rated`` None rates the modes on the design channel from their
    gains alone. With ``mismatch_power`` M the design records each
    mode's radiated power v^H M v. The modes come from
    :func:`_channel_modes`.
    """
    design = np.asarray(design)
    basis, gains = _channel_modes(design)
    forward = radiated = None
    if rated is not None:
        if np.shape(rated) != design.shape:
            raise ValueError("rated and design channels must have equal shapes")
        forward = rated @ basis
    if mismatch_power is not None:
        radiated = _radiated(basis, mismatch_power)
    return ModeDesign(basis, gains, forward, radiated)


def _channel_modes(channel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right singular vectors (..., n_tx, k) and descending gains s^2 (..., k).

    A wide stack (m <= n_tx) takes them from the m x m Gram: H H^H =
    U diag(lambda) U^H gives gains lambda and modes V = H^H U / sqrt(lambda),
    about twice as fast as the SVD. The gain error of that route grows
    like eps * kappa^2 in the condition number kappa, so the whole stack
    falls back to the SVD when it is tall or when any realization has
    lambda_min <= _GRAM_MIN_GAIN_RATIO * lambda_max (kappa >= 100, and
    every rank-deficient or zero channel). Below that bound rates, alpha
    and stream powers stay within about 5 * eps * kappa^2 relative of
    the SVD route (under 1e-11 at kappa 99, 1.6e-13 at kappa 12).
    """
    m, n_tx = channel.shape[-2:]
    if m <= n_tx:
        herm = channel.conj().swapaxes(-1, -2)
        lam, u = np.linalg.eigh(channel @ herm)
        if (lam[..., 0] > _GRAM_MIN_GAIN_RATIO * lam[..., -1]).all():
            basis = herm @ (u / np.sqrt(lam)[..., None, :])
            return basis[..., ::-1], lam[..., ::-1]
    _, s, vh = np.linalg.svd(channel, full_matrices=False)
    return vh.conj().swapaxes(-1, -2), s * s


def su_mimo_capacity(
    channel: np.ndarray, total_power: float, noise_std: float
) -> SuStrategyResult:
    """Water-filling over the eigenmodes of the true channel at one budget."""
    design = mode_design(channel)
    grid = design.evaluate(np.array([total_power], dtype=float), noise_std)
    return SuStrategyResult(
        RateResult(float(grid.rates[0]), int(grid.streams[0])),
        (design.basis * grid.powers[0]) @ design.basis.conj().T,
    )


def _gram_root(channel: np.ndarray, noise_std: float) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian Gram G = H H^H / sigma^2 and a square root R with G = R R^H.

    ``channel`` may be a stack; so are the results.
    """
    gram = channel @ channel.conj().swapaxes(-1, -2) / noise_std**2
    gram = 0.5 * (gram + gram.conj().swapaxes(-1, -2))
    lam, vec = np.linalg.eigh(gram)
    return gram, vec * np.sqrt(np.maximum(lam, 0.0))[..., None, :]


def _dpc_bits(root: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """log2 det(I + R R^H Xi) via log1p of eig(R^H Xi R); precise for tiny Xi.

    ``root`` and ``xi`` may be stacks that broadcast against each other;
    the result has one value per covariance.
    """
    product = root.conj().swapaxes(-1, -2) @ xi @ root
    return np.log1p(np.linalg.eigvalsh(product)).sum(axis=-1) / LN2


def _check_partition(channel: np.ndarray, partition: tuple[int, ...]) -> tuple[int, ...]:
    partition = tuple(int(p) for p in partition)
    if sum(partition) != channel.shape[-2] or any(p < 1 for p in partition):
        raise ValueError("partition must be positive and sum to the channel rows")
    return partition


class MacGrid(NamedTuple):
    """Sum-capacity solutions at every budget of a power grid.

    Entry (..., j) of every array belongs to budget j of one channel
    realization: ``covariances`` (..., P, m, m) holds the dual-MAC
    covariances, ``rates`` and ``streams`` the sum rates and active
    streams, ``iterations``, ``gap_bits`` and ``converged`` the solver
    diagnostics (as in :func:`mac_sum_capacity`).
    ``objective_traces`` holds the objective after every accepted
    iteration, one tuple per entry in C order.
    """

    rates: np.ndarray
    streams: np.ndarray
    covariances: np.ndarray
    iterations: np.ndarray
    gap_bits: np.ndarray
    converged: np.ndarray
    objective_traces: tuple[tuple[float, ...], ...]

    def rates_on(self, channel: np.ndarray, noise_std: float) -> np.ndarray:
        """DPC sum rate of every covariance on another channel (or stack)."""
        root = _gram_root(np.asarray(channel), noise_std)[1]
        return _dpc_bits(root[..., None, :, :], self.covariances)


def _solve_mac(
    h: np.ndarray,
    partition: tuple[int, ...],
    budgets: np.ndarray,
    noise_std: float,
    max_iterations: int,
) -> MacGrid:
    """Sum-power iterative water-filling for every realization and budget.

    Each (realization, budget) pair of ``h`` (..., m, n) and ``budgets``
    (P,) is one row with its own Gram and root. Each iteration does one
    batched solve for all running rows and users, one eigh per
    multi-antenna block and one row-wise water-fill. From that
    water-fill it forms two candidates, the averaged step and the raw
    block-diagonal water-fill, rates both in one batched call, and each
    row keeps the better one. Every row starts at P/m I and freezes once
    its stopping rule fires.
    """
    shape = h.shape[:-2] + budgets.shape
    gram, root = (
        np.broadcast_to(a[..., None, :, :], shape + a.shape[-2:]).reshape((-1,) + a.shape[-2:])
        for a in _gram_root(h, noise_std)
    )
    budgets = np.broadcast_to(budgets, shape).reshape(-1)
    n_users = len(partition)
    m_total = gram.shape[-1]
    offsets = np.cumsum((0,) + partition)
    blocks = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
    owner = np.repeat(np.arange(n_users), partition)
    users = np.arange(n_users)[:, None, None]
    # outside[k] masks out user k's rows and columns: Xi * outside[k] is Xi_-k.
    outside = (owner[None, :, None] != users) & (owner[None, None, :] != users)
    eye = np.eye(m_total)
    xi = (budgets / m_total)[:, None, None] * np.eye(m_total, dtype=complex)
    fx = _dpc_bits(root, xi)
    traces = [fx.copy()]
    accepted = np.zeros(budgets.size, dtype=int)
    iterations = np.zeros(budgets.size, dtype=int)
    # Streams come from the last water-fill: averaging never zeroes a user.
    powers = np.linalg.eigvalsh(xi)
    running = np.arange(budgets.size)
    for iteration in range(1, max_iterations + 1):
        if not running.size:
            break
        x, g = xi[running], gram[running, None]
        # An equal-rank right-hand side is a matrix stack in numpy 1.x too.
        effective = np.linalg.solve(eye + g @ (x[:, None] * outside), g)
        gains, bases = [], []
        for k, b in enumerate(blocks):
            e_k = effective[:, k, b, b]
            if e_k.shape[1] == 1:
                gains.append(e_k[:, 0].real)
                bases.append(None)
            else:
                w, v = np.linalg.eigh(0.5 * (e_k + e_k.conj().swapaxes(1, 2)))
                gains.append(w)
                bases.append(v)
        p = waterfill(np.maximum(np.concatenate(gains, axis=1), 0.0), budgets[running])
        # Candidate 0 is the averaged step, candidate 1 the raw water-fill.
        cand = np.stack([x * ((n_users - 1) / n_users), np.zeros_like(x)])
        for b, v in zip(blocks, bases):
            if v is None:
                fill = p[:, b, None]
            else:
                fill = (v * p[:, None, b]) @ v.conj().swapaxes(1, 2)
            cand[0, :, b, b] += fill / n_users
            cand[1, :, b, b] = fill
        f = _dpc_bits(root[running], cand)
        raw = f[1] > f[0]
        cand = np.where(raw[:, None, None], cand[1], cand[0])
        fc = np.where(raw, f[1], f[0])
        powers[running] = p
        iterations[running] = iteration
        # A step that would lower the objective is rejected and ends its budget.
        up = ~(fc < fx[running])
        gain = fc[up] - fx[running[up]]
        kept = running[up]
        xi[kept] = cand[up]
        fx[kept] = fc[up]
        accepted[kept] += 1
        traces.append(fx.copy())
        done = gain <= MAC_REL_TOL * np.maximum(np.abs(fc[up]), 1e-12)
        running = kept[~done] if iteration > 2 else kept

    # Frank-Wolfe gap: P max_k lambda_max(grad_kk) - tr(grad Xi) bounds
    # f* - f(Xi) in bits (Xi is block-diagonal); the clamp absorbs roundoff.
    core = np.linalg.solve(eye + gram @ xi, gram)
    grad = 0.5 * (core + core.conj().swapaxes(1, 2)) / LN2
    top = np.max([np.linalg.eigvalsh(grad[:, b, b])[:, -1] for b in blocks], axis=0)
    gap_bits = np.maximum(budgets * top - np.einsum("rij,rji->r", grad, xi).real, 0.0)
    trace_rows = np.array(traces)
    arrays = (fx, _count_active(powers, budgets), xi, iterations, gap_bits)
    return MacGrid(
        *(a.reshape(shape + a.shape[1:]) for a in arrays),
        converged=(gap_bits <= MAC_GAP_TOL * np.maximum(fx, 1.0)).reshape(shape),
        objective_traces=tuple(
            tuple(trace_rows[: n + 1, j].tolist()) for j, n in enumerate(accepted)
        ),
    )


def mac_sum_capacity(
    channel: np.ndarray,
    partition: tuple[int, ...],
    total_power: float,
    noise_std: float,
) -> MacSolution:
    """Broadcast sum capacity via its dual multiple-access problem.

    Maximizes log2 det(I + G Xi) over block-diagonal PSD Xi with
    tr(Xi) <= total power, where G is the stacked-channel Gram matrix
    over the noise variance. Sum-power iterative water-filling (Jindal,
    Rhee, Vishwanath, Jafar & Goldsmith, IEEE Trans. IT 51(4), 2005,
    Algorithm 1): water-fill the eigen-gains of every user's effective
    Gram [(I + G Xi_-k)^-1 G]_kk (Xi_-k: Xi without block k) jointly
    over the full budget. Each iteration keeps the better of two
    candidates built from that water-fill: the result averaged into Xi
    with weight 1/K, and the raw block-diagonal water-fill covariance.
    The averaged variant alone is the one Jindal et al. prove
    convergent, but it closes in on a corner solution (a user switched
    off) by only (K - 1)/K per step; the raw step usually lands there at
    once. Iterates are monotone nondecreasing because a step that would
    lower the objective is rejected, not by that proof. Iteration stops
    once a step gains at most MAC_REL_TOL times the objective (after
    step 2), or before a step that would lower it by roundoff.

    ``gap_bits`` is the Frank-Wolfe duality gap of the final Xi (Jaggi,
    ICML 2013): the rate is within ``gap_bits`` bits of sum capacity.
    ``converged`` holds when that gap is at most MAC_GAP_TOL * max(1,
    rate), within 1e-5 bits or 1e-5 relative above 1 bit. A monotone
    objective alone does not show that a solve reached the optimum, so
    ``converged`` is the check.
    :func:`mac_sum_capacity_grid` runs the same solver over a grid of
    budgets.
    """
    grid = mac_sum_capacity_grid(channel, partition, np.array([float(total_power)]), noise_std)
    return MacSolution(
        rate=RateResult(float(grid.rates[0]), int(grid.streams[0])),
        mac_covariance=grid.covariances[0],
        iterations=int(grid.iterations[0]),
        gap_bits=float(grid.gap_bits[0]),
        converged=bool(grid.converged[0]),
        objective_trace=grid.objective_traces[0],
    )


def mac_sum_capacity_grid(
    channel: np.ndarray,
    partition: tuple[int, ...],
    powers_w: np.ndarray,
    noise_std: float,
    max_iterations: int = MAC_MAX_ITERATIONS,
) -> MacGrid:
    """Sum capacity at every budget of ``powers_w`` in one batched solve.

    ``channel`` is one stacked channel (m, n) or a stack (..., m, n) of
    realizations; all (realization, budget) pairs are solved together.
    Entry (..., j) equals :func:`mac_sum_capacity` at budget
    ``powers_w[j]``: every entry starts at P/m I, runs the
    same iteration, stops by the same rule and counts its streams on
    its own last water-fill.
    """
    h = np.asarray(channel)
    partition = _check_partition(h, partition)
    budgets = np.asarray(powers_w, dtype=float)
    if budgets.ndim != 1 or not (budgets >= 0.0).all():
        raise ValueError("power budgets must be a 1-D array of nonnegative values")
    return _solve_mac(h, partition, budgets, noise_std, max_iterations)


def _split_rows(channel: np.ndarray, partition: tuple[int, ...]) -> list[np.ndarray]:
    offsets = np.cumsum((0,) + tuple(partition))
    return [channel[..., offsets[k] : offsets[k + 1], :] for k in range(len(partition))]


def _bc_rates(
    received: np.ndarray,
    partition: tuple[int, ...],
    owner: np.ndarray,
    powers: np.ndarray,
    noise_std: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user rates (..., K) and their sum (...) of linear precoders.

    Column i of ``received`` (..., m, L) is stream i's received vector,
    the rated channel times its beam; the stream serves user
    ``owner[..., i]`` with power ``powers[..., i]``. Leading axes
    broadcast. Each user decodes its own streams jointly; the other
    users' streams act as colored interference added to the thermal
    noise. A user without streams gets rate 0.
    """
    per_user = []
    for k, rk in enumerate(_split_rows(received, partition)):
        eye = np.eye(rk.shape[-2])
        weighted = rk * powers[..., None, :]
        own = (owner == k)[..., None, :]
        noise_cov = noise_std**2 * eye + np.where(own, 0.0, weighted) @ rk.conj().swapaxes(-1, -2)
        signal = np.where(own, weighted, 0.0) @ rk.conj().swapaxes(-1, -2)
        _, logdet = np.linalg.slogdet(eye + np.linalg.solve(noise_cov, signal))
        per_user.append(logdet / LN2)
    per_user = np.stack(per_user, axis=-1)
    return per_user, per_user.sum(axis=-1)


class ZfDesign(NamedTuple):
    """Power-independent part of greedy zero-forcing, per realization.

    The greedy stream order depends only on the design channel, so every
    prefix of it is designed once, in fixed-width arrays: prefix l of L
    lives in ``[..., l, :, :l]`` and prefix 0 is empty. Stream i belongs
    to user ``owners[..., i]`` (..., L). ``beams`` (..., L+1, n_tx, L)
    holds the unit-norm zero-forcing beams and ``norms`` (..., L+1, L)
    their pseudo-inverse column norms, so stream gains are
    1 / (norm^2 sigma^2). ``forward`` (..., L+1, m, L) is the rated
    channel times each prefix's beams, its received matrices.
    ``radiated`` (..., L+1, L) holds b^H M b of the beams, or is None
    for designs against the true power model. Padding is zero, and inf
    in ``norms``; a realization with fewer streams than the longest has
    owner -1 past its last stream and pads its missing prefixes whole.
    """

    partition: tuple[int, ...]
    owners: np.ndarray
    beams: np.ndarray
    norms: np.ndarray
    forward: np.ndarray
    radiated: np.ndarray | None = None

    def allocate(
        self, powers_w: np.ndarray, noise_std: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each budget's prefix length, predicted rate and stream powers.

        Every prefix is water-filled over all budgets; a budget moves to
        the next prefix while the predicted rate still rises by more
        than 1e-12 bits. Stream powers (..., P, L) follow the greedy
        order and are zero beyond the chosen prefix.
        """
        budgets = np.asarray(powers_w, dtype=float)
        shape = self.owners.shape[:-1] + budgets.shape
        n_max = self.owners.shape[-1]
        chosen = np.zeros(shape, dtype=int)
        best = np.zeros(shape)
        powers = np.zeros(shape + (n_max,))
        for l in range(1, n_max + 1):
            # A missing prefix has zero gains, hence zero rate.
            gains = 1.0 / (self.norms[..., l, None, :l] ** 2 * noise_std**2)
            p = waterfill(gains, budgets)
            rate = np.log1p(p * gains).sum(axis=-1) / LN2
            better = (chosen == l - 1) & (rate > best + 1e-12)
            if not better.any():
                break
            chosen[better] = l
            best[better] = rate[better]
            powers[better, :l] = p[better]
        return chosen, best, powers

    def evaluate(self, powers_w: np.ndarray, noise_std: float) -> Grid:
        """Rates of every budget's chosen prefix, streams, alpha and stream powers.

        Each (realization, budget) picks its prefix's received matrices
        and radiated powers; one rating call covers the whole grid.
        """
        chosen, _, powers = self.allocate(powers_w, noise_std)
        received = np.take_along_axis(self.forward, chosen[..., None, None], axis=-3)
        _, rates = _bc_rates(
            received, self.partition, self.owners[..., None, :], powers, noise_std
        )
        used = powers.sum(axis=-1)
        alpha = np.ones(chosen.shape)
        if self.radiated is not None:
            radiated = np.take_along_axis(self.radiated, chosen[..., None], axis=-2)
            # A chosen prefix raised the rate, so it carries power.
            np.divide((powers * radiated).sum(axis=-1), used, out=alpha, where=chosen > 0)
        return Grid(rates, _count_active(powers, used), alpha, powers)


def greedy_zf_design(
    design: np.ndarray,
    partition: tuple[int, ...],
    rated: np.ndarray | None = None,
    mismatch_power: np.ndarray | None = None,
) -> ZfDesign:
    """Greedy zero-forcing stream order and every prefix's beams.

    Streams are added one at a time: each candidate user contributes
    the dominant singular direction of its channel projected on the
    orthogonal complement of the already selected virtual streams. Each
    prefix's precoder zero-forces its stacked virtual rows via
    pseudo-inverse. Selection stops when no user has a direction left.
    ``design`` may be a stack (..., m, n_tx) of realizations, each with
    its own greedy order; every prefix fills its row of fixed-width
    arrays as long as the longest order (see :class:`ZfDesign`). The
    received matrices ``forward`` are the ``rated`` channel (None: the
    design channel) times the beams, formed once for all budgets. With
    ``mismatch_power`` the design also records each beam's radiated
    power.
    """
    h = np.asarray(design)
    partition = _check_partition(h, partition)
    rated = h if rated is None else np.asarray(rated)
    if rated.shape != h.shape:
        raise ValueError("rated and design channels must have equal shapes")
    batch, (m_total, n_tx) = h.shape[:-2], h.shape[-2:]
    users = _split_rows(h.reshape(-1, m_total, n_tx), partition)
    n = len(users[0])
    live = np.arange(n)  # realizations still adding streams
    basis = np.zeros((n, n_tx, 0), dtype=complex)
    rows = np.zeros((n, 0, n_tx), dtype=complex)
    per_user = np.zeros((n, len(partition)), dtype=int)
    width = min(n_tx, m_total)
    owners = np.full((n, width), -1)
    beams = np.zeros((n, width + 1, n_tx, width), dtype=complex)
    norms = np.full((n, width + 1, width), np.inf)
    length = 0  # streams of the longest greedy order
    for l in range(1, width + 1):
        proj = np.eye(n_tx) - basis @ basis.conj().swapaxes(1, 2)
        best = np.full(live.size, -1.0)
        pick = np.zeros(live.size, dtype=int)
        row, direction = np.zeros((2, live.size, n_tx), dtype=complex)
        for k, hk in enumerate(users):
            u, s, vh = np.linalg.svd(hk[live] @ proj, full_matrices=False)
            # Only a strictly stronger user replaces the current pick.
            better = (per_user[live, k] < hk.shape[1]) & (s[:, 0] > best)
            best[better], pick[better] = s[better, 0], k
            left = u[better, :, 0].conj()[:, None, :]
            row[better] = (left @ hk[live[better]])[:, 0]
            direction[better] = vh[better, 0].conj()
        found = (best >= 0.0) & (best**2 > 1e-28)
        if not found.any():
            break
        length = l
        live, pick = live[found], pick[found]
        rows = np.concatenate([rows[found], row[found, None, :]], axis=1)
        basis = np.concatenate([basis[found], direction[found, :, None]], axis=2)
        inverse = np.linalg.pinv(rows)
        col_norms = np.linalg.norm(inverse, axis=1)
        owners[live, l - 1] = pick
        per_user[live, pick] += 1
        beams[live, l, :, :l] = inverse / col_norms[:, None, :]
        norms[live, l, :l] = col_norms
    owners = owners[:, :length].reshape(batch + (length,))
    beams = beams[:, : length + 1, :, :length].reshape(batch + (length + 1, n_tx, length))
    norms = norms[:, : length + 1, :length].reshape(batch + (length + 1, length))
    forward = rated[..., None, :, :] @ beams
    radiated = None if mismatch_power is None else _radiated(beams, mismatch_power)
    return ZfDesign(partition, owners, beams, norms, forward, radiated)
