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
(eigenmodes with water-filling; a well-conditioned wide channel takes
them from ``eigh`` of the small Gram H H^H, any other from the SVD, see
``_channel_modes``) and ``greedy_zf_design`` (greedy
zero-forcing for several users, with rate evaluation under residual
interference; the user partition follows the design channel).
Multi-user sum capacity uses the dual multiple-access problem, solved
in closed form for two single-antenna users and by sum-power
iterative water-filling for every other partition.

Every strategy splits into a power-independent design and an
evaluation that covers a whole grid of power budgets at once; both
take a stack of channel realizations along leading axes, and each
entry's result depends only on its own realization. A design
(``BeamDesign``, ``ModeDesign``, ``ZfDesign``) holds its beams or
eigenbasis, ready to rate on its rated channel, and its
``evaluate(powers_w, noise_std)`` returns one :class:`Grid`: (..., P)
rates, streams and alpha and (..., P, k) stream powers. The
water-filling over the budgets is one broadcasting
:func:`~multiport.numerics.waterfill` call. Sum capacity
(``mac_sum_capacity_grid``) solves one stack of covariances, one per
realization and budget: two single-antenna users in closed form, any
other partition by iterating the whole stack. ``su_mimo_capacity``
and ``mac_sum_capacity`` are one-budget views of the same code on one
channel.

Rates are in bits per channel use throughout. The scalar noise level
is the per-port standard deviation of the whitened receive noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import log_det_eye_plus, waterfill

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

    ``objective_trace`` records the objective at the start point
    P/m I and after every accepted iteration (monotone nondecreasing by
    construction); a closed-form solve holds the rate alone.
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
    radiated to intended power. The whole budget goes to the beam, so
    alpha does not depend on the budget: ``evaluate`` repeats it at
    every power point.
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
        """Water-fill every budget of ``powers_w`` at once and rate the result.

        A rated design (``recip``, ``hyp``) rates log det(I + A P A^H /
        sigma^2) with A = ``forward`` as log det(I + S A^H A S) with
        S = sqrt(P) / sigma: the mode Gram A^H A is formed once for all
        budgets and :func:`~multiport.numerics.log_det_eye_plus` rates
        the k x k stack, as precisely as log1p of ``eigvalsh`` down to
        budgets far below the noise. Each budget is rated on the leading
        modes up to the last one that gets power in any row: an unpowered
        mode's row and column of the scaled Gram are zero, so it would
        add log1p(0) and never enter an earlier pivot.
        """
        budgets = np.asarray(powers_w, dtype=float)
        gains = self.gains[..., None, :] / noise_std**2
        powers = waterfill(gains, budgets)
        if self.forward is None:
            rates = np.log1p(powers * gains).sum(axis=-1) / LN2
        else:
            gram = self.forward.conj().swapaxes(-1, -2) @ self.forward
            scale = np.sqrt(powers) / noise_std
            # Each budget's width: one past its last mode powered in any row.
            powered = powers.reshape(-1, *powers.shape[-2:]).any(axis=0)
            widths = (powered * np.arange(1, powers.shape[-1] + 1)).max(axis=-1)
            rates = np.empty(powers.shape[:-1])
            for j, width in enumerate(widths.tolist()):
                s = scale[..., j, :width]
                scaled = s[..., :, None] * gram[..., :width, :width] * s[..., None, :]
                rates[..., j] = log_det_eye_plus(scaled) / LN2
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
    like eps * kappa^2 in the condition number kappa, so each realization
    with lambda_min <= _GRAM_MIN_GAIN_RATIO * lambda_max (kappa >= 100,
    and every rank-deficient or zero channel) is decomposed again by the
    SVD and written back in place; a tall stack takes the SVD whole.
    Below that bound rates, alpha and stream powers stay within about
    5 * eps * kappa^2 relative of the SVD route (under 1e-11 at kappa 99,
    1.6e-13 at kappa 12). The route and the memory layout of the result
    depend only on the realization and the shape, never on the rest of
    the stack.
    """
    m, n_tx = channel.shape[-2:]
    if m > n_tx:
        _, s, vh = np.linalg.svd(channel, full_matrices=False)
        return vh.conj().swapaxes(-1, -2), s * s
    herm = channel.conj().swapaxes(-1, -2)
    lam, u = np.linalg.eigh(channel @ herm)
    bad = ~(lam[..., 0] > _GRAM_MIN_GAIN_RATIO * lam[..., -1])
    # A failing row's Gram modes are discarded; 1.0 keeps its sqrt finite.
    basis = herm @ (u / np.sqrt(np.where(bad[..., None], 1.0, lam))[..., None, :])
    basis, gains = basis[..., ::-1], lam[..., ::-1]
    if bad.any():
        _, s, vh = np.linalg.svd(channel[bad], full_matrices=False)
        basis[bad] = vh.conj().swapaxes(-1, -2)
        gains[bad] = s * s
    return basis, gains


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


def _gram_factor(
    channel: np.ndarray, noise_std: float, diagonal: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian Gram G = H H^H / sigma^2 and the factor :func:`_dpc_bits` rates with.

    The factor is G itself when ``diagonal`` (every user has one
    antenna), else a square root R with G = R R^H from ``eigh``.
    ``channel`` may be a stack; so are the results.
    """
    gram = channel @ channel.conj().swapaxes(-1, -2) / noise_std**2
    gram = 0.5 * (gram + gram.conj().swapaxes(-1, -2))
    if diagonal:
        return gram, gram
    lam, vec = np.linalg.eigh(gram)
    return gram, vec * np.sqrt(np.maximum(lam, 0.0))[..., None, :]


def _dpc_bits(factor: np.ndarray, xi: np.ndarray, diagonal: bool) -> np.ndarray:
    """log2 det(I + G Xi) of every covariance Xi; precise for tiny Xi.

    With ``diagonal`` every block of Xi is 1x1, so Xi is diagonal and
    ``factor`` is G itself: the log-det is that of S G S with
    S = sqrt(max(diag Xi, 0)), formed by elementwise products. Otherwise
    ``factor`` is a root R with G = R R^H and the log-det is that of
    R^H Xi R, for which numpy calls BLAS once per covariance.
    ``factor`` and ``xi`` may be stacks that broadcast against each
    other; the result has one value per covariance. The log-det is
    :func:`~multiport.numerics.log_det_eye_plus`, which sums log1p of
    the LDL^H pivots' excess over 1.
    """
    if diagonal:
        s = np.sqrt(np.maximum(np.diagonal(xi, axis1=-2, axis2=-1).real, 0.0))
        return log_det_eye_plus(s[..., :, None] * factor * s[..., None, :]) / LN2
    return log_det_eye_plus(factor.conj().swapaxes(-1, -2) @ xi @ factor) / LN2


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
    ``objective_history`` (..., P, I+1) holds the objective at the start
    and after each of the I iterations the longest solve ran; an entry
    is NaN after its last accepted iterate. Two single-antenna users
    are solved in closed form: I = 0, so ``iterations`` reads 0 and the
    history (..., P, 1) holds the rate. ``partition`` holds the receive
    antennas per user.
    """

    rates: np.ndarray
    streams: np.ndarray
    covariances: np.ndarray
    iterations: np.ndarray
    gap_bits: np.ndarray
    converged: np.ndarray
    objective_history: np.ndarray
    partition: tuple[int, ...]

    def rates_on(self, channel: np.ndarray, noise_std: float) -> np.ndarray:
        """DPC sum rate of every covariance on another channel (or stack).

        Two single-antenna users are rated in closed form, as
        :func:`_two_user_grid` rates them; more single-antenna users on
        the scaled Gram S G S, others on a root of G (see :func:`_dpc_bits`).
        """
        if self.partition == (1, 1):
            p1, p2 = np.moveaxis(np.diagonal(self.covariances, axis1=-2, axis2=-1).real, -1, 0)
            terms = _two_user_terms(np.asarray(channel), noise_std)
            # p2 = P - p1 in the solve, so (p1 + p2) - p1 gives p2 back bit for bit.
            return _two_user_bits(*terms, p1, p1 + p2)[0]
        diagonal = all(p == 1 for p in self.partition)
        factor = _gram_factor(np.asarray(channel), noise_std, diagonal)[1]
        return _dpc_bits(factor[..., None, :, :], self.covariances, diagonal)


def mac_sum_capacity_grid(
    channel: np.ndarray,
    partition: tuple[int, ...],
    powers_w: np.ndarray,
    noise_std: float,
) -> MacGrid:
    """Sum capacity at every budget of ``powers_w`` in one batched solve.

    ``channel`` is one stacked channel (m, n) or a stack (..., m, n) of
    realizations; all (realization, budget) pairs are solved together.
    Entry (..., j) equals :func:`mac_sum_capacity` at budget
    ``powers_w[j]``. Two single-antenna users, partition (1, 1), are
    solved in closed form (:func:`_two_user_grid`): no iteration, and
    ``iterations`` reads 0. Every other partition runs the sum-power
    iterative water-filling (:func:`_iterated_grid`). Either way the
    Frank-Wolfe duality gap certifies each entry.
    """
    h = np.asarray(channel)
    partition = _check_partition(h, partition)
    budgets = np.asarray(powers_w, dtype=float)
    if budgets.ndim != 1 or not (budgets >= 0.0).all():
        raise ValueError("power budgets must be a 1-D array of nonnegative values")
    if partition == (1, 1):
        return _two_user_grid(h, budgets, noise_std)
    return _iterated_grid(h, partition, budgets, noise_std)


def _two_user_bits(
    g11: np.ndarray, g22: np.ndarray, d: np.ndarray, p1: np.ndarray, total: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rate and Frank-Wolfe gap, in bits, of Xi = diag(p1, P - p1) for two users.

    ``g11``, ``g22`` and ``d`` = D describe the Gram G as in
    :func:`_two_user_grid`; all arguments broadcast. The rate is
    log1p(g11 p1 + g22 p2 + D p1 p2) / ln 2, exact for tiny budgets.
    The gradient's diagonal [(I + G Xi)^-1 G]_kk is a_k / f, with
    a1 = g11 + D p2, a2 = g22 + D p1 and f = det(I + G Xi), so the gap
    is (P max(a1, a2) - p1 a1 - p2 a2) / (f ln 2), clamped at 0.
    """
    p2 = total - p1
    excess = g11 * p1 + g22 * p2 + d * p1 * p2
    a1, a2 = g11 + d * p2, g22 + d * p1
    gap = np.maximum(total * np.maximum(a1, a2) - p1 * a1 - p2 * a2, 0.0)
    return np.log1p(excess) / LN2, gap / ((1.0 + excess) * LN2)


def _two_user_terms(h: np.ndarray, noise_std: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g11, g22 and D = det G (..., 1) of two single-antenna users, G = H H^H / sigma^2.

    D is formed as g11 |h2 - (g21 / g11) h1|^2 / sigma^2, from user 2's
    residual off user 1, which does not cancel on nearly parallel users.
    """
    gram = _gram_factor(h, noise_std, True)[0]
    g11, g22 = (gram[..., k, k, None].real for k in (0, 1))
    along = np.divide(gram[..., 1, 0, None], g11, out=np.zeros_like(g11, complex), where=g11 > 0.0)
    residual = h[..., 1, :] - along * h[..., 0, :]
    d = g11 * (residual.real**2 + residual.imag**2).sum(axis=-1, keepdims=True) / noise_std**2
    return g11, g22, d


def _two_user_grid(h: np.ndarray, budgets: np.ndarray, noise_std: float) -> MacGrid:
    """Sum capacity of two single-antenna users at every budget, in closed form.

    With Xi = diag(p1, p2), p2 = P - p1, and G = H H^H / sigma^2,
    det(I + G Xi) = 1 + g11 p1 + g22 p2 + D p1 p2 with D = det G
    (:func:`_two_user_terms`): a concave quadratic in p1, maximised at
    p1 = clip(P / 2 + (g11 - g22) / (2 D), 0, P). With D = 0 the
    stronger user takes the whole budget; an exact tie splits it in
    half, as the iteration does. :func:`_two_user_bits` rates that
    split (as ``MacGrid.rates_on`` does) and computes its duality gap.
    A user counts as a stream when its gain is positive and its power
    above STREAM_POWER_REL_TOL of the budget.
    """
    g11, g22, d = _two_user_terms(h, noise_std)
    total = np.broadcast_to(budgets, h.shape[:-2] + budgets.shape)
    # D = 0 leaves +-inf, so the stronger user takes the budget; a tie keeps 0.
    tilt = np.where(g11 == g22, 0.0, np.copysign(np.inf, g11 - g22))
    np.divide(g11 - g22, 2.0 * d, out=tilt, where=d > 0.0)
    p1 = np.clip(0.5 * total + tilt, 0.0, total)
    rates, gap_bits = _two_user_bits(g11, g22, d, p1, total)
    powers = np.stack([p1, total - p1], axis=-1)
    lit = np.stack([g11 > 0.0, g22 > 0.0], axis=-1)
    return MacGrid(
        rates,
        _count_active(np.where(lit, powers, 0.0), total),
        powers[..., None] * np.eye(2, dtype=complex),
        np.zeros(total.shape, dtype=int),
        gap_bits,
        gap_bits <= MAC_GAP_TOL * np.maximum(rates, 1.0),
        rates[..., None],
        (1, 1),
    )


def _iterated_grid(
    h: np.ndarray, partition: tuple[int, ...], budgets: np.ndarray, noise_std: float
) -> MacGrid:
    """Sum capacity of any partition by sum-power iterative water-filling.

    ``h`` (..., m, n), a valid ``partition`` and the 1-D nonnegative
    ``budgets`` are as :func:`mac_sum_capacity_grid` checks them. Every
    entry starts at P/m I, runs the same iteration, stops by the same
    rule and counts its streams on its own last water-fill.

    Each pair is one row with its own Gram G. Each iteration does one
    batched solve for all running rows and users, one eigh per block,
    1x1 blocks included, and one row-wise water-fill. From that
    water-fill it forms two candidates, the averaged step and the raw
    block-diagonal water-fill, and rates both in one batched call
    (:func:`_dpc_bits`): when every user has one antenna, Xi is diagonal
    and each candidate is rated as log det(I + S G S) with
    S = sqrt(max(diag Xi, 0)), by elementwise products; other partitions
    rate R^H Xi R on a root R of G from one eigh per row. Each row
    keeps the better of its two candidates. A row freezes once its
    stopping rule fires or after MAC_MAX_ITERATIONS iterations. On
    partition (1, 1) it is only the closed form's test oracle.
    """
    shape = h.shape[:-2] + budgets.shape
    diagonal = all(p == 1 for p in partition)
    gram, factor = (
        np.broadcast_to(a[..., None, :, :], shape + a.shape[-2:]).reshape((-1,) + a.shape[-2:])
        for a in _gram_factor(h, noise_std, diagonal)
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
    fx = _dpc_bits(factor, xi, diagonal)
    history = [fx.copy()]
    iterations = np.zeros(budgets.size, dtype=int)
    # Streams come from the last water-fill: averaging never zeroes a user.
    powers = np.repeat(budgets[:, None] / m_total, m_total, axis=1)
    running = np.arange(budgets.size)
    for iteration in range(1, MAC_MAX_ITERATIONS + 1):
        if not running.size:
            break
        x, g = xi[running], gram[running, None]
        # An equal-rank right-hand side is a matrix stack in numpy 1.x too.
        effective = np.linalg.solve(eye + g @ (x[:, None] * outside), g)
        own = [effective[:, k, b, b] for k, b in enumerate(blocks)]
        eigs = [np.linalg.eigh(0.5 * (e + e.conj().swapaxes(1, 2))) for e in own]
        gains = np.concatenate([w for w, _ in eigs], axis=1)
        p = waterfill(np.maximum(gains, 0.0), budgets[running])
        # Candidate 0 is the averaged step, candidate 1 the raw water-fill.
        cand = np.stack([x * ((n_users - 1) / n_users), np.zeros_like(x)])
        for b, (_, v) in zip(blocks, eigs):
            fill = (v * p[:, None, b]) @ v.conj().swapaxes(1, 2)
            cand[0, :, b, b] += fill / n_users
            cand[1, :, b, b] = fill
        f = _dpc_bits(factor[running], cand, diagonal)
        raw = f[1] > f[0]
        best = np.where(raw[:, None, None], cand[1], cand[0])
        fc = np.where(raw, f[1], f[0])
        powers[running] = p
        iterations[running] = iteration
        # A step that would lower the objective is rejected and ends its budget.
        up = ~(fc < fx[running])
        gain = fc[up] - fx[running[up]]
        kept = running[up]
        xi[kept] = best[up]
        fx[kept] = fc[up]
        history.append(np.full(budgets.size, np.nan))
        history[-1][kept] = fc[up]
        done = gain <= MAC_REL_TOL * np.maximum(np.abs(fc[up]), 1e-12)
        running = kept[~done] if iteration > 2 else kept

    # Frank-Wolfe gap: P max_k lambda_max(grad_kk) - tr(grad Xi) bounds
    # f* - f(Xi) in bits (Xi is block-diagonal); the clamp absorbs roundoff.
    core = np.linalg.solve(eye + gram @ xi, gram)
    grad = 0.5 * (core + core.conj().swapaxes(1, 2)) / LN2
    top = np.max([np.linalg.eigvalsh(grad[:, b, b])[:, -1] for b in blocks], axis=0)
    gap_bits = np.maximum(budgets * top - np.einsum("rij,rji->r", grad, xi).real, 0.0)
    converged = gap_bits <= MAC_GAP_TOL * np.maximum(fx, 1.0)
    history = np.array(history).T
    arrays = (fx, _count_active(powers, budgets), xi, iterations, gap_bits, converged, history)
    return MacGrid(*(a.reshape(shape + a.shape[1:]) for a in arrays), partition)


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
    candidates built from the raw block-diagonal water-fill covariance
    W: the result averaged into Xi with weight 1/K, and W itself. The
    averaged variant alone is the one Jindal et al. prove convergent,
    but it closes in on a corner solution (a user switched off) by only
    (K - 1)/K per step; the raw step usually lands there at once.
    Iterates are monotone nondecreasing because a step that would lower
    the objective is rejected, not by that proof. Iteration stops once a
    step gains at most MAC_REL_TOL times the objective (after step 2),
    or before a step that would lower it by roundoff.
    Two single-antenna users, partition (1, 1), skip the iteration:
    their objective is a concave quadratic in one power split, solved
    in closed form (:func:`_two_user_grid`), so ``iterations`` is 0 and
    ``objective_trace`` holds the rate alone.

    ``gap_bits`` is the Frank-Wolfe duality gap of the final Xi (Jaggi,
    ICML 2013), in closed form for partition (1, 1): the rate is within
    ``gap_bits`` bits of sum capacity.
    ``converged`` holds when that gap is at most MAC_GAP_TOL * max(1,
    rate), within 1e-5 bits or 1e-5 relative above 1 bit. A monotone
    objective alone does not show that a solve reached the optimum, so
    ``converged`` is the check.
    :func:`mac_sum_capacity_grid` runs the same solver over a grid of
    budgets.
    """
    grid = mac_sum_capacity_grid(channel, partition, np.array([float(total_power)]), noise_std)
    history = grid.objective_history[0]
    return MacSolution(
        rate=RateResult(float(grid.rates[0]), int(grid.streams[0])),
        mac_covariance=grid.covariances[0],
        iterations=int(grid.iterations[0]),
        gap_bits=float(grid.gap_bits[0]),
        converged=bool(grid.converged[0]),
        objective_trace=tuple(history[~np.isnan(history)].tolist()),
    )


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
    noise: with N = C C^H that sum and A its own columns times
    sqrt(power), W = C^-1 A gives log det(I + W W^H), rated by
    :func:`~multiport.numerics.log_det_eye_plus` as precisely as log1p
    of ``eigvalsh``. A user without streams gets rate 0.
    """
    per_user = []
    scaled = received * np.sqrt(powers)[..., None, :]
    offsets = np.cumsum((0,) + tuple(partition))
    for k, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        own = (owner == k)[..., None, :]
        others = np.where(own, 0.0, scaled[..., a:b, :])
        noise = noise_std**2 * np.eye(b - a) + others @ others.conj().swapaxes(-1, -2)
        white = np.linalg.solve(np.linalg.cholesky(noise), np.where(own, scaled[..., a:b, :], 0.0))
        per_user.append(log_det_eye_plus(white @ white.conj().swapaxes(-1, -2)) / LN2)
    per_user = np.stack(per_user, axis=-1)
    return per_user, per_user.sum(axis=-1)


class ZfDesign(NamedTuple):
    """Power-independent part of greedy zero-forcing, per realization.

    The greedy stream order depends only on the design channel, so every
    prefix of it is designed once, in fixed-width arrays: prefix l of L
    lives in ``[..., l, :, :l]`` and prefix 0 is empty. Stream i belongs
    to user ``owners[..., i]`` (..., L). ``beams`` (..., L+1, n_tx, L)
    holds the unit-norm zero-forcing beams and ``norms`` (..., L+1, L)
    the column norms of L^-1 (:func:`greedy_zf_design`), so stream gains
    are 1 / (norm^2 sigma^2). ``forward`` (..., L+1, m, L) is the rated
    channel times each prefix's beams, its received matrices.
    ``radiated`` (..., L+1, L) holds b^H M b of the beams, or is None
    for designs against the true power model. The width L is
    min(n_tx, m), the longest order the shapes allow. Padding is zero,
    and inf in ``norms``; a realization with fewer streams has owner -1
    past its last stream and pads its missing prefixes whole. The
    leading axes may stack strategies as well as realizations, as the
    chunk evaluator stacks its ``_lin`` strategies.
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

        Every prefix is water-filled over all budgets in one call; a
        budget moves to the next prefix while the predicted rate still
        rises by more than 1e-12 bits. Stream powers (..., P, L) follow
        the greedy order and are zero beyond the chosen prefix.
        """
        budgets = np.asarray(powers_w, dtype=float)
        # A padded or missing stream has norm inf, hence zero gain and power.
        gains = 1.0 / (self.norms[..., None, :] ** 2 * noise_std**2)
        powers = waterfill(gains, budgets)
        rates = np.log1p(powers * gains).sum(axis=-1) / LN2
        chosen = np.cumprod(rates[..., 1:, :] > rates[..., :-1, :] + 1e-12, axis=-2).sum(axis=-2)
        best = np.take_along_axis(rates, chosen[..., None, :], axis=-2)[..., 0, :]
        powers = np.take_along_axis(powers, chosen[..., None, :, None], axis=-3)[..., 0, :, :]
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

    Each step projects every user off the directions B chosen so far,
    P = h - (h B) B^H, and adds the strongest user's row r = u^H h, with
    u the top eigenvector of the user's p x p Gram P P^H and gain the
    root of its eigenvalue (for one antenna u = 1, and r is h itself).
    Then r = c B^H + s d^H, with c = r B, gain s and new direction d
    (reorthogonalised once), so the stacked rows are L B^H, L lower
    triangular, and their pseudo-inverse is B L^-1: L^-1 grows by
    [-(c L^-1) / s, 1 / s], a prefix's beams are B times its block of
    L^-1 over that block's column norms (``norms``), and the first beam
    is the matched filter. Selection stops when no user has a direction
    left. A stack (..., m, n_tx) gives each entry its own order (see
    :class:`ZfDesign`). ``forward`` is the ``rated`` channel (None: the
    design one) times B and ``radiated`` B^H M B for ``mismatch_power``
    M, each reduced per prefix by l x l products.

    The width and contiguous copies of the channels fix the BLAS path
    from the shapes, so an entry's bits do not depend on the rest of
    the stack or on the layout of its inputs. That matters because the
    rate of a multi-antenna user with fewer streams than antennas grows
    an ulp of its received matrix by up to the SNR.
    """
    h = np.ascontiguousarray(design)
    partition = _check_partition(h, partition)
    rated = h if rated is None else np.ascontiguousarray(rated)
    if rated.shape != h.shape:
        raise ValueError("rated and design channels must have equal shapes")
    batch, (m_total, n_tx) = h.shape[:-2], h.shape[-2:]
    h, rated = h.reshape(-1, m_total, n_tx), rated.reshape(-1, m_total, n_tx)
    n, sizes, width = len(h), np.array(partition), min(n_tx, m_total)
    offsets = np.cumsum((0,) + partition)
    live = np.arange(n)  # realizations still adding streams
    owners = np.full((n, width), -1)
    directions = np.zeros((n, n_tx, width), dtype=complex)
    inverse = np.zeros((n, width, width), dtype=complex)
    factors = np.zeros((n, width + 1, width, width), dtype=complex)
    norms = np.full((n, width + 1, width), np.inf)
    for l in range(1, width + 1):
        basis = directions[live, :, : l - 1]
        basis_h = basis.conj().swapaxes(1, 2)
        h_live = h[live]
        along = h_live @ basis
        projected = h_live - along @ basis_h
        gains = np.empty((live.size, len(sizes)))
        # Row k combines the stacked rows into user k's row w h.
        weights = np.zeros((live.size, len(sizes), m_total), dtype=complex)
        for k, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
            own = projected[:, a:b]
            lam, u = np.linalg.eigh(own @ own.conj().swapaxes(1, 2))
            gains[:, k] = np.sqrt(np.maximum(lam[:, -1], 0.0))
            weights[:, k, a:b] = u[:, :, -1].conj()
        gains[(owners[live, :, None] == np.arange(len(sizes))).sum(axis=1) >= sizes] = 0.0
        # argmax keeps the first of equal gains: only a strictly stronger user replaces it.
        pick = np.argmax(gains, axis=1)
        found = gains[np.arange(live.size), pick] ** 2 > 1e-28
        if not found.any():
            break
        weight = weights[found, pick[found], None, :]
        live, pick, basis, basis_h = (a[found] for a in (live, pick, basis, basis_h))
        # The row r = c B^H + s d^H, its part off B projected once more (CGS2).
        rest = weight @ projected[found]
        again = rest @ basis
        rest = rest - again @ basis_h
        coeff = weight @ along[found] + again
        s = np.sqrt((rest.real**2 + rest.imag**2).sum(axis=-1))
        # L gains the row [c, s], so L^-1 gains [-(c L^-1) / s, 1 / s].
        inverse[live, l - 1, : l - 1] = -(coeff @ inverse[live, : l - 1, : l - 1])[:, 0] / s
        inverse[live, l - 1, l - 1] = 1.0 / s[:, 0]
        directions[live, :, l - 1] = rest[:, 0].conj() / s
        block = inverse[live, :l, :l]
        col_norms = np.sqrt((block.real**2 + block.imag**2).sum(axis=1))
        owners[live, l - 1] = pick
        factors[live, l, :l, :l] = block / col_norms[:, None, :]
        norms[live, l, :l] = col_norms
    beams, forward = (a[:, None] @ factors for a in (directions, rated @ directions))
    arrays = [owners, beams, norms, forward]
    if mismatch_power is not None:
        gram = directions.conj().swapaxes(1, 2) @ (mismatch_power @ directions)
        arrays.append(_radiated(factors, gram[:, None]))
    return ZfDesign(partition, *(a.reshape(batch + a.shape[1:]) for a in arrays))
