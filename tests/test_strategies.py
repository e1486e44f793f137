"""Strategy layer against search, grid, and sampling oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import multiport as mp
from multiport import strategies
from multiport.numerics import log_det_eye_plus
from multiport.strategies import beam_design, greedy_zf_design, mac_sum_capacity_grid, mode_design
from test_montecarlo import mixed_stack

RNG = np.random.default_rng
SIGMA = 1.0


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, n, trace):
    a = crandn(rng, n, n)
    m = a @ a.conj().T
    return m * (trace / np.trace(m).real)


def orthogonal_rows_channel(rng, scales, n_tx):
    q, _ = np.linalg.qr(crandn(rng, n_tx, len(scales)))
    return np.diag(scales) @ q.conj().T


def at_budget(design, power):
    """A single-user design evaluated at one budget: the Grid of P = [power]."""
    return design.evaluate(np.array([power]), SIGMA)


class TestSuMiso:
    def test_capacity_never_beaten_by_random_beamformers(self):
        rng = RNG(0)
        h = crandn(rng, 8)
        power = 3.0
        cap = at_budget(beam_design(h), power).rates[0]
        for _ in range(200):
            f = crandn(rng, 8)
            f /= np.linalg.norm(f)
            rate = np.log2(1.0 + power * abs(h @ f) ** 2 / SIGMA**2)
            assert rate <= cap + 1e-12

    def test_capacity_closed_form_and_covariance(self):
        rng = RNG(1)
        h = crandn(rng, 5)
        power = 2.5
        design = beam_design(h)
        result = at_budget(design, power)
        expected = np.log2(1.0 + power * np.vdot(h, h).real / SIGMA**2)
        assert result.rates[0] == pytest.approx(expected, rel=1e-14)
        # The covariance P b b^H has trace P and yields the same rate.
        assert result.powers[0, 0] == power
        assert np.linalg.norm(design.beam) ** 2 == pytest.approx(1.0, rel=1e-12)
        assert result.streams[0] == 1
        assert result.alpha[0] == 1.0
        rate_of_cov = np.log2(1.0 + power * abs(h @ design.beam) ** 2 / SIGMA**2)
        assert rate_of_cov == pytest.approx(result.rates[0], rel=1e-12)

    def test_zero_channel(self):
        result = at_budget(beam_design(np.zeros(4, complex)), 1.0)
        assert result.rates[0] == 0.0
        assert result.streams[0] == 0

    def test_reciprocal_aligned_meets_capacity(self):
        rng = RNG(2)
        h = crandn(rng, 6)
        aligned = (0.3 - 0.8j) * h
        cap = at_budget(beam_design(h), 4.0).rates[0]
        got = at_budget(beam_design(aligned, h), 4.0).rates[0]
        assert got == pytest.approx(cap, rel=1e-12)

    def test_reciprocal_orthogonal_gets_nothing(self):
        h = np.array([1.0 + 0j, 0.0])
        other = np.array([0.0, 1.0 + 0j])
        result = at_budget(beam_design(other, h), 10.0)
        assert result.rates[0] == 0.0

    def test_reciprocal_never_exceeds_capacity(self):
        rng = RNG(3)
        for _ in range(50):
            h = crandn(rng, 5)
            g = crandn(rng, 5)
            cap = at_budget(beam_design(h), 2.0).rates[0]
            got = at_budget(beam_design(g, h), 2.0).rates[0]
            assert got <= cap + 1e-12

    def test_reciprocal_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            beam_design(np.ones(3, complex), np.ones(4, complex))

    def test_naive_alpha_is_beamformer_quadratic_form(self):
        rng = RNG(4)
        h = crandn(rng, 6)
        k = random_psd(rng, 6, 6.0)
        result = at_budget(beam_design(h, mismatch_power=k), 3.0)
        f = h.conj() / np.linalg.norm(h)
        assert result.alpha[0] == pytest.approx(
            float(np.real(f.conj() @ k @ f)), rel=1e-12
        )

    def test_naive_alpha_does_not_depend_on_the_budget(self):
        # The run's KDE and alpha CSV reuse one power point's alpha for the next.
        rng = RNG(6)
        h = crandn(rng, 5, 4)
        h[2] = 0.0
        design = beam_design(h, crandn(rng, 5, 4), mismatch_power=random_psd(rng, 4, 4.0))
        alpha = design.evaluate(np.array([0.0, 1e-9, 1.0, 1e6]), SIGMA).alpha
        assert alpha.shape == (5, 4)
        for j in range(1, 4):
            assert np.array_equal(alpha[:, j], alpha[:, 0])
        # The zero-channel row keeps alpha 1; the others differ from it.
        assert alpha[2, 0] == 1.0
        assert np.all(np.delete(alpha[:, 0], 2) != 1.0)

    def test_naive_identity_mismatch_gives_unit_alpha(self):
        rng = RNG(5)
        h = crandn(rng, 4)
        result = at_budget(beam_design(h, mismatch_power=np.eye(4, dtype=complex)), 1.0)
        assert result.alpha[0] == pytest.approx(1.0, rel=1e-12)


class TestSuMimo:
    def test_identity_channel_splits_evenly(self):
        power = 6.0
        result = mp.su_mimo_capacity(np.eye(4, dtype=complex), power, SIGMA)
        assert result.rate.rate_bits == pytest.approx(
            4 * np.log2(1.0 + power / 4.0), rel=1e-12
        )
        assert np.allclose(
            result.tx_covariance, (power / 4.0) * np.eye(4), atol=1e-12
        )
        assert result.rate.active_streams == 4

    def test_capacity_dominates_random_covariances(self):
        rng = RNG(6)
        h = crandn(rng, 3, 5)
        power = 4.0
        cap = mp.su_mimo_capacity(h, power, SIGMA).rate.rate_bits
        for _ in range(100):
            cov = random_psd(rng, 5, power)
            _, logdet = np.linalg.slogdet(
                np.eye(3) + h @ cov @ h.conj().T / SIGMA**2
            )
            assert logdet / np.log(2.0) <= cap + 1e-9

    def test_covariance_feasible(self):
        rng = RNG(7)
        h = crandn(rng, 4, 4)
        result = mp.su_mimo_capacity(h, 2.0, SIGMA)
        cov = result.tx_covariance
        assert np.trace(cov).real == pytest.approx(2.0, rel=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_reciprocal_from_transposed_channel_meets_capacity(self):
        rng = RNG(8)
        h = crandn(rng, 3, 5)
        cap = mp.su_mimo_capacity(h, 3.0, SIGMA).rate.rate_bits
        h_reverse = h.T
        got = at_budget(mode_design(h_reverse.T, h), 3.0).rates[0]
        assert got == pytest.approx(cap, rel=1e-12)

    def test_reciprocal_bounded_by_capacity(self):
        rng = RNG(9)
        for _ in range(25):
            h = crandn(rng, 3, 4)
            g = crandn(rng, 4, 3)
            cap = mp.su_mimo_capacity(h, 2.0, SIGMA).rate.rate_bits
            got = at_budget(mode_design(g.T, h), 2.0).rates[0]
            assert got <= cap + 1e-9

    def test_reciprocal_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            mode_design(np.ones((3, 4), complex), np.ones((4, 3), complex))

    def test_naive_collapses_when_nothing_is_mismatched(self):
        rng = RNG(10)
        h = crandn(rng, 4, 6)
        cap = mp.su_mimo_capacity(h, 5.0, SIGMA)
        naive = at_budget(mode_design(h, h, np.eye(6, dtype=complex)), 5.0)
        assert naive.rates[0] == pytest.approx(cap.rate.rate_bits, rel=1e-9)
        assert naive.alpha[0] == pytest.approx(1.0, rel=1e-9)

    def test_naive_alpha_traces_covariance(self):
        rng = RNG(11)
        hh = crandn(rng, 3, 5)
        ha = crandn(rng, 3, 5)
        k = random_psd(rng, 5, 5.0)
        design = mode_design(ha, hh, k)
        result = at_budget(design, 2.0)
        cov = (design.basis * result.powers[0]) @ design.basis.conj().T
        expected = float(np.trace(k @ cov).real) / 2.0
        assert result.alpha[0] == pytest.approx(expected, rel=1e-12)
        cap = mp.su_mimo_capacity(hh, 2.0, SIGMA).rate.rate_bits
        assert result.rates[0] <= cap + 1e-9


class TestLog1pRates:
    """Rates against log1p closed forms, down to budgets far below the noise."""

    BUDGETS = np.logspace(-12.0, 3.0, 16)

    def test_beam_rates(self):
        h = crandn(RNG(60), 6)
        grid = beam_design(h).evaluate(self.BUDGETS, SIGMA)
        expected = np.log1p(self.BUDGETS * np.vdot(h, h).real / SIGMA**2) / np.log(2.0)
        np.testing.assert_allclose(grid.rates, expected, rtol=1e-12, atol=0.0)

    def test_mode_rates(self):
        scales = np.array([1.5, 1.0, 0.7])
        h = orthogonal_rows_channel(RNG(61), scales, 5)
        grid = mode_design(h).evaluate(self.BUDGETS, SIGMA)
        gains = scales**2 / SIGMA**2
        for j, power in enumerate(self.BUDGETS):
            expected = np.log1p(mp.waterfill(gains, power) * gains).sum() / np.log(2.0)
            assert grid.rates[j] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_rated_mode_rates(self):
        # Modes designed on one channel and rated on another: log1p of the
        # eigenvalues of A P A^H / sigma^2, A the rated channel times the basis.
        rng = RNG(63)
        for _ in range(20):
            h = crandn(rng, 3, 5)
            design = mode_design(h, h + 0.3 * crandn(rng, 3, 5))
            grid = design.evaluate(self.BUDGETS, 0.7)
            a = design.forward
            received = (a * grid.powers[:, None, :]) @ a.conj().T / 0.7**2
            expected = np.log1p(np.linalg.eigvalsh(received)).sum(axis=-1) / np.log(2.0)
            np.testing.assert_allclose(grid.rates, expected, rtol=1e-12, atol=0.0)

    def test_rated_modes_on_their_active_prefix_equal_the_full_rating(self):
        # A zero channel, a rank-2 channel and a full-rank one, rated on
        # perturbed channels. Each budget is rated on its powered prefix;
        # the full-width rating of the same powers must give the same bits.
        rng = RNG(65)
        full = (crandn(rng, 4, 6).T * np.array([2.0, 1.0, 0.3, 0.05])).T
        design = np.stack([np.zeros((4, 6)), crandn(rng, 4, 2) @ crandn(rng, 2, 6), full])
        built = mode_design(design, design + 0.3 * crandn(rng, *design.shape))
        grid = built.evaluate(self.BUDGETS, 0.7)
        widths = (grid.powers > 0.0).any(axis=0).sum(axis=-1)
        assert len(set(widths.tolist())) >= 3 and widths.max() == 4
        gram = built.forward.conj().swapaxes(-1, -2) @ built.forward
        scale = np.sqrt(grid.powers) / 0.7
        scaled = scale[..., :, None] * gram[:, None, :, :] * scale[..., None, :]
        assert np.array_equal(grid.rates, log_det_eye_plus(scaled) / strategies.LN2)
        assert (grid.rates[0] == 0.0).all()

    @pytest.mark.parametrize("partition", [(1, 1), (2, 2), (1, 2)])
    def test_zero_forcing_rates_under_interference(self, partition):
        # Designed on h, rated on h + 0.3 noise, so every user hears the
        # others: per user, log1p of the eigenvalues of N^-1/2 S N^-1/2,
        # N the noise plus interference and S its own signal, with N^-1/2
        # from eigh of N.
        rng = RNG(64)
        offsets = np.cumsum((0,) + partition)
        h = crandn(rng, 20, offsets[-1], 5)
        design = greedy_zf_design(h, partition, h + 0.3 * crandn(rng, *h.shape))
        chosen, _, powers = design.allocate(self.BUDGETS, 0.7)
        received = np.take_along_axis(design.forward, chosen[..., None, None], axis=-3)
        per_user, total = strategies._bc_rates(
            received, partition, design.owners[:, None, :], powers, 0.7
        )
        expected = np.zeros(per_user.shape)
        for r, j in np.ndindex(chosen.shape):
            for k, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
                rk, own, p = received[r, j, a:b], design.owners[r] == k, powers[r, j]
                noise = 0.7**2 * np.eye(b - a) + (rk[:, ~own] * p[~own]) @ rk[:, ~own].conj().T
                mu, v = np.linalg.eigh(noise)
                root = (v / np.sqrt(mu)) @ v.conj().T
                signal = root @ (rk[:, own] * p[own]) @ rk[:, own].conj().T @ root
                lam = np.maximum(np.linalg.eigvalsh(signal), 0.0)
                expected[r, j, k] = np.log1p(lam).sum() / np.log(2.0)
        np.testing.assert_allclose(per_user, expected, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(total, expected.sum(axis=-1), rtol=1e-12, atol=0.0)
        assert (chosen[:, 0] > 0).all() and (total[:, 0] < 1e-9).all()

    def test_zero_forcing_predicted_rates(self):
        scales = np.array([1.4, 1.0, 0.8])
        h = orthogonal_rows_channel(RNG(62), scales, 6)
        _, rates, _ = greedy_zf_design(h, (1, 1, 1)).allocate(self.BUDGETS, SIGMA)
        gains = scales**2 / SIGMA**2
        for j, power in enumerate(self.BUDGETS):
            expected = np.log1p(mp.waterfill(gains, power) * gains).sum() / np.log(2.0)
            assert rates[j] == pytest.approx(expected, rel=1e-12, abs=0.0)


def conditioned_stack(rng, kappa, n_real, m, n_tx):
    """Channels U diag(s) V^H with singular values from 2 down to 2 / kappa."""
    u, _ = np.linalg.qr(crandn(rng, n_real, m, m))
    v, _ = np.linalg.qr(crandn(rng, n_real, n_tx, m))
    s = 2.0 * np.geomspace(1.0, 1.0 / kappa, m)
    return (u * s) @ v.conj().swapaxes(-1, -2)


def svd_mode_design(design, rated=None, mismatch_power=None):
    """The eigenmode design built from a batched SVD, as the reference."""
    _, s, vh = np.linalg.svd(design, full_matrices=False)
    basis = vh.conj().swapaxes(-1, -2)
    return strategies.ModeDesign(
        basis,
        s * s,
        None if rated is None else rated @ basis,
        None if mismatch_power is None else strategies._radiated(basis, mismatch_power),
    )


class TestModeGramRoute:
    """Wide, well-conditioned stacks take their modes from eigh of H H^H."""

    BUDGETS = np.logspace(-4.0, 6.0, 11)

    @staticmethod
    def inputs(rng, design, with_rated, with_mismatch):
        rated = design + 0.3 * crandn(rng, *design.shape) if with_rated else None
        mismatch = random_psd(rng, design.shape[-1], 3.0) if with_mismatch else None
        return rated, mismatch

    @pytest.mark.parametrize("kappa", [12.0, 99.0])
    @pytest.mark.parametrize("with_rated", [False, True])
    @pytest.mark.parametrize("with_mismatch", [False, True])
    def test_matches_svd_design(self, monkeypatch, kappa, with_rated, with_mismatch):
        rng = RNG(int(kappa) + 2 * with_rated + with_mismatch)
        design = conditioned_stack(rng, kappa, 6, 4, 7)
        rated, mismatch = self.inputs(rng, design, with_rated, with_mismatch)
        want = svd_mode_design(design, rated, mismatch).evaluate(self.BUDGETS, SIGMA)

        def no_svd(*args, **kwargs):
            raise AssertionError("took the SVD route")

        monkeypatch.setattr(strategies.np.linalg, "svd", no_svd)
        built = mode_design(design, rated, mismatch)
        got = built.evaluate(self.BUDGETS, SIGMA)
        # The Gram route's error bound, eps * kappa^2 relative (1.6e-13 at
        # kappa 12, 1.1e-11 at 99). The atol in bits covers rates near 0 at
        # the smallest budgets, where slogdet on a rated channel is only
        # good to eps bits whatever the basis.
        rtol = 5.0 * np.finfo(float).eps * kappa**2
        np.testing.assert_allclose(got.rates, want.rates, rtol=rtol, atol=1e-15)
        np.testing.assert_allclose(got.alpha, want.alpha, rtol=rtol, atol=0.0)
        # Relative to the budget: a mode at the water level gets ~0 watts.
        scale = self.BUDGETS[:, None]
        np.testing.assert_allclose(got.powers / scale, want.powers / scale, atol=rtol)
        np.testing.assert_array_equal(got.streams, want.streams)
        gram = built.basis.conj().swapaxes(-1, -2) @ built.basis
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(4), gram.shape), atol=1e-12)
        assert (np.diff(built.gains, axis=-1) < 0.0).all()

    @pytest.mark.parametrize("case", ["kappa_1e6", "zero_row", "zero_channel", "tall"])
    @pytest.mark.parametrize("with_rated", [False, True])
    @pytest.mark.parametrize("with_mismatch", [False, True])
    def test_falls_back_to_svd_bit_for_bit(self, case, with_rated, with_mismatch):
        rng = RNG(70)
        if case == "tall":
            design = conditioned_stack(rng, 2.0, 6, 4, 7).swapaxes(-1, -2).copy()
        else:
            design = conditioned_stack(rng, 1e6 if case == "kappa_1e6" else 3.0, 6, 4, 7)
        if case == "zero_row":
            design[2, 1] = 0.0
        if case == "zero_channel":
            design[3] = 0.0
        rated, mismatch = self.inputs(rng, design, with_rated, with_mismatch)
        # Only the rows that fail the kappa bound (all of a tall stack) take the SVD.
        lam = np.linalg.eigvalsh(design @ design.conj().swapaxes(-1, -2))
        bad = (lam[:, 0] <= 1e-4 * lam[:, -1]) | (case == "tall")
        assert bad.all() == (case in ("kappa_1e6", "tall"))

        def rows(keep):
            return design[keep], None if rated is None else rated[keep], mismatch

        got = mode_design(design, rated, mismatch)
        want = svd_mode_design(*rows(bad))
        for name in strategies.ModeDesign._fields:
            if getattr(got, name) is not None:
                np.testing.assert_array_equal(getattr(got, name)[bad], getattr(want, name))
        grid = got.evaluate(self.BUDGETS, SIGMA)
        for a, b in zip(grid, want.evaluate(self.BUDGETS, SIGMA)):
            np.testing.assert_array_equal(a[bad], b)
        # The other rows keep the Gram route, and no row depends on its stack.
        for a, b in zip(grid, mode_design(*rows(~bad)).evaluate(self.BUDGETS, SIGMA)):
            np.testing.assert_array_equal(a[~bad], b)
        for r in range(len(design)):
            alone = mode_design(*rows(r)).evaluate(self.BUDGETS, SIGMA)
            for a, b in zip(grid, alone):
                np.testing.assert_array_equal(a[r], b)

    @pytest.mark.parametrize("kappa", [1.0, 12.0, 99.0])
    def test_capacity_covariance_matches_svd_path(self, kappa):
        h = conditioned_stack(RNG(71), kappa, 1, 3, 5)[0]
        for power in (1e-3, 2.0, 1e4):
            got = mp.su_mimo_capacity(h, power, SIGMA).tx_covariance
            design = svd_mode_design(h)
            powers = at_budget(design, power).powers[0]
            want = (design.basis * powers) @ design.basis.conj().T
            assert np.abs(got - want).max() <= 1e-12 * power


class TestMacSumCapacity:
    def test_single_block_equals_point_to_point(self):
        rng = RNG(12)
        h = crandn(rng, 3, 6)
        power = 4.0
        mac = mp.mac_sum_capacity(h, (3,), power, SIGMA)
        cap = mp.su_mimo_capacity(h.conj().T, power, SIGMA).rate.rate_bits
        assert mac.rate.rate_bits == pytest.approx(cap, abs=1e-6)
        assert mac.converged

    def test_orthogonal_users_reduce_to_pooled_waterfilling(self):
        rng = RNG(13)
        scales = np.array([1.5, 1.0, 0.7])
        h = orthogonal_rows_channel(rng, scales, 8)
        power = 2.0
        mac = mp.mac_sum_capacity(h, (1, 1, 1), power, SIGMA)
        gains = scales**2 / SIGMA**2
        powers = mp.waterfill(gains, power)
        expected = float(np.sum(np.log2(1.0 + powers * gains)))
        assert mac.rate.rate_bits == pytest.approx(expected, abs=1e-7)

    def test_two_user_grid_oracle(self):
        rng = RNG(14)
        h = crandn(rng, 2, 4)
        power = 5.0
        gram = h @ h.conj().T / SIGMA**2
        t = np.linspace(0.0, 1.0, 2001)
        p1 = t * power
        p2 = (1.0 - t) * power
        g11, g22 = gram[0, 0].real, gram[1, 1].real
        cross = abs(gram[0, 1]) ** 2
        dets = (1.0 + g11 * p1) * (1.0 + g22 * p2) - cross * p1 * p2
        grid_best = float(np.max(np.log2(dets)))
        mac = mp.mac_sum_capacity(h, (1, 1), power, SIGMA)
        assert mac.rate.rate_bits >= grid_best - 1e-6
        assert mac.rate.rate_bits <= grid_best + 1e-4

    def test_trace_is_monotone_and_solution_feasible(self):
        rng = RNG(15)
        h = crandn(rng, 4, 6)
        mac = mp.mac_sum_capacity(h, (2, 2), 3.0, SIGMA)
        trace = np.array(mac.objective_trace)
        assert np.all(np.diff(trace) >= -1e-12)
        xi = mac.mac_covariance
        assert np.trace(xi).real <= 3.0 + 1e-9
        assert np.linalg.eigvalsh(0.5 * (xi + xi.conj().T)).min() >= -1e-10
        assert np.allclose(xi[:2, 2:], 0.0)
        assert mac.gap_bits < strategies.MAC_GAP_TOL

    def test_dpc_rate_matches_solution_objective(self):
        rng = RNG(16)
        h = crandn(rng, 3, 5)
        mac = mp.mac_sum_capacity(h, (1, 2), 2.0, SIGMA)
        grid = mac_sum_capacity_grid(h, (1, 2), np.array([2.0]), SIGMA)
        assert grid.rates_on(h, SIGMA)[0] == pytest.approx(mac.rate.rate_bits, rel=1e-12)

    def test_zero_power(self):
        rng = RNG(18)
        h = crandn(rng, 2, 3)
        mac = mp.mac_sum_capacity(h, (1, 1), 0.0, SIGMA)
        assert mac.rate.rate_bits == 0.0
        assert mac.rate.active_streams == 0
        assert mac.gap_bits == 0.0
        assert mac.converged

    def test_two_user_closed_form_maximizer(self, monkeypatch):
        # det(I + G diag(p, P - p)) = 1 + g22 P + (g11 - g22 + d P) p - d p^2
        # with d = g11 g22 - |g12|^2 >= 0: a concave quadratic in p.
        rng = RNG(29)
        corners = opened = 0
        for budget in np.logspace(-10.0, 3.0, 20):
            h = crandn(rng, 2, 4) * np.array([[1.0], [rng.uniform(0.2, 1.5)]])
            gram = h @ h.conj().T / SIGMA**2
            g11, g22 = gram[0, 0].real, gram[1, 1].real
            d = g11 * g22 - abs(gram[0, 1]) ** 2
            p = float(np.clip((g11 - g22 + d * budget) / (2.0 * d), 0.0, budget))
            corner = p in (0.0, budget)
            corners += corner
            # log1p of a sum of nonnegative terms: exact even for tiny budgets.
            best = np.log1p(g11 * p + g22 * (budget - p) + d * p * (budget - p)) / np.log(2.0)
            mac = mp.mac_sum_capacity(h, (1, 1), budget, SIGMA)
            assert mac.rate.rate_bits == pytest.approx(best, rel=1e-10, abs=0.0)
            grid = mac_sum_capacity_grid(h, (1, 1), np.array([budget]), SIGMA)
            assert grid.rates_on(h, SIGMA)[0] == pytest.approx(best, rel=1e-10, abs=0.0)
            assert mac.rate.active_streams == (1 if corner else 2)
            assert mac.converged
            # The gap bounds the distance to the optimum, also one step
            # into the iteration, which (1, 1) grids skip; the slack
            # covers roundoff in the rates.
            with monkeypatch.context() as patch:
                patch.setattr(strategies, "MAC_MAX_ITERATIONS", 1)
                one = strategies._iterated_grid(h, (1, 1), np.array([budget]), SIGMA)
            slack = 1e-12 * best
            for rate, gap in ((mac.rate.rate_bits, mac.gap_bits), (one.rates[0], one.gap_bits[0])):
                assert -slack <= best - rate <= gap + slack
            opened += one.gap_bits[0] > 0.0
        assert 0 < corners < 20
        assert opened > 0

    def test_mixed_partition_converges_above_greedy_zf(self):
        rng = RNG(30)
        h = crandn(rng, 6, 8)
        partition = (2, 1, 3)
        for power in (0.01, 0.1, 1.0, 10.0, 100.0):
            mac = mp.mac_sum_capacity(h, partition, power, SIGMA)
            assert mac.converged
            assert mac.iterations <= 200
            assert np.all(np.diff(mac.objective_trace) >= 0.0)
            _, linear, _ = greedy_zf_design(h, partition).allocate(np.array([power]), SIGMA)
            assert mac.rate.rate_bits >= linear[0] - 1e-9

    @pytest.mark.parametrize("partition", [(1, 1), (1, 1, 1), (2, 2), (3, 1), (2, 2, 2)])
    def test_random_channels_converge_in_few_iterations(self, partition):
        # The averaged step alone closes in on a corner solution (a user
        # switched off) by only (K - 1)/K per iteration and needs tens of
        # iterations on average here.
        rng = RNG(50 + len(partition))
        h = crandn(rng, 20, sum(partition), 8)
        budgets = np.logspace(-10.0, 2.0, 13)
        grid = strategies._iterated_grid(h, partition, budgets, SIGMA)
        assert grid.converged.all()
        assert (grid.gap_bits <= 1e-6 * np.maximum(grid.rates, 1.0)).all()
        assert grid.iterations.mean() <= 6.0
        assert grid.iterations.max() <= 30
        # The averaged step and the raw water-fill both keep every
        # covariance PSD at the full budget.
        xi = grid.covariances
        trace = np.trace(xi, axis1=-2, axis2=-1)
        np.testing.assert_allclose(trace.real, np.broadcast_to(budgets, trace.shape), rtol=1e-13)
        assert (np.linalg.eigvalsh(xi).min(axis=-1) >= -1e-13 * budgets).all()
        history = grid.objective_history
        assert history.shape[:-1] == grid.rates.shape
        assert not (np.diff(history, axis=-1) < 0.0).any()

    @pytest.mark.parametrize("partition", [(1, 1, 1), (2, 2)])
    def test_each_iteration_rates_once(self, partition, monkeypatch):
        # One rating of the start point, then one batched rating of both
        # candidates per iteration of the longest solve.
        calls = []
        rate = strategies._dpc_bits

        def counted(*args):
            calls.append(None)
            return rate(*args)

        monkeypatch.setattr(strategies, "_dpc_bits", counted)
        h = crandn(RNG(51), 20, sum(partition), 8)
        grid = strategies._iterated_grid(h, partition, np.logspace(-10.0, 2.0, 13), SIGMA)
        assert grid.converged.all()
        assert len(calls) == 1 + grid.iterations.max()

    def test_validation(self):
        h = np.ones((3, 4), complex)
        with pytest.raises(ValueError):
            mp.mac_sum_capacity(h, (2, 2), 1.0, SIGMA)
        with pytest.raises(ValueError):
            mp.mac_sum_capacity(h, (3, 0), 1.0, SIGMA)
        with pytest.raises(ValueError):
            mp.mac_sum_capacity(h, (1, 1, 1), -1.0, SIGMA)


class TestTwoUserClosedForm:
    """Two single-antenna users: the closed form against the iteration it replaces."""

    BUDGETS_W = np.concatenate([[0.0], np.logspace(-12.0, 3.0, 16)])

    @staticmethod
    def two_user_stack(rng, n_real):
        """(R, 2, 6) channels: random, then a dark user, parallel, identical and zero."""
        h = crandn(rng, n_real, 2, 6) * rng.uniform(0.05, 3.0, size=(n_real, 2, 1))
        h[0, 1] = 0.0
        h[1, 1] = (0.3 - 0.8j) * h[1, 0]
        h[2, 1] = h[2, 0]
        h[3] = 0.0
        return h

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_iteration(self, seed):
        h = self.two_user_stack(RNG(90 + seed), 60)
        closed = mac_sum_capacity_grid(h, (1, 1), self.BUDGETS_W, 0.7)
        iterated = strategies._iterated_grid(h, (1, 1), self.BUDGETS_W, 0.7)
        # Within 1e-12 relative either way, so never behind by more.
        np.testing.assert_allclose(closed.rates, iterated.rates, rtol=1e-12, atol=0.0)
        assert np.array_equal(closed.streams, iterated.streams)
        # Both gaps sit at roundoff (the iteration's clamps to 0 on most
        # entries), so "no larger" holds up to a few ulps of the rate.
        slack = 1e-15 * np.maximum(closed.rates, 1.0)
        assert (closed.gap_bits <= iterated.gap_bits + slack).all()
        assert closed.converged.all() and iterated.converged.all()
        assert not closed.iterations.any()
        np.testing.assert_array_equal(closed.objective_history, closed.rates[..., None])
        # Rated on its own channel, the closed form returns its own rates bit for bit.
        np.testing.assert_array_equal(closed.rates_on(h, 0.7), closed.rates)
        powers = np.diagonal(closed.covariances, axis1=-2, axis2=-1)
        trace = powers.sum(axis=-1).real
        np.testing.assert_allclose(trace, np.broadcast_to(self.BUDGETS_W, trace.shape), rtol=1e-15)
        assert (powers.real >= 0.0).all() and not powers.imag.any()
        assert not closed.covariances[..., 0, 1].any() and not closed.covariances[..., 1, 0].any()
        # Zero budget; a dark user; parallel users (D = 0); identical
        # users (a tie: half each, as the iteration splits it); a zero channel.
        assert not closed.rates[:, 0].any() and not closed.streams[:, 0].any()
        assert (closed.streams[:3, 1:] == [[1], [1], [2]]).all()
        assert not closed.rates[3].any() and not closed.streams[3].any()
        np.testing.assert_array_equal(powers[2, :, 0], powers[2, :, 1])

    def test_gap_bounds_the_loss_of_any_split(self):
        # The closed-form certificate at splits off the optimum: it bounds
        # the true loss and opens wherever that loss is resolvable.
        rng = RNG(95)
        h = self.two_user_stack(rng, 200)
        gram = h @ h.conj().swapaxes(1, 2)
        g11, g22 = gram[:, 0, 0, None].real, gram[:, 1, 1, None].real
        d = np.maximum(g11 * g22 - np.abs(gram[:, 0, 1, None]) ** 2, 0.0)
        best = mac_sum_capacity_grid(h, (1, 1), self.BUDGETS_W, 1.0)
        total = np.broadcast_to(self.BUDGETS_W, best.rates.shape)
        p1 = best.covariances[..., 0, 0].real
        opened = 0
        for shift in (-0.5, -1e-3, -1e-7, 1e-7, 1e-3, 0.5):
            split = np.clip(p1 + shift * total, 0.0, total)
            rate, gap = strategies._two_user_bits(g11, g22, d, split, total)
            loss = best.rates - rate
            slack = 1e-12 * np.maximum(best.rates, 1.0)
            assert (loss <= gap + slack).all()
            resolvable = loss > slack
            assert (gap[resolvable] > 0.0).all()
            opened += np.count_nonzero(resolvable)
        assert opened > 1000

    def test_parallel_users_against_exact_arithmetic(self):
        # Row 2 is row 1 times a unit phase: g11 g22 - |g12|^2 cancels to
        # roundoff, and D's error would lead the rate at high budgets. The
        # reference is the rate at the grid's own split in exact rational
        # arithmetic, rounded once before log1p.
        def exact(z):
            return Fraction(float(z.real)), Fraction(float(z.imag))

        def exact_bits(pair, p1, p2):
            a, b = ([exact(z) for z in row] for row in pair)
            var = Fraction(0.7) ** 2
            g11 = sum(x * x + y * y for x, y in a) / var
            g22 = sum(x * x + y * y for x, y in b) / var
            re = sum(x * u + y * v for (x, y), (u, v) in zip(a, b))
            im = sum(y * u - x * v for (x, y), (u, v) in zip(a, b))
            d = g11 * g22 - (re * re + im * im) / var**2
            p1, p2 = Fraction(float(p1)), Fraction(float(p2))
            return math.log1p(float(g11 * p1 + g22 * p2 + d * p1 * p2)) / math.log(2.0)

        def unit_phase_pairs(rng):
            h = crandn(rng, 60, 2, 6)
            h[:, 1] = np.exp(2j * np.pi * rng.uniform(size=(60, 1))) * h[:, 0]
            return h

        rng = RNG(96)
        h = unit_phase_pairs(rng)
        budgets = np.array([1e-12, 1e-3, 1.0, 1e3])
        grid = mac_sum_capacity_grid(h, (1, 1), budgets, 0.7)
        powers = np.diagonal(grid.covariances, axis1=-2, axis2=-1).real
        other = unit_phase_pairs(rng)
        # The grid's splits as solved, and rated on its own channel and on a second one.
        rated = [(h, grid.rates), (h, grid.rates_on(h, 0.7)), (other, grid.rates_on(other, 0.7))]
        for channel, rates in rated:
            expected = [
                [exact_bits(channel[r], *powers[r, j]) for j in range(budgets.size)]
                for r in range(60)
            ]
            np.testing.assert_allclose(rates, expected, rtol=1e-14, atol=0.0)

    def test_route_needs_no_solve_eigh_or_waterfill(self, monkeypatch):
        h = self.two_user_stack(RNG(97), 8)
        other = h + 0.3 * crandn(RNG(98), *h.shape)

        def refuse(*args, **kwargs):
            raise AssertionError("two single-antenna users are solved in closed form")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", refuse)
            patch.setattr(np.linalg, "eigh", refuse)
            patch.setattr(strategies, "waterfill", refuse)
            grid = mac_sum_capacity_grid(h, (1, 1), self.BUDGETS_W, 0.7)
            on_other = grid.rates_on(other, 0.7)
            one = mp.mac_sum_capacity(h[4], (1, 1), 2.0, 0.7)
        assert grid.converged.all() and one.converged
        assert one.iterations == 0 and one.objective_trace == (one.rate.rate_bits,)
        assert np.isfinite(on_other).all()


class TestScaledGramRating:
    """Single-antenna users: Xi is diagonal and is rated as log det(I + S G S)."""

    BUDGETS_W = np.logspace(-12.0, 3.0, 16)

    @staticmethod
    def diagonal_covariances(rng, n_real, k, budgets):
        """(R, B, k, k) diagonal covariances of trace b; one user dark in a quarter."""
        weights = rng.dirichlet(np.ones(k), size=(n_real, budgets.size))
        weights[: n_real // 4, :, 0] = 0.0
        weights /= weights.sum(axis=-1, keepdims=True)
        return np.einsum("rbi,ij->rbij", weights * budgets[:, None], np.eye(k)).astype(complex)

    @staticmethod
    def eig_bits(gram, xi):
        """log2 det(I + G Xi) as log1p of the eigenvalues of Xi^1/2 G Xi^1/2."""
        root = np.sqrt(np.diagonal(xi, axis1=-2, axis2=-1).real)
        scaled = root[..., :, None] * gram * root[..., None, :]
        return np.log1p(np.linalg.eigvalsh(scaled)).sum(axis=-1) / np.log(2.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_root_route_and_eigenvalues(self, k):
        rng = RNG(70 + k)
        h = crandn(rng, 40, k, 6) * rng.uniform(0.1, 3.0, size=(40, k, 1))
        xi = self.diagonal_covariances(rng, 40, k, self.BUDGETS_W)
        gram, factor = strategies._gram_factor(h, 0.7, True)
        assert factor is gram
        _, root = strategies._gram_factor(h, 0.7, False)
        scaled = strategies._dpc_bits(gram[:, None], xi, True)
        np.testing.assert_allclose(scaled, self.eig_bits(gram[:, None], xi), rtol=1e-13, atol=0.0)
        if k == 2:
            # det(I + G diag(p1, p2)) = 1 + g11 p1 + g22 p2 + det(G) p1 p2.
            p1, p2 = np.moveaxis(np.diagonal(xi, axis1=-2, axis2=-1).real, -1, 0)
            g11, g22 = gram[:, None, 0, 0].real, gram[:, None, 1, 1].real
            det = g11 * g22 - np.abs(gram[:, None, 0, 1]) ** 2
            closed = np.log1p(g11 * p1 + g22 * p2 + det * p1 * p2) / np.log(2.0)
            np.testing.assert_allclose(scaled, closed, rtol=1e-13, atol=0.0)
        # The root route loses up to about 4e-13 relative at 1e3 W with a
        # user dark, where the closed form sides with the scaled Gram.
        via_root = strategies._dpc_bits(root[:, None], xi, False)
        np.testing.assert_allclose(scaled, via_root, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_rates_on_matches_root_route_without_eigh(self, monkeypatch, k):
        rng = RNG(80 + k)
        h = crandn(rng, 5, k, 6)
        other = h + 0.3 * crandn(rng, *h.shape)

        def refuse(*args, **kwargs):
            raise AssertionError("single-antenna users need no eigh")

        # The iteration takes each block's eigh, 1x1 blocks too; the rating needs none.
        grid = mac_sum_capacity_grid(h, (1,) * k, self.BUDGETS_W, 0.7)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", refuse)
            on_other = grid.rates_on(other, 0.7)
        gram = strategies._gram_factor(other, 0.7, True)[0]
        reference = self.eig_bits(gram[:, None], grid.covariances)
        np.testing.assert_allclose(on_other, reference, rtol=1e-13, atol=0.0)
        _, root = strategies._gram_factor(other, 0.7, False)
        via_root = strategies._dpc_bits(root[:, None], grid.covariances, False)
        np.testing.assert_allclose(on_other, via_root, rtol=1e-12, atol=0.0)
        assert grid.converged.all()


def greedy_zf_reference(h, partition, total_power, noise_std):
    """Greedy ZF as one loop per budget: the predicted rate and stream count.

    Streams are added while the water-filled predicted rate rises by
    more than 1e-12 bits; the reference for the prefix design.
    """
    offsets = np.cumsum((0,) + partition)
    users = [h[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    n_tx = h.shape[1]
    basis = np.zeros((n_tx, 0), dtype=complex)
    rows = np.zeros((0, n_tx), dtype=complex)
    per_user = [0] * len(partition)
    best_rate, n_streams = 0.0, 0
    while n_streams < min(h.shape):
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
        gains = 1.0 / (np.linalg.norm(np.linalg.pinv(rows_next), axis=0) ** 2 * noise_std**2)
        rate = float(np.sum(np.log1p(mp.waterfill(gains, total_power) * gains)) / np.log(2.0))
        if rate <= best_rate + 1e-12:
            break
        rows, basis = rows_next, np.hstack([basis, direction[:, None]])
        per_user[k] += 1
        best_rate, n_streams = rate, n_streams + 1
    return best_rate, n_streams


class TestMultiUserGrid:
    """Grid entries against one-budget solves and evaluations."""

    # Zero budget, one-stream and all-stream regimes at unit noise.
    POWERS_W = np.array([0.0, 1e-10, 1e-4, 0.01, 0.3, 2.0, 50.0, 1e3])

    @pytest.mark.parametrize("partition", [(1, 1), (1, 2), (2, 1, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mac_rows_match_scalar_solves(self, partition, seed):
        rng = RNG(40 + seed)
        h = crandn(rng, sum(partition), 8)
        other = h + 0.3 * crandn(rng, *h.shape)
        grid = mac_sum_capacity_grid(h, partition, self.POWERS_W, SIGMA)
        on_other = grid.rates_on(other, SIGMA)
        for j, power in enumerate(self.POWERS_W):
            sol = mp.mac_sum_capacity(h, partition, power, SIGMA)
            one = mac_sum_capacity_grid(h, partition, np.array([power]), SIGMA)
            assert grid.rates[j] == pytest.approx(sol.rate.rate_bits, rel=1e-12, abs=0.0)
            assert grid.streams[j] == sol.rate.active_streams
            assert grid.converged[j] == sol.converged
            # The one-budget trace is the history's prefix before the NaN tail.
            n = len(sol.objective_trace)
            assert grid.objective_history[j, :n].tolist() == list(sol.objective_trace)
            assert np.isnan(grid.objective_history[j, n:]).all()
            assert on_other[j] == pytest.approx(
                one.rates_on(other, SIGMA)[0], rel=1e-12, abs=0.0
            )
        assert grid.rates[0] == 0.0 and grid.streams[0] == 0
        assert grid.converged.all()

    @pytest.mark.parametrize("partition", [(1, 1), (1, 2), (2, 1, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kkt_probe_matches_per_budget_projection(self, partition, seed):
        # The duality gap as a loop over budgets and users: the budget on
        # the largest eigenvalue of any user's gradient block, less the
        # gradient's inner product with the covariance.
        rng = RNG(40 + seed)
        h = crandn(rng, sum(partition), 8)
        grid = mac_sum_capacity_grid(h, partition, self.POWERS_W, SIGMA)
        offsets = np.cumsum((0,) + partition)
        gram = h @ h.conj().T / SIGMA**2
        gram = 0.5 * (gram + gram.conj().T)
        for j, power in enumerate(self.POWERS_W):
            xi = grid.covariances[j]
            core = np.linalg.solve(np.eye(h.shape[0]) + gram @ xi, gram)
            grad = 0.5 * (core + core.conj().T) / np.log(2.0)
            top, inner = 0.0, 0.0
            for a, b in zip(offsets[:-1], offsets[1:]):
                top = max(top, np.linalg.eigvalsh(grad[a:b, a:b])[-1])
                inner += np.trace(grad[a:b, a:b] @ xi[a:b, a:b]).real
            expected = max(0.0, power * top - inner)
            assert grid.gap_bits[j] == pytest.approx(expected, rel=1e-9, abs=1e-15 * power * top)
        assert grid.gap_bits[0] == 0.0

    def test_mac_grid_stacks_realizations(self):
        rng = RNG(44)
        stack = crandn(rng, 2, 3, 3, 6)
        grid = mac_sum_capacity_grid(stack, (1, 2), self.POWERS_W, SIGMA)
        assert grid.covariances.shape == (2, 3, self.POWERS_W.size, 3, 3)
        assert grid.objective_history.shape[:-1] == (2, 3, self.POWERS_W.size)
        assert not (np.diff(grid.objective_history, axis=-1) < 0.0).any()
        for a in range(2):
            for b in range(3):
                one = mac_sum_capacity_grid(stack[a, b], (1, 2), self.POWERS_W, SIGMA)
                assert np.array_equal(grid.rates[a, b], one.rates)
                assert np.array_equal(grid.streams[a, b], one.streams)
                assert np.array_equal(grid.iterations[a, b], one.iterations)

    def test_mac_grid_validation(self):
        h = np.ones((2, 3), complex)
        with pytest.raises(ValueError):
            mac_sum_capacity_grid(h, (1, 2), self.POWERS_W, SIGMA)
        with pytest.raises(ValueError):
            mac_sum_capacity_grid(h, (1, 1), np.array([1.0, -1.0]), SIGMA)

    @pytest.mark.parametrize("partition", [(1, 1), (1, 2), (2, 1, 3)])
    @pytest.mark.parametrize("naive", [False, True])
    def test_zf_grid_matches_per_power_chain(self, partition, naive):
        rng = RNG(50)
        h_design = crandn(rng, sum(partition), 8)
        h_true = h_design + 0.3 * crandn(rng, *h_design.shape)
        mismatch = random_psd(rng, 8, 8.0) if naive else None
        design = greedy_zf_design(h_design, partition, h_true, mismatch)
        grid = design.evaluate(self.POWERS_W, SIGMA)
        assert len(set(grid.streams.tolist())) > 2
        for j, power in enumerate(self.POWERS_W):
            one = design.evaluate(np.array([power]), SIGMA)
            assert grid.rates[j] == pytest.approx(one.rates[0], rel=1e-12, abs=0.0)
            assert grid.streams[j] == one.streams[0]
            assert grid.alpha[j] == pytest.approx(one.alpha[0], rel=1e-12)
            # The same entry from the chosen prefix's beams, owners and powers.
            chosen, _, p = design.allocate(np.array([power]), SIGMA)
            l = int(chosen[0])
            p = p[0, :l]
            _, rate = strategies._bc_rates(
                h_true @ design.beams[l, :, :l], partition, design.owners[:l], p, SIGMA
            )
            assert grid.rates[j] == pytest.approx(rate, rel=1e-12, abs=0.0)
            assert grid.streams[j] == np.count_nonzero(p > 1e-12 * power)
            # The chosen prefix carries the whole budget; no stream after it.
            assert grid.powers[j].sum() == pytest.approx(power if l else 0.0, rel=1e-12)
            assert not grid.powers[j, l:].any()
            alpha = (p @ design.radiated[l, :l]) / p.sum() if naive and l else 1.0
            assert grid.alpha[j] == pytest.approx(alpha, rel=1e-12)

    @pytest.mark.parametrize("partition", [(1, 1), (1, 2), (2, 1, 3)])
    def test_zf_prefix_choice_matches_per_budget_loop(self, partition):
        rng = RNG(52)
        for _ in range(5):
            h = crandn(rng, sum(partition), 8) * rng.uniform(0.1, 3.0, (sum(partition), 1))
            chosen, rate, _ = greedy_zf_design(h, partition).allocate(self.POWERS_W, SIGMA)
            for j, power in enumerate(self.POWERS_W):
                ref_rate, ref_streams = greedy_zf_reference(h, partition, power, SIGMA)
                assert chosen[j] == ref_streams
                assert rate[j] == pytest.approx(ref_rate, rel=1e-12, abs=0.0)

    def test_zf_grid_with_colinear_users(self):
        rng = RNG(51)
        row = crandn(rng, 5)
        h = np.vstack([row, (0.3 - 0.8j) * row])
        design = greedy_zf_design(h, (1, 1))
        # One stream; the arrays keep the width the shapes allow.
        assert design.owners.tolist() == [0, -1]
        grid = design.evaluate(self.POWERS_W, SIGMA)
        assert grid.streams.tolist() == [0] + [1] * (self.POWERS_W.size - 1)

    @pytest.mark.parametrize("naive", [False, True])
    def test_zf_stack_with_unequal_stream_counts_matches_each_alone(self, naive):
        # A zero channel, colinear users and a full-rank channel: greedy
        # orders of 0, 1 and 2 streams share one padded stack, and each
        # realization keeps the bits it has alone.
        rng = RNG(53)
        row = crandn(rng, 5)
        design = np.stack(
            [np.zeros((2, 5), complex), np.vstack([row, (0.3 - 0.8j) * row]), crandn(rng, 2, 5)]
        )
        rated = design + 0.3 * crandn(rng, *design.shape)
        mismatch = random_psd(rng, 5, 5.0) if naive else None
        stacked = greedy_zf_design(design, (1, 1), rated, mismatch)
        assert stacked.owners.shape == (3, 2)
        grid = stacked.evaluate(self.POWERS_W, SIGMA)
        for r, expected_streams in enumerate((0, 1, 2)):
            alone = greedy_zf_design(design[r], (1, 1), rated[r], mismatch)
            assert np.count_nonzero(alone.owners >= 0) == expected_streams
            assert alone.owners.shape == (2,)
            one = alone.evaluate(self.POWERS_W, SIGMA)
            for a, b in zip(grid, one):
                np.testing.assert_array_equal(a[r], b)
            assert not grid.powers[r, :, expected_streams:].any()
        assert grid.streams[:, -1].tolist() == [0, 1, 2]

    def test_zf_grid_without_streams(self):
        zero = np.zeros((2, 2, 5), complex)
        grid = greedy_zf_design(zero, (1, 1), mismatch_power=np.eye(5)).evaluate(
            self.POWERS_W, SIGMA
        )
        assert not grid.rates.any() and not grid.streams.any() and (grid.alpha == 1.0).all()


def projector_greedy_zf(h, partition):
    """Greedy order, beams and norms of a stack, projecting with I - B B^H.

    The stream loop of ``greedy_zf_design`` written with the SVD, the
    explicit n_tx x n_tx projector of the selected directions B and the
    pseudo-inverse of the stacked rows, as the reference for its
    triangular factor. The projector is applied twice: applied once, a
    direction drawn from a small residual stays off B's span only to
    about eps * kappa, and on nearly parallel users the next projection
    then keeps components along B.
    """
    n, m_total, n_tx = h.shape
    offsets = np.cumsum((0,) + partition)
    users = [h[:, a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    live = np.arange(n)
    basis = np.zeros((n, n_tx, 0), dtype=complex)
    rows = np.zeros((n, 0, n_tx), dtype=complex)
    per_user = np.zeros((n, len(partition)), dtype=int)
    width = min(n_tx, m_total)
    owners = np.full((n, width), -1)
    beams = np.zeros((n, width + 1, n_tx, width), dtype=complex)
    norms = np.full((n, width + 1, width), np.inf)
    for l in range(1, width + 1):
        proj = np.eye(n_tx) - basis @ basis.conj().swapaxes(1, 2)
        best = np.full(live.size, -1.0)
        pick = np.zeros(live.size, dtype=int)
        row, direction = np.zeros((2, live.size, n_tx), dtype=complex)
        for k, hk in enumerate(users):
            u, s, vh = np.linalg.svd(hk[live] @ proj @ proj, full_matrices=False)
            better = (per_user[live, k] < hk.shape[1]) & (s[:, 0] > best)
            best[better], pick[better] = s[better, 0], k
            row[better] = (u[better, :, 0].conj()[:, None, :] @ hk[live[better]])[:, 0]
            direction[better] = vh[better, 0].conj()
        found = (best >= 0.0) & (best**2 > 1e-28)
        if not found.any():
            break
        live, pick = live[found], pick[found]
        rows = np.concatenate([rows[found], row[found, None, :]], axis=1)
        basis = np.concatenate([basis[found], direction[found, :, None]], axis=2)
        inverse = np.linalg.pinv(rows)
        col_norms = np.linalg.norm(inverse, axis=1)
        owners[live, l - 1] = pick
        per_user[live, pick] += 1
        beams[live, l, :, :l] = inverse / col_norms[:, None, :]
        norms[live, l, :l] = col_norms
    return owners, beams, norms


def phase_aligned(beams, reference):
    """Each column of ``beams`` turned by the unit phase that aligns it to ``reference``."""
    inner = np.sum(beams.conj() * reference, axis=-2, keepdims=True)
    size = np.abs(inner)
    return beams * np.divide(inner, size, out=np.ones_like(inner), where=size > 0.0)


def near_parallel_stack(rng, partition, n_real, residual):
    """Single-antenna users within ``residual`` (relative) of a shared span.

    The first half of the stack holds rank-one channels plus ``residual``
    noise, so every user is nearly parallel to every other; in the second
    half the last user is a combination of the others plus that noise.
    """
    m = len(partition)
    half = n_real // 2
    h = crandn(rng, n_real, m, 7)
    h[:half] = crandn(rng, half, m, 1) * crandn(rng, half, 1, 7)
    h[half:, -1] = (crandn(rng, n_real - half, 1, m - 1) @ h[half:, :-1])[:, 0]
    scale = np.linalg.norm(h, axis=-1, keepdims=True)
    return h + residual * scale * crandn(rng, n_real, m, 7) / np.sqrt(14.0)


ZF_PARTITIONS = [(1, 1), (1, 1, 1), (1, 2), (2, 1), (2, 2, 2)]


class TestGreedyProjection:
    """The triangular factor of greedy ZF against the projector-and-pinv reference."""

    @pytest.mark.parametrize("partition", ZF_PARTITIONS)
    def test_matches_explicit_projector(self, partition):
        # Random, rank-one (colinear rows) and zero realizations in one
        # stack, then every channel of a mixed_stack of each kind.
        rng = RNG(90 + len(partition))
        m = sum(partition)
        random = crandn(rng, 6, m, 7)
        rank_one = crandn(rng, 3, m, 1) * crandn(rng, 3, 1, 7)
        *channels, h_up = mixed_stack("random", m, 7, 5)[0]
        h = np.concatenate(
            [random, rank_one, np.zeros((1, m, 7), complex), *channels, h_up.swapaxes(1, 2)]
        )
        design = greedy_zf_design(h, partition)
        owners, beams, norms = projector_greedy_zf(h, partition)
        np.testing.assert_array_equal(design.owners, owners)
        np.testing.assert_allclose(design.norms, norms, rtol=1e-13, atol=0.0)
        # A beam's phase follows its row's, which the SVD fixes in the reference.
        aligned = phase_aligned(design.beams, beams)
        np.testing.assert_allclose(aligned, beams, rtol=1e-13, atol=1e-13)
        assert (owners[:6] >= 0).sum() > 6 and (owners[6:9] >= 0).sum(axis=1).max() == 1
        assert (owners[9] == -1).all()

    @pytest.mark.parametrize("partition", [(1, 1), (1, 1, 1), (1, 1, 1, 1)])
    @pytest.mark.parametrize("residual", [1e-6, 1e-8, 1e-10])
    def test_nearly_parallel_users(self, partition, residual):
        # Prefix l's norms and beams move by about eps * kappa_l in any
        # backward-stable method, kappa_l = |h| max(norms_l) the condition
        # of its stacked rows, so the reference is matched to a few
        # eps * kappa_l. Without reorthogonalisation the design was off
        # by up to 1e7 eps * kappa_l here.
        h = near_parallel_stack(RNG(70), partition, 30, residual)
        design = greedy_zf_design(h, partition)
        owners, beams, norms = projector_greedy_zf(h, partition)
        np.testing.assert_array_equal(design.owners, owners)
        served = np.isfinite(norms)
        kappa = np.linalg.norm(h, ord=2, axis=(-2, -1))[:, None, None] * np.where(
            served, norms, 0.0
        ).max(axis=-1, keepdims=True)
        bound = 8.0 * np.finfo(float).eps * np.maximum(kappa, 1.0)
        assert np.all(np.abs(design.norms[served] - norms[served]) <= (bound * norms)[served])
        error = np.abs(phase_aligned(design.beams, beams) - beams).max(axis=-2)
        assert np.all(error <= bound)
        assert kappa.max() > 0.1 / residual

    @pytest.mark.parametrize("partition", ZF_PARTITIONS + [(1, 1, 1, 1)])
    def test_design_needs_no_svd_or_pinv(self, monkeypatch, partition):
        m = sum(partition)
        nearly_parallel = near_parallel_stack(RNG(72), (1,) * m, 4, 1e-8)
        h = np.concatenate([crandn(RNG(71), 4, m, 7), nearly_parallel])

        def refuse(*args, **kwargs):
            raise AssertionError("greedy ZF grows a triangular factor")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", refuse)
            patch.setattr(np.linalg, "pinv", refuse)
            design = greedy_zf_design(h, partition, h, np.eye(7))
        assert (design.owners >= 0).all()


class TestGreedyZf:
    def test_single_user_is_matched_filter(self):
        rng = RNG(19)
        h = crandn(rng, 1, 7)
        power = 2.0
        design = greedy_zf_design(h, (1,))
        chosen, rate, _ = design.allocate(np.array([power]), SIGMA)
        cap = at_budget(beam_design(h[0]), power).rates[0]
        assert rate[0] == pytest.approx(cap, rel=1e-12)
        assert chosen[0] == 1
        beam = design.beams[1, :, 0]
        matched = h[0].conj() / np.linalg.norm(h[0])
        assert abs(np.vdot(matched, beam)) == pytest.approx(1.0, rel=1e-10)

    def test_orthogonal_users_get_matched_filters(self):
        rng = RNG(20)
        scales = np.array([1.4, 1.0, 0.8])
        h = orthogonal_rows_channel(rng, scales, 6)
        power = 3.0
        design = greedy_zf_design(h, (1, 1, 1))
        chosen, rate, _ = design.allocate(np.array([power]), SIGMA)
        gains = scales**2 / SIGMA**2
        powers = mp.waterfill(gains, power)
        expected = float(np.sum(np.log2(1.0 + powers * gains)))
        assert rate[0] == pytest.approx(expected, rel=1e-10)
        l = int(chosen[0])
        for k, beam in zip(design.owners[:l], design.beams[l, :, :l].T):
            matched = h[k].conj() / np.linalg.norm(h[k])
            assert abs(np.vdot(matched, beam)) == pytest.approx(1.0, abs=1e-10)

    def test_colinear_users_share_one_stream(self):
        rng = RNG(21)
        row = crandn(rng, 5)
        h = np.vstack([row, (0.3 - 0.8j) * row])
        chosen, _, _ = greedy_zf_design(h, (1, 1)).allocate(np.array([2.0]), SIGMA)
        assert chosen[0] == 1

    def test_nulling_between_selected_users(self):
        rng = RNG(22)
        h = crandn(rng, 3, 6)
        design = greedy_zf_design(h, (1, 1, 1))
        chosen, _, _ = design.allocate(np.array([4.0]), SIGMA)
        l = int(chosen[0])
        stacked, owners = design.beams[l, :, :l], design.owners[:l]
        scale = np.linalg.norm(h)
        for j, owner in enumerate(owners):
            for i in set(owners.tolist()):
                if i != owner:
                    assert abs(h[i] @ stacked[:, j]) < 1e-10 * scale

    def test_predicted_rate_is_achieved_without_interference(self):
        rng = RNG(23)
        h = crandn(rng, 3, 8)
        design = greedy_zf_design(h, (1, 1, 1))
        chosen, rate, _ = design.allocate(np.array([3.0]), SIGMA)
        achieved = design.evaluate(np.array([3.0]), SIGMA)
        assert achieved.rates[0] == pytest.approx(rate[0], rel=1e-10)
        assert achieved.streams[0] == chosen[0]

    def test_budget_and_unit_norm_beams(self):
        rng = RNG(24)
        h = crandn(rng, 4, 6)
        power = 2.5
        design = greedy_zf_design(h, (2, 2))
        chosen, _, powers = design.allocate(np.array([power]), SIGMA)
        l = int(chosen[0])
        assert powers[0].sum() == pytest.approx(power, rel=1e-12)
        assert np.all(powers[0, l:] == 0.0)
        assert np.allclose(np.linalg.norm(design.beams[l, :, :l], axis=0), 1.0, rtol=1e-10)
        alpha = design.evaluate(np.array([power]), SIGMA).alpha[0]
        assert alpha == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        h = np.ones((2, 3), complex)
        with pytest.raises(ValueError):
            greedy_zf_design(h, (1,))
        with pytest.raises(ValueError):
            greedy_zf_design(h, (1, 1)).allocate(np.array([-1.0]), SIGMA)
        with pytest.raises(ValueError):
            greedy_zf_design(h, (1, 1), np.ones((3, 3), complex))

    def test_with_true_power_traces_the_beam_covariance(self):
        rng = RNG(25)
        h = crandn(rng, 3, 6)
        k = random_psd(rng, 6, 6.0)
        design = greedy_zf_design(h, (1, 1, 1), mismatch_power=k)
        chosen, _, powers = design.allocate(np.array([2.0]), SIGMA)
        l = int(chosen[0])
        stacked, p = design.beams[l, :, :l], powers[0, :l]
        cov = (stacked * p) @ stacked.conj().T
        alpha = design.evaluate(np.array([2.0]), SIGMA).alpha[0]
        assert alpha == pytest.approx(float(np.trace(k @ cov).real) / p.sum(), rel=1e-12)
        ident = greedy_zf_design(h, (1, 1, 1), mismatch_power=np.eye(6, dtype=complex))
        assert ident.evaluate(np.array([2.0]), SIGMA).alpha[0] == pytest.approx(
            1.0, rel=1e-10
        )


def montecarlo_user_rate(rng, own, others, p_own, p_others, noise_std, n_samp):
    """Mutual information estimate from the Gaussian likelihood ratio.

    ``own``/``others`` are the effective per-stream receive responses of
    one user; interference from the other users' streams is part of the
    channel noise. Estimates E[log2 p(y|s)/p(y)] by direct sampling.
    """
    m = own.shape[0]
    cov_noise = noise_std**2 * np.eye(m, dtype=complex)
    if others.shape[1]:
        cov_noise = cov_noise + (others * p_others) @ others.conj().T
    cov_total = cov_noise + (own * p_own) @ own.conj().T

    def cgauss(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    s = np.sqrt(p_own)[:, None] * cgauss((own.shape[1], n_samp))
    noise = mp.principal_sqrt_psd(cov_noise) @ cgauss((m, n_samp))
    y = own @ s + noise
    resid = y - own @ s
    sign_t, logdet_t = np.linalg.slogdet(cov_total)
    sign_c, logdet_c = np.linalg.slogdet(cov_noise)
    assert sign_t.real > 0 and sign_c.real > 0
    quad_t = np.sum(np.real(y.conj() * np.linalg.solve(cov_total, y)), axis=0)
    quad_c = np.sum(np.real(resid.conj() * np.linalg.solve(cov_noise, resid)), axis=0)
    llr = (logdet_t - logdet_c) - quad_t + quad_c
    return float(np.mean(llr)) / np.log(2.0)


def bc_rates(h, partition, beams, owner, powers):
    """Per-user rates (K,) and sum rate of one linear precoder on ``h``."""
    return strategies._bc_rates(h @ beams, partition, np.asarray(owner), powers, SIGMA)


class TestEvaluateBcRates:
    def test_matches_montecarlo_mutual_information(self):
        rng = RNG(26)
        n_tx = 4
        h = crandn(rng, 3, n_tx)
        partition = (2, 1)
        f1 = crandn(rng, n_tx, 2)
        f1 /= np.linalg.norm(f1, axis=0)
        f2 = crandn(rng, n_tx, 1)
        f2 /= np.linalg.norm(f2, axis=0)
        powers = (np.array([0.8, 0.5]), np.array([0.7]))
        per_user, total = bc_rates(
            h, partition, np.hstack([f1, f2]), [0, 0, 1], np.concatenate(powers)
        )

        n_samp = 200_000
        rate1 = montecarlo_user_rate(
            RNG(100), h[:2] @ f1, h[:2] @ f2, powers[0], powers[1], SIGMA, n_samp
        )
        rate2 = montecarlo_user_rate(
            RNG(101), h[2:] @ f2, h[2:] @ f1, powers[1], powers[0], SIGMA, n_samp
        )
        assert per_user[0] == pytest.approx(rate1, rel=0.02)
        assert per_user[1] == pytest.approx(rate2, rel=0.02)
        assert total == pytest.approx(per_user.sum(), rel=1e-12)

    def test_interference_free_closed_form(self):
        rng = RNG(27)
        h = crandn(rng, 1, 3)
        f = h[0].conj()[:, None] / np.linalg.norm(h[0])
        _, total = bc_rates(h, (1,), f, [0], np.array([1.5]))
        expected = np.log2(1.0 + 1.5 * np.vdot(h[0], h[0]).real / SIGMA**2)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_user_without_streams_gets_zero(self):
        rng = RNG(28)
        h = crandn(rng, 2, 3)
        f = crandn(rng, 3, 1)
        f /= np.linalg.norm(f)
        per_user, _ = bc_rates(h, (1, 1), f, [0], np.array([1.0]))
        assert per_user[1] == 0.0
        assert per_user[0] > 0.0
