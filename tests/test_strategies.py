"""Strategy layer against search, grid, and sampling oracles."""

from __future__ import annotations

import numpy as np
import pytest

import multiport as mp
from multiport import strategies
from multiport.strategies import beam_design, greedy_zf_design, mac_sum_capacity_grid, mode_design

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
        got = mode_design(design, rated, mismatch)
        want = svd_mode_design(design, rated, mismatch)
        for name in strategies.ModeDesign._fields:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        for a, b in zip(got.evaluate(self.BUDGETS, SIGMA), want.evaluate(self.BUDGETS, SIGMA)):
            np.testing.assert_array_equal(a, b)

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

    def test_two_user_closed_form_maximizer(self):
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
            # The gap bounds the distance to the optimum, also one step in;
            # the slack covers roundoff in the rates.
            one = mac_sum_capacity_grid(h, (1, 1), np.array([budget]), SIGMA, max_iterations=1)
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
        grid = mac_sum_capacity_grid(h, partition, np.logspace(-10.0, 2.0, 13), SIGMA)
        assert grid.converged.all()
        assert (grid.gap_bits <= 1e-6 * np.maximum(grid.rates, 1.0)).all()
        assert grid.iterations.mean() <= 6.0
        assert grid.iterations.max() <= 30
        assert all(np.all(np.diff(trace) >= 0.0) for trace in grid.objective_traces)

    def test_validation(self):
        h = np.ones((3, 4), complex)
        with pytest.raises(ValueError):
            mp.mac_sum_capacity(h, (2, 2), 1.0, SIGMA)
        with pytest.raises(ValueError):
            mp.mac_sum_capacity(h, (3, 0), 1.0, SIGMA)
        with pytest.raises(ValueError):
            mp.mac_sum_capacity(h, (1, 1, 1), -1.0, SIGMA)


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
        assert len(grid.objective_traces) == 2 * 3 * self.POWERS_W.size
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
        assert design.owners.size == 1
        grid = design.evaluate(self.POWERS_W, SIGMA)
        assert grid.streams.tolist() == [0] + [1] * (self.POWERS_W.size - 1)

    @pytest.mark.parametrize("naive", [False, True])
    def test_zf_stack_with_unequal_stream_counts_matches_each_alone(self, naive):
        # A zero channel, colinear users and a full-rank channel: greedy
        # orders of 0, 1 and 2 streams share one padded stack.
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
            assert alone.owners.size == expected_streams
            one = alone.evaluate(self.POWERS_W, SIGMA)
            n = expected_streams
            np.testing.assert_allclose(grid.rates[r], one.rates, rtol=1e-12, atol=0.0)
            assert np.array_equal(grid.streams[r], one.streams)
            np.testing.assert_allclose(grid.alpha[r], one.alpha, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(grid.powers[r, :, :n], one.powers, rtol=1e-12, atol=0.0)
            assert not grid.powers[r, :, n:].any()
        assert grid.streams[:, -1].tolist() == [0, 1, 2]

    def test_zf_grid_without_streams(self):
        zero = np.zeros((2, 2, 5), complex)
        grid = greedy_zf_design(zero, (1, 1), mismatch_power=np.eye(5)).evaluate(
            self.POWERS_W, SIGMA
        )
        assert not grid.rates.any() and not grid.streams.any() and (grid.alpha == 1.0).all()


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
