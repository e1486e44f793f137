"""Water-filling and factorizations against brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiport.numerics import (
    FactorizationError,
    cholesky_psd,
    hermitize,
    log_det_eye_plus,
    principal_sqrt_psd,
    waterfill,
)


def waterfill_grid_oracle(gains: np.ndarray, total: float, steps: int = 10000):
    """Exhaustive search over a simplex grid for two or three channels."""
    best_rate = -1.0
    best = None
    ticks = np.linspace(0.0, total, steps + 1)
    if len(gains) == 2:
        for p0 in ticks:
            alloc = np.array([p0, total - p0])
            rate = float(np.sum(np.log2(1.0 + gains * alloc)))
            if rate > best_rate:
                best_rate, best = rate, alloc
    else:
        for p0 in ticks[:: max(1, steps // 200)]:
            for p1 in np.linspace(0.0, total - p0, 201):
                alloc = np.array([p0, p1, total - p0 - p1])
                rate = float(np.sum(np.log2(1.0 + gains * alloc)))
                if rate > best_rate:
                    best_rate, best = rate, alloc
    return best, best_rate


class TestWaterfill:
    def test_two_channel_example(self):
        # Budget too small to reach the weaker channel.
        p = waterfill(np.array([2.0, 1.0]), 0.25)
        assert p == pytest.approx([0.25, 0.0], abs=1e-15)

    def test_two_channel_example_against_grid(self):
        gains = np.array([2.0, 1.0])
        p = waterfill(gains, 0.25)
        grid_alloc, grid_rate = waterfill_grid_oracle(gains, 0.25)
        own_rate = float(np.sum(np.log2(1.0 + gains * p)))
        assert own_rate >= grid_rate - 1e-12
        assert np.max(np.abs(p - grid_alloc)) < 1e-6

    def test_large_budget_activates_all(self):
        p = waterfill(np.array([2.0, 1.0]), 10.0)
        assert p == pytest.approx([5.25, 4.75], rel=1e-12)

    def test_zero_budget(self):
        assert np.array_equal(waterfill(np.array([1.0, 2.0]), 0.0), [0.0, 0.0])

    def test_zero_gains(self):
        assert np.array_equal(waterfill(np.array([0.0, 0.0]), 1.0), [0.0, 0.0])

    def test_partial_zero_gain_gets_nothing(self):
        p = waterfill(np.array([0.0, 3.0]), 2.0)
        assert p[0] == 0.0
        assert p[1] == pytest.approx(2.0, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            waterfill(np.array([-1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([1.0, 1.0]), -0.5)
        with pytest.raises(ValueError):
            waterfill(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.array(1.0), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.zeros((2, 3)), np.ones(3))

    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=8),
            elements=st.floats(min_value=0.0, max_value=1e4),
        ),
        st.floats(min_value=1e-9, max_value=1e3),
    )
    @settings(max_examples=150, deadline=None)
    def test_budget_and_kkt(self, gains, total):
        p = waterfill(gains, total)
        assert np.all(p >= 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            inv = np.where(gains > 0.0, 1.0 / gains, np.inf)
        if np.any(np.isfinite(inv)):
            assert float(p.sum()) == pytest.approx(total, rel=1e-9)
            active = p > 0.0
            levels = p[active] + inv[active]
            if levels.size:
                level = levels.max()
                assert np.allclose(levels, level, rtol=1e-6)
                # Inactive channels must sit above the water level.
                assert np.all(inv[~active] >= level * (1.0 - 1e-9))
        else:
            assert float(p.sum()) == 0.0

    @given(
        arrays(
            np.float64,
            3,
            elements=st.floats(min_value=1e-3, max_value=1e3),
        ),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_beaten_by_grid(self, gains, total):
        p = waterfill(gains, total)
        own = float(np.sum(np.log2(1.0 + gains * p)))
        _, grid_rate = waterfill_grid_oracle(gains, total, steps=4000)
        assert own >= grid_rate - 1e-12

    def test_monotone_in_budget(self):
        gains = np.array([3.0, 1.5, 0.2, 0.9])
        prev = np.zeros(4)
        for total in np.linspace(0.01, 20.0, 40):
            p = waterfill(gains, total)
            assert np.all(p >= prev - 1e-12)
            prev = p

    def test_permutation_equivariance(self):
        gains = np.array([0.5, 4.0, 2.0, 1.0])
        perm = np.array([2, 0, 3, 1])
        assert np.allclose(
            waterfill(gains, 3.0)[perm], waterfill(gains[perm], 3.0), atol=1e-15
        )


BUDGETS = arrays(
    np.float64,
    st.integers(min_value=1, max_value=6),
    elements=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e3)),
)
GAINS = arrays(
    np.float64,
    st.integers(min_value=1, max_value=8),
    elements=st.floats(min_value=0.0, max_value=1e4),
)


class TestWaterfillBudgetGrid:
    @given(GAINS, BUDGETS)
    @settings(max_examples=150, deadline=None)
    def test_rows_match_scalar_calls(self, gains, budgets):
        grid = waterfill(gains, budgets)
        assert grid.shape == (budgets.size, gains.size)
        for row, budget in zip(grid, budgets):
            assert np.all(np.abs(row - waterfill(gains, budget)) <= 1e-15 * budget)

    @given(GAINS, BUDGETS)
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_budget(self, gains, budgets):
        ordered = np.sort(budgets)
        grid = waterfill(gains, ordered)
        assert np.all(np.diff(grid, axis=0) >= -1e-14 * ordered[-1])

    @pytest.mark.parametrize(
        "budgets",
        [np.array([1.0, -0.5]), np.array([[1.0], [-0.5]]), np.array([1.0, np.nan])],
    )
    def test_rejects_negative_and_2d_budgets(self, budgets):
        with pytest.raises(ValueError):
            waterfill(np.array([1.0, 2.0]), budgets)


@st.composite
def gain_rows_and_budgets(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=9))
    gains = draw(arrays(np.float64, (rows, n), elements=st.floats(0.0, 1e4)))
    budgets = draw(
        arrays(
            np.float64,
            rows,
            elements=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e3)),
        )
    )
    return gains, budgets


class TestWaterfillGainRows:
    @given(gain_rows_and_budgets())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_scalar_calls(self, data):
        gains, budgets = data
        rows = waterfill(gains, budgets)
        assert rows.shape == gains.shape
        for row, g, budget in zip(rows, gains, budgets):
            assert np.all(np.abs(row - waterfill(g, budget)) <= 1e-15 * budget)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.just(1), st.integers(1, 12)),
            elements=st.floats(0.0, 1e4),
        ),
        BUDGETS,
    )
    @settings(max_examples=150, deadline=None)
    def test_stacked_rows_match_scalar_calls(self, gains, budgets):
        # Padding a row with zeros to the widest row of its stack changes
        # no bit: numpy's pairwise sum would regroup eight or more terms.
        grid = waterfill(gains, budgets)
        assert grid.shape == (gains.shape[0], budgets.size, gains.shape[2])
        for r, j in np.ndindex(grid.shape[:2]):
            assert np.array_equal(grid[r, j], waterfill(gains[r, 0], budgets[j]))

    @pytest.mark.parametrize(
        "gains, budgets",
        [
            ([[0.0, 1e-308, 1e-308], [1e-308] * 3], [1.0, 2.0]),
            ([[0.0, 0.0, 1e-308], [1e-308] * 3], [1.0, 1.0]),
        ],
    )
    def test_rows_padded_past_tiny_gains_match_scalar_calls(self, gains, budgets):
        # Padding past a row's active gains, next to a strongest gain near
        # 1e-308, must not overflow (a RuntimeWarning, an error here).
        rows = waterfill(gains, budgets)
        for row, g, budget in zip(rows, gains, budgets):
            assert np.array_equal(row, waterfill(g, budget))

    @pytest.mark.parametrize(
        "budgets", [np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, 3.0]), np.ones((2, 3))]
    )
    def test_rejects_budget_count_mismatch(self, budgets):
        with pytest.raises(ValueError):
            waterfill(np.ones((2, 3)), budgets)


def log1p_eigvalsh(m):
    return np.log1p(np.linalg.eigvalsh(m)).sum(axis=-1)


def psd_stack(rng, shape, n, rank, scale):
    a = rng.standard_normal(shape + (n, rank)) + 1j * rng.standard_normal(shape + (n, rank))
    return scale * (a @ a.conj().swapaxes(-1, -2))


class TestLogDetEyePlus:
    """log det(I + M) by LDL^H pivots against log1p of the eigenvalues."""

    SCALES = 10.0 ** np.arange(-14.0, 7.0, 2.0)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_full_rank_stacks_match_log1p_eigvalsh(self, n):
        rng = np.random.default_rng(300 + n)
        for scale in self.SCALES:
            m = psd_stack(rng, (3, 4), n, n + 1, scale)
            got = log_det_eye_plus(m)
            assert got.shape == (3, 4)
            np.testing.assert_allclose(got, log1p_eigvalsh(m), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_rank_deficient_stacks_match_log1p_eigvalsh(self, n):
        # Both routes resolve a null direction only to about eps * |M|, so
        # that is the absolute slack; tiny matrices are held to 1e-13 relative.
        rng = np.random.default_rng(400 + n)
        for scale in self.SCALES:
            for rank in (1, n - 1):
                m = psd_stack(rng, (5,), n, rank, scale)
                slack = 4.0 * n * np.finfo(float).eps * np.linalg.norm(m, axis=(-2, -1))
                error = np.abs(log_det_eye_plus(m) - log1p_eigvalsh(m))
                assert (error <= 1e-13 * log1p_eigvalsh(m) + slack).all()

    def test_zero_matrices_give_zero(self):
        assert np.array_equal(log_det_eye_plus(np.zeros((2, 3, 4, 4), complex)), np.zeros((2, 3)))
        assert log_det_eye_plus(np.zeros((1, 1))) == 0.0

    def test_tiny_matrices_keep_their_digits(self):
        # det(I + M) rounds to 1 here; the pivots' log1p keeps the rate.
        m = psd_stack(np.random.default_rng(5), (), 3, 3, 1e-20)
        assert np.linalg.slogdet(np.eye(3) + m)[1] == 0.0
        assert log_det_eye_plus(m) == pytest.approx(np.trace(m).real, rel=1e-15)

    def test_reads_the_lower_triangle_only(self):
        m = psd_stack(np.random.default_rng(6), (4,), 5, 5, 1.0)
        garbage = m + np.triu(np.full((5, 5), 7.0 - 3.0j), 1)
        assert np.array_equal(log_det_eye_plus(garbage), log_det_eye_plus(m))

    def test_real_matrices(self):
        a = np.random.default_rng(7).standard_normal((6, 4, 4))
        m = a @ a.swapaxes(-1, -2)
        np.testing.assert_allclose(log_det_eye_plus(m), log1p_eigvalsh(m), rtol=1e-13)


class TestFactorizations:
    def test_cholesky_round_trip(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        spd = a @ a.conj().T + 4.0 * np.eye(4)
        low = cholesky_psd(spd)
        assert np.allclose(low @ low.conj().T, spd, rtol=1e-12)

    def test_cholesky_failure_maps_to_package_error(self):
        with pytest.raises(FactorizationError):
            cholesky_psd(np.diag([1.0, -1.0]).astype(complex))

    def test_principal_sqrt_round_trip(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        psd = a @ a.conj().T
        root = principal_sqrt_psd(psd)
        assert np.allclose(root @ root, psd, rtol=1e-10, atol=1e-12)
        assert np.allclose(root, root.conj().T, atol=1e-12)

    def test_principal_sqrt_clips_roundoff(self):
        psd = np.diag([1.0, -1e-16]).astype(complex)
        root = principal_sqrt_psd(psd)
        assert np.linalg.eigvalsh(root).min() >= 0.0

    def test_principal_sqrt_rejects_indefinite(self):
        with pytest.raises(FactorizationError):
            principal_sqrt_psd(np.diag([1.0, -0.5]).astype(complex))

    def test_hermitize_symmetrizes_roundoff(self):
        a = np.array([[1.0, 0.5 + 1e-13j], [0.5 - 2e-13j, 2.0]])
        out = hermitize(a)
        assert np.allclose(out, out.conj().T, atol=0.0)

    def test_hermitize_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError):
            hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))
