"""Scenario configuration, random coupling, KDE, and simulation runs."""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import multiport as mp
from conftest import make_system
from multiport import cli, montecarlo, strategies

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def tiny_config(**overrides) -> mp.ScenarioConfig:
    base = dict(
        name="tiny",
        n_tx=4,
        tx_spacing=0.4,
        rx_partition=(1,),
        strategies=("cap", "recip", "hyp"),
        power_grid_dbw=(-70.0, -50.0),
        n_realizations=4,
        seed=3,
    )
    base.update(overrides)
    return mp.ScenarioConfig(**base)


class TestCouplingRealization:
    def test_moments(self):
        std = 0.02
        z = mp.coupling_realization(9, 0, 0, 120, 160, std)
        n = z.size
        assert abs(z.mean()) < 5 * std / np.sqrt(n)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(std**2, rel=0.03)
        # Circular symmetry: the pseudo-variance vanishes.
        assert abs(np.mean(z**2)) < 5 * std**2 / np.sqrt(n)
        assert np.var(z.real) == pytest.approx(std**2 / 2, rel=0.05)
        assert np.var(z.imag) == pytest.approx(std**2 / 2, rel=0.05)

    def test_reproducible(self):
        a = mp.coupling_realization(5, 7, 2, 3, 4, 0.01)
        b = mp.coupling_realization(5, 7, 2, 3, 4, 0.01)
        assert np.array_equal(a, b)

    def test_independent_across_indices(self):
        base = mp.coupling_realization(5, 0, 0, 100, 100, 1.0)
        for other in (
            mp.coupling_realization(5, 1, 0, 100, 100, 1.0),
            mp.coupling_realization(5, 0, 1, 100, 100, 1.0),
            mp.coupling_realization(6, 0, 0, 100, 100, 1.0),
        ):
            assert not np.array_equal(base, other)
            corr = abs(np.vdot(base, other)) / (
                np.linalg.norm(base) * np.linalg.norm(other)
            )
            assert corr < 0.05

    def test_far_field_scale(self):
        assert mp.far_field_coupling_std() == abs(mp.dipole_mutual_impedance(1000.0))

    def test_largest_indices_draw(self):
        top = 2**64 - 1
        z = mp.coupling_realization(top, top, top, 2, 3, 0.5)
        assert z.shape == (2, 3) and np.all(np.isfinite(z))
        assert np.array_equal(z, mp.coupling_realization(np.uint64(top), top, top, 2, 3, 0.5))

    @pytest.mark.parametrize("name", ["seed", "realization", "attempt"])
    @pytest.mark.parametrize("value", [-1, 2**64, 1.0])
    def test_rejects_an_index_outside_uint64(self, name, value):
        args = {"seed": 5, "realization": 0, "attempt": 0, "n_rx": 2, "n_tx": 3, "std": 1.0}
        with pytest.raises(ValueError, match=f"^{name} must be an integer in"):
            mp.coupling_realization(**{**args, name: value})

    @pytest.mark.parametrize("std", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_a_std_that_is_not_positive_and_finite(self, std):
        with pytest.raises(ValueError, match="^std must be positive and finite"):
            mp.coupling_realization(5, 0, 0, 2, 3, std)


class TestGaussianKde:
    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(0)
        grid, density = mp.gaussian_kde(rng.standard_normal(500))
        integral = float(trapezoid(density, grid))
        assert 0.995 <= integral <= 1.001
        assert grid.size == 128 and density.size == 128
        assert np.all(density >= 0.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200)
        g0, d0 = mp.gaussian_kde(x)
        g1, d1 = mp.gaussian_kde(x + 5.0)
        assert np.allclose(g1, g0 + 5.0, atol=1e-12)
        assert np.allclose(d1, d0, atol=1e-12)

    def test_matches_scipy_with_same_bandwidth(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2)
        x = rng.standard_normal(300)
        grid, density = mp.gaussian_kde(x)
        factor = 1.06 * x.size ** (-1.0 / 5.0)
        reference = scipy_stats.gaussian_kde(x, bw_method=factor)(grid)
        assert np.allclose(density, reference, rtol=1e-8)

    @pytest.mark.parametrize("n", [2, 50, 200, 1000])
    def test_bits_equal_the_textbook_formula(self, n):
        # kde.csv prints every bit, and scipy agrees only to rtol 1e-8.
        x = 0.8 + 0.05 * np.random.default_rng(n).standard_normal(n)
        grid, density = mp.gaussian_kde(x)
        h = 1.06 * float(np.std(x, ddof=1)) * n ** (-1.0 / 5.0)
        expected_grid = np.linspace(x.min() - 3 * h, x.max() + 3 * h, montecarlo.KDE_GRID_POINTS)
        z = (expected_grid[:, None] - x[None, :]) / h
        expected = np.exp(-0.5 * z * z).sum(axis=1) / (n * h * math.sqrt(2 * math.pi))
        assert np.array_equal(grid, expected_grid)
        assert np.array_equal(density, expected)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            mp.gaussian_kde(np.array([1.0]))
        with pytest.raises(ValueError):
            mp.gaussian_kde(np.full(10, 2.5))
        with pytest.raises(ValueError):
            mp.gaussian_kde(np.array([1.0, np.nan, 2.0]))

    @pytest.mark.parametrize(
        "shape", [(200, 1), (3, 50), (2, 3, 50)], ids=["column", "stack", "rank3"]
    )
    def test_rejects_samples_that_are_not_one_set(self, shape):
        samples = np.random.default_rng(3).standard_normal(shape)
        with pytest.raises(ValueError, match="one set"):
            mp.gaussian_kde(samples)


NOISE_VARS = {"voltage_noise_var": 1e-14, "current_noise_var": 1e-17}


def wrong_json_type_cases() -> list[tuple[str, object, str]]:
    """One (path, value, JSON type) case per field of the run, scenario and noise blocks.

    The value has no JSON type any field accepts in its place: an empty
    object, or an empty list where an object belongs.
    """
    kinds = {int: "integer", float: "number", complex: "number", str: "string"}
    cases = []
    for prefix, cls in (("run.", cli.RunConfig), ("", mp.ScenarioConfig), ("noise.", mp.NoiseConfig)):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            hint = hints[f.name]
            if type(None) in typing.get_args(hint):
                (hint,) = set(typing.get_args(hint)) - {type(None)}
            if dataclasses.is_dataclass(hint):
                cases.append((prefix + f.name, [], "JSON object"))
            else:
                kind = "list" if typing.get_origin(hint) is tuple else kinds[hint]
                cases.append((prefix + f.name, {}, kind))
    return cases


class TestScenarioConfig:
    def test_roundtrip_through_dict(self):
        config = tiny_config(
            rx_partition=(2, 1),
            rx_spacing=0.35,
            strategies=("cap", "hyp_lin"),
            coupling_std_ohm=0.015,
            noise=mp.NoiseConfig(
                voltage_noise_var=1e-14,
                current_noise_var=1e-17,
                correlation=0.25 - 0.1j,
            ),
        )
        data = json.loads(json.dumps(mp.config_to_dict(config)))
        assert mp.config_from_dict(data) == config

    def test_defaults_applied(self):
        data = {
            "name": "d",
            "n_tx": 3,
            "tx_spacing": 0.5,
            "rx_partition": [1],
            "strategies": ["cap"],
            "power_grid_dbw": [-60.0],
            "n_realizations": 2,
        }
        config = mp.config_from_dict(data)
        assert config.seed == 0
        assert config.noise == mp.NoiseConfig.default()

    def test_unknown_and_missing_fields(self):
        data = mp.config_to_dict(tiny_config())
        data["typo_field"] = 1
        with pytest.raises(mp.ConfigError):
            mp.config_from_dict(data)
        del data["typo_field"]
        del data["name"]
        with pytest.raises(mp.ConfigError):
            mp.config_from_dict(data)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_tx=0),
            dict(tx_spacing=0.0),
            dict(rx_partition=()),
            dict(rx_partition=(1, 0)),
            dict(rx_partition=(2,)),  # multi-antenna user without rx_spacing
            dict(strategies=()),
            dict(strategies=("cap", "cap")),
            dict(strategies=("bogus",)),
            dict(strategies=("cap_lin",)),  # linear strategies are multi-user only
            dict(power_grid_dbw=()),
            dict(power_grid_dbw=(-50.0, -60.0)),
            dict(power_grid_dbw=(-50.0, -50.0)),
            dict(n_realizations=0),
            dict(seed=-1),
            dict(coupling_std_ohm=0.0),
            dict(name=""),
            dict(name="../escaped"),  # would write outside the output directory
            dict(name="a\0b"),
            dict(seed=2**64),  # beyond the Philox key
            dict(power_grid_dbw=(-50.0, 3083.0)),  # overflows a float in watts
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(mp.ConfigError):
            tiny_config(**overrides)

    @pytest.mark.parametrize(
        "field", ["name", "n_tx", "tx_spacing", "rx_partition", "strategies",
                  "power_grid_dbw", "n_realizations"],
    )
    def test_missing_required_field_is_named(self, field):
        data = mp.config_to_dict(tiny_config())
        del data[field]
        with pytest.raises(mp.ConfigError, match=rf"missing scenario fields: \['{field}'\]"):
            mp.config_from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("coupling_std_ohm", float("inf")),
            ("coupling_std_ohm", float("nan")),
            ("tx_spacing", float("inf")),
            ("rx_spacing", float("inf")),
            ("rx_spacing", float("-inf")),
            ("tx_spacing", 10**400),  # a JSON integer beyond the float range
        ],
    )
    def test_rejects_non_finite_numbers(self, field, value):
        data = mp.config_to_dict(tiny_config())
        data[field] = value
        with pytest.raises(mp.ConfigError):
            mp.config_from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_tx", 3.9),
            ("n_tx", 4.0),
            ("n_tx", True),
            ("n_tx", "4"),
            ("n_realizations", 2.5),
            ("n_realizations", True),
            ("rx_partition", [1.7]),
            ("rx_partition", [True]),
            ("seed", 1.5),
            ("seed", False),
        ],
    )
    def test_integer_fields_must_be_json_integers(self, field, value):
        data = mp.config_to_dict(tiny_config())
        data[field] = value
        with pytest.raises(mp.ConfigError, match=f"{field} must be an integer"):
            mp.config_from_dict(data)

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("tx_spacing", True, "number"),
            ("power_grid_dbw", [True], "number"),
            ("power_grid_dbw", ["-60"], "number"),
            ("coupling_std_ohm", "0.01", "number"),
            ("rx_spacing", "0.4", "number"),
            ("name", 5, "string"),
            ("coupling_file", 7, "string"),
            ("strategies", ["cap", 1], "string"),
            ("noise.voltage_noise_var", "1e-18", "number"),
            ("noise.current_noise_var", True, "number"),
            ("noise.bandwidth_hz", "740e3", "number"),
        ]
        + wrong_json_type_cases(),
    )
    def test_number_and_string_fields_must_have_json_types(self, field, value, kind):
        # Paths are relative to the scenario block; "run." marks a run-config field.
        run = {"scenario": mp.config_to_dict(tiny_config())}
        block, _, key = field.rpartition(".")
        blocks = {"run": run, "": run["scenario"], "noise": run["scenario"]["noise"]}
        blocks[block][key] = value
        with pytest.raises(mp.ConfigError, match=f"{key} must be an? {kind}"):
            montecarlo.from_json(cli.RunConfig, run, "run-config")

    @pytest.mark.parametrize(
        "noise",
        [
            [1, 2],
            "default",
            {"voltage_noise_var": 1e-14},
            {**NOISE_VARS, "bandwith_hz": 1e6},
            {**NOISE_VARS, "correlation": [0.1]},
            {**NOISE_VARS, "correlation": [0.1, 0.2, 0.3]},
            {**NOISE_VARS, "correlation": "0.1"},
            {**NOISE_VARS, "correlation": [0.1, "x"]},
            {**NOISE_VARS, "correlation": True},
            {**NOISE_VARS, "correlation": [True, False]},
            {**NOISE_VARS, "correlation": ["0.1", 0.0]},
            {"correlation": 0.5},
        ],
    )
    def test_rejects_invalid_noise_block(self, noise):
        data = mp.config_to_dict(tiny_config())
        data["noise"] = noise
        with pytest.raises(mp.ConfigError) as info:
            mp.config_from_dict(data)
        if isinstance(noise, dict) and not NOISE_VARS.keys() <= noise.keys():
            missing = sorted(NOISE_VARS.keys() - noise.keys())
            assert str(info.value) == f"missing noise fields: {missing}"

    @pytest.mark.parametrize("correlation, expected", [(0.25, 0.25), ([0.25, -0.1], 0.25 - 0.1j)])
    def test_noise_correlation_forms(self, correlation, expected):
        data = mp.config_to_dict(tiny_config())
        data["noise"]["correlation"] = correlation
        assert mp.config_from_dict(data).noise.correlation == expected

    def test_rejects_reciprocal_dpc_for_multi_user(self):
        with pytest.raises(mp.ConfigError):
            tiny_config(rx_partition=(1, 1), strategies=("cap", "recip"))

    def test_multi_user_strategies_accepted(self):
        config = tiny_config(
            rx_partition=(1, 1),
            strategies=("cap", "hyp", "cap_lin", "recip_lin", "hyp_lin"),
        )
        assert not config.is_single_user
        assert config.n_rx_total == 2


class TestCouplingFiles:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        reals = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        path = str(tmp_path / "coupling.csv")
        mp.write_coupling_file(path, reals)
        assert np.array_equal(mp.read_coupling_file(path), reals)

    def test_bad_files(self, tmp_path):
        bad_header = tmp_path / "bad.csv"
        bad_header.write_text("a,b,c\n")
        with pytest.raises(mp.ConfigError):
            mp.read_coupling_file(str(bad_header))

    @staticmethod
    def write_csv(path, rows) -> str:
        lines = ["realization,i,j,re_ohm,im_ohm"] + [",".join(map(str, r)) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    GRID = [(0, 0, 0, 1.0, 0.5), (0, 0, 1, 2.0, -0.5)]

    def test_csv_negative_index(self, tmp_path):
        path = self.write_csv(tmp_path / "c.csv", self.GRID + [(-1, 0, 0, 3.0, 0.0)])
        with pytest.raises(mp.ConfigError, match="negative"):
            mp.read_coupling_file(path)

    def test_csv_incomplete_grid(self, tmp_path):
        path = self.write_csv(tmp_path / "c.csv", self.GRID + [(1, 0, 1, 3.0, 0.0)])
        with pytest.raises(mp.ConfigError, match="complete"):
            mp.read_coupling_file(path)

    def test_csv_duplicate_entry(self, tmp_path):
        path = self.write_csv(tmp_path / "c.csv", self.GRID + [(0, 0, 1, 3.0, 0.0)])
        with pytest.raises(mp.ConfigError, match="duplicate"):
            mp.read_coupling_file(path)

    @pytest.mark.parametrize(
        "rows, fault",
        [
            # One row of the first realization is longer than the other.
            (
                GRID + [(0, 0, 2, 3.0, 0.0), (0, 1, 0, 1.0, 0.0), (0, 1, 1, 1.0, 0.0)],
                "CSV holds 5 entries, not the complete 1 x 2 x 3 grid",
            ),
            # The second realization is longer than the first.
            (
                GRID + [(1, 0, 0, 1.0, 0.0), (1, 0, 1, 1.0, 0.0), (1, 0, 2, 1.0, 0.0)],
                "CSV holds 5 entries, not the complete 2 x 1 x 3 grid",
            ),
            # A realization in the middle is missing.
            (
                GRID + [(2, 0, 0, 1.0, 0.0), (2, 0, 1, 1.0, 0.0)],
                "CSV holds 4 entries, not the complete 3 x 1 x 2 grid",
            ),
        ],
        ids=["long row", "long realization", "missing realization"],
    )
    def test_csv_ragged_realizations(self, tmp_path, rows, fault):
        path = self.write_csv(tmp_path / "c.csv", rows)
        with pytest.raises(mp.ConfigError) as info:
            mp.read_coupling_file(path)
        assert str(info.value) == f"coupling CSV: {fault}"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400", "-1e400"])
    def test_csv_non_finite_value(self, tmp_path, bad):
        # A literal beyond the float range reads as infinite.
        path = self.write_csv(tmp_path / "c.csv", [self.GRID[0], (0, 0, 1, 2.0, bad)])
        with pytest.raises(mp.ConfigError, match="NaN or infinite"):
            mp.read_coupling_file(path)

    # A value is an ASCII float literal: no boolean, empty field, quoted
    # string, hex literal, digit separator or non-ASCII digit.
    @pytest.mark.parametrize("bad", ["true", "", '"0.1"', "None", "0x1", "1_0", "١"])
    def test_csv_value_must_be_a_number(self, tmp_path, bad):
        path = self.write_csv(tmp_path / "c.csv", [self.GRID[0], (0, 0, 1, 2.0, bad)])
        with pytest.raises(mp.ConfigError) as info:
            mp.read_coupling_file(path)
        assert str(info.value) == (
            f"coupling CSV: invalid CSV row at line 3: {bad!r} is not a number"
        )

    def test_csv_index_beyond_int64(self, tmp_path):
        path = self.write_csv(tmp_path / "c.csv", [self.GRID[0], (0, 0, 2**63, 2.0, 0.0)])
        with pytest.raises(mp.ConfigError) as info:
            mp.read_coupling_file(path)
        assert str(info.value) == (
            f"coupling CSV: invalid CSV row at line 3: '{2**63}' is not an integer index"
        )

    @pytest.mark.parametrize("bad", ["1.5", "1.0", "x"])
    def test_csv_non_integer_index(self, tmp_path, bad):
        path = self.write_csv(tmp_path / "c.csv", [self.GRID[0], (0, 0, bad, 2.0, -0.5)])
        with pytest.raises(mp.ConfigError, match="invalid"):
            mp.read_coupling_file(path)

    def test_csv_short_row(self, tmp_path):
        path = self.write_csv(tmp_path / "c.csv", [self.GRID[0], (0, 0, 1, 2.0)])
        with pytest.raises(mp.ConfigError, match="invalid"):
            mp.read_coupling_file(path)

    def test_csv_header_only(self, tmp_path):
        path = self.write_csv(tmp_path / "c.csv", [])
        with pytest.raises(mp.ConfigError, match="no realizations"):
            mp.read_coupling_file(path)

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "realization,i,j,re_ohm,im_ohm\n\n0,0,0,1.0,0.5\n\n0,0,1,2.0,-0.5\n\n"
        )
        assert np.array_equal(
            mp.read_coupling_file(str(path)), np.array([[[1.0 + 0.5j, 2.0 - 0.5j]]])
        )


class TestBoundedWorkers:
    @pytest.mark.parametrize(
        "requested, n_realizations, cpus, expected",
        [
            (1, 100, 8, 1),
            (4, 100, 8, 4),
            (64, 100, 8, 8),
            (64, 3, 8, 3),
            (4, 100, None, 1),
            (4, 100, 0, 1),
        ],
    )
    def test_bound(self, requested, n_realizations, cpus, expected):
        assert montecarlo.bounded_workers(requested, n_realizations, cpus) == expected


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def single_user_channels(kind: str, m: int, n: int, seed: int):
    """(h, h_mismatched, h_assumed, h_up) plus a mismatch power matrix."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        mats = [crandn(rng, m, n) for _ in range(3)]
    elif kind == "rank_one":
        mats = [np.outer(crandn(rng, m), crandn(rng, n)) for _ in range(3)]
    else:
        mats = [np.zeros((m, n), dtype=complex) for _ in range(3)]
    h_up = mats[0].T + (0.3 * crandn(rng, n, m) if kind == "random" else 0.0)
    a = crandn(rng, n, n)
    return (*mats, h_up), a @ a.conj().T / n


KINDS = ("random", "rank_one", "zero")


def mixed_stack(first: str, m: int, n: int, seed: int):
    """One realization of each kind, ``first`` leading, stacked (R, ...).

    Returns the channel stacks (h, h_mismatched, h_assumed, h_up) and the
    mismatch power matrix of the leading realization.
    """
    start = KINDS.index(first)
    kinds = KINDS[start:] + KINDS[:start]
    draws = [single_user_channels(kind, m, n, seed + 10 * i) for i, kind in enumerate(kinds)]
    stacks = tuple(np.stack(mats) for mats in zip(*(channels for channels, _ in draws)))
    return stacks, draws[0][1], kinds


class TestSingleUserGrid:
    """The chunk evaluator, row by row, against one-budget design evaluations."""

    # Zero budget, partial and full water-filling at unit noise.
    POWERS_W = np.array([0.0, 1e-10, 1e-3, 0.05, 0.3, 2.0, 1e3])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_power_functions(self, kind, m, seed):
        n = 5
        sigma = 0.7
        channels, mismatch, kinds = mixed_stack(kind, m, n, seed)
        config = SimpleNamespace(
            strategies=("cap", "recip", "hyp"), rx_partition=(m,), is_single_user=True
        )
        down = SimpleNamespace(noise_scale=sigma, mismatch_power=mismatch)
        outcome = montecarlo._evaluate_chunk(config, down, channels, self.POWERS_W)
        rates, streams, alphas = outcome.rates, outcome.streams, outcome.alpha
        for diagnostic in (outcome.mac_iterations, outcome.mac_gap_bits, outcome.mac_converged):
            assert diagnostic.size == 0
        for r, row_kind in enumerate(kinds):
            h, h_mm, h_as, h_up = (c[r] for c in channels)
            for j, p_w in enumerate(self.POWERS_W):
                if m == 1:
                    designs = {
                        "cap": strategies.beam_design(h[0]),
                        "recip": strategies.beam_design(h_up[:, 0], h[0]),
                        "hyp": strategies.beam_design(h_as[0], h_mm[0], mismatch),
                    }
                else:
                    designs = {
                        "cap": strategies.mode_design(h),
                        "recip": strategies.mode_design(h_up.T, h),
                        "hyp": strategies.mode_design(h_as, h_mm, mismatch),
                    }
                expected = {
                    s: design.evaluate(np.array([p_w]), sigma) for s, design in designs.items()
                }
                for s, res in expected.items():
                    np.testing.assert_allclose(
                        rates[s][r, j], res.rates[0], rtol=1e-12, atol=0.0
                    )
                    assert streams[s][r, j] == res.streams[0]
                np.testing.assert_allclose(
                    alphas[r, j], expected["hyp"].alpha[0], rtol=1e-12, atol=0.0
                )
            if row_kind == "zero":
                for s in config.strategies:
                    assert np.all(rates[s][r] == 0.0) and np.all(streams[s][r] == 0.0)
                # A zero channel allocates no power and keeps alpha 1.
                assert np.all(alphas[r] == 1.0)
            else:
                assert streams["cap"][r, 0] == 0 and rates["cap"][r, 0] == 0.0
                assert np.all(np.diff(rates["cap"][r]) > 0.0)


class TestMultiUserGrid:
    """The chunk evaluator's multi-user rows against one-budget solves and designs."""

    POWERS_W = np.array([0.0, 1e-10, 1e-3, 0.05, 0.3, 2.0, 1e3])

    @pytest.mark.parametrize("partition", [(1, 1), (1, 2)])
    def test_matches_per_power_functions(self, partition):
        n = 5
        sigma = 0.7
        m = sum(partition)
        channels, mismatch, kinds = mixed_stack("random", m, n, 7)
        tokens = ("cap", "hyp", "cap_lin", "recip_lin", "hyp_lin")
        config = SimpleNamespace(strategies=tokens, rx_partition=partition, is_single_user=False)
        down = SimpleNamespace(noise_scale=sigma, mismatch_power=mismatch)
        outcome = montecarlo._evaluate_chunk(config, down, channels, self.POWERS_W)
        rates, streams, alphas = outcome.rates, outcome.streams, outcome.alpha
        # One entry per (MAC strategy, realization, budget), cap before hyp.
        iterations = outcome.mac_iterations.reshape(2, len(kinds), self.POWERS_W.size)
        gaps = outcome.mac_gap_bits.reshape(iterations.shape)
        converged = outcome.mac_converged.reshape(iterations.shape)
        assert converged.all()
        for r in range(len(kinds)):
            h, h_mm, h_as, h_up = (c[r] for c in channels)
            for j, p_w in enumerate(self.POWERS_W):
                budget = np.array([p_w])
                cap = mp.mac_sum_capacity(h, partition, p_w, sigma)
                hyp = mp.mac_sum_capacity(h_as, partition, p_w, sigma)
                hyp_grid = strategies.mac_sum_capacity_grid(
                    h_as, partition, budget, sigma, rated=h_mm
                )
                expected_rates = {
                    "cap": cap.rate.rate_bits,
                    "hyp": hyp_grid.rates[0],
                }
                expected_streams = {
                    "cap": cap.rate.active_streams,
                    "hyp": hyp.rate.active_streams,
                }
                assert iterations[:, r, j].tolist() == [cap.iterations, hyp.iterations]
                assert gaps[:, r, j].tolist() == [cap.gap_bits, hyp.gap_bits]
                assert converged[:, r, j].tolist() == [cap.converged, hyp.converged]
                for s, assumed, true, power_model in (
                    ("cap_lin", h, h, None),
                    ("recip_lin", h_up.T, h, None),
                    ("hyp_lin", h_as, h_mm, mismatch),
                ):
                    design = strategies.greedy_zf_design(assumed, partition, true, power_model)
                    res = design.evaluate(budget, sigma)
                    expected_rates[s] = res.rates[0]
                    expected_streams[s] = res.streams[0]
                expected_alpha = res.alpha[0]
                for s in tokens:
                    np.testing.assert_allclose(
                        rates[s][r, j], expected_rates[s], rtol=1e-12, atol=0.0
                    )
                    assert streams[s][r, j] == expected_streams[s]
                np.testing.assert_allclose(
                    alphas[r, j], expected_alpha, rtol=1e-12, atol=0.0
                )
        # The rank-one realization serves one stream; the zero one none.
        assert streams["cap_lin"][1].max() == 1
        assert np.all(streams["cap_lin"][2] == 0) and np.all(rates["cap"][2] == 0.0)

    @pytest.mark.parametrize("partition", [(1, 1), (1, 1, 1), (1, 2), (2, 1)])
    def test_shared_zf_stack_matches_each_strategy_alone(self, partition):
        # Random, rank-one and zero realizations: greedy orders of
        # several lengths share each strategy's slice of the stack.
        sigma = 0.7
        channels, mismatch, _ = mixed_stack("random", sum(partition), 5, 7)
        h, h_mm, h_as, h_up = channels
        tokens = ("cap_lin", "recip_lin", "hyp_lin")
        config = SimpleNamespace(strategies=tokens, rx_partition=partition, is_single_user=False)
        down = SimpleNamespace(noise_scale=sigma, mismatch_power=mismatch)
        outcome = montecarlo._evaluate_chunk(config, down, channels, self.POWERS_W)
        alone = {
            s: strategies.greedy_zf_design(design, partition, rated, power_model).evaluate(
                self.POWERS_W, sigma
            )
            for s, design, rated, power_model in (
                ("cap_lin", h, h, None),
                ("recip_lin", h_up.swapaxes(1, 2), h, None),
                ("hyp_lin", h_as, h_mm, mismatch),
            )
        }
        # Alone, the recip design h_up^T is a transposed view; the design
        # copies it to the contiguous layout the stack holds.
        for s in tokens:
            assert np.array_equal(outcome.rates[s], alone[s].rates)
            assert np.array_equal(outcome.streams[s], alone[s].streams)
        assert np.array_equal(outcome.alpha, alone["hyp_lin"].alpha)
        assert outcome.mac_iterations.size == 0

    @pytest.mark.parametrize("partition", [(1, 2), (2, 1)])
    def test_shared_mac_stack_matches_each_strategy_alone(self, partition):
        # cap and hyp share one sum-capacity stack, designed and rated by
        # one call each; which of them is requested must change no bit.
        sigma = 0.7
        channels, mismatch, _ = mixed_stack("random", sum(partition), 5, 7)
        down = SimpleNamespace(noise_scale=sigma, mismatch_power=mismatch)

        def chunk(tokens):
            config = SimpleNamespace(
                strategies=tokens, rx_partition=partition, is_single_user=False
            )
            return montecarlo._evaluate_chunk(config, down, channels, self.POWERS_W)

        full = chunk(("cap", "hyp", "cap_lin", "recip_lin", "hyp_lin"))
        for i, s in enumerate(("cap", "hyp")):
            alone = chunk((s,))
            assert np.array_equal(alone.rates[s], full.rates[s])
            assert np.array_equal(alone.streams[s], full.streams[s])
            assert alone.alpha is None
            # The full chunk's diagnostics hold cap's solves, then hyp's.
            for name in ("mac_iterations", "mac_gap_bits", "mac_converged"):
                own = getattr(alone, name)
                assert np.array_equal(own, getattr(full, name).reshape(2, -1)[i])

    @pytest.mark.parametrize("partition", [(1, 2), (2, 1)])
    def test_each_realization_keeps_its_bits_alone(self, partition):
        # A rank-one realization gives a multi-antenna user fewer streams
        # than antennas, whose rate grows an ulp of its received matrix by
        # up to the SNR: its bits must not depend on the other rows.
        sigma = 0.7
        channels, mismatch, _ = mixed_stack("random", sum(partition), 5, 7)
        tokens = ("cap", "hyp", "cap_lin", "recip_lin", "hyp_lin")
        config = SimpleNamespace(strategies=tokens, rx_partition=partition, is_single_user=False)
        down = SimpleNamespace(noise_scale=sigma, mismatch_power=mismatch)
        outcome = montecarlo._evaluate_chunk(config, down, channels, self.POWERS_W)
        for r in range(len(channels[0])):
            alone = montecarlo._evaluate_chunk(
                config, down, tuple(c[r : r + 1] for c in channels), self.POWERS_W
            )
            for s in tokens:
                assert np.array_equal(outcome.rates[s][r : r + 1], alone.rates[s])
                assert np.array_equal(outcome.streams[s][r : r + 1], alone.streams[s])
            assert np.array_equal(outcome.alpha[r : r + 1], alone.alpha)


class TestChunks:
    SEED, N_RX, N_TX, STD = 5, 3, 4, 0.02

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "int64_array"])
    @pytest.mark.parametrize("attempt", [0, 1])
    def test_counter_reset_draws_match_fresh_generators(self, attempt, as_array):
        chunk = montecarlo.CHUNK_REALIZATIONS
        indices = [0, 1, chunk - 1, chunk, 2**40 + 3]
        if as_array:
            indices = np.array(indices, dtype=np.int64)
        drawn = montecarlo._draw_couplings(
            self.SEED, attempt, indices, self.N_RX, self.N_TX, self.STD
        )
        for r, z in zip(indices, drawn):
            rng = np.random.Generator(
                np.random.Philox(
                    key=np.array([self.SEED, 0], dtype=np.uint64),
                    counter=np.array([0, 0, attempt, r], dtype=np.uint64),
                )
            )
            shape = (self.N_RX, self.N_TX)
            fresh = self.STD / np.sqrt(2.0) * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
            assert np.array_equal(z, fresh)
            assert np.array_equal(
                z, mp.coupling_realization(self.SEED, r, attempt, self.N_RX, self.N_TX, self.STD)
            )

    @pytest.mark.parametrize("partition", [[1], [1, 1]])
    def test_csvs_identical_across_workers_past_a_chunk_boundary(self, tmp_path, partition):
        from multiport.cli import main

        strategies = ["cap", "hyp"] if len(partition) == 1 else ["cap", "hyp", "hyp_lin"]
        scenario = dict(
            name="chunked",
            n_tx=4,
            tx_spacing=0.4,
            rx_partition=partition,
            strategies=strategies,
            power_grid_dbw=[-70.0, -50.0],
            n_realizations=montecarlo.CHUNK_REALIZATIONS + 3,
            seed=11,
        )
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": scenario}))
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["run", str(path), "--output-dir", str(out), "--workers", workers]) == 0
            outputs.append(
                {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
            )
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]

    def test_imported_csvs_match_drawn_across_workers_past_a_chunk_boundary(self, tmp_path):
        from multiport.cli import main

        scenario = dict(
            name="imported",
            n_tx=4,
            tx_spacing=0.4,
            rx_partition=[1, 1],
            strategies=["cap", "hyp", "hyp_lin"],
            power_grid_dbw=[-70.0, -50.0],
            n_realizations=montecarlo.CHUNK_REALIZATIONS + 3,
            seed=11,
        )
        reals = montecarlo._draw_couplings(
            scenario["seed"], 0, range(scenario["n_realizations"]), 2, 4,
            mp.far_field_coupling_std(),
        )
        coupling = tmp_path / "coupling.csv"
        mp.write_coupling_file(str(coupling), reals)
        runs = {"drawn": scenario, "imported": dict(scenario, coupling_file=str(coupling))}
        outputs = []
        for label, workers in (("drawn", "1"), ("imported", "1"), ("imported", "2")):
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps({"scenario": runs[label]}))
            out = tmp_path / f"{label}{workers}"
            assert main(["run", str(path), "--output-dir", str(out), "--workers", workers]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1] == outputs[2]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def bundled_config(name: str, **overrides) -> mp.ScenarioConfig:
    """A bundled scenario with some fields replaced, e.g. fewer realizations."""
    scenario = json.loads((CONFIGS / f"{name}.json").read_text())["scenario"]
    return mp.config_from_dict({**scenario, **overrides})


# A square 9 x 9 single-user link: some realizations have kappa >= 100
# and take the SVD route of _channel_modes, the others the Gram route.
SQUARE_9X9 = dict(
    name="square_9x9",
    n_tx=9,
    tx_spacing=0.35,
    rx_partition=(9,),
    rx_spacing=0.35,
    strategies=("cap", "recip", "hyp"),
    power_grid_dbw=(-100.0, -80.0, -60.0, -40.0),
    seed=7,
)


def assert_same_realizations(got: mp.ScenarioResult, want: mp.ScenarioResult) -> None:
    """Bit-equal per-realization rates, streams and alpha over ``got``'s realizations."""
    n = got.config.n_realizations
    for s in want.config.strategies:
        assert np.array_equal(got.per_realization_rates[s], want.per_realization_rates[s][:n])
        assert np.array_equal(got.per_realization_streams[s], want.per_realization_streams[s][:n])
    if want.alpha_samples is None:
        assert got.alpha_samples is None
    else:
        assert np.array_equal(got.alpha_samples, want.alpha_samples[:n])


class TestChunkInvariance:
    """A realization's result depends only on its own coupling."""

    CASES = [
        *(f.stem for f in sorted(CONFIGS.glob("*.json"))),
        "square_9x9",
    ]

    @staticmethod
    def config(case: str, n_realizations: int, **overrides) -> mp.ScenarioConfig:
        if case == "square_9x9":
            return mp.ScenarioConfig(**SQUARE_9X9, n_realizations=n_realizations, **overrides)
        return bundled_config(case, n_realizations=n_realizations, **overrides)

    @pytest.mark.parametrize("case", CASES)
    def test_results_do_not_depend_on_the_chunk_size(self, monkeypatch, case):
        # Past a 32-realization boundary.
        config = self.config(case, 96 if case == "square_9x9" else 40)
        results = []
        for chunk in (1, 7, 32, 128):
            monkeypatch.setattr(montecarlo, "CHUNK_REALIZATIONS", chunk)
            results.append(mp.run_scenario(config))
        for result in results[1:]:
            assert_same_realizations(result, results[0])

    @pytest.mark.parametrize("chunk", [7, 32, 128])
    @pytest.mark.parametrize("case", CASES)
    def test_a_longer_run_keeps_the_earlier_realizations(self, tmp_path, monkeypatch, case, chunk):
        monkeypatch.setattr(montecarlo, "CHUNK_REALIZATIONS", chunk)
        n = 100 if case == "square_9x9" else 30
        longer = self.config(case, n + 10)
        std = longer.coupling_std_ohm or mp.far_field_coupling_std()
        path = str(tmp_path / "coupling.csv")
        mp.write_coupling_file(
            path,
            montecarlo._draw_couplings(
                longer.seed, 0, range(n + 10), longer.n_rx_total, longer.n_tx, std
            ),
        )
        for coupling_file in (None, path):
            assert_same_realizations(
                mp.run_scenario(self.config(case, n, coupling_file=coupling_file)),
                mp.run_scenario(self.config(case, n + 10, coupling_file=coupling_file)),
            )


class TestRunScenario:
    @pytest.mark.parametrize("start", ["fork", "spawn"])
    def test_deterministic_and_worker_invariant(self, monkeypatch, start):
        import concurrent.futures
        import multiprocessing

        pools, tasks = [], []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            # A fork-started worker inherits the cached front ends; a
            # spawn-started one builds them itself.
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                kwargs["mp_context"] = multiprocessing.get_context(start)
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                tasks.append(fn)
                return super().map(fn, *iterables, **kwargs)

        # Two chunks and two usable CPUs: the two-worker run starts a pool.
        monkeypatch.setattr(
            montecarlo.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        config = tiny_config(n_realizations=montecarlo.CHUNK_REALIZATIONS + 3)
        serial_a = mp.run_scenario(config)
        serial_b = mp.run_scenario(config)
        assert pools == []
        parallel = mp.run_scenario(config, n_workers=2)
        assert pools == [2]
        # A task carries the config and its couplings, not the front ends.
        (task,) = tasks
        assert (task.func, task.args, task.keywords) == (montecarlo._run_chunk, (config,), {})
        for s in config.strategies:
            assert np.array_equal(
                serial_a.per_realization_rates[s], serial_b.per_realization_rates[s]
            )
            assert np.array_equal(
                serial_a.per_realization_rates[s], parallel.per_realization_rates[s]
            )
            assert np.array_equal(
                serial_a.ergodic_rates[s], parallel.ergodic_rates[s]
            )
        assert np.array_equal(serial_a.alpha_samples, parallel.alpha_samples)

    def test_shapes_and_aggregation(self):
        config = tiny_config(
            n_realizations=5, power_grid_dbw=(-80.0, -65.0, -50.0)
        )
        result = mp.run_scenario(config)
        for s in config.strategies:
            assert result.per_realization_rates[s].shape == (5, 3)
            assert result.per_realization_streams[s].shape == (5, 3)
            assert np.allclose(
                result.ergodic_rates[s], result.per_realization_rates[s].mean(axis=0)
            )
        assert result.n_failures == 0
        assert result.n_unconverged == 0
        assert result.alpha_samples.shape == (5, 3)

    @pytest.mark.parametrize("affinity, cpu_count", [({0}, 8), (None, 1)])
    def test_workers_are_capped_by_the_usable_cpus(self, monkeypatch, affinity, cpu_count):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        # One CPU to run on, however many the machine has: serial.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpu_count)
        if affinity is None:
            monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(
                montecarlo.os, "sched_getaffinity", lambda pid: affinity, raising=False
            )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(montecarlo, "CHUNK_REALIZATIONS", 1)
        config = tiny_config(n_realizations=4)
        result = mp.run_scenario(config, n_workers=4)
        assert result.per_realization_rates["cap"].shape == (4, 2)

    @pytest.mark.parametrize("n_workers", [0, -3, 2.5, True, "2", None])
    def test_rejects_a_worker_count_that_is_not_a_positive_integer(self, monkeypatch, n_workers):
        def no_run(config):
            raise AssertionError("the worker count is checked first")

        monkeypatch.setattr(montecarlo, "_front_ends", no_run)
        with pytest.raises(ValueError, match="n_workers"):
            mp.run_scenario(tiny_config(), n_workers=n_workers)

    def test_a_numpy_integer_worker_count_runs(self):
        result = mp.run_scenario(tiny_config(n_realizations=2), n_workers=np.int64(1))
        assert result.per_realization_rates["cap"].shape == (2, 2)

    def test_largest_seed_runs(self):
        result = mp.run_scenario(tiny_config(seed=2**64 - 1, n_realizations=2))
        assert all(np.all(np.isfinite(r)) for r in result.ergodic_rates.values())

    def test_unconverged_solves_are_counted(self, monkeypatch):
        solver = montecarlo.mac_sum_capacity_grid
        grids = []

        def recorded(*args, **kwargs):
            grids.append(solver(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(montecarlo, "mac_sum_capacity_grid", recorded)
        monkeypatch.setattr(strategies, "MAC_MAX_ITERATIONS", 1)
        # Three users iterate; two single-antenna users are solved in closed form.
        config = tiny_config(
            rx_partition=(1, 1, 1), strategies=("cap", "hyp", "cap_lin"), n_realizations=2
        )
        result = mp.run_scenario(config)
        # One grid solve per chunk: 2 MAC strategies x 2 realizations x 2 budgets.
        assert len(grids) == 1
        assert grids[0].converged.shape == (2, 2, 2)
        expected = sum(int(np.count_nonzero(~grid.converged)) for grid in grids)
        assert expected > 0
        assert result.n_unconverged == expected

    def test_mac_iterations_are_aggregated(self, monkeypatch):
        solver = montecarlo.mac_sum_capacity_grid
        grids = []

        def recorded(*args, **kwargs):
            grids.append(solver(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(montecarlo, "mac_sum_capacity_grid", recorded)
        monkeypatch.setattr(montecarlo, "CHUNK_REALIZATIONS", 2)
        config = tiny_config(
            rx_partition=(1, 1, 1), strategies=("cap", "hyp", "cap_lin"), n_realizations=3
        )
        result = mp.run_scenario(config)
        assert len(grids) == 2
        counts = np.concatenate([grid.iterations.reshape(-1) for grid in grids])
        assert counts.size == 2 * 3 * 2
        assert result.mac_iterations_mean == counts.mean()
        assert result.mac_iterations_max == counts.max() > 0
        gaps = np.concatenate([grid.gap_bits.reshape(-1) for grid in grids])
        assert result.mac_gap_bits_max == gaps.max()
        single = mp.run_scenario(tiny_config(n_realizations=2))
        assert (single.mac_iterations_mean, single.mac_iterations_max) == (0.0, 0)
        assert single.mac_gap_bits_max == 0.0

    def test_bundled_two_user_run_is_solved_in_closed_form(self, monkeypatch):
        # Two single-antenna users: no iteration, and a gap at roundoff.
        solver = montecarlo.mac_sum_capacity_grid
        grids = []

        def recorded(*args, **kwargs):
            grids.append(solver(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(montecarlo, "mac_sum_capacity_grid", recorded)
        result = mp.run_scenario(bundled_config("mu_miso_n33_k2", n_realizations=20))
        assert result.n_unconverged == 0
        assert (result.mac_iterations_mean, result.mac_iterations_max) == (0.0, 0)
        (grid,) = grids
        assert (grid.gap_bits <= 1e-12 * np.maximum(grid.rates, 1.0)).all()

    def test_rates_increase_with_power(self):
        config = tiny_config(
            n_realizations=3, power_grid_dbw=(-90.0, -75.0, -60.0, -45.0)
        )
        result = mp.run_scenario(config)
        for s in ("cap", "recip"):
            diffs = np.diff(result.per_realization_rates[s], axis=1)
            assert np.all(diffs > 0.0)

    def test_capacity_dominates_other_strategies(self):
        config = tiny_config(n_realizations=6)
        result = mp.run_scenario(config)
        cap = result.per_realization_rates["cap"]
        for s in ("recip", "hyp"):
            assert np.all(result.per_realization_rates[s] <= cap + 1e-9)

    def test_seed_concentration(self):
        rates = []
        for seed in (100, 200):
            config = tiny_config(
                name="conc",
                n_tx=9,
                tx_spacing=0.35,
                strategies=("cap",),
                power_grid_dbw=(-60.0,),
                n_realizations=400,
                seed=seed,
            )
            rates.append(mp.run_scenario(config).ergodic_rates["cap"][0])
        assert rates[0] == pytest.approx(rates[1], rel=0.05)

    def test_no_alpha_without_naive_strategy(self):
        result = mp.run_scenario(tiny_config(strategies=("cap", "recip")))
        assert result.alpha_samples is None

    def test_multi_user_run(self):
        config = tiny_config(
            rx_partition=(1, 1),
            strategies=("cap", "hyp", "cap_lin", "recip_lin", "hyp_lin"),
            n_realizations=3,
        )
        result = mp.run_scenario(config)
        cap = result.per_realization_rates["cap"]
        assert np.all(np.isfinite(cap))
        for s in config.strategies:
            assert np.all(np.isfinite(result.per_realization_rates[s]))
            assert np.all(result.per_realization_rates[s] <= cap + 1e-6)
        assert result.alpha_samples is not None

    @pytest.mark.parametrize(
        "subset", [("hyp_lin", "cap_lin"), ("recip_lin",), ("cap", "hyp_lin")]
    )
    def test_linear_strategies_do_not_depend_on_their_company(self, subset):
        # The requested _lin strategies of a chunk share one stack; which
        # ones are requested, and in what order, must change no bit.
        full = ("cap", "hyp", "cap_lin", "recip_lin", "hyp_lin")
        results = [
            mp.run_scenario(tiny_config(rx_partition=(1, 1), strategies=s, n_realizations=3))
            for s in (full, subset)
        ]
        for s in subset:
            for field in ("per_realization_rates", "per_realization_streams"):
                assert np.array_equal(getattr(results[1], field)[s], getattr(results[0], field)[s])
        if "hyp_lin" in subset:
            assert np.array_equal(results[1].alpha_samples, results[0].alpha_samples)
        else:
            assert results[1].alpha_samples is None

    def test_zero_noise_aborts(self):
        dead = mp.NoiseConfig(
            voltage_noise_var=0.0, current_noise_var=0.0, antenna_temperature_k=0.0
        )
        config = tiny_config(noise=dead, n_realizations=2)
        with pytest.raises(mp.SimulationAbort):
            mp.run_scenario(config)

    @pytest.mark.parametrize("coupling_file", [None, "coupling.csv"])
    def test_zero_noise_aborts_before_drawing_coupling(self, monkeypatch, coupling_file):
        def no_draw(*args, **kwargs):
            raise AssertionError("coupling drawn before the front end was checked")

        montecarlo._built_front_ends.cache_clear()
        monkeypatch.setattr(montecarlo, "coupling_realization", no_draw)
        monkeypatch.setattr(montecarlo, "_draw_couplings", no_draw)
        monkeypatch.setattr(montecarlo, "read_coupling_file", no_draw)
        dead = mp.NoiseConfig(
            voltage_noise_var=0.0, current_noise_var=0.0, antenna_temperature_k=0.0
        )
        for partition in ((1,), (1, 1)):
            config = tiny_config(
                noise=dead,
                rx_partition=partition,
                strategies=("cap",),
                n_realizations=2,
                coupling_file=coupling_file,
            )
            # The cache stores no exception: every call aborts.
            for _ in range(2):
                with pytest.raises(mp.SimulationAbort, match="front end"):
                    mp.run_scenario(config)

    def test_imported_coupling_matches_sampled(self, tmp_path):
        config = tiny_config(n_realizations=4)
        std = mp.far_field_coupling_std()
        reals = np.stack(
            [
                mp.coupling_realization(config.seed, r, 0, 1, config.n_tx, std)
                for r in range(config.n_realizations)
            ]
        )
        path = str(tmp_path / "imported.csv")
        mp.write_coupling_file(path, reals)
        sampled = mp.run_scenario(config)
        imported = mp.run_scenario(tiny_config(n_realizations=4, coupling_file=path))
        for s in config.strategies:
            assert np.allclose(
                sampled.per_realization_rates[s],
                imported.per_realization_rates[s],
                rtol=1e-12,
            )

    def test_imported_coupling_shape_mismatch(self, tmp_path):
        path = str(tmp_path / "wrong.csv")
        mp.write_coupling_file(path, np.zeros((2, 2, 3), dtype=complex))
        with pytest.raises(mp.ConfigError):
            mp.run_scenario(tiny_config(coupling_file=path, n_realizations=2))

    def test_imported_coupling_too_few_realizations(self, tmp_path):
        config = tiny_config(n_realizations=5)
        path = str(tmp_path / "short.csv")
        mp.write_coupling_file(
            path, np.ones((2, 1, config.n_tx), dtype=complex) * (0.01 + 0.01j)
        )
        with pytest.raises(mp.ConfigError):
            mp.run_scenario(tiny_config(coupling_file=path, n_realizations=5))


# A value other than the default for each NoiseConfig field.
NOISE_CHANGES = {
    "voltage_noise_var": 2e-15,
    "current_noise_var": 2e-17,
    "correlation": 0.3j,
    "antenna_temperature_k": 300.0,
    "bandwidth_hz": 1e6,
}


class TestFrontEndCache:
    """Front ends are built once per process for each geometry and noise."""

    @pytest.fixture
    def builds(self):
        """The number of front-end builds (cache misses) from an empty cache on."""
        montecarlo._built_front_ends.cache_clear()
        return lambda: montecarlo._built_front_ends.cache_info().misses

    @pytest.mark.parametrize(
        "change",
        [{"seed": 9}, {"n_realizations": 3}, {"power_grid_dbw": (-60.0,)}],
        ids=["seed", "n_realizations", "power_grid_dbw"],
    )
    def test_a_run_sharing_arrays_and_noise_builds_none(self, builds, change):
        config = tiny_config(n_realizations=2)
        mp.run_scenario(config)
        assert builds() == 1
        mp.run_scenario(dataclasses.replace(config, **change))
        assert builds() == 1

    def test_a_list_partition_runs_and_shares_the_tuple_entry(self, builds):
        config = tiny_config(rx_partition=[1, 1], strategies=("cap",), n_realizations=2)
        result = mp.run_scenario(config)
        assert result.per_realization_rates["cap"].shape == (2, 2)
        mp.run_scenario(dataclasses.replace(config, rx_partition=(1, 1)))
        assert builds() == 1

    def test_every_noise_field_is_changed_below(self):
        assert NOISE_CHANGES.keys() == {f.name for f in dataclasses.fields(mp.NoiseConfig)}

    @pytest.mark.parametrize(
        "change",
        [
            {"n_tx": 5},
            {"tx_spacing": 0.45},
            {"rx_partition": (1, 2)},
            {"rx_spacing": 0.3},
            *(
                {"noise": dataclasses.replace(mp.NoiseConfig.default(), **{name: value})}
                for name, value in NOISE_CHANGES.items()
            ),
        ],
        ids=["n_tx", "tx_spacing", "rx_partition", "rx_spacing", *NOISE_CHANGES],
    )
    def test_each_key_field_forces_a_rebuild(self, builds, change):
        base = tiny_config(rx_partition=(2,), rx_spacing=0.35, strategies=("cap",))
        montecarlo._front_ends(base)
        montecarlo._front_ends(dataclasses.replace(base, **change))
        assert builds() == 2
        # One entry: the base geometry is built again.
        montecarlo._front_ends(base)
        assert builds() == 3

    def test_cached_arrays_are_read_only(self, builds):
        fronts = montecarlo._front_ends(tiny_config(rx_partition=(2,), rx_spacing=0.35))
        arrays = [v for front in fronts for v in vars(front).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 2 * 11
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_cached_front_ends_equal_a_direct_build(self, builds, name):
        config = bundled_config(name)
        assert montecarlo._front_ends(config) is montecarlo._front_ends(config)
        assert builds() == 1
        system = make_system(config.n_tx, config.rx_partition, config.tx_spacing, config.rx_spacing)
        directions = (system, mp.reversed_link(system))
        # build_bundle's front end is the one the acceptance tests read.
        for cached, *direct in zip(
            montecarlo._front_ends(config),
            (mp.front_end(s, config.noise) for s in directions),
            (mp.build_bundle(s, config.noise) for s in directions),
        ):
            for built in direct:
                for field in dataclasses.fields(mp.FrontEnd):
                    got, want = (np.asarray(getattr(f, field.name)) for f in (cached, built))
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes()
