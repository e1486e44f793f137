"""End-to-end command line behavior, exit codes, and output files."""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import multiport as mp
from multiport import cli, montecarlo
from multiport.cli import OUTPUT_DIR_ENV, main
from multiport.strategies import MAC_GAP_TOL

trapezoid = getattr(np, "trapezoid", None) or np.trapz


NOISE_VARS = {"voltage_noise_var": 1e-14, "current_noise_var": 1e-17}


def scenario_dict(**overrides) -> dict:
    base = {
        "name": "clirun",
        "n_tx": 4,
        "tx_spacing": 0.4,
        "rx_partition": [1],
        "strategies": ["cap", "recip", "hyp"],
        "power_grid_dbw": [-70.0, -50.0],
        "n_realizations": 3,
        "seed": 5,
    }
    base.update(overrides)
    return base


def write_run_config(path, scenario=None, **run_fields) -> str:
    data = {"scenario": scenario if scenario is not None else scenario_dict()}
    data.update(run_fields)
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)]


class TestRun:
    def test_default_outputs(self, tmp_path):
        config = write_run_config(tmp_path / "run.json")
        out = tmp_path / "out"
        assert main(["run", config, "--output-dir", str(out)]) == 0
        for suffix in ("rates", "streams", "alpha", "kde"):
            assert (out / f"clirun_{suffix}.csv").exists()
        assert (out / "clirun_effective_config.json").exists()
        rows = read_csv(out / "clirun_rates.csv")
        assert rows[0] == ["P_dBW", "C_erg", "R_erg_recip", "R_erg_hyp"]
        assert len(rows) == 3
        values = np.array([[float(v) for v in row] for row in rows[1:]])
        assert values[0, 0] == -70.0 and values[1, 0] == -50.0
        assert np.all(values[:, 1:] > 0.0)
        # Capacity column dominates the others at every power.
        assert np.all(values[:, 1] >= values[:, 2:].max(axis=1))

        alpha_rows = read_csv(out / "clirun_alpha.csv")
        assert alpha_rows[0] == ["P_dBW", "realization", "alpha"]
        assert len(alpha_rows) == 1 + 2 * 3
        kde_rows = read_csv(out / "clirun_kde.csv")
        assert kde_rows[0] == ["P_dBW", "alpha", "density"]
        assert len(kde_rows) == 1 + 2 * 128
        stream_rows = read_csv(out / "clirun_streams.csv")
        assert stream_rows[0] == ["P_dBW", "strategy", "mean_active_streams"]
        assert len(stream_rows) == 1 + 2 * 3

    def test_multi_user_rate_columns(self, tmp_path):
        scenario = scenario_dict(
            name="mu",
            rx_partition=[1, 1],
            strategies=["cap", "hyp", "cap_lin", "recip_lin", "hyp_lin"],
            n_realizations=2,
        )
        config = write_run_config(tmp_path / "run.json", scenario=scenario)
        out = tmp_path / "out"
        assert main(["run", config, "--output-dir", str(out)]) == 0
        rows = read_csv(out / "mu_rates.csv")
        assert rows[0] == [
            "P_dBW",
            "C_erg",
            "R_erg_hyp",
            "R_erg_lin",
            "R_erg_recip_lin",
            "R_erg_hyp_lin",
        ]

    def test_bundled_multi_user_run_reports_no_unconverged_solves(self, tmp_path, capsys):
        bundled = Path(__file__).resolve().parents[1] / "configs" / "mu_miso_n33_k2.json"
        data = json.loads(bundled.read_text())
        data["scenario"]["n_realizations"] = 3
        data["emit"] = ["rates_csv"]
        config = tmp_path / "run.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        out_lines = captured.out.splitlines()
        assert out_lines[-1] == "failures: 0"
        assert all(Path(line).is_file() for line in out_lines[:-1])
        err_lines = captured.err.splitlines()
        assert "unconverged: 0" in err_lines
        (stats,) = [line for line in err_lines if line.startswith("mac_iterations:")]
        _, _, mean, _, maximum = stats.split()
        assert 1.0 <= float(mean) <= int(maximum)
        (gap,) = [line for line in err_lines if line.startswith("mac_gap_bits:")]
        assert 0.0 <= float(gap.split()[-1]) < MAC_GAP_TOL

    def test_worker_invariance_bytewise(self, tmp_path):
        config = write_run_config(tmp_path / "run.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", config, "--output-dir", str(out1)]) == 0
        assert main(["run", config, "--output-dir", str(out2), "--workers", "2"]) == 0
        for suffix in ("rates", "streams", "alpha", "kde"):
            a = (out1 / f"clirun_{suffix}.csv").read_bytes()
            b = (out2 / f"clirun_{suffix}.csv").read_bytes()
            assert a == b

    def test_failed_writer_leaves_no_partial_file(self, tmp_path, monkeypatch):
        config = write_run_config(tmp_path / "run.json")
        out = tmp_path / "out"
        out.mkdir()
        target = out / "clirun_streams.csv"
        target.write_text("previous run\n")

        def failing_writer(path, result):
            with open(path, "w") as fh:
                fh.write("P_dBW,strategy,")
            raise OSError("disk full")

        monkeypatch.setitem(
            cli._EMIT_WRITERS, "streams_csv", ("streams.csv", failing_writer)
        )
        with pytest.raises(OSError, match="disk full"):
            main(["run", config, "--output-dir", str(out)])
        assert target.read_text() == "previous run\n"
        assert (out / "clirun_rates.csv").is_file()
        assert not list(out.glob("*.tmp"))
        assert not (out / "clirun_alpha.csv").exists()
        assert not (out / "clirun_effective_config.json").exists()

    def test_effective_config_reproduces_run(self, tmp_path):
        config = write_run_config(tmp_path / "run.json", emit=["rates_csv"])
        out1 = tmp_path / "a"
        assert main(["run", config, "--output-dir", str(out1)]) == 0
        effective = out1 / "clirun_effective_config.json"
        replay = json.loads(effective.read_text())
        assert replay["emit"] == ["rates_csv"]
        out2 = tmp_path / "b"
        assert main(["run", str(effective), "--output-dir", str(out2)]) == 0
        assert (out1 / "clirun_rates.csv").read_bytes() == (
            out2 / "clirun_rates.csv"
        ).read_bytes()
        replay2 = json.loads((out2 / "clirun_effective_config.json").read_text())
        assert replay2["scenario"] == replay["scenario"]

    def test_output_dir_precedence(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        cfg_dir = tmp_path / "cfg"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))

        config = write_run_config(tmp_path / "env_only.json", emit=["rates_csv"])
        assert main(["run", config]) == 0
        assert (env_dir / "clirun_rates.csv").exists()

        config = write_run_config(
            tmp_path / "with_dir.json", emit=["rates_csv"], output_dir=str(cfg_dir)
        )
        assert main(["run", config]) == 0
        assert (cfg_dir / "clirun_rates.csv").exists()

        assert main(["run", config, "--output-dir", str(flag_dir)]) == 0
        assert (flag_dir / "clirun_rates.csv").exists()

    def test_defaults_to_cwd_without_any_setting(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        config = write_run_config(tmp_path / "run.json", emit=["rates_csv"])
        assert main(["run", str(config)]) == 0
        assert (tmp_path / "clirun_rates.csv").exists()

    def test_config_errors_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["run", missing]) == 2
        assert "config error" in capsys.readouterr().err

        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        assert main(["run", str(bad_json)]) == 2

        no_scenario = tmp_path / "nosc.json"
        no_scenario.write_text(json.dumps({"emit": ["rates_csv"]}))
        assert main(["run", str(no_scenario)]) == 2

        bad_strategy = write_run_config(
            tmp_path / "bads.json", scenario=scenario_dict(strategies=["bogus"])
        )
        assert main(["run", bad_strategy]) == 2

        unknown_field = write_run_config(tmp_path / "unk.json", extra_field=1)
        assert main(["run", unknown_field]) == 2

        alpha_without_naive = write_run_config(
            tmp_path / "al.json",
            scenario=scenario_dict(strategies=["cap", "recip"]),
            emit=["alpha_csv"],
        )
        assert main(["run", alpha_without_naive]) == 2

        bad_emit = write_run_config(tmp_path / "be.json", emit=["bogus_csv"])
        assert main(["run", bad_emit]) == 2

        bad_workers = write_run_config(tmp_path / "bw.json", n_workers=0)
        assert main(["run", bad_workers]) == 2

        coupling = tmp_path / "coupling.json"
        rows = [[[[True, 0.0]] * 4]] * 3  # a boolean coupling value
        coupling.write_text(json.dumps({"n_rx": 1, "n_tx": 4, "realizations": rows}))
        bool_coupling = write_run_config(
            tmp_path / "bc.json", scenario=scenario_dict(coupling_file=str(coupling))
        )
        assert main(["run", bool_coupling, "--output-dir", str(tmp_path / "out")]) == 2
        assert "JSON numbers" in capsys.readouterr().err

        for suffix in ("csv", "json"):
            absent = str(tmp_path / f"nope.{suffix}")
            no_coupling = write_run_config(
                tmp_path / "nc.json", scenario=scenario_dict(coupling_file=absent)
            )
            assert main(["run", no_coupling, "--output-dir", str(tmp_path / "out")]) == 2
            assert f"config error: cannot read coupling file {absent}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"n_workers": "two"},
            {"n_workers": 1.5},
            {"scenario": scenario_dict(tx_spacing=True)},
            {"scenario": scenario_dict(noise=[1, 2])},
            {"scenario": scenario_dict(noise={**NOISE_VARS, "bandwith_hz": 1e6})},
            {"scenario": scenario_dict(noise={**NOISE_VARS, "correlation": [0.1]})},
            {"output_dir": 5},
            {"scenario": scenario_dict(name="sub/x")},
            {"scenario": scenario_dict(name="../escaped")},
            {"scenario": scenario_dict(name="a\u0000b")},
            {"scenario": scenario_dict(seed=2**64)},
            {"scenario": scenario_dict(power_grid_dbw=[-70.0, 3083.0])},
        ],
    )
    def test_malformed_run_config_exits_2(self, tmp_path, capsys, fields):
        config = write_run_config(tmp_path / "bad.json", **fields)
        assert main(["run", config, "--output-dir", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field",
        [
            "coupling_std_ohm",
            "tx_spacing",
            "rx_spacing",
            "noise.voltage_noise_var",
            "noise.bandwidth_hz",
            "noise.antenna_temperature_k",
            "noise.correlation",
        ],
    )
    def test_non_finite_scenario_number_exits_2(self, tmp_path, capsys, field):
        # json.dumps writes Infinity and NaN, which Python's JSON reader accepts.
        block, _, key = field.rpartition(".")
        value = {
            "noise.bandwidth_hz": float("nan"),
            "noise.correlation": [float("nan"), 0.0],
        }.get(field, float("inf"))
        scenario = scenario_dict(noise=dict(NOISE_VARS)) if block else scenario_dict()
        (scenario[block] if block else scenario)[key] = value
        config = write_run_config(tmp_path / "inf.json", scenario=scenario)
        assert main(["run", config, "--output-dir", str(tmp_path / "out")]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "partition, strategy",
        [((1,), s) for s in montecarlo.SINGLE_USER_STRATEGIES]
        + [((2,), s) for s in montecarlo.SINGLE_USER_STRATEGIES]
        + [((1, 1), s) for s in montecarlo.MULTI_USER_STRATEGIES],
    )
    def test_alpha_follows_the_montecarlo_rule(self, tmp_path, partition, strategy):
        single_user = len(partition) == 1
        expected = montecarlo.reports_alpha(strategy, single_user)
        rng = np.random.default_rng(3)
        shape = (4, 2, sum(partition), 4)  # four channel stacks of two realizations
        h, h_mm, h_as, g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        root = rng.standard_normal((4, 4))
        down = SimpleNamespace(noise_scale=0.5, mismatch_power=root @ root.T / 4)
        config = SimpleNamespace(
            strategies=(strategy,), rx_partition=partition, is_single_user=single_user
        )
        channels = (h, h_mm, h_as, g.swapaxes(1, 2))
        outcome = montecarlo._evaluate_chunk(config, down, channels, np.array([0.0, 1.0]))
        assert (outcome.alpha is not None) == expected

        scenario = scenario_dict(
            rx_partition=list(partition), rx_spacing=0.4, strategies=[strategy]
        )
        config_path = write_run_config(tmp_path / "run.json", scenario)
        out = tmp_path / "out"
        assert main(["run", config_path, "--output-dir", str(out)]) == 0
        for suffix in ("alpha", "kde"):
            assert (out / f"clirun_{suffix}.csv").exists() == expected

    @pytest.mark.parametrize("failure", ["missing_coupling_file", "front_end_fails"])
    def test_failed_run_leaves_no_output_dir(self, tmp_path, failure):
        if failure == "missing_coupling_file":
            scenario, code = scenario_dict(coupling_file=str(tmp_path / "nope.csv")), 2
        else:
            dead = dict.fromkeys(
                ("voltage_noise_var", "current_noise_var", "antenna_temperature_k"), 0.0
            )
            scenario, code = scenario_dict(noise=dead), 3
        config = write_run_config(tmp_path / "run.json", scenario=scenario)
        out = tmp_path / "out"
        assert main(["run", config, "--output-dir", str(out)]) == code
        assert not out.exists()

    def test_emit_choices_follow_writers(self):
        assert cli.EMIT_CHOICES == ("rates_csv", "alpha_csv", "streams_csv", "kde_csv")

    def test_simulation_abort_exits_3(self, tmp_path, capsys):
        scenario = scenario_dict(
            noise={
                "voltage_noise_var": 0.0,
                "current_noise_var": 0.0,
                "antenna_temperature_k": 0.0,
            },
            n_realizations=2,
        )
        config = write_run_config(tmp_path / "dead.json", scenario=scenario)
        assert main(["run", config, "--output-dir", str(tmp_path / "o")]) == 3
        assert "aborted" in capsys.readouterr().err


def reference_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestCsvWriters:
    """Each one-pass writer against a csv.writer reference built here."""

    @pytest.fixture
    def result(self):
        scenario = mp.config_from_dict(scenario_dict(power_grid_dbw=[-70.0, -55.5, -50.0]))
        result = mp.run_scenario(scenario)
        a = result.alpha_samples[:, 0]
        # A constant column has no density: its power point writes nan KDE rows.
        alpha = np.column_stack([a, np.full_like(a, 1.5), 2.0 * a])
        return dataclasses.replace(result, alpha_samples=alpha)

    @pytest.fixture
    def repeating(self):
        """Alpha columns a, a, c, c, b, a, a' that repeat next to each other and apart.

        c is constant, so it has no density. a' equals a in value but
        holds -0.0 where a holds 0.0, so it prints differently.
        """
        powers = [-70.0, -60.0, -55.5, -50.0, -45.0, -40.0, -35.0]
        result = mp.run_scenario(mp.config_from_dict(scenario_dict(power_grid_dbw=powers)))
        a = result.alpha_samples[:, 0].copy()
        a[0] = 0.0
        b = 2.0 * a
        c = np.full_like(a, 1.5)
        a_neg = a.copy()
        a_neg[0] = -0.0
        alpha = np.column_stack([a, a, c, c, b, a, a_neg])
        return dataclasses.replace(result, alpha_samples=alpha)

    def reference_rows(self, result, target):
        powers = [repr(float(p)) for p in result.config.power_grid_dbw]
        strategies = result.config.strategies
        if target == "rates_csv":
            header = ["P_dBW"] + [cli.RATE_COLUMNS[s] for s in strategies]
            rows = [
                [p] + [repr(float(result.ergodic_rates[s][j])) for s in strategies]
                for j, p in enumerate(powers)
            ]
        elif target == "alpha_csv":
            header = ["P_dBW", "realization", "alpha"]
            rows = [
                [p, r, repr(float(result.alpha_samples[r, j]))]
                for j, p in enumerate(powers)
                for r in range(result.alpha_samples.shape[0])
            ]
        elif target == "streams_csv":
            header = ["P_dBW", "strategy", "mean_active_streams"]
            rows = [
                [p, s, repr(float(result.mean_active_streams[s][j]))]
                for j, p in enumerate(powers)
                for s in strategies
            ]
        else:
            header = ["P_dBW", "alpha", "density"]
            rows = []
            for p, column in zip(powers, result.alpha_samples.T):
                try:
                    grid, density = mp.gaussian_kde(column)
                except ValueError:
                    grid = density = np.full(montecarlo.KDE_GRID_POINTS, np.nan)
                rows += [[p, repr(float(g)), repr(float(d))] for g, d in zip(grid, density)]
        return header, rows

    @pytest.mark.parametrize("target", cli.EMIT_CHOICES)
    def test_bytes_match_csv_writer(self, tmp_path, result, target):
        _, writer = cli._EMIT_WRITERS[target]
        writer(str(tmp_path / "fast.csv"), result)
        reference_csv(tmp_path / "reference.csv", *self.reference_rows(result, target))
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "reference.csv").read_bytes()
        assert fast.endswith(b"\r\n")
        if target == "kde_csv":
            assert b"-55.5,nan,nan\r\n" in fast

    @pytest.mark.parametrize("target", cli.EMIT_CHOICES)
    def test_repeated_columns_match_csv_writer(self, tmp_path, repeating, target):
        self.test_bytes_match_csv_writer(tmp_path, repeating, target)
        fast = (tmp_path / "fast.csv").read_bytes()
        if target == "alpha_csv":
            assert b"-40.0,0,0.0\r\n" in fast and b"-35.0,0,-0.0\r\n" in fast
        if target == "kde_csv":
            assert b"-55.5,nan,nan\r\n" in fast and b"-50.0,nan,nan\r\n" in fast

    @pytest.mark.parametrize(
        "target, counted_name", [("alpha_csv", "_alpha_rows"), ("kde_csv", "gaussian_kde")]
    )
    def test_repeated_columns_are_estimated_and_formatted_once(
        self, tmp_path, monkeypatch, repeating, target, counted_name
    ):
        calls = []
        original = getattr(cli, counted_name)

        def counted(column):
            calls.append(column)
            return original(column)

        monkeypatch.setattr(cli, counted_name, counted)
        _, writer = cli._EMIT_WRITERS[target]
        writer(str(tmp_path / "fast.csv"), repeating)
        # a, c, b, a, a': the second a and the second c repeat.
        assert len(calls) == 5


def numeric_rows(path) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in read_csv(path)[1:]])


class TestKdeCsv:
    """kde.csv of whole runs: the writer estimates each density from alpha.csv's columns."""

    @staticmethod
    def run(tmp_path, **overrides):
        """(P, R) alpha columns and (P, KDE_GRID_POINTS, 2) KDE curves of one run."""
        scenario = scenario_dict(**overrides)
        config = write_run_config(
            tmp_path / "run.json", scenario=scenario, emit=["alpha_csv", "kde_csv"]
        )
        out = tmp_path / "out"
        assert main(["run", config, "--output-dir", str(out)]) == 0
        n_p = len(scenario["power_grid_dbw"])
        alpha = numeric_rows(out / "clirun_alpha.csv")[:, 2].reshape(n_p, -1)
        kde = numeric_rows(out / "clirun_kde.csv")[:, 1:]
        return alpha, kde.reshape(n_p, montecarlo.KDE_GRID_POINTS, 2)

    def test_densities_integrate_to_one(self, tmp_path):
        _, curves = self.run(tmp_path, n_realizations=5, power_grid_dbw=[-80.0, -65.0, -50.0])
        assert np.all(np.isfinite(curves))
        for grid, density in curves.transpose(0, 2, 1):
            assert 0.9 <= float(trapezoid(density, grid)) <= 1.1

    def test_single_realization_writes_nan_rows(self, tmp_path):
        _, curves = self.run(tmp_path, n_realizations=1, power_grid_dbw=[-70.0, -60.0, -50.0])
        assert np.all(np.isnan(curves))

    @pytest.mark.parametrize(
        "overrides, estimates",
        [
            # A single-receiver beam: alpha does not depend on the budget.
            (dict(strategies=["cap", "hyp"]), 1),
            # Water-filled modes and a two-user hyp_lin: it does.
            (dict(rx_partition=[2], rx_spacing=0.4, strategies=["cap", "hyp"]), 4),
            (dict(rx_partition=[1, 1], strategies=["cap", "hyp_lin"]), 4),
        ],
        ids=["miso_hyp", "mimo_hyp", "mu_hyp_lin"],
    )
    def test_one_estimate_per_distinct_adjacent_column(
        self, tmp_path, monkeypatch, overrides, estimates
    ):
        columns = []

        def counted(samples):
            columns.append(samples)
            return mp.gaussian_kde(samples)

        monkeypatch.setattr(cli, "gaussian_kde", counted)
        alpha, curves = self.run(
            tmp_path, n_realizations=6, power_grid_dbw=[-90.0, -70.0, -50.0, -30.0], **overrides
        )
        assert len(columns) == estimates
        for column, curve in zip(alpha, curves):
            grid, density = mp.gaussian_kde(column)
            assert np.array_equal(curve[:, 0], grid)
            assert np.array_equal(curve[:, 1], density)


def test_runs_without_kde_csv_estimate_no_density(tmp_path, monkeypatch):
    def refuse(samples):
        raise AssertionError("a density was estimated")

    monkeypatch.setattr(montecarlo, "gaussian_kde", refuse)
    monkeypatch.setattr(cli, "gaussian_kde", refuse)
    result = mp.run_scenario(mp.config_from_dict(scenario_dict()))
    assert result.alpha_samples.shape == (3, 2)
    config = write_run_config(tmp_path / "run.json", emit=["rates_csv", "alpha_csv"])
    out = tmp_path / "out"
    assert main(["run", config, "--output-dir", str(out)]) == 0
    assert sorted(f.name for f in out.glob("*.csv")) == ["clirun_alpha.csv", "clirun_rates.csv"]


class TestDumpImpedance:
    def test_single_element_stdout(self, capsys):
        assert main(["dump-impedance", "--n", "1"]) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()]
        assert rows[0] == ["i", "j", "re_ohm", "im_ohm"]
        assert len(rows) == 2
        z = mp.dipole_self_impedance()
        assert float(rows[1][2]) == pytest.approx(z.real, rel=1e-15)
        assert float(rows[1][3]) == pytest.approx(z.imag, rel=1e-15)

    def test_file_output_matches_direct_construction(self, tmp_path):
        out = str(tmp_path / "z.csv")
        assert main(["dump-impedance", "--n", "5", "--d", "0.35", "--out", out]) == 0
        matrix = mp.read_impedance_csv(out)
        expected = mp.array_impedance_matrix(mp.uniform_circular_array(5, 0.35))
        assert np.array_equal(matrix, expected)

    def test_invalid_arguments(self):
        assert main(["dump-impedance", "--n", "0"]) == 2
        assert main(["dump-impedance", "--n", "3", "--d", "0.0"]) == 2
        assert main(["dump-impedance", "--n", "3", "--d", "-1.0"]) == 2
        assert main(["dump-impedance", "--n", "3", "--d", "inf"]) == 2
        assert main(["dump-impedance", "--n", "3", "--d", "nan"]) == 2


class TestImpedanceCsvBytes:
    """The impedance CSV writers against csv.writer references built here."""

    @staticmethod
    def reference(path, matrix) -> bytes:
        m = np.asarray(matrix)
        columns = ["realization", "i", "j"][3 - m.ndim :]
        rows = [
            [*index, repr(float(m[index].real)), repr(float(m[index].imag))]
            for index in np.ndindex(m.shape)
        ]
        reference_csv(path, columns + ["re_ohm", "im_ohm"], rows)
        return path.read_bytes()

    def test_write_impedance_csv(self, tmp_path):
        z = mp.array_impedance_matrix(mp.uniform_circular_array(6, 0.3))
        mp.write_impedance_csv(str(tmp_path / "z.csv"), z)
        assert (tmp_path / "z.csv").read_bytes() == self.reference(tmp_path / "ref.csv", z)

    @pytest.mark.parametrize("n", [1, 9])
    def test_dump_impedance_file_and_stdout(self, tmp_path, capsys, n):
        z = mp.array_impedance_matrix(mp.uniform_circular_array(n, 0.35))
        expected = self.reference(tmp_path / "ref.csv", z)
        out = tmp_path / "z.csv"
        assert main(["dump-impedance", "--n", str(n), "--d", "0.35", "--out", str(out)]) == 0
        assert out.read_bytes() == expected
        capsys.readouterr()
        assert main(["dump-impedance", "--n", str(n), "--d", "0.35"]) == 0
        assert capsys.readouterr().out.encode() == expected

    def test_write_coupling_file(self, tmp_path):
        rng = np.random.default_rng(8)
        reals = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        reals[0, 0, 0] = complex(-0.0, 1e-300)
        mp.write_coupling_file(str(tmp_path / "c.csv"), reals)
        expected = self.reference(tmp_path / "ref.csv", reals)
        assert (tmp_path / "c.csv").read_bytes() == expected

    def test_kde_output(self, tmp_path):
        samples = np.random.default_rng(2).standard_normal(40)
        src = tmp_path / "samples.csv"
        src.write_text("".join(f"{v!r}\n" for v in samples.tolist()))
        assert main(["kde", str(src), str(tmp_path / "kde.csv")]) == 0
        grid, density = mp.gaussian_kde(samples)
        rows = [[repr(float(g)), repr(float(d))] for g, d in zip(grid, density)]
        reference_csv(tmp_path / "ref.csv", ["value", "density"], rows)
        assert (tmp_path / "kde.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestKde:
    def test_end_to_end(self, tmp_path):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal(250)
        src = tmp_path / "samples.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha"])  # header row is skipped
            for v in samples:
                writer.writerow([repr(float(v))])
        dst = tmp_path / "kde.csv"
        assert main(["kde", str(src), str(dst)]) == 0
        rows = read_csv(dst)
        assert rows[0] == ["value", "density"]
        assert len(rows) == 1 + 128
        grid, density = mp.gaussian_kde(samples)
        got = np.array([[float(a), float(b)] for a, b in rows[1:]])
        assert np.allclose(got[:, 0], grid, rtol=1e-15)
        assert np.allclose(got[:, 1], density, rtol=1e-15)

    def test_only_the_first_row_may_be_a_header(self, tmp_path, capsys):
        src = tmp_path / "samples.csv"
        src.write_text("alpha\n\n0.1\n0.3\n\n0.5\n")
        assert main(["kde", str(src), str(tmp_path / "kde.csv")]) == 0
        grid, _ = mp.gaussian_kde(np.array([0.1, 0.3, 0.5]))
        assert numeric_rows(tmp_path / "kde.csv")[0, 0] == grid[0]
        src.write_text("alpha\n0.1\n0.3x\n0.5\n0.7\n")
        capsys.readouterr()
        assert main(["kde", str(src), str(tmp_path / "bad.csv")]) == 2
        assert capsys.readouterr().err == f"config error: {src} line 3: '0.3x' is not a number\n"
        assert not (tmp_path / "bad.csv").exists()

    def test_degenerate_and_missing_inputs(self, tmp_path):
        constant = tmp_path / "const.csv"
        constant.write_text("1.0\n1.0\n1.0\n")
        assert main(["kde", str(constant), str(tmp_path / "o.csv")]) == 2
        assert main(["kde", str(tmp_path / "absent.csv"), str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize(
    "case", ["kde_input_is_dir", "kde_output_dir_missing", "dump_output_dir_missing",
             "run_output_dir_is_file"],
)
def test_path_errors_exit_2_naming_the_path(tmp_path, capsys, case):
    samples = tmp_path / "s.csv"
    samples.write_text("1.0\n2.0\n4.0\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    config = write_run_config(tmp_path / "run.json", emit=["rates_csv"])
    missing = tmp_path / "nodir" / "o.csv"
    argv, path = {
        "kde_input_is_dir": (["kde", str(tmp_path), str(tmp_path / "o.csv")], tmp_path),
        "kde_output_dir_missing": (["kde", str(samples), str(missing)], missing),
        "dump_output_dir_missing": (
            ["dump-impedance", "--n", "3", "--out", str(missing)], missing
        ),
        "run_output_dir_is_file": (["run", config, "--output-dir", str(taken)], taken),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err


@pytest.mark.parametrize(
    "blocked, reason", [("taken", "File exists"), ("taken/sub", "Not a directory")]
)
def test_output_dir_blocked_by_a_file_fails_before_the_run(
    tmp_path, capsys, monkeypatch, blocked, reason
):
    (tmp_path / "taken").write_text("")
    out = tmp_path / blocked
    config = write_run_config(tmp_path / "run.json")

    def never(*args, **kwargs):
        raise AssertionError("run_scenario ran")

    monkeypatch.setattr(cli, "run_scenario", never)
    assert main(["run", config, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: cannot use {out}: {reason}\n"
