"""Top-level exports and the README library example."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import multiport as mp
from multiport import strategies

README = Path(__file__).resolve().parents[1] / "README.md"

# Read as attributes of the package by the benchmark harness, the
# acceptance tests and their fixtures.
BOUND_NAMES = (
    "config_from_dict",
    "far_field_coupling_std",
    "coupling_realization",
    "write_coupling_file",
    "array_impedance_matrix",
    "dipole_self_impedance",
    "uniform_circular_array",
    "waterfill",
    "mac_sum_capacity",
    "su_mimo_capacity",
    "build_bundle",
    "principal_sqrt_psd",
    "is_scalar_matrix",
)


def test_every_exported_name_resolves():
    assert len(set(mp.__all__)) == len(mp.__all__)
    missing = [name for name in mp.__all__ if not hasattr(mp, name)]
    assert missing == []


def test_names_read_from_the_package_stay_bound():
    assert [name for name in BOUND_NAMES if name not in mp.__all__] == []


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("radiated/intended power:")


def test_every_design_shares_one_contract():
    for build in (strategies.beam_design, strategies.mode_design, strategies.greedy_zf_design):
        params = inspect.signature(build).parameters
        for name in ("rated", "mismatch_power"):
            assert params[name].default is None, (build.__name__, name)
    for design in (strategies.BeamDesign, strategies.ModeDesign, strategies.ZfDesign):
        params = list(inspect.signature(design.evaluate).parameters)
        assert params == ["self", "powers_w", "noise_std"], design.__name__
