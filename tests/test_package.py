"""Top-level exports and the README library example."""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import multiport as mp
from multiport import strategies

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCE = Path(mp.__file__).resolve().parent

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


def test_readme_scenario_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start") : text.index("## Command line")]
    code = re.findall(r"```python\n(.*?)```", section, re.S)[1]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert namespace["density"].shape == (mp.montecarlo.KDE_GRID_POINTS,)


def test_every_design_shares_one_contract():
    for build in (strategies.beam_design, strategies.mode_design, strategies.greedy_zf_design):
        params = inspect.signature(build).parameters
        for name in ("rated", "mismatch_power"):
            assert params[name].default is None, (build.__name__, name)
    # Sum capacity takes the rated channel too; it designs against the true power model.
    assert inspect.signature(strategies.mac_sum_capacity_grid).parameters["rated"].default is None
    for design in (strategies.BeamDesign, strategies.ModeDesign, strategies.ZfDesign):
        params = list(inspect.signature(design.evaluate).parameters)
        assert params == ["self", "powers_w", "noise_std"], design.__name__


def test_every_public_definition_is_exported_or_used():
    # A public helper that no module names any more has outlived its
    # last caller: export it or delete it.
    sources = [path.read_text() for path in SOURCE.glob("*.py")]
    unused = []
    for info in pkgutil.iter_modules(mp.__path__):
        module = importlib.import_module(f"multiport.{info.name}")
        for name, obj in vars(module).items():
            if (
                name.startswith("_")
                or not (inspect.isfunction(obj) or inspect.isclass(obj))
                or obj.__module__ != module.__name__
                or name in mp.__all__
            ):
                continue
            word = re.compile(rf"\b{name}\b")
            if sum(len(word.findall(text)) for text in sources) < 2:
                unused.append(f"{info.name}.{name}")
    assert unused == []


def test_numpy_is_the_only_runtime_dependency():
    # scipy and mpmath serve the tests as oracles; the package loads neither.
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[(.*)\]$", text, re.M).group(1) == '"numpy>=1.24"'
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, multiport; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    ).stdout.split()
    assert "numpy" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("scipy", "mpmath")] == []
