"""Smoke tests for the scripts under ``demos/`` and the README's Quick start.

Each demo runs once, in a fresh interpreter against the source tree, with
warnings as errors, and must exit cleanly with nothing on stderr; the bracket
tour's Dirac generator table is also checked line by line, since its values
are exact.  Each stdout is pinned by SHA-256 in a test of its own, so that a
``kernel_pin`` digest can be deselected without losing its demo's other
checks.  The README's first python block runs the same way, so the
documented API cannot drift from the package.
"""

import functools
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


# Exact lines a demo must print, by file name.
EXPECTED_LINES = {
    "01_bracket_algebra.py": (
        "{xi1, xi1}_D   = (-1j)*1",
        "{xi1, pi1}_D   = ((0.5+0j))*1",
        "{pi1, pi1}_D   = (0.25j)*1",
    ),
}

# SHA-256 of each demo's stdout, recorded with numpy 2.4.6 and its bundled
# OpenBLAS on x86_64, like the CLI pins in test_cli.py.
STDOUT_GOLDEN = {
    "01_bracket_algebra.py":
        "9d3914ad7101f36434a8769762040ee9b8de0840e2b4e6f5f6741e8c3a87c68f",
    "02_quantization_map.py":
        "9f93191677fc5bfd1488679a82bf518eed44e1f483e28b22f839f0c92c8a8286",
    "03_two_spin_regimes.py":
        "9dbc785062aba2a3e3f79d59dd23892f5c13417fb2172a9b6582a96c0584d26d",
    "04_metric_dynamics.py":
        "9b18910a54250fc344bba56eda693375731da409d1aa7de4af89240d5cd65646",
}


def test_expected_lines_name_existing_demos():
    assert set(EXPECTED_LINES) <= {path.name for path in DEMOS}
    assert set(STDOUT_GOLDEN) == {path.name for path in DEMOS}


@functools.cache
def run_demo(path):
    return run_python(str(path))


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_cleanly(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    for expected in EXPECTED_LINES.get(path.name, ()):
        assert expected in lines


# Demo 02's F.F - B.B line prints the rounding of a BLAS complex product.
KERNEL_PINS = {"02_quantization_map.py": pytest.mark.kernel_pin("OpenBLAS SkylakeX")}


@pytest.mark.parametrize("path", [
    pytest.param(path, marks=KERNEL_PINS.get(path.name, ()), id=path.name) for path in DEMOS
])
def test_demo_stdout_golden_bytes(path):
    digest = hashlib.sha256(run_demo(path).stdout.encode("utf-8")).hexdigest()
    assert digest == STDOUT_GOLDEN[path.name]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    result = run_python("-c", block)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert "(-1j)*1" in lines
    assert "True" in lines
