"""Smoke tests for the scripts under ``demos/``.

Each demo runs in a fresh interpreter against the source tree and must exit
cleanly; the bracket tour's Dirac generator table is also checked line by
line, since its values are exact.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(path)],
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


def test_expected_lines_name_existing_demos():
    assert set(EXPECTED_LINES) <= {path.name for path in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_cleanly(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for expected in EXPECTED_LINES.get(path.name, ()):
        assert expected in lines
