"""Output checks that re-derive what they test without the code under test.

Each check reads the bytes an op printed and returns None when they are
right, or a one-line reason when they are not.  The regime flag of a sweep
row is compared with the closed-form threshold B_max = J (alpha^2 + 1) /
|alpha|, evaluated here; the evolution checks test bounds and a
conservation law on the printed columns.
"""

import csv
import io
import json
import math
from collections.abc import Sequence

from workloads import Op, threshold

PROBABILITY_SLACK = 1e-9
NORM_RTOL = 1e-8
# Sweep rows this close to B_max (relative) are not checked: the program
# classifies inside a tolerance band around the exceptional point.
THRESHOLD_MARGIN = 1e-6


def _csv_records(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_dynamics(op: Op, outputs: Sequence[str]) -> str | None:
    spectrum = _csv_records(outputs[0])
    if len(spectrum) != 1:
        return f"spectrum printed {len(spectrum)} rows, expected 1"
    rows = _csv_records(outputs[1])
    steps = op.expect["steps"]
    if len(rows) != steps:
        return f"evolve printed {len(rows)} rows, expected {steps}"
    norms = [float(row["rho_norm"]) for row in rows]
    if not all(math.isfinite(n) and n > 0.0 for n in norms):
        return "evolve printed a non-finite or non-positive norm"
    if op.expect["branch"] == "outside":
        if not all(row["probability"] == "nan" for row in rows):
            return "dissipative evolve printed a probability"
        return None
    for row in rows:
        p = float(row["probability"])
        if not -PROBABILITY_SLACK <= p <= 1.0 + PROBABILITY_SLACK:
            return f"probability {p!r} outside [0, 1] at t={row['t']}"
    drift = max(abs(n - norms[0]) for n in norms)
    if drift > NORM_RTOL * norms[0]:
        return f"rho_norm drifted by {drift:.3e} from {norms[0]!r}"
    return None


def _check_sweep(op: Op, outputs: Sequence[str]) -> str | None:
    if op.expect["format"] == "json":
        rows = json.loads(outputs[0])
        flags = [row["pseudo_hermitian"] for row in rows]
    else:
        rows = _csv_records(outputs[0])
        flags = [row["pseudo_hermitian"] == "1" for row in rows]
    if len(rows) != op.expect["points"]:
        return f"sweep printed {len(rows)} rows, expected {op.expect['points']}"
    for row, flag in zip(rows, flags):
        b, a1, a2, j = (float(row[key]) for key in ("B", "alpha1", "alpha2", "J"))
        if a2 != -a1:
            return f"row has alpha2={a2!r}, expected {-a1!r}"
        b_max = threshold(j, a1) if a1 else math.inf
        if abs(b - b_max) <= THRESHOLD_MARGIN * b_max:
            continue
        if flag != (b <= b_max):
            return f"flag {flag} at B={b!r} alpha={a1!r} J={j!r}, B_max={b_max!r}"
    return None


def _check_verify(op: Op, outputs: Sequence[str]) -> str | None:
    lines = outputs[0].splitlines()
    expected = f"PASS {op.expect['group']} "
    if len(lines) != 1 or not lines[0].startswith(expected):
        return f"verify printed {lines!r}"
    return None


_CHECKS = {
    "dynamics": _check_dynamics,
    "sweep": _check_sweep,
    "verify": _check_verify,
}


def check(workload: str, op: Op, outputs: Sequence[str]) -> str | None:
    """Check an op's printed outputs, one string per CLI call."""
    try:
        return _CHECKS[workload](op, outputs)
    except (KeyError, ValueError) as exc:
        return f"unreadable output: {exc!r}"
