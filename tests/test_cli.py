"""Tests for the command-line surface.

Each subcommand is driven in-process through ``main(argv)`` so exit codes
and output bytes are observable; one subprocess test pins the module entry
point.  Numerical expectations reuse the model-layer oracles (closed-form
spectrum, interaction builder, deformed inner product).
"""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import re
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudospin import cli
from pseudospin.cli import (
    EVOLVE_COLUMNS,
    SPECTRUM_COLUMNS,
    SWEEP_COLUMNS,
    _build_parser,
    main,
)
from pseudospin.formats import vector_to_json
from pseudospin.pseudoherm import eta_inner
from pseudospin.quantize import Realization
from pseudospin.twospin import (
    NoMetricError,
    TwoSpinParams,
    build_total,
    closed_spectrum,
    damping_threshold,
    evolve,
    paper_isomorphism,
    transition_series,
)
from pseudospin.verify import GROUPS, CheckResult, GroupResult

TOY = ["--J", "1", "--B", "1", "--alpha1", "1", "--alpha2", "-1"]


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in data]


def toy_params(amplitude=1.0, alpha=1.0, exchange=1.0):
    return TwoSpinParams.from_gilbert(amplitude, alpha, -alpha, exchange)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_toy_model_is_pseudo_hermitian(capsys):
    code, out, _ = run(capsys, "spectrum", *TOY)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == SPECTRUM_COLUMNS
    assert row["pseudo_hermitian"] == "1"
    assert float(row["ReE1p"]) == pytest.approx((-1 + math.sqrt(3)) / 4, abs=1e-15)
    assert float(row["max_discrepancy"]) < 1e-12
    assert float(row["threshold_margin"]) == pytest.approx(3.0)


def test_spectrum_decoupled_undamped_flags_hermitian(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--J", "0", "--B", "1", "--alpha1", "0", "--alpha2", "0"
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["pseudo_hermitian"] == "1"
    energies = sorted(float(row[c]) for c in ("ReE1p", "ReE1m", "ReE2p", "ReE2m"))
    assert energies == pytest.approx([-0.5, 0.0, 0.0, 0.5])


def test_spectrum_decoupled_damped_is_dissipative(capsys):
    # Equal damping makes the fields equal (difference zero) but complex,
    # so the spectrum is complex and no positive metric can exist.
    code, out, _ = run(
        capsys, "spectrum", "--J", "0", "--B", "1", "--alpha1", "1", "--alpha2", "1"
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["pseudo_hermitian"] == "0"
    assert abs(float(row["ImE2p"])) > 0.2


def test_spectrum_paper_units_scale_eigenvalue_columns(capsys):
    _, plain, _ = run(capsys, "spectrum", *TOY)
    _, scaled, _ = run(capsys, "spectrum", *TOY, "--paper-units")
    base, quad = parse_csv(plain)[0], parse_csv(scaled)[0]
    for column in SPECTRUM_COLUMNS:
        if column[:3] in {"ReE", "ImE", "ReN", "ImN"} or column == "max_discrepancy":
            assert float(quad[column]) == pytest.approx(4 * float(base[column]), abs=1e-12)
        else:
            assert quad[column] == base[column]


def test_spectrum_json_format(capsys):
    code, out, _ = run(capsys, "spectrum", *TOY, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert list(payload[0]) == SPECTRUM_COLUMNS
    assert payload[0]["pseudo_hermitian"] is True


def test_spectrum_disagreement_exits_two(capsys, monkeypatch):
    # One eigenvalue moved by 1e-6 ||H||_F is far outside the agreement bound.
    matched_eigenvalues = cli.matched_eigenvalues

    def moved(hamiltonian, closed):
        matched = matched_eigenvalues(hamiltonian, closed)
        matched[2] += 1e-6 * np.linalg.norm(hamiltonian)
        return matched

    monkeypatch.setattr(cli, "matched_eigenvalues", moved)
    code, out, _ = run(capsys, "spectrum", *TOY)
    assert code == 2
    assert parse_csv(out)  # output is still written


def test_spectrum_agreement_is_relative_to_scale(capsys):
    code, _, _ = run(
        capsys, "spectrum", "--J", "1e7", "--B", "1e7",
        "--alpha1", "0.5", "--alpha2", "-0.5",
    )
    assert code == 0


def test_spectrum_agrees_at_the_exceptional_point(capsys):
    # The eigenvalues of the Jordan block split like sqrt(eps); the bound
    # caps the block's condition number at eps^-1/2 to allow for it.
    code, _, _ = run(
        capsys, "spectrum", "--J", "1", "--B", "2.5",
        "--alpha1", "0.5", "--alpha2", "-0.5",
    )
    assert code == 0


@pytest.mark.parametrize("args", [
    ["--J", "1e150", "--B", "1e150"],  # max_discrepancy 9.1e133
    # At the exceptional point: max_discrepancy 8.5e-7.
    ["--J", "100", "--B", "250", "--alpha1", "0.5", "--alpha2", "-0.5"],
    # ||H||_F near 1e-300 squares to zero, so the bound takes a scaled norm.
    ["--J", "0", "--B", "1e-300"],
])
def test_spectrum_agreement_follows_the_norm_of_h(capsys, args):
    code, _, _ = run(capsys, "spectrum", *args)
    assert code == 0


def test_spectrum_rejects_nonpositive_field(capsys):
    code, _, err = run(capsys, "spectrum", "--B", "-1")
    assert code == 1
    assert "positive" in err


# ---------------------------------------------------------------------------
# regime-sweep


def test_sweep_flip_brackets_threshold(capsys):
    code, out, _ = run(
        capsys, "regime-sweep", "--J", "1", "--alpha1", "0.5", "--alpha2", "-0.5",
        "--b-start", "2.4", "--b-end", "2.6", "--b-steps", "21",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 21
    assert [r for r in rows if r["pseudo_hermitian"] == "1"][-1]["B"] == "2.5"
    assert [r for r in rows if r["pseudo_hermitian"] == "0"][0]["B"] == "2.51"
    assert damping_threshold(1.0, 0.5) == pytest.approx(2.5)


def test_sweep_single_point_grid(capsys):
    code, out, _ = run(
        capsys, "regime-sweep", "--b-start", "0.7", "--b-end", "0.7", "--b-steps", "1",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert list(rows[0]) == SWEEP_COLUMNS
    assert rows[0]["B"] == "0.7"


def test_sweep_undamped_column_always_pseudo_hermitian(capsys):
    code, out, _ = run(
        capsys, "regime-sweep", "--J", "1", "--alpha1", "0", "--alpha2", "0",
        "--b-start", "0.5", "--b-end", "5.0", "--b-steps", "10",
    )
    assert code == 0
    assert all(row["pseudo_hermitian"] == "1" for row in parse_csv(out))


def test_sweep_alpha_grid_pairs_and_order(capsys):
    code, out, _ = run(
        capsys, "regime-sweep",
        "--b-start", "1.0", "--b-end", "2.0", "--b-steps", "2",
        "--alpha-start", "0.2", "--alpha-end", "0.4", "--alpha-steps", "3",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 6
    # Grid order: B outer, alpha inner.
    assert [r["B"] for r in rows] == ["1.0"] * 3 + ["2.0"] * 3
    assert [r["alpha1"] for r in rows][:3] == ["0.2", "0.30000000000000004", "0.4"]
    assert all(float(r["alpha2"]) == -float(r["alpha1"]) for r in rows)


def test_sweep_j_grid(capsys):
    code, out, _ = run(
        capsys, "regime-sweep",
        "--b-start", "1.0", "--b-end", "1.0", "--b-steps", "1",
        "--j-start", "0.5", "--j-end", "1.5", "--j-steps", "3",
    )
    assert code == 0
    assert [r["J"] for r in parse_csv(out)] == ["0.5", "1.0", "1.5"]


def test_sweep_deterministic_bytes(tmp_path, capsys):
    args = [
        "regime-sweep", "--J", "1", "--alpha1", "0.3", "--alpha2", "-0.3",
        "--b-start", "0.5", "--b-end", "4.0", "--b-steps", "29",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def seeded_sweep(seed):
    """A ``regime-sweep`` argument list and its grids, drawn from ``seed``.

    J is positive, negative or zero by ``seed % 3``; B runs from 1e-9 to
    1e12; alpha is a fixed pair or a grid, J a grid on every fifth seed, and
    the output is CSV or JSON, in field or paper units.
    """
    rng = random.Random(seed)
    j = (1.0, -1.0, 0.0)[seed % 3] * 10 ** rng.uniform(-3, 3)
    b_start = 10 ** rng.uniform(-9, 11)
    b_grid = (b_start, b_start * 10 ** rng.uniform(0, 1), rng.randint(1, 12))
    args = ["regime-sweep", "--b-start", repr(b_grid[0]), "--b-end", repr(b_grid[1]),
            "--b-steps", str(b_grid[2]), "--J", repr(j)]
    if seed // 3 % 2:
        alpha_grid = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.randint(1, 4))
        args += ["--alpha-start", repr(alpha_grid[0]), "--alpha-end", repr(alpha_grid[1]),
                 "--alpha-steps", str(alpha_grid[2])]
        alphas = [(a, -a) for a in np.linspace(*alpha_grid).tolist()]
    else:
        alphas = [(rng.uniform(-2, 2), rng.uniform(-2, 2))]
        args += ["--alpha1", repr(alphas[0][0]), "--alpha2", repr(alphas[0][1])]
    js = [j]
    if seed % 5 == 4:
        j_grid = (j, j * rng.uniform(0.5, 2), rng.randint(2, 3))
        args += ["--j-start", repr(j_grid[0]), "--j-end", repr(j_grid[1]),
                 "--j-steps", str(j_grid[2])]
        js = np.linspace(*j_grid).tolist()
    fmt, paper_units = ("csv", "json")[seed // 6 % 2], seed // 12 % 2 == 1
    args += ["--format", fmt] + ["--paper-units"] * paper_units
    return args, np.linspace(*b_grid).tolist(), alphas, js, fmt, paper_units


def sweep_reference(b_grid, alphas, js, fmt, paper_units):
    """The sweep's bytes: one closed_spectrum per point, csv or json writes them."""
    rows = []
    for b in b_grid:
        for alpha1, alpha2 in alphas:
            for j in js:
                report = closed_spectrum(TwoSpinParams.from_gilbert(b, alpha1, alpha2, j))
                parts = [x for e in report.eigenvalues for x in (e.real, e.imag)]
                if paper_units:
                    parts = [4.0 * x for x in parts]
                rows.append([b, alpha1, alpha2, j, *parts,
                             report.pseudo_hermitian, report.threshold_margin])
    if fmt == "json":
        return json.dumps([dict(zip(SWEEP_COLUMNS, row)) for row in rows], indent=2) + "\n"
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows([int(x) if isinstance(x, bool) else x for x in row] for row in rows)
    return text.getvalue()


@pytest.mark.parametrize("seed", range(60))
def test_sweep_bytes_match_a_point_by_point_reference(capsys, seed):
    args, *grids = seeded_sweep(seed)
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert out == sweep_reference(*grids)


def test_json_sweep_peak_memory_stays_near_the_csv_sweeps(tmp_path, capsys, monkeypatch):
    # 10^4 points straddling B_max = 2.5.  Memory is traced from the moment
    # the columns are handed to the writer, so it counts what writing holds
    # beside them: a JSON table written row by row holds no more than a CSV
    # one written in blocks.
    args = ["regime-sweep", "--J", "1", "--alpha1", "0.5", "--alpha2", "-0.5",
            "--b-start", "1", "--b-end", "4", "--b-steps", "10000"]
    emit, peaks = cli._emit, {}

    def traced_emit(config, payload, header=None):
        tracemalloc.start()
        try:
            emit(config, payload, header)
            peaks[config["format"]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_emit", traced_emit)
    for fmt in ("csv", "json"):
        assert main(args + ["--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    assert capsys.readouterr().out == ""
    assert peaks["json"] <= 1.5 * peaks["csv"], peaks


def test_sweep_config_file_merges_under_flags(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "j": 1.0, "alpha1": 0.5, "alpha2": -0.5,
        "b_start": 2.4, "b_end": 2.6, "b_steps": 3,
    }))
    code, out, _ = run(capsys, "regime-sweep", "--config", str(config))
    assert code == 0
    assert [r["B"] for r in parse_csv(out)] == ["2.4", "2.5", "2.6"]
    code, out, _ = run(
        capsys, "regime-sweep", "--config", str(config), "--b-steps", "2"
    )
    assert code == 0
    assert [r["B"] for r in parse_csv(out)] == ["2.4", "2.6"]


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"b_stepz": 3}))
    code, _, err = run(capsys, "regime-sweep", "--config", str(config))
    assert code == 1
    assert "unknown config keys" in err


def test_sweep_config_values_are_typed_like_their_flags(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"j": 1, "b_steps": 2}))
    code, from_file, _ = run(capsys, "regime-sweep", "--config", str(config))
    assert code == 0
    code, from_flags, _ = run(capsys, "regime-sweep", "--J", "1", "--b-steps", "2")
    assert code == 0
    assert from_file == from_flags
    assert [r["J"] for r in parse_csv(from_file)] == ["1.0", "1.0"]


@pytest.mark.parametrize("values, key", [
    ({"b_steps": 2.5}, "b_steps"),
    ({"alpha_start": "x"}, "alpha_start"),
    ({"alpha_steps": 1.5}, "alpha_steps"),
    ({"b_end": True}, "b_end"),
    ({"j_steps": None}, "j_steps"),
])
def test_sweep_config_rejects_mistyped_values(tmp_path, capsys, values, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    code, out, err = run(capsys, "regime-sweep", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err.startswith("pseudospin: error:")
    assert key in err


# Config-file values of the wrong kind for their option, one list per
# subcommand.  quantize-file cases run with a valid element file unless
# they override "element".
MISTYPED_CONFIG = {
    "spectrum": [
        ({"paper_units": "no"}, "paper_units"),
        ({"j": math.nan}, "j"),
    ],
    "regime-sweep": [
        ({"format": "xml"}, "format"),
        ({"out": 2}, "out"),
        ({"paper_units": 1}, "paper_units"),
    ],
    "evolve": [
        ({"b": 4.0, "alpha1": 1.0, "alpha2": -1.0, "allow_dissipative": "false"},
         "allow_dissipative"),
        ({"xi": 0}, "xi"),
    ],
    "quantize-file": [
        ({"check": "no"}, "check"),
        ({"element": 0}, "element"),
    ],
    "verify": [
        ({"group": 5}, "group"),
        ({"group": "clifford"}, "group"),
        ({"group": ["clifford", 3]}, "group"),
        ({"seed": 1.5}, "seed"),
    ],
}


# Appended after the table so that the ids of the cases above stay stable.
MISTYPED_CONFIG_LATER = [
    # An empty selection would run no group and pass vacuously.
    ("verify", {"group": []}, "group"),
]


@pytest.mark.parametrize("subcommand, values, key", [
    (subcommand, values, key)
    for subcommand, cases in MISTYPED_CONFIG.items()
    for values, key in cases
] + MISTYPED_CONFIG_LATER)
def test_config_rejects_values_of_the_wrong_kind(
    tmp_path, capsys, subcommand, values, key
):
    if subcommand == "quantize-file":
        element = write_element(tmp_path / "e.json", HEISENBERG_ELEMENT)
        values = {"element": element, **values}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    code, out, err = run(capsys, subcommand, "--config", str(config))
    assert code == 1
    assert out == ""
    assert err.startswith(f"pseudospin: error: {key} ")


@pytest.mark.parametrize("args, key", [
    (["spectrum", "--J", "nan"], "j"),
    (["spectrum", "--alpha1", "inf"], "alpha1"),
    (["regime-sweep", "--J", "nan"], "j"),
    (["evolve", "--t-end", "inf"], "t_end"),
])
def test_non_finite_flags_are_rejected(capsys, args, key):
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.startswith(f"pseudospin: error: {key} must be finite")


@pytest.mark.parametrize("source", ["flag", "config file"])
def test_quantize_rejects_non_finite_hbar(tmp_path, capsys, source):
    element = write_element(tmp_path / "e.json", HEISENBERG_ELEMENT)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hbar": math.inf}))
    extra = (
        ["--hbar", "inf"] if source == "flag"
        else ["--config", str(config)]
    )
    code, out, err = run(capsys, "quantize-file", "--element", element, *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("pseudospin: error:")
    assert "hbar must be finite" in err


@pytest.mark.parametrize("args", [
    ["spectrum"],
    ["regime-sweep", "--b-steps", "1"],
    ["regime-sweep", "--b-steps", "1", "--format", "json"],
    ["evolve"],
])
def test_overflowing_parameters_are_a_typed_error(capsys, args):
    code, out, err = run(capsys, *args, "--J", "1e200")
    assert code == 1
    assert out == ""
    assert err.startswith("pseudospin: error: parameters overflow the closed form")


def test_underflowing_parameters_are_a_typed_error(capsys):
    code, out, err = run(capsys, "spectrum", "--J", "1e-300", "--B", "1e-300")
    assert code == 1
    assert out == ""
    assert err.startswith("pseudospin: error: parameters underflow the closed form")
    # A tiny field beside J = 1 splits nothing that can underflow.
    # Three eigenvalues are 0.25 there; they pair by total-S_z sector, so the
    # middle block's 0.25000000000000006 is ReN1p and a corner's 0.25 ReN2m.
    code, out, _ = run(capsys, "spectrum", "--B", "1e-300")
    assert code == 0
    row = parse_csv(out)[0]
    assert (row["ReN1p"], row["ReN2m"]) == ("0.25000000000000006", "0.25")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "3d8ec43b35782016ff599715c7088def992baa5abcfa61f6688927d481c524f3"
    )


@pytest.mark.parametrize("source", ["spectrum", "regime-sweep", "config file"])
def test_damping_whose_square_overflows_is_a_typed_error(tmp_path, capsys, source):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha1": 1e200}))
    args = {
        "spectrum": ["spectrum", "--alpha1", "1e200"],
        "regime-sweep": ["regime-sweep", "--alpha-steps", "2", "--alpha-end", "1e200"],
        "config file": ["spectrum", "--config", str(config)],
    }[source]
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.startswith("pseudospin: error: damping overflows its square")
    assert err.count("\n") == 1


def test_negative_values_in_exponent_form_parse_as_numbers(capsys):
    spaced = run(capsys, "spectrum", "--alpha1", "0.5", "--alpha2", "-5e-1")
    joined = run(capsys, "spectrum", "--alpha1", "0.5", "--alpha2=-0.5")
    assert spaced == joined and joined[0] == 0 and joined[2] == ""
    code, out, err = run(
        capsys, "regime-sweep", "--j-start", "-1e-3", "--j-end", "1e-3", "--j-steps", "2"
    )
    assert code == 0 and err == ""
    assert {row["J"] for row in parse_csv(out)} == {"-0.001", "0.001"}


def run_or_exit(capsys, *args):
    """Like ``run``, with an argparse usage error's exit code as the code."""
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-iNfInItY", "-nan", "-NaN"])
def test_negative_non_finite_spellings_parse_as_numbers(capsys, value):
    spaced = run_or_exit(capsys, "spectrum", "--J", value)
    joined = run_or_exit(capsys, "spectrum", f"--J={value}")
    assert spaced == joined
    assert spaced[:2] == (1, "")
    assert spaced[2].startswith("pseudospin: error: j must be finite")


def test_regime_flag_and_evolve_agree_off_the_branches(capsys):
    # Both parts of f_minus lie outside the branch band: spectrum flags the
    # point as not pseudo-hermitian and evolve asks for --allow-dissipative.
    args = [
        "--J", "1", "--B", "1", "--alpha1", "1.000000005", "--alpha2", "-0.999999995",
    ]
    code, out, _ = run(capsys, "spectrum", *args)
    assert code == 0
    assert parse_csv(out)[0]["pseudo_hermitian"] == "0"
    code, out, err = run(capsys, "evolve", *args, "--t-steps", "2")
    assert code == 1
    assert out == ""
    assert "--allow-dissipative" in err


@pytest.mark.parametrize("alpha", ["0.5", "-0.5"])
def test_evolve_has_a_route_at_the_exceptional_point(capsys, alpha):
    # J = 1, alpha = +-0.5 puts B_max at 2.5 exactly.
    args = ["--J", "1", "--B", "2.5", "--alpha1", alpha, "--alpha2", f"{-float(alpha)}"]
    _, out, _ = run(capsys, "spectrum", *args)
    row = parse_csv(out)[0]
    assert (row["pseudo_hermitian"], row["threshold_margin"]) == ("1", "0.0")
    code, out, _ = run(capsys, "evolve", *args, "--t-steps", "3", "--allow-dissipative")
    assert code == 0
    assert all(row["probability"] == "nan" for row in parse_csv(out))


@pytest.mark.parametrize("alpha", ["0.5", "-0.5"])
def test_evolve_at_the_exceptional_point_asks_for_the_flag(capsys, alpha):
    # The regime flag is set at B = B_max, but no metric exists there.
    args = ["--J", "1", "--B", "2.5", "--alpha1", alpha, "--alpha2", f"{-float(alpha)}"]
    code, out, err = run(capsys, "evolve", *args, "--t-steps", "3")
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("pseudospin: error: ")
    assert "exceptional point" in line
    assert "--allow-dissipative" in line


def test_evolve_near_the_exceptional_point_gates_the_metric_by_its_size(capsys):
    # B = 2.5(1 - 1e-8): cond(rho) is 2e8 and max|rho| 5e7.  The metric's
    # rounding residual grows with max|rho|, so its gate must too.
    # B = 2.5(1 - 4e-11) sits inside the exceptional-point band.
    args = ["--J", "1", "--alpha1", "0.5", "--alpha2", "-0.5", "--t-end", "100"]
    code, out, err = run(capsys, "evolve", "--B", "2.499999975", *args)
    assert (code, err) == (0, "")
    norms = [float(row["rho_norm"]) for row in parse_csv(out)]
    assert max(norms) - min(norms) <= 1e-9 * norms[0]
    code, out, err = run(capsys, "evolve", "--B", "2.4999999999", *args)
    assert (code, out) == (1, "")
    assert err == (
        "pseudospin: error: parameters sit at the exceptional point; no metric"
        " exists; pass --allow-dissipative for canonical-norm output\n"
    )


def run_quietly(*args):
    """``main(args)`` with its stdout and stderr captured, for hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


@st.composite
def near_the_exceptional_point(draw):
    """(J, B, alpha): B within a relative 3e-9 of B_max, or on the alpha = 0 axis."""
    j = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    alpha = draw(st.floats(0.05, 20.0)) * draw(st.sampled_from([1.0, -1.0, 0.0]))
    base = abs(j) if alpha == 0.0 else damping_threshold(abs(j), alpha)
    return j, base * (1.0 + draw(st.integers(-30, 30)) * 1e-10), alpha


@settings(max_examples=40)
@example((1.0, 2.5, 0.5))
@example((1.0, 2.5, -0.5))
@example((1.0, 2.5 * (1.0 - 1e-8), 0.5))  # cond(rho) = 2e8
@example((1.0, 4.0, 1.0))  # well outside the regime
@given(near_the_exceptional_point())
def test_evolve_routes_as_transition_series_does(point):
    j, b, alpha = point
    args = [
        "evolve", f"--J={j!r}", f"--B={b!r}", f"--alpha1={alpha!r}",
        f"--alpha2={-alpha!r}", "--t-steps", "3",
    ]
    plain = run_quietly(*args)
    flagged = run_quietly(*args, "--allow-dissipative")
    state = np.array([0, 1, 0, 0], dtype=complex)
    params = TwoSpinParams.from_gilbert(b, alpha, -alpha, j)
    try:
        transition_series(state, state, params, np.linspace(0.0, 10.0, 3))
    except NoMetricError as exc:
        hint = "; pass --allow-dissipative for canonical-norm output"
        assert plain == (1, "", f"pseudospin: error: {exc}{hint}\n")
        assert flagged[0::2] == (0, "")
        assert all(row["probability"] == "nan" for row in parse_csv(flagged[1]))
    except (ValueError, RuntimeError) as exc:
        assert plain == flagged == (1, "", f"pseudospin: error: {exc}\n")
    else:
        assert plain[0] == 0
        assert flagged == plain


_ALPHAS = st.floats(-20.0, 20.0)
_SPECTRUM_POINTS = st.one_of(
    near_the_exceptional_point().map(lambda point: (*point, -point[2])),
    # J = 0, and J != 0 with alpha1 != -alpha2 (f_plus complex).
    st.tuples(st.just(0.0), st.floats(0.1, 10.0), _ALPHAS, _ALPHAS),
    st.tuples(
        st.floats(0.1, 10.0) | st.floats(-10.0, -0.1), st.floats(0.1, 10.0),
        _ALPHAS, _ALPHAS,
    ),
)


@settings(max_examples=150)
@example((1.0, 2.5, 0.5, -0.5), 12.0)  # the exceptional point itself
@example((0.0, 1.0, 0.0, 0.0), -12.0)  # a normal middle block, kappa = 1
@example((0.0, 1.0, 7.197265758651751e-290, 0.0), 0.0)  # a splitting that underflows
@given(_SPECTRUM_POINTS, st.floats(-12.0, 12.0))
def test_spectrum_agrees_at_every_unit_of_energy(point, exponent):
    # The agreement bound scales with ||H||_F, so rescaling every energy by
    # c = 10^exponent leaves the exit code at 0, wherever the parameters are
    # accepted: a nonzero splitting below sqrt(float_info.min) is refused.
    j, b, alpha1, alpha2 = point
    for c in (1.0, 10.0**exponent):
        code, _, err = run_quietly(
            "spectrum", f"--J={c * j!r}", f"--B={c * b!r}",
            f"--alpha1={alpha1!r}", f"--alpha2={alpha2!r}",
        )
        try:
            TwoSpinParams.from_gilbert(c * b, alpha1, alpha2, c * j)
        except ValueError as exc:
            assert "underflow the closed form" in str(exc)
            assert (code, err) == (1, f"pseudospin: error: {exc}\n")
        else:
            assert (code, err) == (0, "")


def test_sweep_nonpositive_field_is_a_typed_error(capsys):
    code, out, err = run(
        capsys, "regime-sweep", "--b-start", "-1", "--b-end", "1", "--b-steps", "3",
    )
    assert code == 1
    assert out == ""
    assert err == "pseudospin: error: field amplitude must be positive\n"


@pytest.mark.parametrize("steps", [10**18, 10**20])
@pytest.mark.parametrize("subcommand, grid", [
    ("evolve", "t"), ("regime-sweep", "b"), ("regime-sweep", "alpha"),
    ("regime-sweep", "j"),
])
def test_step_counts_numpy_refuses_are_typed_errors(capsys, subcommand, grid, steps):
    # numpy refuses these sizes before it touches memory: 10^18 floats do not
    # fit in the address space and 10^20 is past the largest array size.
    code, out, err = run(capsys, subcommand, f"--{grid}-steps", str(steps))
    assert (code, out) == (1, "")
    assert err == (
        f"pseudospin: error: {grid}_steps={steps} is more points than numpy"
        " can allocate\n"
    )


# ---------------------------------------------------------------------------
# evolve


def test_evolve_toy_norm_constant(capsys):
    code, out, _ = run(
        capsys, "evolve", *TOY, "--t-start", "0", "--t-end", "10", "--t-steps", "101",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 101
    assert list(rows[0]) == EVOLVE_COLUMNS
    norms = [float(row["rho_norm"]) for row in rows]
    assert max(norms) - min(norms) < 1e-9
    probabilities = [float(row["probability"]) for row in rows]
    assert all(0.0 <= p <= 1.0 + 1e-12 for p in probabilities)


def test_evolve_in_band_point_keeps_its_routes_together(capsys):
    # Flagged pseudo-hermitian, with Im f_plus and Re f_minus inside the
    # band: the partner route evolves u^-1 H u, so it tracks the metric
    # route out to t = 1000.
    code, out, err = run(
        capsys, "evolve", "--J", "1", "--B", "1", "--alpha1", "0.5",
        "--alpha2", "-0.5000000001", "--t-end", "1000", "--t-steps", "101",
    )
    assert (code, err) == (0, "")
    assert len(parse_csv(out)) == 101


def test_evolve_time_zero_row(capsys):
    _, out, _ = run(capsys, "evolve", *TOY, "--t-start", "0", "--t-end", "1",
                    "--t-steps", "2")
    row = parse_csv(out)[0]
    # Self-transition of the default basis state at t=0: the amplitude is
    # its squared deformed norm and the normalized probability is one.
    rho = paper_isomorphism(toy_params()).rho
    norm_sq = eta_inner(
        np.array([0, 1, 0, 0], dtype=complex), np.array([0, 1, 0, 0], dtype=complex), rho
    ).real
    assert float(row["t"]) == 0.0
    assert float(row["re_amp"]) == pytest.approx(norm_sq, abs=1e-12)
    assert float(row["im_amp"]) == pytest.approx(0.0, abs=1e-12)
    assert float(row["probability"]) == pytest.approx(1.0, abs=1e-12)
    assert float(row["rho_norm"]) == pytest.approx(math.sqrt(norm_sq), abs=1e-12)


def test_evolve_hermitian_branch_uses_flat_metric(capsys):
    _, out, _ = run(
        capsys, "evolve", "--J", "1", "--B", "1", "--alpha1", "0", "--alpha2", "0",
        "--t-start", "0", "--t-end", "5", "--t-steps", "6",
    )
    rows = parse_csv(out)
    assert float(rows[0]["re_amp"]) == pytest.approx(1.0, abs=1e-12)
    assert all(float(r["rho_norm"]) == pytest.approx(1.0, abs=1e-10) for r in rows)


# J = B = 2^-27: every parameter scales exactly, and H with it.
SMALL = 2.0**-27


def test_evolve_rows_do_not_depend_on_the_unit_of_energy(capsys):
    # Scaling H by s and t by 1/s leaves every amplitude and norm unchanged.
    rows = {}
    for s in (1.0, SMALL):
        code, out, err = run(
            capsys, "evolve", f"--J={s!r}", f"--B={s!r}", "--alpha1", "0.5",
            "--alpha2", "-0.5", f"--t-end={10.0 / s!r}", "--t-steps", "5",
        )
        assert (code, err) == (0, "")
        rows[s] = [
            (r["re_amp"], r["im_amp"], r["probability"], r["rho_norm"])
            for r in parse_csv(out)
        ]
    assert len(rows[SMALL]) == 5
    assert rows[SMALL] == rows[1.0]


def test_spectrum_regime_does_not_depend_on_the_unit_of_energy(capsys):
    flags = []
    for s in (1.0, SMALL):
        code, out, _ = run(
            capsys, "spectrum", f"--J={s!r}", f"--B={s!r}", "--alpha1", "0.5",
            "--alpha2", "-0.4",
        )
        assert code == 0
        flags.append(parse_csv(out)[0]["pseudo_hermitian"])
    assert flags == ["0", "0"]


def test_evolve_custom_states(tmp_path, capsys):
    xi = np.array([0.3, 1.0, -0.2j, 0.0])
    zeta = np.array([0.0, 0.5, 1.0, 0.1])
    xi_path, zeta_path = tmp_path / "xi.json", tmp_path / "zeta.json"
    xi_path.write_text(json.dumps(vector_to_json(xi)))
    zeta_path.write_text(json.dumps(vector_to_json(zeta)))
    code, out, _ = run(
        capsys, "evolve", *TOY, "--xi", str(xi_path), "--zeta", str(zeta_path),
        "--t-start", "0", "--t-end", "1", "--t-steps", "2",
    )
    assert code == 0
    row = parse_csv(out)[0]
    rho = paper_isomorphism(toy_params()).rho
    expected = eta_inner(xi, zeta, rho)
    assert float(row["re_amp"]) == pytest.approx(expected.real, abs=1e-12)
    assert float(row["im_amp"]) == pytest.approx(expected.imag, abs=1e-12)


def test_evolve_dissipative_requires_flag(capsys):
    code, _, err = run(
        capsys, "evolve", "--J", "1", "--B", "4", "--alpha1", "1", "--alpha2", "-1",
    )
    assert code == 1
    assert "--allow-dissipative" in err


def test_evolve_dissipative_reports_canonical_norms(capsys):
    code, out, _ = run(
        capsys, "evolve", "--J", "1", "--B", "4", "--alpha1", "1", "--alpha2", "-1",
        "--t-start", "0", "--t-end", "10", "--t-steps", "6", "--allow-dissipative",
    )
    assert code == 0
    rows = parse_csv(out)
    assert all(row["probability"] == "nan" for row in rows)
    norms = [float(row["rho_norm"]) for row in rows]
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert norms[-1] > 100.0 * norms[0]


# Runs whose results leave the float range: the metric route's phases at
# t = 1e308, the dissipative growth by t = 1e6 (or by t = 10 from a state of
# 1e307 entries), a metric-route amplitude between two states of 1e160
# entries (about 1e320), and a metric-route deformed norm of a state of
# 1e308 entries (about 2.2e308).
BEYOND = ["--J", "1", "--B", "4", "--alpha1", "1", "--alpha2", "-1"]


def huge_state_args(tmp_path, flag, entry):
    path = tmp_path / f"{flag}.json"
    path.write_text(json.dumps([{"re": entry, "im": 0.0}] * 4))
    return [f"--{flag}", str(path)]


@pytest.mark.parametrize("args", [
    pytest.param(TOY, id="metric-route"),
    pytest.param([*BEYOND, "--allow-dissipative"], id="canonical-route"),
])
@pytest.mark.parametrize("flag", ["xi", "zeta"])
def test_evolve_names_a_state_of_the_wrong_shape(tmp_path, capsys, args, flag):
    path = tmp_path / f"{flag}.json"
    path.write_text(json.dumps(vector_to_json(np.ones(3))))
    code, out, err = run(capsys, "evolve", *args, "--t-steps", "3", f"--{flag}", str(path))
    assert (code, out) == (1, "")
    assert err == f"pseudospin: error: {flag} must have shape (4,), got (3,)\n"


@pytest.mark.parametrize("args, states", [
    pytest.param(
        ["--J", "4", "--B", "1", "--alpha1", "0.5", "--alpha2", "-0.5",
         "--t-end", "1e308", "--t-steps", "2"], (), id="metric-route-t-end",
    ),
    pytest.param(
        [*BEYOND, "--t-end", "1e6", "--t-steps", "3", "--allow-dissipative"], (),
        id="dissipative-t-end",
    ),
    pytest.param(
        [*TOY, "--t-steps", "2"], (("xi", 1e160), ("zeta", 1e160)), id="huge-xi"
    ),
    pytest.param(
        [*TOY, "--t-steps", "1", "--format", "json"], (("zeta", 1e308),),
        id="huge-zeta-json",
    ),
    pytest.param(
        [*BEYOND, "--t-steps", "2", "--allow-dissipative"], (("zeta", 1e307),),
        id="dissipative-huge-zeta",
    ),
])
def test_evolve_rejects_non_finite_results(tmp_path, capsys, args, states):
    for state in states:
        args = [*args, *huge_state_args(tmp_path, *state)]
    code, out, err = run(capsys, "evolve", *args)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("pseudospin: error: ")


def test_evolve_dissipative_rows_match_a_per_state_loop(tmp_path, capsys):
    rng = np.random.default_rng(3)
    xi, zeta = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
    paths = []
    for name, state in (("xi", xi), ("zeta", zeta)):
        paths += [f"--{name}", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(json.dumps(vector_to_json(state)))
    code, out, _ = run(
        capsys, "evolve", *BEYOND, *paths, "--t-end", "10", "--t-steps", "301",
        "--allow-dissipative",
    )
    assert code == 0
    params = TwoSpinParams.from_gilbert(4.0, 1.0, -1.0, 1.0)
    evolved = evolve(build_total(params), np.linspace(0.0, 10.0, 301), zeta)
    # The reference loop: one np.vdot and one np.linalg.norm per state.
    for row, state in zip(parse_csv(out), evolved, strict=True):
        amplitude = complex(np.vdot(xi, state))
        assert (float(row["re_amp"]), float(row["im_amp"])) == (
            amplitude.real, amplitude.imag
        )
        assert float(row["rho_norm"]) == float(np.linalg.norm(state))


def test_evolve_dissipative_norm_survives_an_overflowing_square(tmp_path, capsys):
    # Four equal entries: the squared sum overflows (1e300) or underflows
    # (1e-170, and the subnormal 1e-320), the norm twice the entry does not.
    # A RuntimeWarning would fail the test (pytest turns warnings into errors).
    args = [*BEYOND, "--t-steps", "1", "--allow-dissipative"]
    for entry in (1e300, 1e-170, 1e-320):
        zeta = huge_state_args(tmp_path, "zeta", entry)
        code, out, _ = run(capsys, "evolve", *args, *zeta)
        assert code == 0
        assert out.splitlines()[1] == f"0.0,{entry!r},0.0,nan,{2 * entry!r}"


@pytest.mark.parametrize("flag, entry", [
    ("zeta", 1e160), ("zeta", 1e300), ("xi", 1e160), ("xi", 1e300),
    ("zeta", 1e-170), ("zeta", 1e-300), ("xi", 1e-170), ("xi", 1e-300),
])
def test_evolve_metric_route_survives_an_overflowing_square(
    tmp_path, capsys, flag, entry
):
    # Four equal entries: the squared deformed norm overflows or underflows,
    # the amplitude, the probability and the deformed norm do not.
    args = [*TOY, "--t-steps", "1"]
    code, out, _ = run(capsys, "evolve", *args, *huge_state_args(tmp_path, flag, entry))
    assert code == 0
    row = {key: float(value) for key, value in parse_csv(out)[0].items()}
    code, out, _ = run(capsys, "evolve", *args, *huge_state_args(tmp_path, flag, 1.0))
    assert code == 0
    unit = {key: float(value) for key, value in parse_csv(out)[0].items()}
    assert all(math.isfinite(value) for value in row.values())
    for key in ("re_amp", "im_amp"):
        assert row[key] == pytest.approx(entry * unit[key], rel=1e-14)
    assert row["probability"] == pytest.approx(unit["probability"], rel=1e-14)
    norm_scale = entry if flag == "zeta" else 1.0
    assert row["rho_norm"] == pytest.approx(norm_scale * unit["rho_norm"], rel=1e-14)


# SHA-256 of the evolve CSV, pinned so that performance work cannot change
# output bytes silently.  Recorded with numpy 2.4.6 and its bundled
# OpenBLAS on x86_64, for the closed-form propagator, whose error on these
# grids against a 40-digit reference is bounded in
# test_twospin.py::test_evolve_matches_40_digit_reference_on_the_golden_grids.
EVOLVE_GOLDEN = {
    "dissipative": (
        ["--J", "1", "--B", "1.5", "--alpha1", "0.5", "--alpha2", "-0.5",
         "--t-start", "0", "--t-end", "20", "--t-steps", "201"],
        "7ae716026ad71edaf9c817a4fa1fb5a3de7c82bd882c55f3e23a652878c87cb3",
    ),
    "undamped": (
        ["--J", "0.8", "--B", "1.3", "--alpha1", "0", "--alpha2", "0",
         "--t-start", "0", "--t-end", "20", "--t-steps", "201"],
        "e2307ead63711da2caa82080f5ed6e4897a3f1140fac89c3e798d88cc1564589",
    ),
    "beyond_b_max": (
        ["--J", "1", "--B", "4", "--alpha1", "1", "--alpha2", "-1",
         "--t-start", "0", "--t-end", "10", "--t-steps", "101",
         "--allow-dissipative"],
        "152dae1f106d59e2045d7ff4db2695d0048d2f0b87a828756f0bf3a289e13cd9",
    ),
}


# The rho_norm column takes its last bits from the BLAS kernel.
@pytest.mark.parametrize("case", [
    "beyond_b_max",
    pytest.param("dissipative", marks=pytest.mark.kernel_pin("OpenBLAS SkylakeX")),
    pytest.param("undamped", marks=pytest.mark.kernel_pin("OpenBLAS SkylakeX")),
])
def test_evolve_csv_golden_bytes(capsys, case):
    args, digest = EVOLVE_GOLDEN[case]
    code, out, _ = run(capsys, "evolve", *args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The JSON output of the beyond_b_max case, whose "nan" probability tokens
# pass through the per-row objects; no BLAS kernel reaches its bytes.
EVOLVE_JSON_DIGEST = "a5c062ad0f427a33aa3147bcb2a8f389362eda819cb412a6188bd13af7a505a0"


def test_evolve_json_golden_bytes(capsys):
    args, _ = EVOLVE_GOLDEN["beyond_b_max"]
    code, out, _ = run(capsys, "evolve", *args, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EVOLVE_JSON_DIGEST


# SHA-256 of sweep and spectrum output, pinned like EVOLVE_GOLDEN.  The B
# range of the first case straddles B_max = 2.5.
SWEEP_STRADDLE = [
    "regime-sweep", "--J", "1", "--alpha1", "0.5", "--alpha2", "-0.5",
    "--b-start", "2", "--b-end", "3", "--b-steps", "21",
]
SWEEP_STRADDLE_DIGEST = (
    "414cf85d12f8ee0130a9e16dde4302029a6b6a12e2b61878c5c5aa972713b97d"
)
STDOUT_GOLDEN = {
    "sweep_b_straddles_b_max": (SWEEP_STRADDLE, SWEEP_STRADDLE_DIGEST),
    "sweep_b_alpha_j_grid_json": (
        ["regime-sweep", "--b-start", "0.5", "--b-end", "3", "--b-steps", "4",
         "--alpha-start", "0.1", "--alpha-end", "0.9", "--alpha-steps", "3",
         "--j-start", "0.5", "--j-end", "1.5", "--j-steps", "3",
         "--format", "json"],
        "55a6e2bb862aa6b835c8520f4badd7b904d662840d204cacf70f9da50930c59b",
    ),
    "sweep_paper_units": (
        ["regime-sweep", "--J", "1", "--alpha1", "1", "--alpha2", "-1",
         "--paper-units", "--b-start", "0.5", "--b-end", "3", "--b-steps", "11"],
        "eb67d76b7a9e82c74284677eb1a0993644386a3ba4859f718f1e6ebb2a41824b",
    ),
    "spectrum_csv": (
        ["spectrum", *TOY],
        "ff5a7376146eaf0eae469ba4cf4a4ac3298c2f24fb367737a2567c0c004f013f",
    ),
    "spectrum_json": (
        ["spectrum", "--J", "0.8", "--B", "1.3", "--alpha1", "0.4",
         "--alpha2", "-0.4", "--format", "json"],
        "de9c03ac4470f0c9617f191f72af4a8cf48ae73d79618804aaec0c163d221920",
    ),
}


@pytest.mark.parametrize("case", sorted(STDOUT_GOLDEN))
def test_sweep_and_spectrum_golden_bytes(capsys, case):
    args, digest = STDOUT_GOLDEN[case]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


HEISENBERG_ELEMENT = {
    "algebra": {"families": [3, 3]},
    "terms": [
        {"mono": [f"xi{i}", f"chi{i}"], "re": 0.8, "im": 0.0} for i in (1, 2, 3)
    ],
}
OUT_FILE_GOLDEN = {
    "quantize_file": (
        ["quantize-file", "--element", "{element}", "--hbar", "0.5", "--check"],
        "2ac216f82f43bc4b497b43e288cfec80a78f7f1d72b722c1fe7f47ebfe0a622d",
    ),
    "regime_sweep": (SWEEP_STRADDLE, SWEEP_STRADDLE_DIGEST),
    "evolve_beyond_b_max": (
        ["evolve", *EVOLVE_GOLDEN["beyond_b_max"][0]],
        EVOLVE_GOLDEN["beyond_b_max"][1],
    ),
    "verify_clifford": (
        ["verify", "--group", "clifford"],
        "b62ba6cd93d3bbd879021a7bb4394cad33f74cdc3a7f506387f139307a2766b5",
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_FILE_GOLDEN))
def test_out_file_golden_bytes(tmp_path, capsys, case):
    args, digest = OUT_FILE_GOLDEN[case]
    element = write_element(tmp_path / "heis.json", HEISENBERG_ELEMENT)
    out = tmp_path / "out"
    args = [arg.format(element=element) for arg in args]
    assert main([*args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Every subcommand takes --out; these are the arguments each needs besides.
REQUIRED_ARGS = {
    "quantize-file": ["--element", "{element}"],
    "verify": ["--group", "clifford"],
}


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
@pytest.mark.parametrize("subcommand", sorted(cli._SUBCOMMANDS))
def test_unwritable_out_is_an_input_error(tmp_path, capsys, subcommand, target):
    element = write_element(tmp_path / "heis.json", HEISENBERG_ELEMENT)
    out = tmp_path / "absent" / "out" if target == "missing_directory" else tmp_path
    args = [arg.format(element=element) for arg in REQUIRED_ARGS.get(subcommand, [])]
    code, _, err = run(capsys, subcommand, *args, "--out", str(out))
    assert code == 1
    assert err.startswith(f"pseudospin: error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_evolve_rejects_reversed_time_range(capsys):
    code, _, err = run(
        capsys, "evolve", *TOY, "--t-start", "5", "--t-end", "1",
    )
    assert code == 1
    assert "t_end" in err


# ---------------------------------------------------------------------------
# quantize-file


def write_element(path, blob):
    path.write_text(json.dumps(blob))
    return str(path)


def test_quantize_field_hamiltonian(tmp_path, capsys):
    # -i B3 xi1 xi2 with B3 = 1 quantizes to (hbar/2) sigma_3.
    element = write_element(tmp_path / "hb.json", {
        "algebra": {"families": [3]},
        "terms": [{"mono": ["xi1", "xi2"], "re": 0.0, "im": -1.0}],
    })
    code, out, _ = run(capsys, "quantize-file", "--element", element,
                       "--hbar", "1", "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    matrix = np.array(
        [[complex(c["re"], c["im"]) for c in row] for row in payload["matrix"]]
    )
    assert np.allclose(matrix, np.diag([0.5, -0.5]), atol=1e-15)


@pytest.mark.parametrize("flags", [[], ["--check"]], ids=["plain", "check"])
def test_quantize_overflow_is_a_typed_error(tmp_path, capsys, flags):
    # Finite coefficients whose quantized matrix overflows.
    element = write_element(tmp_path / "big.json", {
        "algebra": {"families": [3]},
        "terms": [{"mono": ["xi1", "xi2"], "re": 1e308, "im": 0.0},
                  {"mono": ["xi2", "xi3"], "re": 1e308, "im": 0.0}],
    })
    code, out, err = run(
        capsys, "quantize-file", "--element", element, "--hbar", "4", *flags
    )
    assert code == 1
    assert out == ""
    assert err == "pseudospin: error: quantized matrix overflows the floating-point range\n"


def test_quantize_realization_numpy_refuses_is_a_typed_error(
    tmp_path, capsys, monkeypatch
):
    # A family of 24 needs 24 images of 4096 x 4096; the refusal is faked so
    # that nothing large is allocated.
    element = write_element(tmp_path / "wide.json", {
        "algebra": {"families": [24]},
        "terms": [{"mono": [], "re": 1.0, "im": 0.0}],
    })

    def refuse(algebra, hbar):
        raise MemoryError("Unable to allocate 6.00 GiB")

    monkeypatch.setattr(cli, "tensor_realization", refuse)
    code, out, err = run(capsys, "quantize-file", "--element", element)
    assert code == 1
    assert out == ""
    assert err == "pseudospin: error: families [24] need more than numpy can allocate\n"


def test_quantize_unit_element(tmp_path, capsys):
    element = write_element(tmp_path / "unit.json", {
        "algebra": {"families": [3]},
        "terms": [{"mono": [], "re": 1.0, "im": 0.0}],
    })
    code, out, _ = run(capsys, "quantize-file", "--element", element)
    matrix = np.array(
        [[complex(c["re"], c["im"]) for c in row] for row in json.loads(out)["matrix"]]
    )
    assert code == 0
    assert np.array_equal(matrix, np.eye(2))


def test_quantize_heisenberg_term_matches_builder(tmp_path, capsys):
    exchange = 0.8
    element = write_element(tmp_path / "heis.json", {
        "algebra": {"families": [3, 3]},
        "terms": [
            {"mono": [f"xi{i}", f"chi{i}"], "re": exchange, "im": 0.0}
            for i in (1, 2, 3)
        ],
    })
    code, out, _ = run(
        capsys, "quantize-file", "--element", element, "--hbar", "0.5", "--check",
    )
    assert code == 0
    matrix = np.array(
        [[complex(c["re"], c["im"]) for c in row] for row in json.loads(out)["matrix"]]
    )
    assert np.allclose(
        matrix, build_total(TwoSpinParams(0, 0, exchange)), atol=1e-14
    )


@pytest.mark.parametrize("hbar", ["x", None, True, [1]])
def test_quantize_rejects_non_numeric_realization_hbar(tmp_path, capsys, hbar):
    # The realization's hbar is --hbar, or "hbar" in a config file.
    element = write_element(tmp_path / "e.json", HEISENBERG_ELEMENT)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hbar": hbar}))
    code, out, err = run(
        capsys, "quantize-file", "--element", element, "--config", str(config)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("pseudospin: error:")
    assert "hbar" in err


@pytest.mark.parametrize("hbar", ["1e4", "1e6"])
def test_quantize_check_passes_a_nearly_real_input_at_large_hbar(tmp_path, capsys, hbar):
    # (4e-13 - 1i) xi1 xi2 is star-real within COEFF_TOL, and its matrix is
    # Q(f*)^dagger exactly; an absolute gate on |Q - Q^dagger|, which grows
    # with hbar, failed it.
    element = write_element(tmp_path / "e.json", {
        "algebra": {"families": [3]},
        "terms": [{"mono": ["xi1", "xi2"], "re": 4e-13, "im": -1.0}],
    })
    code, out, err = run(
        capsys, "quantize-file", "--element", element, "--hbar", hbar, "--check"
    )
    assert (code, err) == (0, "")
    assert run(capsys, "quantize-file", "--element", element, "--hbar", hbar)[1] == out


def test_quantize_check_fails_a_broken_realization(tmp_path, capsys, monkeypatch):
    # A first generator image off by a complex factor is no longer hermitian,
    # so Q(f)^dagger and Q(f*) part for a star-real f that contains it.
    element = write_element(tmp_path / "heis.json", HEISENBERG_ELEMENT)
    realize = cli.tensor_realization

    def broken(algebra, hbar):
        real = realize(algebra, hbar=hbar)
        gens = (real.gens[0] * (1 + 1e-3j), *real.gens[1:])
        return Realization(real.algebra, real.hbar, gens)

    monkeypatch.setattr(cli, "tensor_realization", broken)
    code, out, err = run(capsys, "quantize-file", "--element", element, "--check")
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith("FAIL hermiticity: star-real input, defect ")
    # The matrix is still written, from the broken realization.
    assert json.loads(out)["dim"] == 4
    assert run(capsys, "quantize-file", "--element", element)[1] == out


def test_quantize_check_notes_non_real_input(tmp_path, capsys):
    element = write_element(tmp_path / "e.json", {
        "algebra": {"families": [3]},
        "terms": [{"mono": ["xi1", "xi2"], "re": 1.0, "im": 0.0}],
    })
    code, _, err = run(capsys, "quantize-file", "--element", element, "--check")
    assert code == 0
    assert "not star-real" in err


# One-family elements with momenta: (families, mono, coefficient, the matrix
# of the reduced element at hbar = 1, whether that element is star-real).
MOMENTUM_ELEMENTS = {
    # Star-real to 2e-16 of its largest coefficient, the scale --check
    # judges star-reality at.
    "unit_1e6": ([1], [], 1e6 + 1e-10j, [[1e6 + 1e-10j]], True),
    # pi1 -> 0.5j xi1, which is not star-real.
    "pi1": ([1], ["pi1"], 1.0, [[0.5j * math.sqrt(0.5)]], False),
    # 1j pi1 -> -0.5 xi1, star-real and hermitian.
    "i_pi1": ([1], ["pi1"], 1.0j, [[-0.5 * math.sqrt(0.5)]], True),
    # xi1 pi2 -> 0.5j xi1 xi2 = 0.5j (1/2) sigma_1 sigma_2 = -sigma_3 / 4.
    "xi1_pi2": ([2], ["xi1", "pi2"], 1.0, [[-0.25, 0.0], [0.0, 0.25]], True),
}


@pytest.mark.parametrize("case", sorted(MOMENTUM_ELEMENTS))
def test_quantize_check_judges_the_reduced_element(tmp_path, capsys, case):
    families, mono, coefficient, expected, star_real = MOMENTUM_ELEMENTS[case]
    element = write_element(tmp_path / "e.json", {
        "algebra": {"families": families, "momenta": True},
        "terms": [{"mono": mono, "re": coefficient.real, "im": coefficient.imag}],
    })
    code, out, err = run(capsys, "quantize-file", "--element", element, "--check")
    assert code == 0
    assert "FAIL" not in err
    assert ("not star-real" in err) is not star_real
    matrix = np.array(
        [[complex(c["re"], c["im"]) for c in row] for row in json.loads(out)["matrix"]]
    )
    assert np.allclose(matrix, expected, atol=1e-15)
    # --check only adds a verdict on stderr; the matrix bytes are the same.
    assert run(capsys, "quantize-file", "--element", element)[1] == out


def test_quantize_rejects_non_canonical_file(tmp_path, capsys):
    element = write_element(tmp_path / "bad.json", {
        "algebra": {"families": [3]},
        "terms": [{"mono": ["xi2", "xi1"], "re": 1.0, "im": 0.0}],
    })
    code, _, err = run(capsys, "quantize-file", "--element", element)
    assert code == 1
    assert "canonical order" in err


@pytest.mark.parametrize("families", [[True, 3], [3, True]])
def test_quantize_rejects_boolean_family_sizes(tmp_path, capsys, families):
    element = write_element(tmp_path / "bool.json", {
        "algebra": {"families": families},
        "terms": [{"mono": [], "re": 1.0, "im": 0.0}],
    })
    code, out, err = run(capsys, "quantize-file", "--element", element)
    assert code == 1
    assert out == ""
    assert err.startswith("pseudospin: error: bad element file: families ")


# Coefficients that are not finite JSON numbers, as raw JSON text.
NON_NUMERIC_PARTS = ["null", '"nan"', "1e400", "true"]


@pytest.mark.parametrize(
    "raw", NON_NUMERIC_PARTS, ids=["null", "string", "overflow", "bool"]
)
@pytest.mark.parametrize("subcommand, key, message", [
    ("quantize-file", "element", "bad element file"),
    ("evolve", "zeta", "bad state vector file"),
])
def test_input_files_reject_non_finite_numbers(
    tmp_path, capsys, raw, subcommand, key, message
):
    pair = f'"re": {raw}, "im": 0.0'
    if subcommand == "quantize-file":
        text = f'{{"algebra": {{"families": [3]}}, "terms": [{{"mono": [], {pair}}}]}}'
        args = []
    else:
        entries = ", ".join(['{"re": 1.0, "im": 0.0}'] * 3 + [f"{{{pair}}}"])
        text = f"[{entries}]"
        args = TOY
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, subcommand, *args, f"--{key}", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"pseudospin: error: {message}: re must be a finite number")


def test_quantize_requires_element(capsys):
    code, _, err = run(capsys, "quantize-file")
    assert code == 1
    assert "--element" in err


# ---------------------------------------------------------------------------
# verify


# SHA-256 of ``verify --seed S`` stdout and of its ``--out`` summary, pinned
# like EVOLVE_GOLDEN: the groups reach every layer, so a refactor anywhere
# below the CLI must leave these bytes alone.  Seed 0 is the default.  The
# pins were last re-recorded when the orthogonal draws became products of
# reflections: only the checks on those draws moved (grassmann's reality
# transport, canon's orthogonality, field square and group action, and
# quantize's covariance).
VERIFY_GOLDEN = {
    0: ("d21ba2e82c9831d7357552e7d4804d77f8d3e33cf19b8b3693d697e4910515e8",
        "f511fda2b7b83755bcae3c8cd50f612a1ea340ec743d93c80e49eaa2d7e8e07d"),
    1: ("259e24e23111009df756b637ae22bde1662fb6d21c962502bce35a3869ba4823",
        "9202a7edbaea30168ab0d10d2f91abfc0dcb61fe03c34109e2b8096f6af4e419"),
    7: ("9c150de476032d8cdd1ef361dd42559a69f37203a19484fc3e06317a123e230d",
        "4bcf655e6c13baff76b93913e21bd124f8ffab126f314e79761293c3eeefd6b6"),
    # The benchmark draws five-digit seeds, so one is pinned too.
    98765: ("2d15a2604f44117b1692b2a6591e3e383d867d6a5fa124a58949d942e5a2d817",
            "0817ea52023439bddd2c2ba33a42091f3084e89aad305c18243a3bf450b58ce8"),
}


def test_verify_default_all_groups_pass(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert len([line for line in out.splitlines() if line.startswith("PASS")]) == 7


# The rounding-level residuals take their last bits from zgemm, eig and det
# and from numpy's SIMD loops.
@pytest.mark.kernel_pin("OpenBLAS SkylakeX, numpy dispatching to AVX2 or wider")
@pytest.mark.parametrize("seed", sorted(VERIFY_GOLDEN))
def test_verify_golden_bytes(tmp_path, capsys, seed):
    summary_path = tmp_path / "summary.json"
    code, out, _ = run(capsys, "verify", "--seed", str(seed), "--out", str(summary_path))
    assert code == 0
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (out.encode("utf-8"), summary_path.read_bytes())
    )
    assert digests == VERIFY_GOLDEN[seed]


def test_verify_groups_draw_independently(capsys):
    # Each group seeds its own generator, so running one group alone must
    # print the same line it prints inside the full run.
    code, full, _ = run(capsys, "verify", "--seed", "98765")
    assert code == 0
    lines = full.splitlines()
    assert [line.split()[1] for line in lines] == list(GROUPS)
    for name, line in zip(GROUPS, lines):
        code, alone, _ = run(capsys, "verify", "--seed", "98765", "--group", name)
        assert code == 0
        assert alone.splitlines() == [line]


def test_verify_rejects_negative_seed(tmp_path, capsys):
    # A flag and a config-file value alike name the option, not numpy's
    # "expected non-negative integer".
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -3}))
    for args in (("--seed", "-1"), ("--config", str(config))):
        code, out, err = run(capsys, "verify", *args)
        assert code == 1
        assert out == ""
        assert err == "pseudospin: error: seed must be nonnegative\n"


def test_verify_group_filter(capsys):
    code, out, _ = run(capsys, "verify", "--group", "clifford")
    assert code == 0
    assert out.splitlines()[0].startswith("PASS clifford")
    assert len(out.splitlines()) == 1


def test_repeated_main_calls_share_no_state(capsys):
    # One parser serves every call in a process; an appended --group list,
    # a value or a usage error must not carry over to the next call.
    code, out, _ = run(capsys, "verify", "--group", "clifford", "--group", "canon")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == ["clifford", "canon"]
    code, out, _ = run(capsys, "verify", "--group", "twospin")
    assert code == 0
    assert len(out.splitlines()) == 1
    assert out.startswith("PASS twospin")
    args = ["spectrum", "--J", "2", "--B", "1.5", "--alpha1", "0.3", "--alpha2", "-0.3"]
    _, clean, _ = run(capsys, *args)
    with pytest.raises(SystemExit):
        main(["spectrum", "--J", "2", "--bogus", "1"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["verify", "--group", "nosuch"])
    capsys.readouterr()
    assert run(capsys, *args) == (0, clean, "")
    assert run(capsys, "spectrum") == run(capsys, "spectrum")


@pytest.mark.parametrize("group", list(GROUPS))
def test_verify_perturbation_fails_located_group(tmp_path, capsys, monkeypatch, group):
    # The registry is perturbed: the group is replaced by one whose check fails.
    def failing(seed=0):
        return GroupResult(group, (CheckResult("planted check", 1.0, 0.0),))

    monkeypatch.setitem(GROUPS, group, failing)
    other = "canon" if group == "clifford" else "clifford"
    summary_path = tmp_path / "summary.json"
    code, out, _ = run(
        capsys, "verify", "--group", group, "--group", other, "--out", str(summary_path),
    )
    assert code == 2
    failure, passed = out.splitlines()
    assert failure == f"FAIL {group}: planted check violation 1.000e+00 exceeds 0.000e+00"
    assert passed.startswith(f"PASS {other}")
    summary = json.loads(summary_path.read_text())
    assert summary["passed"] is False
    assert [group["passed"] for group in summary["groups"]] == [False, True]
    assert summary["groups"][0]["checks"] == [
        {"label": "planted check", "violation": 1.0, "limit": 0.0, "passed": False}
    ]
    # The key order at every level is the result dataclasses' field order.
    assert list(summary) == ["seed", "passed", "groups"]
    assert [list(group) for group in summary["groups"]] == [["name", "passed", "checks"]] * 2
    assert {
        tuple(check) for group in summary["groups"] for check in group["checks"]
    } == {("label", "violation", "limit", "passed")}


def test_verify_nan_violation_fails_its_check_and_group(capsys, monkeypatch):
    planted = GroupResult("clifford", (CheckResult("planted check", math.nan, 0.0),))
    record = dataclasses.asdict(planted)
    assert record["passed"] is False
    assert record["checks"][0]["passed"] is False
    monkeypatch.setitem(GROUPS, "clifford", lambda seed=0: planted)
    assert run(capsys, "verify", "--group", "clifford") == (
        2, "FAIL clifford: planted check violation nan exceeds 0.000e+00\n", ""
    )


def test_verify_out_spells_non_finite_violations(tmp_path, capsys, monkeypatch):
    # Strict JSON holds no nan or inf: the summary spells them as strings,
    # still exits 2 for the failing checks and prints no traceback.
    checks = tuple(
        CheckResult(label, violation, 1.0)
        for label, violation in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))
    )
    monkeypatch.setitem(GROUPS, "clifford", lambda seed=0: GroupResult("clifford", checks))
    summary_path = tmp_path / "summary.json"
    code, out, err = run(capsys, "verify", "--group", "clifford", "--out", str(summary_path))
    assert (code, err) == (2, "")
    assert out == (
        "FAIL clifford: nan violation nan exceeds 1.000e+00\n"
        "FAIL clifford: inf violation inf exceeds 1.000e+00\n"
    )
    summary = json.loads(summary_path.read_text())
    assert summary["groups"][0]["checks"] == [
        {"label": "nan", "violation": "nan", "limit": 1.0, "passed": False},
        {"label": "inf", "violation": "inf", "limit": 1.0, "passed": False},
        {"label": "-inf", "violation": "-inf", "limit": 1.0, "passed": True},
    ]
    assert summary["passed"] is False


def test_verify_summary_json(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    code, _, _ = run(
        capsys, "verify", "--group", "clifford", "--group", "twospin",
        "--seed", "3", "--out", str(summary_path),
    )
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert [group["name"] for group in summary["groups"]] == ["clifford", "twospin"]
    assert summary["seed"] == 3
    assert summary["passed"] is True


# ---------------------------------------------------------------------------
# parser plumbing


# Every flag as (option strings, dest, action kind, choices, help), pinned
# so that rebuilding the parser cannot add, drop or reword a flag unnoticed.
_FLAGS = {flag[1]: flag for flag in [
    (("--B",), "b", "_StoreAction", None, "applied field amplitude"),
    (("--J",), "j", "_StoreAction", None, "exchange coupling"),
    (("--alpha1",), "alpha1", "_StoreAction", None, "damping of the first spin"),
    (("--alpha2",), "alpha2", "_StoreAction", None, "damping of the second spin"),
    (("--config",), "config", "_StoreAction", None,
     "JSON config file; flags override it"),
    (("--format",), "format", "_StoreAction", ("csv", "json"), "output format"),
    (("--hbar",), "hbar", "_StoreAction", None, "quantization scale"),
    (("--out",), "out", "_StoreAction", None, "output path (default stdout)"),
    (("--paper-units",), "paper_units", "_StoreTrueAction", None,
     "report eigenvalue columns times 4"),
    (("--seed",), "seed", "_StoreAction", None, "seed for randomized checks"),
    (("-h", "--help"), "help", "_HelpAction", None, "show this help message and exit"),
    (("--alpha-end",), "alpha_end", "_StoreAction", None, None),
    (("--alpha-start",), "alpha_start", "_StoreAction", None, None),
    (("--alpha-steps",), "alpha_steps", "_StoreAction", None,
     "grid over (alpha, -alpha) pairs; 0 keeps --alpha1/--alpha2 fixed"),
    (("--b-end",), "b_end", "_StoreAction", None, None),
    (("--b-start",), "b_start", "_StoreAction", None, None),
    (("--b-steps",), "b_steps", "_StoreAction", None, None),
    (("--j-end",), "j_end", "_StoreAction", None, None),
    (("--j-start",), "j_start", "_StoreAction", None, None),
    (("--j-steps",), "j_steps", "_StoreAction", None,
     "grid over J; 0 keeps --J fixed"),
    (("--allow-dissipative",), "allow_dissipative", "_StoreTrueAction", None,
     "run where no metric exists (outside the regime or at the exceptional"
     " point) with canonical norms"),
    (("--t-end",), "t_end", "_StoreAction", None, None),
    (("--t-start",), "t_start", "_StoreAction", None, None),
    (("--t-steps",), "t_steps", "_StoreAction", None, None),
    (("--xi",), "xi", "_StoreAction", None, "bra state vector JSON path"),
    (("--zeta",), "zeta", "_StoreAction", None, "ket state vector JSON path"),
    (("--check",), "check", "_StoreTrueAction", None,
     "check Q(f)^dagger = Q(f*) exactly for star-real input"),
    (("--element",), "element", "_StoreAction", None,
     "Grassmann element JSON path"),
    (("--group",), "group", "_AppendAction",
     ("canon", "clifford", "correspondence", "grassmann", "pseudoherm",
      "quantize", "twospin"),
     "restrict to this group (repeatable)"),
]}
_COMMON_FLAGS = ("help", "out", "config")
# The options each subcommand's handler reads, besides the common flags.
FLAG_SURFACE = {
    "spectrum": ("j", "b", "alpha1", "alpha2", "paper_units", "format"),
    "regime-sweep": (
        "j", "alpha1", "alpha2", "paper_units", "format",
        "b_start", "b_end", "b_steps", "alpha_start", "alpha_end", "alpha_steps",
        "j_start", "j_end", "j_steps",
    ),
    "evolve": (
        "j", "b", "alpha1", "alpha2", "format",
        "t_start", "t_end", "t_steps", "xi", "zeta", "allow_dissipative",
    ),
    "quantize-file": ("hbar", "element", "check"),
    "verify": ("seed", "group"),
}


def _subparsers():
    (action,) = [
        a for a in _build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_flag_surface_is_pinned():
    subparsers = _subparsers()
    assert list(subparsers) == list(FLAG_SURFACE)
    for name, keys in FLAG_SURFACE.items():
        surface = sorted(
            (tuple(a.option_strings), a.dest, type(a).__name__,
             None if a.choices is None else tuple(a.choices), a.help)
            for a in subparsers[name]._actions
        )
        assert surface == sorted(_FLAGS[key] for key in keys + _COMMON_FLAGS), name


def test_readme_flag_table_matches_the_parsers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", section, re.MULTILINE))
    subparsers = _subparsers()
    assert list(rows) == list(subparsers)
    for name, flags in rows.items():
        accepted = {flag for a in subparsers[name]._actions for flag in a.option_strings}
        expected = accepted - {"-h", "--help", "--out", "--config"}
        assert set(re.findall(r"--[\w-]+", flags)) == expected, name


class _ReadRecorder(Mapping):
    """A configuration that records every key its reader looks up."""

    def __init__(self, values, reads):
        self._values, self._reads = values, reads

    def __getitem__(self, key):
        self._reads.add(key)
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


# Enough invocations to take every branch that reads an option: both sides
# of alpha_steps and j_steps, a dissipative evolve, --check on a star-real
# element, and --out.
READ_EVERY_OPTION = [
    ["spectrum", "--out", "{out}"],
    ["regime-sweep", "--b-steps", "2"],
    ["regime-sweep", "--b-steps", "1", "--alpha-steps", "2", "--j-steps", "2"],
    ["evolve", "--t-steps", "2"],
    ["evolve", "--B", "4", "--alpha1", "1", "--alpha2", "-1", "--t-steps", "2",
     "--allow-dissipative"],
    ["quantize-file", "--element", "{element}", "--check"],
    ["verify", "--group", "clifford", "--out", "{out}"],
]


def test_each_subcommand_reads_every_option_it_accepts(tmp_path, capsys, monkeypatch):
    element = write_element(tmp_path / "heis.json", HEISENBERG_ELEMENT)
    declared, reads = {}, {name: set() for name in FLAG_SURFACE}
    make_config = cli.make_config

    def recording_make_config(subcommand, provided):
        config = make_config(subcommand, provided)
        declared[subcommand] = set(config)
        return _ReadRecorder(config, reads[subcommand])

    monkeypatch.setattr(cli, "make_config", recording_make_config)
    for args in READ_EVERY_OPTION:
        args = [arg.format(element=element, out=tmp_path / "out") for arg in args]
        assert main(args) == 0, args
    capsys.readouterr()
    for name, keys in FLAG_SURFACE.items():
        assert declared[name] == {*keys, "out", "config"}, name
        assert reads[name] == declared[name] - {"config"}, name


# Options each subcommand does not read, with a value that would be valid
# where the option is read.  "tol", "perturb" and "realization" are declared
# for no subcommand, so they have no _FLAGS entry and are spelled from their key.
IGNORED_OPTIONS = {
    "spectrum": ("hbar", "tol", "seed"),
    "regime-sweep": ("b", "hbar", "tol", "seed"),
    "evolve": ("hbar", "tol", "seed", "paper_units"),
    "quantize-file": (
        "j", "b", "alpha1", "alpha2", "tol", "seed", "paper_units", "format",
        "realization",
    ),
    "verify": (
        "j", "b", "alpha1", "alpha2", "hbar", "tol", "perturb", "paper_units", "format",
    ),
}
IGNORED_VALUES = {
    "j": 1.0, "b": 1.0, "alpha1": 0.0, "alpha2": 0.0, "hbar": 1.0, "tol": 1e-9,
    "seed": 0, "paper_units": True, "format": "csv", "realization": "realization.json",
    "perturb": 1.0,
}
# Arguments that make each subcommand succeed quickly on their own.
VALID_ARGS = {
    "spectrum": [],
    "regime-sweep": ["--b-steps", "1"],
    "evolve": ["--t-steps", "2"],
    "quantize-file": ["--element", "{element}"],
    "verify": ["--group", "clifford"],
}


@pytest.mark.parametrize("source", ["flag", "config file"])
@pytest.mark.parametrize("subcommand, key", [
    (subcommand, key)
    for subcommand, keys in IGNORED_OPTIONS.items()
    for key in keys
])
def test_options_a_subcommand_does_not_read_are_rejected(
    tmp_path, capsys, subcommand, key, source
):
    element = write_element(tmp_path / "heis.json", HEISENBERG_ELEMENT)
    args = [subcommand, *(arg.format(element=element) for arg in VALID_ARGS[subcommand])]
    value = IGNORED_VALUES[key]
    if source == "flag":
        flag = _FLAGS[key][0][0] if key in _FLAGS else f"--{key}"
        with pytest.raises(SystemExit) as excinfo:
            main([*args, flag] if value is True else [*args, flag, str(value)])
        code, message = excinfo.value.code, "unrecognized arguments"
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code = main([*args, "--config", str(config)])
        message = f"unknown config keys: [{key!r}]"
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("subcommand", sorted(FLAG_SURFACE))
def test_help_exits_zero(capsys, subcommand):
    with pytest.raises(SystemExit) as excinfo:
        main([subcommand, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: pseudospin {subcommand}")


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", "--nope"])
    assert excinfo.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_import_builds_no_layout_bracket_table_or_image_table(tmp_path):
    # Layouts, bracket tables and image tables are filled on first use, so
    # importing the CLI (the benchmark's setup_s) builds none of them; and
    # with scipy blocked from import, every subcommand and every verify group
    # still runs: the package needs numpy alone.
    element = write_element(tmp_path / "hb.json", {
        "algebra": {"families": [3]},
        "terms": [{"mono": ["xi1", "xi2"], "re": 0.0, "im": -1.0}],
    })
    runs = [
        ["spectrum"],
        ["evolve"],
        ["evolve", *BEYOND, "--t-steps", "3", "--allow-dissipative"],
        ["regime-sweep"],
        ["quantize-file", "--element", element, "--check"],
        ["verify"],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import gc, pseudospin.cli\n"
        "from pseudospin.grassmann import _canonical_tables, _layout_for\n"
        "from pseudospin.quantize import Realization\n"
        "assert _layout_for.cache_info().currsize == 0\n"
        "assert _canonical_tables.cache_info().currsize == 0\n"
        "assert not [o for o in gc.get_objects() if isinstance(o, Realization)]\n"
        f"for args in {runs!r}:\n"
        "    assert pseudospin.cli.main(args) == 0, args\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("PASS ") == len(GROUPS)


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "pseudospin.cli", "spectrum", *TOY],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("B,alpha1,alpha2,J,")
