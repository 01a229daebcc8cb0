"""Tests for the command-line surface.

Each subcommand is driven in-process through ``main(argv)`` so exit codes
and output bytes are observable; one subprocess test pins the module entry
point.  Numerical expectations reuse the model-layer oracles (closed-form
spectrum, interaction builder, deformed inner product).
"""

import argparse
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from collections.abc import Mapping

import numpy as np
import pytest

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
from pseudospin.twospin import (
    GilbertParams,
    TwoSpinParams,
    build_interaction,
    damping_threshold,
    gilbert_fields,
    paper_isomorphism,
)

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
    f3, g3 = gilbert_fields(GilbertParams(amplitude, alpha, -alpha))
    return TwoSpinParams(f3=f3, g3=g3, exchange=exchange)


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


def test_spectrum_disagreement_exits_two(capsys):
    code, out, _ = run(capsys, "spectrum", *TOY, "--tol", "1e-20")
    assert code == 2
    assert parse_csv(out)  # output is still written


@pytest.mark.xfail(
    strict=True,
    reason="--tol bounds the eigensolver discrepancy absolutely, while the "
    "discrepancy grows with the eigenvalues' magnitude",
)
def test_spectrum_agreement_is_relative_to_scale(capsys):
    code, _, _ = run(
        capsys, "spectrum", "--J", "1e7", "--B", "1e7",
        "--alpha1", "0.5", "--alpha2", "-0.5",
    )
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
MISTYPED_CONFIG_LATER = [("spectrum", {"tol": "x"}, "tol")]


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


@pytest.mark.parametrize("source", ["flag", "realization file"])
def test_quantize_rejects_non_finite_hbar(tmp_path, capsys, source):
    element = write_element(tmp_path / "e.json", HEISENBERG_ELEMENT)
    realization = tmp_path / "r.json"
    realization.write_text(json.dumps({"hbar": math.inf}))
    extra = (
        ["--hbar", "inf"] if source == "flag"
        else ["--realization", str(realization)]
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


def test_sweep_nonpositive_field_is_a_typed_error(capsys):
    code, out, err = run(
        capsys, "regime-sweep", "--b-start", "-1", "--b-end", "1", "--b-steps", "3",
    )
    assert code == 1
    assert out == ""
    assert err == "pseudospin: error: field amplitude must be positive\n"


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


def test_evolve_time_zero_row(capsys):
    _, out, _ = run(capsys, "evolve", *TOY, "--t-start", "0", "--t-end", "1",
                    "--t-steps", "2")
    row = parse_csv(out)[0]
    # Self-transition of the default basis state at t=0: the amplitude is
    # its squared deformed norm and the normalized probability is one.
    _, rho = paper_isomorphism(toy_params())
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
    _, rho = paper_isomorphism(toy_params())
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


# SHA-256 of the evolve CSV, pinned so that performance work cannot change
# output bytes silently.  Recorded with numpy 2.4.6 and its bundled
# OpenBLAS on x86_64; a different LAPACK build may move last bits.
EVOLVE_GOLDEN = {
    "dissipative": (
        ["--J", "1", "--B", "1.5", "--alpha1", "0.5", "--alpha2", "-0.5",
         "--t-start", "0", "--t-end", "20", "--t-steps", "201"],
        "977c30c65d84a24c4ab85b09f6ac48668b9a0a648dd2f40b73e3ab6107406425",
    ),
    "undamped": (
        ["--J", "0.8", "--B", "1.3", "--alpha1", "0", "--alpha2", "0",
         "--t-start", "0", "--t-end", "20", "--t-steps", "201"],
        "0dec4b43fcf4d1002822b47e5be2244f4a16db5f4ebf6513f7ee8b9c2651faf4",
    ),
    "beyond_b_max": (
        ["--J", "1", "--B", "4", "--alpha1", "1", "--alpha2", "-1",
         "--t-start", "0", "--t-end", "10", "--t-steps", "101",
         "--allow-dissipative"],
        "fd6e84e4d0ec8d5aac29b68bc7b9dc3a4b26c11fb4691680e087b30754c30cf8",
    ),
}


@pytest.mark.parametrize("case", sorted(EVOLVE_GOLDEN))
def test_evolve_csv_golden_bytes(capsys, case):
    args, digest = EVOLVE_GOLDEN[case]
    code, out, _ = run(capsys, "evolve", *args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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
        ["quantize-file", "--element", "{element}",
         "--realization", "{realization}", "--check"],
        "2ac216f82f43bc4b497b43e288cfec80a78f7f1d72b722c1fe7f47ebfe0a622d",
    ),
    "regime_sweep": (SWEEP_STRADDLE, SWEEP_STRADDLE_DIGEST),
    "verify_clifford": (
        ["verify", "--group", "clifford"],
        "b62ba6cd93d3bbd879021a7bb4394cad33f74cdc3a7f506387f139307a2766b5",
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_FILE_GOLDEN))
def test_out_file_golden_bytes(tmp_path, capsys, case):
    args, digest = OUT_FILE_GOLDEN[case]
    element = write_element(tmp_path / "heis.json", HEISENBERG_ELEMENT)
    realization = tmp_path / "realization.json"
    realization.write_text(json.dumps({"families": [3, 3], "hbar": 0.5}))
    out = tmp_path / "out"
    args = [arg.format(element=element, realization=realization) for arg in args]
    assert main([*args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    realization = tmp_path / "realization.json"
    realization.write_text(json.dumps({"families": [3, 3], "hbar": 0.5}))
    code, out, _ = run(
        capsys, "quantize-file", "--element", element,
        "--realization", str(realization), "--check",
    )
    assert code == 0
    matrix = np.array(
        [[complex(c["re"], c["im"]) for c in row] for row in json.loads(out)["matrix"]]
    )
    assert np.allclose(matrix, build_interaction(exchange * np.eye(3)), atol=1e-14)


def test_quantize_realization_mismatch(tmp_path, capsys):
    element = write_element(tmp_path / "e.json", {
        "algebra": {"families": [3]},
        "terms": [{"mono": ["xi1"], "re": 1.0, "im": 0.0}],
    })
    realization = tmp_path / "r.json"
    realization.write_text(json.dumps({"families": [3, 3]}))
    code, _, err = run(
        capsys, "quantize-file", "--element", element, "--realization", str(realization)
    )
    assert code == 1
    assert "do not match" in err


@pytest.mark.parametrize("hbar", ["x", None, True, [1]])
def test_quantize_rejects_non_numeric_realization_hbar(tmp_path, capsys, hbar):
    element = write_element(tmp_path / "e.json", HEISENBERG_ELEMENT)
    realization = tmp_path / "r.json"
    realization.write_text(json.dumps({"hbar": hbar}))
    code, out, err = run(
        capsys, "quantize-file", "--element", element, "--realization", str(realization)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("pseudospin: error:")
    assert "hbar" in err


def test_quantize_check_notes_non_real_input(tmp_path, capsys):
    element = write_element(tmp_path / "e.json", {
        "algebra": {"families": [3]},
        "terms": [{"mono": ["xi1", "xi2"], "re": 1.0, "im": 0.0}],
    })
    code, _, err = run(capsys, "quantize-file", "--element", element, "--check")
    assert code == 0
    assert "not star-real" in err


def test_quantize_rejects_non_canonical_file(tmp_path, capsys):
    element = write_element(tmp_path / "bad.json", {
        "algebra": {"families": [3]},
        "terms": [{"mono": ["xi2", "xi1"], "re": 1.0, "im": 0.0}],
    })
    code, _, err = run(capsys, "quantize-file", "--element", element)
    assert code == 1
    assert "canonical order" in err


def test_quantize_requires_element(capsys):
    code, _, err = run(capsys, "quantize-file")
    assert code == 1
    assert "--element" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_default_all_groups_pass(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(lines) == 7


def test_verify_group_filter(capsys):
    code, out, _ = run(capsys, "verify", "--group", "clifford")
    assert code == 0
    assert out.splitlines()[0].startswith("PASS clifford")
    assert len(out.splitlines()) == 1


def test_verify_perturbation_fails_located_group(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    code, out, _ = run(
        capsys, "verify", "--group", "canon", "--perturb", "1e-3",
        "--out", str(summary_path),
    )
    assert code == 2
    assert "FAIL canon" in out
    summary = json.loads(summary_path.read_text())
    assert summary["passed"] is False
    assert summary["groups"][0]["name"] == "canon"
    assert any(not check["passed"] for check in summary["groups"][0]["checks"])


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
    (("--tol",), "tol", "_StoreAction", None, "agreement tolerance"),
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
     "run outside the pseudo-hermitian regime (canonical norms)"),
    (("--t-end",), "t_end", "_StoreAction", None, None),
    (("--t-start",), "t_start", "_StoreAction", None, None),
    (("--t-steps",), "t_steps", "_StoreAction", None, None),
    (("--xi",), "xi", "_StoreAction", None, "bra state vector JSON path"),
    (("--zeta",), "zeta", "_StoreAction", None, "ket state vector JSON path"),
    (("--check",), "check", "_StoreTrueAction", None,
     "verify hermiticity of the output for star-real input"),
    (("--element",), "element", "_StoreAction", None,
     "Grassmann element JSON path"),
    (("--realization",), "realization", "_StoreAction", None,
     'realization JSON path ({"families": [...], "hbar": ...})'),
    (("--group",), "group", "_AppendAction",
     ("canon", "clifford", "correspondence", "grassmann", "pseudoherm",
      "quantize", "twospin"),
     "restrict to this group (repeatable)"),
    (("--perturb",), "perturb", "_StoreAction", None,
     "fault-injection bias; nonzero must produce a failure"),
]}
_COMMON_FLAGS = ("help", "out", "config")
# The options each subcommand's handler reads, besides the common flags.
FLAG_SURFACE = {
    "spectrum": ("j", "b", "alpha1", "alpha2", "tol", "paper_units", "format"),
    "regime-sweep": (
        "j", "alpha1", "alpha2", "paper_units", "format",
        "b_start", "b_end", "b_steps", "alpha_start", "alpha_end", "alpha_steps",
        "j_start", "j_end", "j_steps",
    ),
    "evolve": (
        "j", "b", "alpha1", "alpha2", "format",
        "t_start", "t_end", "t_steps", "xi", "zeta", "allow_dissipative",
    ),
    "quantize-file": ("hbar", "tol", "element", "realization", "check"),
    "verify": ("seed", "group", "perturb"),
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
# where the option is read.
IGNORED_OPTIONS = {
    "spectrum": ("hbar", "seed"),
    "regime-sweep": ("b", "hbar", "tol", "seed"),
    "evolve": ("hbar", "tol", "seed", "paper_units"),
    "quantize-file": ("j", "b", "alpha1", "alpha2", "seed", "paper_units", "format"),
    "verify": ("j", "b", "alpha1", "alpha2", "hbar", "tol", "paper_units", "format"),
}
IGNORED_VALUES = {
    "j": 1.0, "b": 1.0, "alpha1": 0.0, "alpha2": 0.0, "hbar": 1.0, "tol": 1e-9,
    "seed": 0, "paper_units": True, "format": "csv",
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
        flag = _FLAGS[key][0][0]
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


def test_import_builds_no_layout_bracket_table_or_image_table():
    # Layouts, bracket tables and image tables are filled on first use, so
    # importing the CLI (the benchmark's setup_s) builds none of them.
    code = (
        "import gc, pseudospin.cli\n"
        "from pseudospin.grassmann import _canonical_tables, _layout_for\n"
        "from pseudospin.quantize import Realization\n"
        "assert _layout_for.cache_info().currsize == 0\n"
        "assert _canonical_tables.cache_info().currsize == 0\n"
        "assert not [o for o in gc.get_objects() if isinstance(o, Realization)]\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "pseudospin.cli", "spectrum", *TOY],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("B,alpha1,alpha2,J,")
