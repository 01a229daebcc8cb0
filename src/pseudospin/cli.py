"""Command-line surface for spectra, sweeps, evolution, and verification.

Subcommands:
    spectrum       Closed-form and numerical eigenvalues for one parameter set.
    regime-sweep   Pseudo-hermiticity map over a (B, alpha, J) grid.
    evolve         Transition amplitude and deformed-norm time series.
    quantize-file  Quantize a Grassmann element read from JSON.
    verify         Run the seeded invariant suites.

Configuration comes from flags, optionally seeded by a JSON config file
(``--config``) whose keys are the flag names with underscores; flags given
on the command line override file values.  Numeric output is deterministic:
identical configuration and seed produce byte-identical CSV/JSON.  Exit
codes: 0 success, 1 validation or input error, 2 verification or agreement
failure.

Column layout follows the model layer: sweep rows are ``B, alpha1, alpha2,
J, ReE1p, ImE1p, ReE1m, ImE1m, ReE2p, ImE2p, ReE2m, ImE2m,
pseudo_hermitian, threshold_margin``; ``spectrum`` appends the matched
numerical eigenvalues ``ReN1p .. ImN2m`` and ``max_discrepancy``; evolution
rows are ``t, re_amp, im_amp, probability, rho_norm``.  ``--paper-units``
rescales eigenvalue-bearing columns by 4; regime columns are
scale-invariant and stay untouched.  Missing values are written as the
explicit token ``"nan"``, never as empty fields.
"""

import argparse
import json
import sys
from collections.abc import Callable, Mapping
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.optimize import linear_sum_assignment

from .formats import (
    element_from_json,
    matrix_to_json,
    vector_from_json,
    write_csv,
)
from .grassmann import AlgebraSpec, star_involution
from .quantize import tensor_realization, quantize
from .twospin import (
    GilbertParams,
    TwoSpinParams,
    build_total,
    closed_spectrum,
    evolve,
    gilbert_fields,
    transition_series,
)
from .verify import GROUPS, run_groups

SWEEP_COLUMNS = [
    "B", "alpha1", "alpha2", "J",
    "ReE1p", "ImE1p", "ReE1m", "ImE1m",
    "ReE2p", "ImE2p", "ReE2m", "ImE2m",
    "pseudo_hermitian", "threshold_margin",
]
SPECTRUM_COLUMNS = SWEEP_COLUMNS + [
    "ReN1p", "ImN1p", "ReN1m", "ImN1m",
    "ReN2p", "ImN2p", "ReN2m", "ImN2m",
    "max_discrepancy",
]
EVOLVE_COLUMNS = ["t", "re_amp", "im_amp", "probability", "rho_norm"]

_COMMON_DEFAULTS: dict[str, Any] = {
    "j": 1.0,
    "b": 1.0,
    "alpha1": 0.0,
    "alpha2": 0.0,
    "hbar": 1.0,
    "tol": 1e-9,
    "seed": 0,
    "paper_units": False,
    "out": None,
    "format": "csv",
}

_DEFAULTS: dict[str, dict[str, Any]] = {
    "spectrum": {**_COMMON_DEFAULTS},
    "regime-sweep": {
        **_COMMON_DEFAULTS,
        "b_start": 0.5, "b_end": 3.0, "b_steps": 11,
        "alpha_start": 0.0, "alpha_end": 0.0, "alpha_steps": 0,
        "j_start": 0.0, "j_end": 0.0, "j_steps": 0,
    },
    "evolve": {
        **_COMMON_DEFAULTS,
        "t_start": 0.0, "t_end": 10.0, "t_steps": 101,
        "xi": None, "zeta": None, "allow_dissipative": False,
    },
    "quantize-file": {
        **_COMMON_DEFAULTS,
        "element": None, "realization": None, "check": False,
    },
    "verify": {**_COMMON_DEFAULTS, "group": None, "perturb": 0.0},
}


class CliError(Exception):
    """Input or validation failure mapped to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully merged configuration for one subcommand run.

    Attributes:
        subcommand: Subcommand name.
        values: Merged defaults, config-file entries, and flags.
    """

    subcommand: str
    values: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        v = self.values
        if not v.get("tol", 1.0) > 0.0:
            raise CliError("tolerance must be positive")
        if not v.get("hbar", 1.0) > 0.0:
            raise CliError("hbar must be positive")
        for key in ("b_steps", "t_steps"):
            if key in v and int(v[key]) < 1:
                raise CliError(f"{key} must be at least 1")
        for key in ("alpha_steps", "j_steps"):
            if key in v and int(v[key]) < 0:
                raise CliError(f"{key} must be nonnegative")
        for start, end in (("t_start", "t_end"),):
            if start in v and not v[end] >= v[start]:
                raise CliError(f"{end} must not precede {start}")

    def __getitem__(self, key: str) -> Any:
        return self.values[key]


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors follow the documented exit-code contract."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--J", dest="j", type=float, help="exchange coupling")
    common.add_argument("--B", dest="b", type=float, help="applied field amplitude")
    common.add_argument("--alpha1", type=float, help="damping of the first spin")
    common.add_argument("--alpha2", type=float, help="damping of the second spin")
    common.add_argument("--hbar", type=float, help="quantization scale")
    common.add_argument("--tol", type=float, help="agreement tolerance")
    common.add_argument("--seed", type=int, help="seed for randomized checks")
    common.add_argument(
        "--paper-units", action="store_true",
        help="report eigenvalue columns times 4",
    )
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    common.add_argument("--config", help="JSON config file; flags override it")

    parser = _Parser(prog="pseudospin", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    subs.add_parser(
        "spectrum", parents=[common],
        help="closed-form vs numerical eigenvalues for one parameter set",
        argument_default=argparse.SUPPRESS,
    )

    sweep = subs.add_parser(
        "regime-sweep", parents=[common],
        help="pseudo-hermiticity map over a parameter grid",
        argument_default=argparse.SUPPRESS,
    )
    sweep.add_argument("--b-start", dest="b_start", type=float)
    sweep.add_argument("--b-end", dest="b_end", type=float)
    sweep.add_argument("--b-steps", dest="b_steps", type=int)
    sweep.add_argument("--alpha-start", dest="alpha_start", type=float)
    sweep.add_argument("--alpha-end", dest="alpha_end", type=float)
    sweep.add_argument(
        "--alpha-steps", dest="alpha_steps", type=int,
        help="grid over (alpha, -alpha) pairs; 0 keeps --alpha1/--alpha2 fixed",
    )
    sweep.add_argument("--j-start", dest="j_start", type=float)
    sweep.add_argument("--j-end", dest="j_end", type=float)
    sweep.add_argument(
        "--j-steps", dest="j_steps", type=int,
        help="grid over J; 0 keeps --J fixed",
    )

    evolve_parser = subs.add_parser(
        "evolve", parents=[common],
        help="transition amplitude and deformed norm over a time grid",
        argument_default=argparse.SUPPRESS,
    )
    evolve_parser.add_argument("--t-start", dest="t_start", type=float)
    evolve_parser.add_argument("--t-end", dest="t_end", type=float)
    evolve_parser.add_argument("--t-steps", dest="t_steps", type=int)
    evolve_parser.add_argument("--xi", help="bra state vector JSON path")
    evolve_parser.add_argument("--zeta", help="ket state vector JSON path")
    evolve_parser.add_argument(
        "--allow-dissipative", dest="allow_dissipative", action="store_true",
        help="run outside the pseudo-hermitian regime (canonical norms)",
    )

    quant = subs.add_parser(
        "quantize-file", parents=[common],
        help="quantize a Grassmann element read from JSON",
        argument_default=argparse.SUPPRESS,
    )
    quant.add_argument("--element", help="Grassmann element JSON path")
    quant.add_argument(
        "--realization",
        help='realization JSON path ({"families": [...], "hbar": ...})',
    )
    quant.add_argument(
        "--check", action="store_true",
        help="verify hermiticity of the output for star-real input",
    )

    verify_parser = subs.add_parser(
        "verify", parents=[common],
        help="run the seeded invariant suites",
        argument_default=argparse.SUPPRESS,
    )
    verify_parser.add_argument(
        "--group", action="append", choices=sorted(GROUPS),
        help="restrict to this group (repeatable)",
    )
    verify_parser.add_argument(
        "--perturb", type=float,
        help="fault-injection bias; nonzero must produce a failure",
    )

    return parser


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _typed(key: str, value: Any, default: Any) -> Any:
    """Check and convert a config-file number to the type of its ``default``."""
    if isinstance(default, bool) or not isinstance(default, (int, float)):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{key} must be a number, not {value!r}")
    if isinstance(default, float):
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise CliError(f"{key} must be an integer, not {value!r}")
    return int(value)


def make_config(subcommand: str, provided: Mapping[str, Any]) -> RunConfig:
    """Merge defaults, config-file values, and flag values into a RunConfig.

    Args:
        subcommand: Subcommand name, a key of the defaults table.
        provided: Values given on the command line (flag dest names), with
            an optional "config" entry naming a JSON file to merge beneath.

    Raises:
        CliError: On unknown or mistyped config keys, or invariant violations.
    """
    provided = dict(provided)
    defaults = _DEFAULTS[subcommand]
    file_values: dict[str, Any] = {}
    config_path = provided.pop("config", None)
    if config_path is not None:
        file_values = _load_json(config_path)
        if not isinstance(file_values, dict):
            raise CliError("config file must hold a JSON object")
        unknown = sorted(set(file_values) - set(defaults))
        if unknown:
            raise CliError(f"unknown config keys: {unknown}")
        file_values = {k: _typed(k, v, defaults[k]) for k, v in file_values.items()}
    merged = {**defaults, **file_values, **provided}
    return RunConfig(subcommand=subcommand, values=merged)


def _params_from(config: RunConfig, b=None, alphas=None, j=None) -> TwoSpinParams:
    amplitude = config["b"] if b is None else b
    alpha1, alpha2 = (
        (config["alpha1"], config["alpha2"]) if alphas is None else alphas
    )
    try:
        f3, g3 = gilbert_fields(GilbertParams(amplitude, alpha1, alpha2))
        return TwoSpinParams(
            f3=f3, g3=g3, exchange=config["j"] if j is None else j
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(config: RunConfig, payload: Any, header: list[str] | None = None) -> None:
    """Write rows under ``header`` per ``--format``, else ``payload`` as JSON."""
    if header is not None and config["format"] == "json":
        header, payload = None, [
            {key: ("nan" if isinstance(v, float) and np.isnan(v) else v)
             for key, v in zip(header, row)}
            for row in payload
        ]
    out = config["out"]
    with (
        nullcontext(sys.stdout) if out is None
        else open(out, "w", encoding="utf-8", newline="")
    ) as handle:
        if header is None:
            handle.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        else:
            write_csv(handle, header, payload)


def _scaled(values: list[float], factor: float) -> list[float]:
    return [factor * value for value in values]


def _regime_row(config: RunConfig, b, alphas, j, report) -> list:
    energies = []
    for value in report.eigenvalues:
        energies.extend((value.real, value.imag))
    if config["paper_units"]:
        energies = _scaled(energies, 4.0)
    return (
        [b, alphas[0], alphas[1], j]
        + energies
        + [report.pseudo_hermitian, report.threshold_margin]
    )


def cmd_spectrum(config: RunConfig) -> int:
    """Closed-form spectrum next to the eigensolver, with max discrepancy."""
    params = _params_from(config)
    report = closed_spectrum(params)
    closed = np.array(report.eigenvalues)
    numerical = np.linalg.eigvals(build_total(params))
    cost = np.abs(closed[:, None] - numerical[None, :])
    row_ind, col_ind = linear_sum_assignment(cost)
    matched = numerical[col_ind[np.argsort(row_ind)]]
    discrepancy = float(np.max(np.abs(closed - matched)))

    row = _regime_row(
        config, config["b"], (config["alpha1"], config["alpha2"]), config["j"], report
    )
    tail = []
    for value in matched:
        tail.extend((float(value.real), float(value.imag)))
    tail.append(discrepancy)
    if config["paper_units"]:
        tail = _scaled(tail, 4.0)
    _emit(config, [row + tail], SPECTRUM_COLUMNS)
    return 0 if discrepancy <= config["tol"] else 2


def cmd_regime_sweep(config: RunConfig) -> int:
    """Regime map over the requested grid, rows in grid order."""
    v = config.values
    b_grid = [float(x) for x in np.linspace(v["b_start"], v["b_end"], v["b_steps"])]
    if v["alpha_steps"] >= 1:
        alpha_grid = [
            (float(a), float(-a))
            for a in np.linspace(v["alpha_start"], v["alpha_end"], v["alpha_steps"])
        ]
    else:
        alpha_grid = [(v["alpha1"], v["alpha2"])]
    if v["j_steps"] >= 1:
        j_grid = [float(x) for x in np.linspace(v["j_start"], v["j_end"], v["j_steps"])]
    else:
        j_grid = [v["j"]]
    rows = [
        _regime_row(
            config, b, alphas, j,
            closed_spectrum(_params_from(config, b=b, alphas=alphas, j=j)),
        )
        for b in b_grid for alphas in alpha_grid for j in j_grid
    ]
    _emit(config, rows, SWEEP_COLUMNS)
    return 0


def cmd_evolve(config: RunConfig) -> int:
    """Amplitude, probability, and deformed norm over the time grid."""
    v = config.values
    params = _params_from(config)
    report = closed_spectrum(params)
    try:
        xi, zeta = (
            np.array([0.0, 1.0, 0.0, 0.0], dtype=complex) if v[key] is None
            else vector_from_json(_load_json(v[key]))
            for key in ("xi", "zeta")
        )
    except ValueError as exc:
        raise CliError(f"bad state vector file: {exc}") from exc
    if xi.shape != (4,) or zeta.shape != (4,):
        raise CliError("state vectors must have four components")
    times = np.linspace(v["t_start"], v["t_end"], v["t_steps"])
    if report.pseudo_hermitian:
        try:
            series = transition_series(xi, zeta, params, times)
        except (ValueError, RuntimeError) as exc:
            raise CliError(str(exc)) from exc
        rows = [
            [t, amplitude.real, amplitude.imag, probability, norm]
            for t, amplitude, probability, norm in zip(
                times.tolist(),
                series.amplitudes.tolist(),
                series.probabilities.tolist(),
                series.rho_norms.tolist(),
            )
        ]
    else:
        if not v["allow_dissipative"]:
            raise CliError(
                "parameters violate the pseudo-hermiticity conditions; "
                "pass --allow-dissipative for canonical-norm output"
            )
        rows = []
        for t, evolved in zip(times.tolist(), evolve(build_total(params), times, zeta)):
            amplitude = complex(np.vdot(xi, evolved))
            rows.append([
                t, amplitude.real, amplitude.imag,
                float("nan"), float(np.linalg.norm(evolved)),
            ])
    _emit(config, rows, EVOLVE_COLUMNS)
    return 0


def cmd_quantize(config: RunConfig) -> int:
    """Quantize an element file; optionally check hermiticity for real input."""
    v = config.values
    if v["element"] is None:
        raise CliError("quantize-file requires --element")
    try:
        element = element_from_json(_load_json(v["element"]))
    except ValueError as exc:
        raise CliError(f"bad element file: {exc}") from exc
    hbar = v["hbar"]
    families = element.algebra.family_sizes
    if v["realization"] is not None:
        decl = _load_json(v["realization"])
        if not isinstance(decl, dict) or not set(decl) <= {"families", "hbar"}:
            raise CliError('realization file must hold {"families", "hbar"}')
        if "families" in decl:
            try:
                declared = tuple(int(n) for n in decl["families"])
            except (TypeError, ValueError) as exc:
                raise CliError("realization families must be integers") from exc
            if declared != families:
                raise CliError(
                    f"realization families {list(declared)} do not match "
                    f"element families {list(families)}"
                )
        if "hbar" in decl:
            hbar = _typed("realization hbar", decl["hbar"], 1.0)
            if not hbar > 0.0:
                raise CliError("hbar must be positive")
    realization = tensor_realization(AlgebraSpec(families), hbar=hbar)
    matrix = quantize(element, realization)

    status = 0
    if v["check"]:
        star_real = star_involution(element).allclose(element, tol=1e-12)
        if star_real:
            gap = float(np.max(np.abs(matrix - matrix.conj().T)))
            if gap > config["tol"]:
                print(
                    f"FAIL hermiticity: star-real input, defect {gap:.3e}",
                    file=sys.stderr,
                )
                status = 2
        else:
            print("note: input is not star-real; no hermiticity claim", file=sys.stderr)

    payload = {
        "dim": matrix.shape[0],
        "hbar": hbar,
        "matrix": matrix_to_json(matrix),
    }
    _emit(config, payload)
    return status


def cmd_verify(config: RunConfig) -> int:
    """Run invariant groups; print one line per group, JSON summary on request."""
    v = config.values
    names = v["group"]
    try:
        results = run_groups(names, seed=v["seed"], perturb=v["perturb"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    for result in results:
        if result.passed:
            worst = max((c.violation for c in result.checks), default=0.0)
            print(f"PASS {result.name} (worst violation {worst:.3e})")
        else:
            for check in result.failures:
                print(
                    f"FAIL {result.name}: {check.label} "
                    f"violation {check.violation:.3e} exceeds {check.limit:.3e}"
                )
    summary = {
        "seed": v["seed"],
        "passed": all(r.passed for r in results),
        "groups": [
            {
                "name": r.name,
                "passed": r.passed,
                "checks": [
                    {
                        "label": c.label,
                        "violation": c.violation,
                        "limit": c.limit,
                        "passed": c.passed,
                    }
                    for c in r.checks
                ],
            }
            for r in results
        ],
    }
    if v["out"] is not None:
        _emit(config, summary)
    return 0 if summary["passed"] else 2


_HANDLERS: dict[str, Callable[[RunConfig], int]] = {
    "spectrum": cmd_spectrum,
    "regime-sweep": cmd_regime_sweep,
    "evolve": cmd_evolve,
    "quantize-file": cmd_quantize,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    provided = {k: v for k, v in vars(args).items() if k != "subcommand"}
    try:
        config = make_config(args.subcommand, provided)
        return _HANDLERS[args.subcommand](config)
    except CliError as exc:
        print(f"pseudospin: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
