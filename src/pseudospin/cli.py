"""Command-line surface for spectra, sweeps, evolution, and verification.

Subcommands:
    spectrum       Closed-form and numerical eigenvalues for one parameter set.
    regime-sweep   Pseudo-hermiticity map over a (B, alpha, J) grid.
    evolve         Transition amplitude and deformed-norm time series.
    quantize-file  Quantize a Grassmann element read from JSON.
    verify         Run the seeded invariant suites.

Each subcommand accepts only the options its handler reads, plus ``--out``
and ``--config``; any other flag is a usage error.  Configuration comes
from flags, optionally seeded by a JSON config file (``--config``) whose
keys are the subcommand's flag names with underscores; an unknown key is
an input error, and flags given on the command line override file values.
Numeric output is deterministic: identical configuration and seed produce
byte-identical CSV/JSON.  Exit codes: 0 success, 1 validation, input or
usage error, 2 verification or agreement failure.

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

# Every option of every subcommand, once: ``key -> (default, help)``.  The
# flag, its type and the check on a config-file value all follow from the
# default: float, int, bool (a switch), a string, or None for a path.
# ``config`` is the one option a config file may not set.
_Options = dict[str, tuple[Any, str | None]]
_OPTIONS: _Options = {
    "j": (1.0, "exchange coupling"),
    "b": (1.0, "applied field amplitude"),
    "alpha1": (0.0, "damping of the first spin"),
    "alpha2": (0.0, "damping of the second spin"),
    "hbar": (1.0, "quantization scale"),
    "tol": (1e-9, "agreement tolerance"),
    "seed": (0, "seed for randomized checks"),
    "paper_units": (False, "report eigenvalue columns times 4"),
    "format": ("csv", "output format"),
    "b_start": (0.5, None),
    "b_end": (3.0, None),
    "b_steps": (11, None),
    "alpha_start": (0.0, None),
    "alpha_end": (0.0, None),
    "alpha_steps": (
        0, "grid over (alpha, -alpha) pairs; 0 keeps --alpha1/--alpha2 fixed"
    ),
    "j_start": (0.0, None),
    "j_end": (0.0, None),
    "j_steps": (0, "grid over J; 0 keeps --J fixed"),
    "t_start": (0.0, None),
    "t_end": (10.0, None),
    "t_steps": (101, None),
    "xi": (None, "bra state vector JSON path"),
    "zeta": (None, "ket state vector JSON path"),
    "allow_dissipative": (
        False, "run outside the pseudo-hermitian regime (canonical norms)"
    ),
    "element": (None, "Grassmann element JSON path"),
    "realization": (
        None, 'realization JSON path ({"families": [...], "hbar": ...})'
    ),
    "check": (False, "verify hermiticity of the output for star-real input"),
    "group": (None, "restrict to this group (repeatable)"),
    "perturb": (0.0, "fault-injection bias; nonzero must produce a failure"),
    "out": (None, "output path (default stdout)"),
    "config": (None, "JSON config file; flags override it"),
}

# Each subcommand's help and the options its handler reads; every
# subcommand also takes ``out`` and ``config``.
_SUBCOMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "spectrum": (
        "closed-form vs numerical eigenvalues for one parameter set",
        ("j", "b", "alpha1", "alpha2", "tol", "paper_units", "format"),
    ),
    "regime-sweep": (
        "pseudo-hermiticity map over a parameter grid",
        ("j", "alpha1", "alpha2", "paper_units", "format",
         "b_start", "b_end", "b_steps", "alpha_start", "alpha_end", "alpha_steps",
         "j_start", "j_end", "j_steps"),
    ),
    "evolve": (
        "transition amplitude and deformed norm over a time grid",
        ("j", "b", "alpha1", "alpha2", "format",
         "t_start", "t_end", "t_steps", "xi", "zeta", "allow_dissipative"),
    ),
    "quantize-file": (
        "quantize a Grassmann element read from JSON",
        ("hbar", "tol", "element", "realization", "check"),
    ),
    "verify": ("run the seeded invariant suites", ("seed", "group", "perturb")),
}


def _options(subcommand: str) -> _Options:
    """The options ``subcommand`` accepts, in declaration order."""
    keys = (*_SUBCOMMANDS[subcommand][1], "out", "config")
    return {key: _OPTIONS[key] for key in keys}


_CHOICES: dict[str, tuple[str, ...]] = {
    "format": ("csv", "json"),
    "group": tuple(sorted(GROUPS)),
}


class CliError(Exception):
    """Input or validation failure mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors follow the documented exit-code contract."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_options(parser: argparse.ArgumentParser, options: _Options) -> None:
    for key, (default, help_text) in options.items():
        flag = "--" + (key.upper() if key in ("j", "b") else key.replace("_", "-"))
        if isinstance(default, bool):
            kind = {"action": "store_true"}
        else:
            kind = {
                "action": "append" if key == "group" else "store",
                "type": str if default is None else type(default),
                "choices": _CHOICES.get(key),
            }
        parser.add_argument(flag, dest=key, help=help_text, **kind)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pseudospin", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        _add_options(sub, _options(name))
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
    """Check ``value`` against the kind of its option's ``default``.

    Numbers take the default's type; a float must be finite.  Paths (a None
    default) are strings or null, and ``format`` and ``group`` must come
    from their choices.
    """
    choices = _CHOICES.get(key)
    if key == "group":
        if value is None or (
            isinstance(value, list) and all(name in choices for name in value)
        ):
            return value
        expected = f"null or a list of names from {list(choices)}"
    elif isinstance(default, bool):
        if isinstance(value, bool):
            return value
        expected = "true or false"
    elif choices is not None:
        if value in choices:
            return value
        expected = f"one of {list(choices)}"
    elif default is None:
        if value is None or isinstance(value, str):
            return value
        expected = "a path string"
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        expected = "a number"
    elif isinstance(default, float):
        if abs(value) <= sys.float_info.max:  # finite, and no overflow for big ints
            return float(value)
        expected = "finite"
    elif isinstance(value, float) and not value.is_integer():
        expected = "an integer"
    else:
        return int(value)
    raise CliError(f"{key} must be {expected}, not {value!r}")


def make_config(subcommand: str, provided: Mapping[str, Any]) -> dict[str, Any]:
    """Merge defaults, config-file values, and flag values, then check them.

    Args:
        subcommand: Subcommand name, a key of ``_SUBCOMMANDS``.
        provided: Values given on the command line (flag dest names), with
            an optional "config" entry naming a JSON file to merge beneath.

    Returns:
        Every option of the subcommand, keyed by its dest name.

    Raises:
        CliError: On unknown or mistyped values, or invariant violations.
    """
    options = _options(subcommand)
    file_values: dict[str, Any] = {}
    if provided.get("config") is not None:
        file_values = _load_json(provided["config"])
        if not isinstance(file_values, dict):
            raise CliError("config file must hold a JSON object")
        unknown = sorted(k for k in file_values if k not in options or k == "config")
        if unknown:
            raise CliError(f"unknown config keys: {unknown}")
    v = {key: default for key, (default, _) in options.items()}
    for source in (file_values, provided):
        for key, value in source.items():
            v[key] = _typed(key, value, options[key][0])
    if "tol" in v and not v["tol"] > 0.0:
        raise CliError("tolerance must be positive")
    if "hbar" in v and not v["hbar"] > 0.0:
        raise CliError("hbar must be positive")
    for key in ("b_steps", "t_steps"):
        if key in v and v[key] < 1:
            raise CliError(f"{key} must be at least 1")
    for key in ("alpha_steps", "j_steps"):
        if key in v and v[key] < 0:
            raise CliError(f"{key} must be nonnegative")
    if "t_start" in v and not v["t_end"] >= v["t_start"]:
        raise CliError("t_end must not precede t_start")
    return v


def _params_from(
    config: Mapping[str, Any], b=None, alphas=None, j=None
) -> TwoSpinParams:
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


def _emit(
    config: Mapping[str, Any], payload: Any, header: list[str] | None = None
) -> None:
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


def _regime_row(config: Mapping[str, Any], b, alphas, j, report) -> list:
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


def cmd_spectrum(config: Mapping[str, Any]) -> int:
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


def _grid(config: Mapping[str, Any], name: str) -> list[float]:
    """The ``{name}_start .. {name}_end`` grid of ``{name}_steps`` floats."""
    return [
        float(x) for x in np.linspace(
            config[f"{name}_start"], config[f"{name}_end"], config[f"{name}_steps"]
        )
    ]


def cmd_regime_sweep(config: Mapping[str, Any]) -> int:
    """Regime map over the requested grid, rows in grid order."""
    if config["alpha_steps"] >= 1:
        alpha_grid = [(a, -a) for a in _grid(config, "alpha")]
    else:
        alpha_grid = [(config["alpha1"], config["alpha2"])]
    j_grid = _grid(config, "j") if config["j_steps"] >= 1 else [config["j"]]
    rows = [
        _regime_row(
            config, b, alphas, j,
            closed_spectrum(_params_from(config, b=b, alphas=alphas, j=j)),
        )
        for b in _grid(config, "b") for alphas in alpha_grid for j in j_grid
    ]
    _emit(config, rows, SWEEP_COLUMNS)
    return 0


def cmd_evolve(config: Mapping[str, Any]) -> int:
    """Amplitude, probability, and deformed norm over the time grid."""
    params = _params_from(config)
    report = closed_spectrum(params)
    try:
        xi, zeta = (
            np.array([0.0, 1.0, 0.0, 0.0], dtype=complex) if config[key] is None
            else vector_from_json(_load_json(config[key]))
            for key in ("xi", "zeta")
        )
    except ValueError as exc:
        raise CliError(f"bad state vector file: {exc}") from exc
    if xi.shape != (4,) or zeta.shape != (4,):
        raise CliError("state vectors must have four components")
    times = np.linspace(config["t_start"], config["t_end"], config["t_steps"])
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
        if not config["allow_dissipative"]:
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


def cmd_quantize(config: Mapping[str, Any]) -> int:
    """Quantize an element file; optionally check hermiticity for real input."""
    if config["element"] is None:
        raise CliError("quantize-file requires --element")
    try:
        element = element_from_json(_load_json(config["element"]))
    except ValueError as exc:
        raise CliError(f"bad element file: {exc}") from exc
    hbar = config["hbar"]
    families = element.algebra.family_sizes
    if config["realization"] is not None:
        decl = _load_json(config["realization"])
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
    if config["check"]:
        star_real = star_involution(element).allclose(element)
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


def cmd_verify(config: Mapping[str, Any]) -> int:
    """Run invariant groups; print one line per group, JSON summary on request."""
    names = config["group"]
    try:
        results = run_groups(names, seed=config["seed"], perturb=config["perturb"])
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
        "seed": config["seed"],
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
    if config["out"] is not None:
        _emit(config, summary)
    return 0 if summary["passed"] else 2


_HANDLERS: dict[str, Callable[[Mapping[str, Any]], int]] = {
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
