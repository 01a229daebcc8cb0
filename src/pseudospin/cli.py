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
byte-identical CSV/JSON.  Exit codes: 0 success; 1 validation, input, output
or usage error, or a run-time gate that raises RuntimeError (in ``evolve``
the evaluation routes disagree or the frame fails its intertwining or metric
check; in a ``verify`` group a library check trips before the group reports);
2 verification or agreement failure.  Every exit-1 error but a usage error,
a library ValueError or RuntimeError included, is one ``pseudospin: error:``
line.

Column layout follows the model layer: sweep rows are ``B, alpha1, alpha2,
J, ReE1p, ImE1p, ReE1m, ImE1m, ReE2p, ImE2p, ReE2m, ImE2m,
pseudo_hermitian, threshold_margin``; ``spectrum`` appends the numerical
eigenvalues ``ReN1p .. ImN2m``, paired by total-S_z sector, and
``max_discrepancy``; evolution rows are ``t, re_amp, im_amp, probability,
rho_norm``.  ``--paper-units`` rescales eigenvalue-bearing columns by 4;
regime columns are scale-invariant and stay untouched.  Missing values are
written as the explicit token ``"nan"``, never as empty fields.
"""

import argparse
import dataclasses
import itertools
import json
import math
import re
import sys
from collections.abc import Callable, Mapping
from contextlib import nullcontext
from typing import Any

import numpy as np

from .formats import (
    element_from_json,
    json_fields,
    matrix_to_json,
    vector_from_json,
    write_csv,
    write_json,
)
from .grassmann import constraint_reduce, star_involution
from .quantize import tensor_realization, quantize
from .twospin import (
    NoMetricError,
    TwoSpinParams,
    _agreement_bounds,
    _euclidean_norms,
    build_total,
    closed_spectrum,
    evolve,
    matched_eigenvalues,
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
        False,
        "run where no metric exists (outside the regime or at the exceptional"
        " point) with canonical norms",
    ),
    "element": (None, "Grassmann element JSON path"),
    "check": (False, "check Q(f)^dagger = Q(f*) exactly for star-real input"),
    "group": (None, "restrict to this group (repeatable)"),
    "out": (None, "output path (default stdout)"),
    "config": (None, "JSON config file; flags override it"),
}

# Each subcommand's help and the options its handler reads; every
# subcommand also takes ``out`` and ``config``.
_SUBCOMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "spectrum": (
        "closed-form vs numerical eigenvalues for one parameter set",
        ("j", "b", "alpha1", "alpha2", "paper_units", "format"),
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
        ("hbar", "element", "check"),
    ),
    "verify": ("run the seeded invariant suites", ("seed", "group")),
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

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        # argparse's own matcher reads "-5e-1" or "-inf" as an option, not a number.
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )

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


# Built once per process: each parse_args call starts from a fresh
# namespace, so calls share no state through the parser.
_PARSER = _build_parser()


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
    from their choices; ``group`` lists at least one.
    """
    choices = _CHOICES.get(key)
    if key == "group":
        if value is None or (
            isinstance(value, list)
            and value
            and all(name in choices for name in value)
        ):
            return value
        expected = f"null or a non-empty list of names from {list(choices)}"
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
    if "hbar" in v and not v["hbar"] > 0.0:
        raise CliError("hbar must be positive")
    for key in ("b_steps", "t_steps"):
        if key in v and v[key] < 1:
            raise CliError(f"{key} must be at least 1")
    for key in ("alpha_steps", "j_steps", "seed"):
        if key in v and v[key] < 0:
            raise CliError(f"{key} must be nonnegative")
    if "t_start" in v and not v["t_end"] >= v["t_start"]:
        raise CliError("t_end must not precede t_start")
    return v


def _emit(
    config: Mapping[str, Any], payload: Any, header: list[str] | None = None
) -> None:
    """Write columns under ``header`` per ``--format``, else ``payload`` as JSON."""
    out = config["out"]
    try:
        with (
            nullcontext(sys.stdout) if out is None
            else open(out, "w", encoding="utf-8", newline="")
        ) as handle:
            if header is None:
                handle.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
            else:
                write = write_json if config["format"] == "json" else write_csv
                write(handle, header, payload)
    except OSError as exc:
        name = "standard output" if out is None else out
        raise CliError(f"cannot write {name}: {exc}") from exc


def _report_cells(config: Mapping[str, Any], report) -> list:
    """A report's cells under ``SWEEP_COLUMNS[4:]``, ReE1p to threshold_margin."""
    (e1p, e1m, e2p, e2m), flag, margin = report
    cells = [
        e1p.real, e1p.imag, e1m.real, e1m.imag, e2p.real, e2p.imag, e2m.real, e2m.imag,
        flag, margin,
    ]
    if config["paper_units"]:
        cells[:8] = [4.0 * value for value in cells[:8]]
    return cells


def cmd_spectrum(config: Mapping[str, Any]) -> int:
    """Closed-form spectrum next to the eigensolver, with max discrepancy.

    Exits 2 unless each eigenvalue's gap is within its bound
    C eps ||H||_F kappa from ``twospin._agreement_bounds``; no option sets it.
    """
    row = [config[key] for key in ("b", "alpha1", "alpha2", "j")]
    params = TwoSpinParams.from_gilbert(*row)
    report = closed_spectrum(params)
    hamiltonian = build_total(params)
    matched = matched_eigenvalues(hamiltonian, report.eigenvalues)
    gaps = np.abs(np.array(report.eigenvalues) - matched)
    discrepancy = float(np.max(gaps))

    row += _report_cells(config, report)
    tail = [*matched.view(float).tolist(), discrepancy]
    if config["paper_units"]:
        tail = [4.0 * value for value in tail]
    _emit(config, [[value] for value in row + tail], SPECTRUM_COLUMNS)
    # Written so that a nan gap fails too.
    agree = np.all(gaps <= _agreement_bounds(hamiltonian, report.eigenvalues))
    return 0 if agree else 2


def _grid(config: Mapping[str, Any], name: str) -> list[float]:
    """The ``{name}_start .. {name}_end`` grid of ``{name}_steps`` floats."""
    steps = config[f"{name}_steps"]
    if not math.isfinite(config[f"{name}_end"] - config[f"{name}_start"]):
        raise CliError(f"{name}_end - {name}_start overflows the float range")
    try:
        grid = np.linspace(config[f"{name}_start"], config[f"{name}_end"], steps)
    except (MemoryError, ValueError) as exc:  # numpy refuses the array's size
        raise CliError(
            f"{name}_steps={steps} is more points than numpy can allocate"
        ) from exc
    return grid.tolist()


def cmd_regime_sweep(config: Mapping[str, Any]) -> int:
    """Regime map over the requested grid, rows in grid order, built by column."""
    if config["alpha_steps"] >= 1:
        alpha_grid = [(a, -a) for a in _grid(config, "alpha")]
    else:
        alpha_grid = [(config["alpha1"], config["alpha2"])]
    j_grid = _grid(config, "j") if config["j_steps"] >= 1 else [config["j"]]
    b_grid = _grid(config, "b")
    cells = []  # each point's cells under SWEEP_COLUMNS[4:], point after point
    for b, (alpha1, alpha2), j in itertools.product(b_grid, alpha_grid, j_grid):
        params = TwoSpinParams.from_gilbert(b, alpha1, alpha2, j)
        cells += _report_cells(config, closed_spectrum(params))
    # Each B is repeated over the alpha x J points under it, as cells[k::10] reads.
    per_b = len(alpha_grid) * len(j_grid)
    b_column = [0.0] * (len(b_grid) * per_b)
    for k in range(per_b):
        b_column[k::per_b] = b_grid
    columns = [
        b_column,
        *([pair[k] for pair in alpha_grid for _ in j_grid] * len(b_grid) for k in (0, 1)),
        j_grid * (len(b_grid) * len(alpha_grid)),
        *(cells[k::10] for k in range(10)),  # the ten of SWEEP_COLUMNS[4:]
    ]
    del cells  # not held through the write
    _emit(config, columns, SWEEP_COLUMNS)
    return 0


def cmd_evolve(config: Mapping[str, Any]) -> int:
    """Amplitude, probability, and deformed norm; canonical where no metric exists."""
    params = TwoSpinParams.from_gilbert(
        config["b"], config["alpha1"], config["alpha2"], config["j"]
    )
    try:
        xi, zeta = (
            np.array([0.0, 1.0, 0.0, 0.0], dtype=complex) if config[key] is None
            else vector_from_json(_load_json(config[key]))
            for key in ("xi", "zeta")
        )
    except ValueError as exc:
        raise CliError(f"bad state vector file: {exc}") from exc
    times = np.array(_grid(config, "t"))
    try:
        series = transition_series(xi, zeta, params, times)
        amplitudes, probabilities, norms = (
            series.amplitudes, series.probabilities, series.rho_norms
        )
    except NoMetricError as exc:
        if not config["allow_dissipative"]:
            raise CliError(
                f"{exc}; pass --allow-dissipative for canonical-norm output"
            ) from exc
        evolved = evolve(build_total(params), times, zeta)
        probabilities = np.full(times.size, np.nan)
        # A value past the float range reads inf, inf / inf entries nan.
        with np.errstate(over="ignore", invalid="ignore"):
            amplitudes = np.matmul(xi.conj(), evolved[:, :, None])[:, 0]
            norms = _euclidean_norms(evolved)
    finite = np.isfinite(amplitudes) & np.isfinite(norms)
    if not finite.all():
        raise CliError(f"amplitude or norm overflows at t={times[~finite][0]:.6g}")
    columns = [times, amplitudes.real, amplitudes.imag, probabilities, norms]
    _emit(config, [column.tolist() for column in columns], EVOLVE_COLUMNS)
    return 0


def cmd_quantize(config: Mapping[str, Any]) -> int:
    """Quantize an element file; --check tests Q(f)^dagger = Q(f*) on star-real input."""
    if config["element"] is None:
        raise CliError("quantize-file requires --element")
    try:
        element = element_from_json(_load_json(config["element"]))
    except ValueError as exc:
        raise CliError(f"bad element file: {exc}") from exc
    # The map sends the constraint-reduced element to the matrix, so that
    # element is the one whose star-reality --check judges.
    element = constraint_reduce(element)
    hbar = config["hbar"]
    try:
        realization = tensor_realization(element.algebra, hbar=hbar)
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = quantize(element, realization)
    except MemoryError as exc:  # numpy refuses the realization's size
        families = list(element.algebra.family_sizes)
        raise CliError(f"families {families} need more than numpy can allocate") from exc
    if not np.isfinite(matrix).all():
        raise CliError("quantized matrix overflows the floating-point range")

    status = 0
    if config["check"]:
        star = star_involution(element)
        if not star.allclose(element):
            print("note: input is not star-real; no hermiticity claim", file=sys.stderr)
        else:
            # Q(f*) takes the conjugate of each operation Q(f) takes, on the
            # same bits, so the map's identity holds exactly, at any scale.
            defect = float(np.max(np.abs(matrix.conj().T - quantize(star, realization))))
            if defect != 0.0:
                print(f"FAIL hermiticity: star-real input, defect {defect:.3e}",
                      file=sys.stderr)
                status = 2

    payload = {
        "dim": matrix.shape[0],
        "hbar": hbar,
        "matrix": matrix_to_json(matrix),
    }
    _emit(config, payload)
    return status


def cmd_verify(config: Mapping[str, Any]) -> int:
    """Run invariant groups; print one line per group, JSON summary on request."""
    results = run_groups(config["group"], seed=config["seed"])
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
    passed = all(r.passed for r in results)
    if config["out"] is not None:
        groups = [dataclasses.asdict(r, dict_factory=json_fields) for r in results]
        _emit(config, {"seed": config["seed"], "passed": passed, "groups": groups})
    return 0 if passed else 2


_HANDLERS: dict[str, Callable[[Mapping[str, Any]], int]] = {
    "spectrum": cmd_spectrum,
    "regime-sweep": cmd_regime_sweep,
    "evolve": cmd_evolve,
    "quantize-file": cmd_quantize,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _PARSER.parse_args(argv)
    provided = {k: v for k, v in vars(args).items() if k != "subcommand"}
    try:
        config = make_config(args.subcommand, provided)
        return _HANDLERS[args.subcommand](config)
    # The library raises ValueError on bad input and RuntimeError at a tripped
    # gate; any other exception is a bug and keeps its traceback.
    except (CliError, ValueError, RuntimeError) as exc:
        print(f"pseudospin: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
