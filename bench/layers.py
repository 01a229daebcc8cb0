"""Per-layer metrics computed from a traced run's spans.

Names follow ``<module>.<function>.<calls|self_s>``.  Self time is a
span's duration minus the part its child spans cover, summed over the
function's spans; ``<module>.self_s`` sums it over the module's functions.
Ratios whose base is zero on a workload (no ``dirac_bracket`` call, no
pseudo-hermitian evolve) read 0.
"""

from collections import Counter
from collections.abc import Mapping, Sequence

from tracer import Tracer
from workloads import Op

# The program's modules that hold layers, in dependency order.
MODULES = (
    "grassmann", "canon", "quantize", "pseudoherm", "twospin",
    "formats", "verify", "cli",
)

VERIFY_CHECKS = tuple(
    f"verify.check_{group}.s"
    for group in (
        "grassmann", "canon", "clifford", "correspondence",
        "quantize", "pseudoherm", "twospin",
    )
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("grassmann.dirac_bracket.calls", "count", "lower"),
    ("grassmann.graded_poisson.calls", "count", "lower"),
    ("grassmann.graded_poisson.self_s", "s", "lower"),
    ("grassmann.multiply.calls", "count", "lower"),
    ("grassmann.multiply.self_s", "s", "lower"),
    ("grassmann.derivative.calls", "count", "lower"),
    ("grassmann.derivative.self_s", "s", "lower"),
    ("grassmann.poisson_per_dirac", "ratio", "lower"),
    ("grassmann.self_s", "s", "lower"),
    ("quantize.quantize.calls", "count", "lower"),
    ("quantize.quantize.self_s", "s", "lower"),
    ("quantize.correspondence_check.self_s", "s", "lower"),
    ("quantize.tensor_realization.calls", "count", "lower"),
    ("quantize.self_s", "s", "lower"),
    ("canon.random_orthogonal.calls", "count", "lower"),
    ("canon.random_orthogonal.self_s", "s", "lower"),
    ("canon.transform_coefficients.self_s", "s", "lower"),
    ("canon.self_s", "s", "lower"),
    ("pseudoherm.diagnose.calls", "count", "lower"),
    ("pseudoherm.diagnose.self_s", "s", "lower"),
    ("pseudoherm.eta_inner.calls", "count", "lower"),
    ("pseudoherm.eta_inner.self_s", "s", "lower"),
    ("pseudoherm.metric_from_isomorphism.calls", "count", "lower"),
    ("pseudoherm.is_rho_hermitian.calls", "count", "lower"),
    ("pseudoherm.self_s", "s", "lower"),
    ("twospin.build_total.calls", "count", "lower"),
    ("twospin.evolve.calls", "count", "lower"),
    ("twospin.evolve.self_s", "s", "lower"),
    ("twospin.paper_isomorphism.calls", "count", "lower"),
    ("twospin.paper_isomorphism.self_s", "s", "lower"),
    ("twospin.hermitian_counterpart.calls", "count", "lower"),
    ("twospin.transition_probability.self_s", "s", "lower"),
    ("twospin.eig_per_step", "ratio", "lower"),
    ("twospin.isomorphisms_per_param_set", "ratio", "lower"),
    ("twospin.closed_spectrum.calls", "count", "lower"),
    ("twospin.closed_spectrum.self_s", "s", "lower"),
    ("twospin.gilbert_fields.calls", "count", "lower"),
    ("twospin.self_s", "s", "lower"),
    ("formats.write_csv.calls", "count", "lower"),
    ("formats.write_csv.self_s", "s", "lower"),
    ("formats.bytes_out", "bytes", "lower"),
    ("formats.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.cmd_regime_sweep.self_s", "s", "lower"),
    ("cli.cmd_evolve.self_s", "s", "lower"),
    ("cli.cmd_spectrum.self_s", "s", "lower"),
    ("cli.cmd_verify.self_s", "s", "lower"),
    *((name, "s", "lower") for name in VERIFY_CHECKS),
    ("verify.self_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.import_scipy_s", "s", "lower"),
    *((f"{module}.raised", "count", "lower") for module in MODULES),
    ("trace.overhead_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def per_layer_metrics(
    tracer: Tracer,
    ops: Sequence[Op],
    output_bytes: Sequence[int],
    extra: Mapping[str, float],
) -> dict[str, float]:
    """Every per-layer metric of one traced pass over ``ops``.

    Args:
        tracer: The tracer after the pass; span op ids index ``ops``.
        ops: The ops replayed under tracing.
        output_bytes: Bytes each op printed, by op index.
        extra: Metrics measured outside the spans (``setup.*`` and
            ``trace.overhead_frac``).
    """
    own = tracer.self_times()
    names = [tracer.names[f] for f in tracer.func]
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    total_ns: Counter = Counter()
    raised: Counter = Counter()
    op_calls: Counter = Counter()
    nested_poisson = 0
    for i, name in enumerate(names):
        calls[name] += 1
        self_ns[name] += own[i]
        total_ns[name] += tracer.end[i] - tracer.start[i]
        raised[name.split(".")[0]] += tracer.raised[i]
        op_calls[tracer.op[i], name] += 1
        parent = tracer.parent[i]
        if (
            name == "grassmann.graded_poisson"
            and parent >= 0
            and names[parent] == "grassmann.dirac_bracket"
        ):
            nested_poisson += 1

    module_self: Counter = Counter()
    for name, ns in self_ns.items():
        module_self[name.split(".")[0]] += ns

    pseudo = [k for k, op in enumerate(ops) if op.expect.get("branch") in ("paper", "undamped")]
    paper = [k for k, op in enumerate(ops) if op.expect.get("branch") == "paper"]
    special = {
        "grassmann.derivative.calls": calls["grassmann.left_derivative"]
        + calls["grassmann.right_derivative"],
        "grassmann.derivative.self_s": (
            self_ns["grassmann.left_derivative"] + self_ns["grassmann.right_derivative"]
        ) / 1e9,
        "grassmann.poisson_per_dirac": _ratio(
            nested_poisson, calls["grassmann.dirac_bracket"]
        ),
        "twospin.eig_per_step": _ratio(
            sum(op_calls[k, "twospin.evolve"] for k in pseudo),
            sum(ops[k].expect["steps"] for k in pseudo),
        ),
        "twospin.isomorphisms_per_param_set": _ratio(
            sum(op_calls[k, "twospin.paper_isomorphism"] for k in paper), len(paper)
        ),
        "formats.bytes_out": sum(
            size for k, size in enumerate(output_bytes) if op_calls[k, "formats.write_csv"]
        ),
        **extra,
    }

    metrics: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        head, _, tail = metric.rpartition(".")
        if metric in special:
            value = special[metric]
        elif tail == "raised":
            value = raised[head]
        elif tail == "self_s" and head in MODULES:
            value = module_self[head] / 1e9
        elif tail == "self_s":
            value = self_ns[head] / 1e9
        elif tail == "calls":
            value = calls[head]
        elif tail == "s":
            value = total_ns[head] / 1e9
        else:
            raise KeyError(f"no rule computes {metric}")
        metrics[metric] = value
    return metrics
