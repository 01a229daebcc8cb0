"""Seeded inputs for the benchmark workloads.

Every input is a CLI argument vector generated from the workload seed with
the standard library's ``random.Random``; the program sees only these
arguments.  Each workload repeats a fixed *cycle* of op shapes (the same
step counts, grid sizes, branch mix and output formats in every cycle) and
draws the continuous parameters and the op order from the seed.  Two seeds
therefore load the program equally while feeding it different numbers, and
a run that stops on a cycle boundary has the same mix of op sizes whatever
its seed.
"""

import random
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Any

WORKLOADS = ("dynamics", "sweep", "verify")

DEFAULT_SEED = 0
HELDOUT_SEED = 1

# Time-step counts of one dynamics cycle, from the CLI default of 101 up to
# 1001, with the parameter branch each one runs on.  Seven of the nine sit
# on the paper's dissipative branch (alpha2 = -alpha1); one is undamped
# (alpha1 = alpha2 = 0, the identity-metric route) and one lies beyond the
# threshold and runs with --allow-dissipative.  Those two cost far less per
# step, so they take the two smallest counts.  The dissipative counts differ
# by a third from one to the next, and 751 steps appear twice.  With the 6
# or 7 cycles of a 30 s run, op_p50 then falls in the middle of the
# 318-step ops and op_tail among the middle 751-step ops, each a group of at
# least a dozen ops separated from its neighbours, not on an order statistic
# of a few ops at the edge of a group.
DYNAMICS_SHAPES = (
    (101, "undamped"),
    (135, "outside"),
    (179, "paper"),
    (239, "paper"),
    (318, "paper"),
    (424, "paper"),
    (751, "paper"),
    (751, "paper"),
    (1001, "paper"),
)

# Grid shapes of one sweep cycle as (b_steps, alpha_steps, j_steps, format,
# paper_units), log-spread from 10 to 10^4 points.  Shapes with
# alpha_steps = 0 vary B only and straddle the threshold B_max; the others
# span B x alpha x J.
SWEEP_SHAPES = (
    (10, 0, 0, "csv", False),
    (3, 3, 3, "json", False),
    (56, 0, 0, "csv", True),
    (8, 6, 3, "csv", False),
    (316, 0, 0, "csv", False),
    (10, 9, 8, "csv", False),
    (1778, 0, 0, "csv", False),
    (16, 16, 16, "csv", False),
    (10000, 0, 0, "csv", False),
)

VERIFY_GROUPS = (
    "grassmann", "canon", "clifford", "correspondence",
    "quantize", "pseudoherm", "twospin",
)


@dataclass(frozen=True)
class Op:
    """One closed-loop request: CLI calls made back to back.

    Attributes:
        label: The op's shape within its cycle, e.g. ``"paper-564"``.
        calls: Argument vectors passed to ``pseudospin.cli.main`` in order.
        items: Work units the op completes (time steps, grid points, or 1).
        expect: What the output check needs to know about the inputs.
    """

    label: str
    calls: tuple[tuple[str, ...], ...]
    items: int
    expect: Mapping[str, Any]


def _num(value: float) -> str:
    return repr(float(value))


def threshold(j: float, alpha: float) -> float:
    """B_max = J (alpha^2 + 1) / |alpha| for damping pair (alpha, -alpha)."""
    return j * (alpha * alpha + 1.0) / abs(alpha)


def _damped(rng: random.Random, lo: float, hi: float) -> tuple[float, float, float]:
    j = rng.uniform(0.5, 2.0)
    alpha = rng.uniform(0.1, 1.5) * rng.choice((1.0, -1.0))
    return j, alpha, rng.uniform(lo, hi) * threshold(j, alpha)


def _dynamics_op(rng: random.Random, steps: int, branch: str) -> Op:
    if branch == "paper":
        j, alpha, b = _damped(rng, 0.05, 0.999)
    elif branch == "outside":
        j, alpha, b = _damped(rng, 1.05, 2.0)
    else:
        j, alpha, b = rng.uniform(0.5, 2.0), 0.0, rng.uniform(0.1, 3.0)
    params = (
        "--J", _num(j), "--B", _num(b),
        "--alpha1", _num(alpha), "--alpha2", _num(-alpha),
    )
    evolve = (
        "evolve", *params,
        "--t-end", _num(rng.uniform(5.0, 20.0)), "--t-steps", str(steps),
    )
    if branch == "outside":
        evolve += ("--allow-dissipative",)
    return Op(
        label=f"{branch}-{steps}",
        calls=(("spectrum", *params), evolve),
        items=steps,
        expect={"branch": branch, "steps": steps},
    )


def _sweep_op(
    rng: random.Random, b_steps: int, alpha_steps: int, j_steps: int,
    fmt: str, paper_units: bool,
) -> Op:
    argv = ["regime-sweep", "--b-steps", str(b_steps)]
    if alpha_steps == 0:
        j, alpha, _ = _damped(rng, 1.0, 1.0)
        b_max = threshold(j, alpha)
        argv += [
            "--J", _num(j), "--alpha1", _num(alpha), "--alpha2", _num(-alpha),
            "--b-start", _num(rng.uniform(0.3, 0.8) * b_max),
            "--b-end", _num(rng.uniform(1.2, 2.0) * b_max),
        ]
    else:
        argv += [
            "--b-start", _num(rng.uniform(0.1, 1.0)),
            "--b-end", _num(rng.uniform(2.0, 5.0)),
            "--alpha-start", _num(rng.uniform(0.1, 0.5)),
            "--alpha-end", _num(rng.uniform(1.0, 2.0)),
            "--alpha-steps", str(alpha_steps),
            "--j-start", _num(rng.uniform(0.3, 0.8)),
            "--j-end", _num(rng.uniform(1.2, 2.5)),
            "--j-steps", str(j_steps),
        ]
    if fmt != "csv":
        argv += ["--format", fmt]
    if paper_units:
        argv.append("--paper-units")
    points = b_steps * max(alpha_steps, 1) * max(j_steps, 1)
    label = f"{'grid' if alpha_steps else 'b'}-{points}-{fmt}"
    return Op(
        label=label + ("-paper" if paper_units else ""),
        calls=(tuple(argv),),
        items=points,
        expect={"points": points, "format": fmt},
    )


def _verify_op(seed: int, group: str) -> Op:
    return Op(
        label=group,
        calls=(("verify", "--seed", str(seed), "--group", group),),
        items=1,
        expect={"group": group},
    )


def _dynamics_cycle(rng: random.Random) -> list[Op]:
    return [_dynamics_op(rng, steps, branch) for steps, branch in DYNAMICS_SHAPES]


def _sweep_cycle(rng: random.Random) -> list[Op]:
    return [_sweep_op(rng, *shape) for shape in SWEEP_SHAPES]


def _verify_cycle(rng: random.Random) -> list[Op]:
    seed = rng.randrange(100_000)
    return [_verify_op(seed, group) for group in VERIFY_GROUPS]


_CYCLES = {
    "dynamics": _dynamics_cycle,
    "sweep": _sweep_cycle,
    "verify": _verify_cycle,
}


def cycles(workload: str, seed: int) -> Iterator[list[Op]]:
    """Yield the workload's cycles for ``seed``, each in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        ops = _CYCLES[workload](rng)
        rng.shuffle(ops)
        yield ops


def warmup_op(workload: str, seed: int) -> Op:
    """A small op of the workload's kind, run untimed before measuring."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    if workload == "dynamics":
        return _dynamics_op(rng, 101, "paper")
    if workload == "sweep":
        return _sweep_op(rng, 11, 0, 0, "csv", False)
    return _verify_op(rng.randrange(100_000), "clifford")
