"""Benchmark of the pseudospin CLI, driven from outside as one closed-loop client.

Usage (from the repository root)::

    python3 bench/run.py --workload dynamics|sweep|verify --seed N \\
        --seconds S --trace 0|1

One client calls ``pseudospin.cli.main(argv)`` in-process with no think
time, on inputs generated from ``--seed`` (see ``workloads.py``), and checks
every output (see ``checks.py``).  It times a fixed number of whole cycles
of ops, as many as take about ``--seconds`` (see ``cycle_count``).

``--trace 0`` reports the end-to-end metrics.  A fixed reference task,
which uses no code of the program, runs between consecutive ops, and op
times are reported in units of the reference task's time measured around
each op (``ref``, see ``reference_s``).  ``--trace 1`` runs each op of the
first cycle twice, untraced and then traced, and reports the per-layer
metrics of ``layers.py``.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
a fuller record (environment, digests, per-op latencies) goes to
``.bench_out/`` and a traced run's spans to ``.bench_out/*.spans.csv.gz``.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# One BLAS thread, set before numpy loads.  With its default of one thread
# per core, OpenBLAS keeps a second thread spinning through the program's
# small matrix calls: on the 2-vCPU VM the benchmark was defined on, verify
# groups used twice their wall time in CPU time for no gain in speed, and
# their latency then followed the load on the other vCPU.  The setup probes
# inherit this environment.
BLAS_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREAD_ENV)

import numpy  # noqa: E402

from checks import check
from layers import MODULES, UNITS, per_layer_metrics
from tracer import Tracer
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS, Op, cycles, warmup_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
# Seconds one cycle of each workload takes on the 2-vCPU x86_64 VM the
# benchmark was defined on, when that VM runs at its usual speed.  A run
# times round(--seconds / NOMINAL_CYCLE_S) whole cycles, so it lasts about
# --seconds there, and every run of a workload times the same number of ops
# of each shape, whatever the machine's or the program's speed.  Then
# op_p50 and op_tail always fall on the same rank: with 30 s, the middle of
# the 318-step ops and the 5th largest of the twelve 751-step ops
# (dynamics, 6 cycles), the 11th and the 4th smallest of the fourteen
# canon/pseudoherm and the fourteen grassmann/correspondence group runs
# (verify, 7 cycles), the middle of the 316-point and of the 10^4-point
# grids (sweep, 19 cycles).  Were the count set by a clock, a slow spell or
# a faster program would move those ranks between groups of ops.
NOMINAL_CYCLE_S = {"dynamics": 5.0, "sweep": 1.6, "verify": 4.3}
# The fewest cycles a run times: enough for eleven ops, so op_tail exists.
MIN_CYCLES = 2


def cycle_count(workload: str, seconds: float) -> int:
    """Whole cycles a run of about ``seconds`` times."""
    return max(MIN_CYCLES, round(seconds / NOMINAL_CYCLE_S[workload]))


END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_ref": "items/ref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def op_tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest rank with at least ten ops beyond it.

    Returns:
        The latency and its percentile, the share of ops at or below it.

    Raises:
        ValueError: With fewer than eleven ops no rank qualifies.
    """
    if len(latencies) < 11:
        raise ValueError("the tail needs at least eleven ops")
    ordered = sorted(latencies)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def load_cli():
    """Import ``pseudospin.cli`` from this checkout's ``src`` only."""
    if not (SRC / "pseudospin" / "cli.py").is_file():
        raise ImportError(f"no pseudospin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pseudospin.cli

    if Path(pseudospin.cli.__file__).resolve().parent != SRC / "pseudospin":
        raise ImportError(f"imported pseudospin from {pseudospin.cli.__file__}")
    return pseudospin.cli


def run_op(cli, op: Op) -> tuple[float, list[str], str | None]:
    """Run one op; return its latency, printed outputs and any error."""
    outputs: list[str] = []
    error = None
    start = time.perf_counter()
    for argv in op.calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the client records the failure and goes on
            code = repr(exc)
        outputs.append(out.getvalue())
        if code != 0:
            error = f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}"
            break
    return time.perf_counter() - start, outputs, error


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Time SETUP_SAMPLES fresh interpreters from spawn to a finished warm-up op."""
    calls = json.dumps([list(argv) for argv in warmup_op(workload, seed).calls])
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), calls],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                _, err = proc.communicate(timeout=120)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
        samples.append({"setup_s": elapsed, **json.loads(line)})
    return samples


class Digest:
    """SHA-256 over the bytes every op printed, in op order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.ops = 0

    def add(self, outputs: list[str]) -> None:
        for text in outputs:
            data = text.encode()
            self._hash.update(len(data).to_bytes(8, "little") + data)
        self.ops += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def environment(cli, workload: str, seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "load": "one closed-loop client, no think time, in-process cli.main",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_thread_env": {name: os.environ.get(name) for name in thread_vars},
        # Program behaviour, recorded as found: regime-sweep rows are
        # computed on a thread pool of this many workers.
        "sweep_worker_cap": getattr(cli, "SWEEP_WORKER_CAP", None),
    }


_REF_MATRIX = numpy.array([
    [1.0, 0.5j, 0.0, 0.3],
    [0.2, 1.0, 0.7j, 0.0],
    [0.0, 0.4, 2.0, 0.1j],
    [0.6, 0.0, 0.2, 1.5],
])


def reference_s() -> float:
    """Time one run of a fixed reference task that uses no code of the program.

    The task, 200 eigendecompositions and products of a 4 x 4 complex
    matrix, is made of the same small numpy calls and Python overhead as the
    program's ops.  On a shared machine the speed of a core swings by up to
    ~1.7x over seconds to minutes, as other tenants load the host; run next
    to an op, the task slows by about as much as the op.  An op's time
    divided by the mean of the reference times just before and just after
    it (its time in ``ref``) is therefore steady from run to run where the
    op's raw latency is not.  Both are recorded.
    """
    start = time.perf_counter()
    for _ in range(200):
        numpy.linalg.eig(_REF_MATRIX)
        _REF_MATRIX @ _REF_MATRIX
    return time.perf_counter() - start


def run_checked(cli, workload: str, op: Op) -> tuple[float, list[str], str | None]:
    """Run one op and check its outputs; return latency, outputs, failure."""
    latency, outputs, error = run_op(cli, op)
    return latency, outputs, error or check(workload, op, outputs)


def untraced_run(cli, workload: str, seed: int, seconds: float, setup: list[dict]) -> tuple[dict, dict]:
    """Time ``cycle_count(workload, seconds)`` whole cycles of ops.

    The reference task runs before the first op and after every op, so each
    op is timed between two reference readings.
    """
    records: list[dict] = []
    first, full = Digest(), Digest()
    stream = cycles(workload, seed)
    reference_s()  # untimed: the first call loads numpy's LAPACK routines
    before = reference_s()
    for done in range(cycle_count(workload, seconds)):
        for op in next(stream):
            latency, outputs, failure = run_checked(cli, workload, op)
            after = reference_s()
            records.append({
                "cycle": done, "label": op.label, "items": op.items,
                "latency_s": latency, "reference_s": 0.5 * (before + after),
                "failure": failure,
            })
            before = after
            full.add(outputs)
            if done == 0:
                first.add(outputs)

    latencies = [r["latency_s"] for r in records]
    relative = [r["latency_s"] / r["reference_s"] for r in records]
    passed_items = sum(r["items"] for r in records if r["failure"] is None)
    failures = [f"{r['label']}: {r['failure']}" for r in records if r["failure"]]
    tail, percentile = op_tail(relative)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "items_per_ref": passed_items / sum(relative),
        "op_p50_ref": statistics.median(relative),
        "op_tail_ref": tail,
        "ok_frac": 1.0 - len(failures) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "attempted": len(records),
        "items": sum(r["items"] for r in records),
        "cycles": records[-1]["cycle"] + 1,
        "tail_percentile": percentile,
        # The same statistics on raw latencies, which swing with the
        # machine's speed; reported here, not as metrics.
        "raw": {
            "items_per_s": passed_items / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * op_tail(latencies)[0],
            "reference_s_median": statistics.median(r["reference_s"] for r in records),
        },
        "digest_first_cycle": first.hexdigest(),
        "digest_all": full.hexdigest(),
        "digest_all_ops": full.ops,
        "failures": failures,
        "ops_detail": records,
    }
    return metrics, notes


def traced_run(cli, workload: str, seed: int, setup: list[dict]) -> tuple[dict, dict]:
    """Run each op of the first cycle untraced, then traced; report per-layer metrics.

    Pairing the two runs of an op keeps them close in time, so a change in
    the machine's speed during the run hardly moves the overhead estimate.
    """
    ops = next(cycles(workload, seed))
    package = sys.modules["pseudospin"]
    modules = [sys.modules[f"pseudospin.{name}"] for name in MODULES]
    tracer = Tracer()
    plain_s = traced_s = 0.0
    digest, sizes, failures = Digest(), [], []
    for k, op in enumerate(ops):
        latency, outputs, failure = run_checked(cli, workload, op)
        plain_s += latency
        digest.add(outputs)
        tracer.install(modules, [package, *modules])
        try:
            tracer.begin_op(k)
            latency, traced_outputs, traced_failure = run_checked(cli, workload, op)
        finally:
            tracer.uninstall()
        traced_s += latency
        sizes.append(sum(len(text.encode()) for text in traced_outputs))
        if traced_outputs != outputs:
            traced_failure = traced_failure or "traced outputs differ from untraced outputs"
        failures += [f"{op.label}: {f}" for f in (failure, traced_failure) if f]

    extra = {
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.import_scipy_s": statistics.median(s["import_scipy_s"] for s in setup),
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    }
    metrics = per_layer_metrics(tracer, ops, sizes, extra)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}.spans.csv.gz"
    tracer.write(spans)
    notes = {
        "attempted": 2 * len(ops),
        "items": sum(op.items for op in ops),
        "spans": len(tracer.func),
        "spans_file": spans.name,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "digest_first_cycle": digest.hexdigest(),
        "failures": failures,
    }
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The client and the threads and processes it starts share one CPU.
    # regime-sweep runs its rows on a pool of 4 threads (cli.SWEEP_WORKER_CAP)
    # that take turns on the GIL; spread over the 2 vCPUs of the VM the
    # benchmark was defined on, each hand-over waited on the other vCPU, and
    # sweep ran ~35% slower with 2 to 20 times the run-to-run spread of a
    # run held on one CPU.  The ops are otherwise single-threaded.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})

    try:
        cli = load_cli()
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setup = measure_setup(args.workload, args.seed)
    warm_s, _, warm_failure = run_checked(cli, args.workload, warmup_op(args.workload, args.seed))

    if args.trace:
        values, notes = traced_run(cli, args.workload, args.seed, setup)
        units = UNITS
    else:
        values, notes = untraced_run(cli, args.workload, args.seed, args.seconds, setup)
        units = END_TO_END_UNITS
    record = {
        "environment": environment(cli, args.workload, args.seed, len(allowed)),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples": setup,
        "warmup_s": warm_s,
        "warmup_failure": warm_failure,
        **notes,
        "metrics": values,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    failed = len(notes["failures"])
    result = {
        "correct": failed == 0 and warm_failure is None,
        "attempted": notes["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
