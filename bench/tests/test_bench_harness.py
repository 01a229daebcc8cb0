"""Tests for the benchmark's own code: inputs, statistics, spans and checks.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import types
from pathlib import Path

import pytest

import checks
import layers
import run
import workloads
from tracer import Tracer


def _first_cycles(workload, seed, count=2):
    stream = workloads.cycles(workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert _first_cycles(workload, 5) == _first_cycles(workload, 5)
    assert _first_cycles(workload, 5) != _first_cycles(workload, 6)
    assert workloads.warmup_op(workload, 5) == workloads.warmup_op(workload, 5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_has_the_same_op_shapes(workload):
    def shapes(ops):
        return sorted((op.label, op.items) for op in ops)

    reference = shapes(_first_cycles(workload, 0, 1)[0])
    for seed in (1, 2, 3):
        for ops in _first_cycles(workload, seed, 3):
            assert shapes(ops) == reference


def test_op_tail_picks_the_rank_with_ten_ops_beyond():
    latencies = [float(v) for v in range(100, 0, -1)]
    value, percentile = run.op_tail(latencies)
    assert value == 90.0
    assert sum(v > value for v in latencies) == 10
    assert percentile == 90.0

    value, percentile = run.op_tail([3.0] + [1.0] * 10)
    assert value == 1.0
    assert percentile == pytest.approx(100 / 11)

    with pytest.raises(ValueError):
        run.op_tail([1.0] * 10)


def _synthetic(spans):
    tracer = Tracer()
    tracer.names.append("m.f")
    for start, end, parent in spans:
        tracer.func.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.raised.append(0)
    return tracer


def test_self_time_subtracts_the_union_of_children():
    tracer = _synthetic([
        (0, 100, -1),
        (10, 30, 0),   # overlaps the next child, as pool threads do
        (20, 50, 0),
        (60, 70, 0),
        (62, 65, 3),   # grandchild: counts against its parent only
        (90, 120, 0),  # clipped to the parent's end
    ])
    assert tracer.self_times() == [100 - 40 - 10 - 10, 20, 30, 7, 3, 30]


def _module(name, source):
    module = types.ModuleType(name)
    exec(source, module.__dict__)
    return module


def test_self_time_with_children_on_pool_threads():
    layer = _module("fake.layer", (
        "import time\n"
        "def inner(k):\n"
        "    time.sleep(0.02)\n"
        "    return k\n"
    ))
    front = _module("fake.front", (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def outer(pool_size):\n"
        "    with ThreadPoolExecutor(max_workers=pool_size) as pool:\n"
        "        return list(pool.map(lambda k: inner(k), range(4)))\n"
    ))
    front.inner = layer.inner
    tracer = Tracer()
    tracer.install([layer, front], [layer, front])
    try:
        tracer.begin_op(7)
        assert front.outer(2) == [0, 1, 2, 3]
    finally:
        tracer.uninstall()

    names = [tracer.names[f] for f in tracer.func]
    assert names.count("front.outer") == 1
    assert names.count("layer.inner") == 4
    outer = names.index("front.outer")
    kids = [i for i, name in enumerate(names) if name == "layer.inner"]
    assert all(tracer.parent[i] == outer for i in kids)
    assert set(tracer.op) == {7}

    covered = 0
    reach = tracer.start[outer]
    for i in sorted(kids, key=lambda i: tracer.start[i]):
        lo, hi = max(tracer.start[i], reach), tracer.end[i]
        if hi > lo:
            covered += hi - lo
            reach = hi
    own = tracer.self_times()
    assert own[outer] == tracer.end[outer] - tracer.start[outer] - covered
    assert covered < sum(tracer.end[i] - tracer.start[i] for i in kids)


def test_reimported_functions_and_registries_are_intercepted():
    cli = run.load_cli()
    import pseudospin
    from pseudospin import twospin, verify

    original = twospin.closed_spectrum
    assert cli.closed_spectrum is original
    modules = [getattr(pseudospin, name) for name in layers.MODULES]
    tracer = Tracer()
    tracer.install(modules, [pseudospin, *modules])
    try:
        assert cli.closed_spectrum is not original
        assert twospin.closed_spectrum is cli.closed_spectrum
        assert verify.GROUPS["clifford"] is verify.check_clifford
        tracer.begin_op(0)
        latency, outputs, error = run.run_op(cli, workloads.Op(
            label="tiny", items=3, expect={"points": 3, "format": "csv"},
            calls=(("regime-sweep", "--b-steps", "3", "--alpha1", "0.5", "--alpha2", "-0.5"),),
        ))
    finally:
        tracer.uninstall()
    assert error is None
    assert cli.closed_spectrum is original
    assert verify.GROUPS["clifford"] is verify.check_clifford

    names = [tracer.names[f] for f in tracer.func]
    sweep = names.index("cli.cmd_regime_sweep")
    spectra = [i for i, name in enumerate(names) if name == "twospin.closed_spectrum"]
    assert len(spectra) == 3
    assert all(tracer.parent[i] == sweep for i in spectra)


def test_checks_reject_wrong_outputs():
    op = workloads.Op(
        label="b-2-csv", calls=(), items=2, expect={"points": 2, "format": "csv"},
    )
    header = "B,alpha1,alpha2,J,pseudo_hermitian\n"
    # B_max = 1.0 * (0.25 + 1) / 0.5 = 2.5
    good = header + "1.0,0.5,-0.5,1.0,1\n3.0,0.5,-0.5,1.0,0\n"
    assert checks.check("sweep", op, [good]) is None
    assert "flag" in checks.check("sweep", op, [good.replace(",1\n", ",0\n")])
    assert "rows" in checks.check("sweep", op, [header + "1.0,0.5,-0.5,1.0,1\n"])

    verify_op = workloads.Op(label="canon", calls=(), items=1, expect={"group": "canon"})
    assert checks.check("verify", verify_op, ["PASS canon (worst violation 0)\n"]) is None
    assert checks.check("verify", verify_op, ["FAIL canon: x\n"]) is not None


def test_digest_depends_only_on_output_bytes():
    first, second = run.Digest(), run.Digest()
    for digest in (first, second):
        digest.add(["a,b\n1,2\n", ""])
    assert first.hexdigest() == second.hexdigest()
    second.add(["x"])
    assert first.hexdigest() != second.hexdigest()


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_traced_run_reports_every_per_layer_metric():
    tracer = Tracer()
    metrics = layers.per_layer_metrics(tracer, [], [], {
        "setup.import_s": 1.0, "setup.import_scipy_s": 0.5, "trace.overhead_frac": 0.1,
    })
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]


def test_a_run_times_a_fixed_number_of_cycles():
    assert [run.cycle_count(w, 30) for w in ("dynamics", "sweep", "verify")] == [6, 19, 7]
    for workload in workloads.WORKLOADS:
        assert run.cycle_count(workload, 1) == run.MIN_CYCLES
        assert len(next(workloads.cycles(workload, 0))) * run.MIN_CYCLES >= 11
