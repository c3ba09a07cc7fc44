"""Self-tests of the benchmark's references and bookkeeping.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

from qjobtime.generators import Entanglement, KernelFamily  # noqa: E402
from qjobtime.sim import exact_kernel, kernel_matrix  # noqa: E402


@pytest.fixture
def workdir():
    path = run.OUT / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("n,d,ent", [(2, 1, "linear"), (3, 2, "full"), (5, 2, "linear"), (6, 1, "full")])
def test_reference_kernel_matches_exact_kernel(n, d, ent):
    rng = np.random.default_rng(n * 10 + d)
    data = rng.uniform(0.0, 2.0 * np.pi, (3, n))
    ref = workloads.reference_kernel({"n": n, "d": d, "entanglement": ent}, data)
    fam = KernelFamily(n, d, Entanglement(ent))
    for i in range(3):
        for j in range(3):
            assert abs(ref[i, j] - exact_kernel(fam, data[i], data[j])) < 1e-12


def test_kernel_check_accepts_shots_and_rejects_a_wrong_reference():
    family = {"n": 3, "d": 1, "entanglement": "full"}
    data = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, (5, 3))
    shots = 4000
    matrix = kernel_matrix(KernelFamily(3, 1, Entanglement.FULL), data, shots=shots, seed=1)
    ref = workloads.reference_kernel(family, data)
    assert workloads.check_kernel_matrix(matrix, ref, shots) == []
    wrong = ref.copy()
    wrong[0, 1] = wrong[1, 0] = ref[0, 1] + 0.1
    assert workloads.check_kernel_matrix(matrix, wrong, shots)
    asym = matrix.copy()
    asym[0, 1] += 1.0 / shots
    assert any("symmetric" in e for e in workloads.check_kernel_matrix(asym, ref, shots))


def _small_kernel_workload(monkeypatch):
    monkeypatch.setattr(workloads, "KERNEL_FAMILY", {"n": 3, "d": 1, "entanglement": "full"})
    monkeypatch.setattr(workloads, "KERNEL_VECTORS", 4)
    monkeypatch.setattr(run, "MIN_OPS", 2)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def test_measure_counts_correct_ops(monkeypatch, workdir):
    _small_kernel_workload(monkeypatch)
    result = run.measure("kernel-sim", 3, 0.0, workdir)
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert all(result["metrics"][name] > 0 for name, _ in run.END_TO_END)
    raw = result["as_measured"]
    assert result["metrics"]["op_p50_ref"] == raw["op_p50_s"] / raw["ref_s"]


def test_wrong_reference_makes_ops_fail(monkeypatch, workdir):
    _small_kernel_workload(monkeypatch)
    correct = workloads.reference_kernel
    monkeypatch.setattr(workloads, "reference_kernel", lambda fam, data: correct(fam, data) * 0.5)
    result = run.measure("kernel-sim", 3, 0.0, workdir)
    assert (result["attempted"], result["failed"]) == (2, 2)


def _negate_floats(text: str) -> str:
    return re.sub(r"(?<![\w.])(\d+\.\d+(?:e[+-]?\d+)?)", r"-\1", text)


@pytest.mark.parametrize("index", range(len(workloads.CLI_ROTATION)))
def test_cli_light_ops_pass_in_process_and_fail_on_tampered_output(index, workdir):
    cli = run._import_program()
    op = workloads.cli_light(5, index)
    res = run.run_inprocess(cli, op, workdir)
    assert run._check(op, res["code"], res["stdout"], "", res["artifacts"]) == []
    tampered = {k: _negate_floats(v) for k, v in res["artifacts"].items()}
    assert run._check(op, 0, _negate_floats(res["stdout"]), "", tampered)


def test_tracer_restores_functions_and_keeps_outputs(workdir):
    cli = run._import_program()
    import qjobtime.deff
    from qjobtime.circuit import Circuit

    originals = (qjobtime.deff.effective_layers, Circuit.depth, cli.kernel_matrix)
    op = workloads.sweep_kak(2, 0)
    plain = run.run_inprocess(cli, op, workdir)
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracing.installed(tracer):
        traced = run.run_inprocess(cli, op, workdir, tracer)
    tracer.finish_op()
    assert (qjobtime.deff.effective_layers, Circuit.depth, cli.kernel_matrix) == originals
    assert (plain["stdout"], plain["artifacts"]) == (traced["stdout"], traced["artifacts"])
    assert run.trace_checks("sweep-kak", tracer, traced["artifacts"]) == []
    values = tracing.span_metrics(tracer.spans)
    assert values["deff.effective_layers.calls"] == len(workloads.SWEEP_FAMILIES)
    assert values["deff.qv_baseline.useful_ratio"] == 0.5
    assert values["transpile.route.calls"] == len(workloads.SWEEP_FAMILIES) * sum(workloads.DEFF_SAMPLES)
    lines = traced["artifacts"]["sweep.csv"].splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[4] = repr(float(np.nextafter(float(cells[4]), np.inf)))
    lines[1] = ",".join(cells)
    wrong = {"sweep.csv": "".join(lines)}
    assert run.trace_checks("sweep-kak", tracer, wrong)


def test_self_time_subtracts_direct_children():
    spans = []
    for name, start, end, parent in [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
                                     ("b", 5.0, 6.0, 0)]:
        span = tracing.Span(name, parent, 0)
        span.start, span.end = start, end
        spans.append(span)
    agg = tracing.aggregate(spans)
    assert agg["a"]["self_s"] == 6.0 and agg["b"]["s"] == 4.0 and agg["b"]["self_s"] == 3.0
    assert agg["b"]["calls"] == 2


def test_import_attribution_sums_self_time_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:      1000 |       1000 |     scipy.optimize._nnls",
        "import time:        50 |         50 | json",
    ])
    got = tracing.import_attribution(text)
    assert got == {"scipy": 0.001, "numpy": 0.0003, "click": 0.0, "qjobtime": 0.0}


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
