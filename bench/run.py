#!/usr/bin/env python3
"""Benchmark of the `qjobtime` CLI on seeded workloads.

    python3 bench/run.py --workload sweep-kak --seed 1 --seconds 38 --trace 0

Run from the repository root; the program is imported from `src/`.

`--trace 0` drives the real CLI in fresh processes, one closed-loop client:
the next op starts only after the previous process exits. It samples set-up
time (`python -m qjobtime.cli --help`) before every third op, reruns the
first op to check byte-identical artifacts, checks every output, and reports
the end-to-end metrics. Op time is reported relative to a fixed reference
task timed after every child process, which cancels most of the host's
speed drift between runs (see DESIGN.md).

`--trace 1` runs a fixed set of ops in this process through
`qjobtime.cli.main`, alternately plain and with span wrappers installed
(see tracing.py), checks that both give identical output, and reports
per-layer time and counts.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A result file with the machine record and the raw samples, and for traced
runs the spans, is written under bench/out/.
"""

import argparse
import csv
import gc
import importlib.metadata
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from workloads import CYCLE, SWEEP_FAMILIES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_OPS = 3
SETUP_SAMPLES = 4  # at least this many; one is taken before every SETUP_EVERY-th op
SETUP_EVERY = 3
REF_LOOPS = 20_000  # one chunk of the compute reference
REF_CHUNKS = 5
# the CLI's third-party imports, in a fresh interpreter
STARTUP_REFERENCE = [sys.executable, "-c", "import numpy, scipy.optimize, click"]
# An op that is almost all interpreter start and imports follows the host's
# speed for starting processes, which drifts apart from its speed for
# compute; each workload is divided by the reference that matches its op.
REFERENCE = {"sweep-kak": "compute", "kernel-sim": "compute", "cli-light": "startup"}
IMPORTTIME_SAMPLES = 3
STOP_STARTING_S = 100.0  # no new op after this, so a run ends well inside 180 s
RUN_LIMIT_S = 170.0
FIDELITY_FLOOR = 1.0 - 1e-9
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ref", "ref"),
    ("peak_rss_mb", "MB"),
]
WORK_UNIT = {
    "sweep-kak": "transpiled circuits",
    "kernel-sim": "kernel entries",
    "cli-light": "commands",
}


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_process(argv: list[str], cwd: Path, deadline: float) -> dict:
    """Run one child to completion: wall time and its own peak RSS (rusage)."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SIGTERM: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "rss_kb": usage.ru_maxrss,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


def _cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "qjobtime.cli", *args]


def _prepare(op, workdir: Path) -> None:
    for name, text in op.inputs.items():
        (workdir / name).write_text(text)
    for name in op.artifacts:
        (workdir / name).unlink(missing_ok=True)


def _artifacts(op, workdir: Path) -> dict[str, str]:
    return {name: (workdir / name).read_text() for name in op.artifacts if (workdir / name).exists()}


def _check(op, code: int, stdout: str, stderr: str, artifacts: dict) -> list[str]:
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-500:]}"]
    missing = [name for name in op.artifacts if name not in artifacts]
    if missing:
        return [f"missing artifacts {missing}"]
    try:
        return op.check(stdout, artifacts)
    except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        return [f"unparseable output: {exc!r}"]


def environment(workload: str, seed: int, ops: int) -> dict:
    git = {"revision": None, "dirty": None}
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True)
        if rev.returncode == 0 and status.returncode == 0:
            git = {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "blas_threads_env": {k: os.environ.get(k) for k in blas_vars},
        "git": git,
        "workload": workload,
        "seed": seed,
        "ops": ops,
    }


# -- untraced: fresh processes -------------------------------------------------


def reference_chunk() -> float:
    """Wall time of one chunk of a fixed CPU task, the compute reference.

    Dict, tuple and list churn like the transpiler's gate lists, then 4x4
    complex products and 4096-amplitude passes like the decomposer and the
    simulator. It never calls `qjobtime`, so no change to the program moves it.
    """
    start = time.perf_counter()
    table, gates, acc = {}, [], 0
    for i in range(REF_LOOPS):
        key = (i % 997, i % 13)
        table[key] = table.get(key, 0) + 1
        gates.append((i & 7, key))
        acc += i * i % 11
    gates.sort()
    u = np.linalg.qr(np.arange(16.0).reshape(4, 4) + 1j * np.eye(4))[0]
    m = np.eye(4, dtype=complex)
    for _ in range(1000):
        m = u @ m
    v = np.ones(4096, dtype=complex)
    for _ in range(150):
        v = (v * u[0, 0]).reshape(2, 2048)[::-1].reshape(-1)
    return time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    make = WORKLOADS[workload]
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    run_process(_cli(["--help"]), workdir, deadline)  # warm-up: bytecode and file cache
    setup, walls, ref_after, rss, failures = [], [], [], [], []
    refs = []  # reference samples: some now and some after every child

    def sample_reference() -> None:
        """The yardstick for host speed that matches the op's main cost.

        Compute: REF_CHUNKS chunks of `reference_chunk`, each scaled to the
        whole task. A chunk is short and unlike the op, so only the run's
        median of them is compared with the run's median op.
        Startup: a fresh interpreter importing the CLI's third-party
        dependencies. It is as long as an op and the same kind of work, so
        each op is compared with the sample taken right after it. A change to
        what `qjobtime` imports moves the op, not this.
        """
        if REFERENCE[workload] == "startup":
            ref_run = run_process(STARTUP_REFERENCE, workdir, deadline)
            if ref_run["code"] != 0:
                raise RuntimeError(f"startup reference failed: {ref_run['stderr'][-500:]}")
            refs.append(ref_run["wall"])
        else:
            refs.extend(REF_CHUNKS * reference_chunk() for _ in range(REF_CHUNKS))

    sample_reference()
    work, attempted = [], 0  # work done by each op (0 when it failed)
    first = None
    index = 0  # ops in sequence 0, 0 (rerun), 1, 2, ...
    step_start = time.perf_counter()

    def sample_setup() -> None:
        help_run = run_process(_cli(["--help"]), workdir, deadline)
        sample_reference()
        if help_run["code"] != 0:
            raise RuntimeError(f"--help failed: {help_run['stderr'][-500:]}")
        setup.append(help_run["wall"])

    while True:
        now = time.perf_counter()
        step_start, step_time = now, now - step_start
        # stop before an op that would end past `seconds`, judged by the last one
        if len(walls) >= MIN_OPS and now + step_time - start > seconds:
            break
        if now - start >= STOP_STARTING_S:
            break
        if attempted % SETUP_EVERY == 0:
            sample_setup()
        rerun = attempted == 1
        op_index = 0 if rerun else index
        op = make(seed, op_index)
        _prepare(op, workdir)
        res = run_process(_cli(op.args), workdir, deadline)
        sample_reference()
        artifacts = _artifacts(op, workdir)
        attempted += 1
        walls.append(res["wall"])
        ref_after.append(refs[-1])
        rss.append(res["rss_kb"])
        errors = _check(op, res["code"], res["stdout"], res["stderr"], artifacts)
        outputs = (res["stdout"], artifacts)
        if rerun and outputs != first:
            errors.append("rerun with identical flags changed stdout or artifacts")
        if not rerun:
            first = outputs if index == 0 else first
            index += 1
        work.append(0 if errors else op.work)
        if errors:
            failures.append({"op": op_index, "rerun": rerun, "errors": errors})
    while len(setup) < SETUP_SAMPLES:  # runs with fewer ops than set-up samples
        sample_setup()
    ref_s = statistics.median(refs)
    paired = REFERENCE[workload] == "startup"
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ref": (statistics.median(w / r for w, r in zip(walls, ref_after)) if paired
                       else statistics.median(walls) / ref_s),
        "peak_rss_mb": max(rss) / 1024.0,
    }
    as_measured = {  # printed and kept in the result file; not gated (host drift)
        "op_p50_s": statistics.median(walls),
        "work_per_s": statistics.median(w / t for w, t in zip(work, walls)),
        "ref_s": ref_s,
    }
    return {
        "metrics": metrics,
        "as_measured": as_measured,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": {"setup_s": setup, "op_s": walls, "ref_s": refs, "rss_kb": rss},
        "work_unit": WORK_UNIT[workload],
    }


# -- traced: in-process through qjobtime.cli.main -------------------------------


def _import_program():
    sys.path.insert(0, str(SRC))
    import qjobtime.cli

    if Path(qjobtime.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"qjobtime imported from {qjobtime.cli.__file__}, not {SRC}")
    return qjobtime.cli


def run_inprocess(cli, op, workdir: Path, tracer=None) -> dict:
    _prepare(op, workdir)
    gc.collect()
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    error = ""
    try:
        with redirect_stdout(buf):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main.main(args=op.args, prog_name="qjobtime", standalone_mode=False)
                else:
                    with tracer.span("cli.command"):
                        code = cli.main.main(args=op.args, prog_name="qjobtime",
                                             standalone_mode=False)
            except Exception:  # fails the op, as a traceback exit does in a fresh process
                code, error = 1, traceback.format_exc()
            wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return {"code": code or 0, "wall": wall, "stdout": buf.getvalue(), "stderr": error,
            "artifacts": _artifacts(op, workdir)}


def _printed_deffs(artifacts: dict) -> list[float]:
    rows = list(csv.DictReader(io.StringIO(artifacts["sweep.csv"])))
    step = len(rows) // len(SWEEP_FAMILIES)
    return [float(row["deff"]) for row in rows[::step]]


def trace_checks(workload: str, tracer, artifacts: dict) -> list[str]:
    """d_eff recomposed from the traced layers, decompose preserves the
    unitary, and every routed circuit stays on the coupling map."""
    if workload != "sweep-kak":
        return []
    from qjobtime.sim import simulate
    from qjobtime.transpile.decompose import decompose

    errors, composed = [], []
    for idx, span in enumerate(tracer.spans):
        if span.op != tracer.op:
            continue
        if span.name == "transpile.route":
            cmap = span.call[2][1]
            used = {tuple(sorted(g.qubits)) for g in span.result.circuit.gates if len(g.qubits) == 2}
            if not used <= cmap.edges:
                errors.append(f"routed circuit uses non-edges {sorted(used - cmap.edges)[:3]}")
        if span.name != "deff.effective_layers":
            continue
        children = [s for s in tracer.spans if s.parent == idx]
        kernel_batch = next(s for s in children if s.name == "deff.sample_kernel_circuits")
        qv_batch = next(s for s in children if s.name == "deff.qv_baseline")
        depths = [s.counts["total"] for s in children if s.name == "circuit.depth"]
        kernel, qv = depths[: len(kernel_batch.result)], depths[len(kernel_batch.result):]
        v = qv_batch.counts["key"][0]
        composed.append(sum(kernel) / len(kernel) / (sum(qv) / len(qv)) * v)
        if len(composed) > 1:
            continue
        for circuit in (kernel_batch.result[0], qv_batch.result[0]):
            a, b = simulate(circuit).amplitudes, simulate(decompose(circuit)).amplitudes
            fidelity = abs(np.vdot(a, b)) ** 2
            if not fidelity >= FIDELITY_FLOOR:
                errors.append(f"decompose changed a width-{circuit.width} circuit: "
                              f"fidelity {fidelity!r}")
    printed = _printed_deffs(artifacts)
    if printed != composed:
        errors.append(f"printed d_eff {printed} != traced composition {composed}")
    return errors


def setup_attribution(workdir: Path) -> dict[str, float]:
    from tracing import import_attribution

    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qjobtime.cli"],
                             cwd=workdir, env=_child_env(), capture_output=True, text=True,
                             timeout=60)
        if res.returncode != 0:
            raise RuntimeError(f"import qjobtime.cli failed: {res.stderr[-500:]}")
        samples.append(import_attribution(res.stderr))
    return {f"setup.import.{pkg}_s": statistics.median(s[pkg] for s in samples)
            for pkg in samples[0]}


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    from tracing import COUNT_METRICS, Tracer, installed, span_metrics

    cli = _import_program()
    start = time.perf_counter()
    ops = [WORKLOADS[workload](seed, k) for k in range(CYCLE[workload])]
    imports = setup_attribution(workdir)
    _prepare(ops[0], workdir)
    fresh = run_process(_cli(ops[0].args), workdir, start + RUN_LIMIT_S)
    fresh_outputs = (fresh["stdout"], _artifacts(ops[0], workdir))
    passes, failures, all_spans = [], [], []
    attempted = 0
    pass_time = 0.0
    while not passes or (time.perf_counter() + pass_time - start < seconds
                         and time.perf_counter() - start < STOP_STARTING_S):
        pass_start = time.perf_counter()
        p = len(passes)
        tracer = Tracer()
        plain_wall = traced_wall = 0.0
        for k, op in enumerate(ops):
            tracer.op = k
            runs = {}
            for mode in (("plain", "traced") if (p + k) % 2 == 0 else ("traced", "plain")):
                if mode == "plain":
                    runs[mode] = run_inprocess(cli, op, workdir)
                else:
                    with installed(tracer):
                        runs[mode] = run_inprocess(cli, op, workdir, tracer)
                    tracer.finish_op()
            plain, traced = runs["plain"], runs["traced"]
            plain_wall += plain["wall"]
            traced_wall += traced["wall"]
            attempted += 1
            errors = _check(op, traced["code"], traced["stdout"], traced["stderr"],
                            traced["artifacts"])
            if (plain["stdout"], plain["artifacts"]) != (traced["stdout"], traced["artifacts"]):
                errors.append("traced output differs from the untraced in-process output")
            if p == 0 and k == 0 and fresh_outputs != (plain["stdout"], plain["artifacts"]):
                errors.append("in-process output differs from a fresh CLI process")
            if p == 0 and not errors:
                errors += trace_checks(workload, tracer, traced["artifacts"])
            if errors:
                failures.append({"pass": p, "op": k, "errors": errors})
        tracer.release()
        values = span_metrics(tracer.spans)
        counts = {name: values[name] for name in COUNT_METRICS}
        if passes and counts != passes[0]["counts"]:
            failures.append({"pass": p, "op": None,
                             "errors": ["per-layer counts differ from the first traced pass"]})
        passes.append({"values": values, "counts": counts,
                       "overhead": traced_wall / plain_wall - 1.0})
        all_spans += [(p, s) for s in tracer.spans]
        pass_time = time.perf_counter() - pass_start
    metrics = dict(imports)
    for name in passes[0]["values"]:
        metrics[name] = (passes[0]["values"][name] if name in COUNT_METRICS
                         else statistics.median(x["values"][name] for x in passes))
    metrics["trace.overhead_ratio"] = statistics.median(x["overhead"] for x in passes)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len({(f["pass"], f["op"]) for f in failures}),
        "failures": failures,
        "samples": {"passes": len(passes), "ops_per_pass": len(ops),
                    "overhead": [x["overhead"] for x in passes]},
        "spans": all_spans,
    }


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qjobtime" / "cli.py").is_file():
        print(f"error: program source {SRC / 'qjobtime'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    from tracing import PER_LAYER

    # One CPU for the benchmark and every child: the two vCPUs change speed
    # independently, and the reference must run where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds, workdir)
            units = dict(PER_LAYER)
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = result.pop("spans", [])
    if spans:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for p, s in spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "pass": p,
                                     "counts": {k: v for k, v in s.counts.items() if k != "key"}})
                         + "\n")
    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        print(f"error: non-finite metric in {metrics}", file=sys.stderr)
        return 1
    env = environment(args.workload, args.seed, result["attempted"])
    record = {"environment": env, **result, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':<40} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']}/{result['attempted']} ops)")
    if not args.trace:
        samples = result["samples"]
        for name, value in result["as_measured"].items():
            print(f"{name + ' (as measured)':<40} {value:>14.6g}")
        print(f"ops timed: {len(samples['op_s'])}, set-up samples: {len(samples['setup_s'])}, "
              f"work unit: {result['work_unit']}")
    for failure in result["failures"][:5]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
