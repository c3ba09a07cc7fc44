"""Seeded workloads: one op is one `qjobtime` CLI invocation on generated inputs.

Every input (feature vectors, timing parameters, registries, record CSVs and
the per-op `--seed`) is drawn from `(workload seed, workload id, op index)`, so
a seed fixes the whole op sequence and no op depends on how many ran before
it. Each op carries a check of its outputs against references the benchmark
computes itself, never through `qjobtime`.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

DEFF_SAMPLES = (25, 20)  # the CLI defaults: kernel samples, QV samples
SWEEP_FAMILIES = [  # both need v=8 QV baselines, so the second repeats the first
    {"n": 8, "d": 4, "entanglement": "linear"},
    {"n": 4, "d": 8, "entanglement": "linear"},
]
SWEEP_M = [10, 100]
SWEEP_S = [10, 100, 1000, 4000]
KERNEL_FAMILY = {"n": 12, "d": 2, "entanglement": "full"}
KERNEL_VECTORS = 12
KERNEL_SHOTS = 4000
# feature vectors are a seeded centre plus N(0, spread) jitter, so kernel
# entries land well inside (0, 1) where a 5-sigma binomial check is calibrated
KERNEL_SPREAD = 0.02
REL_TOL = 1e-12


@dataclass
class Op:
    """One CLI invocation: argv after `qjobtime`, input files to write first,
    artifact files it must produce, and the check of stdout plus artifacts."""

    args: list[str]
    inputs: dict[str, str]
    artifacts: list[str]
    check: Callable[[str, dict[str, str]], list[str]]
    work: int  # units of `work_per_s` this op completes


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _loss(r: float) -> float:
    return r - 1.0 if r >= 1.0 else 1.0 / r - 1.0


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    wid = sum(ord(ch) * 31**k for k, ch in enumerate(workload)) % 2**31
    return np.random.default_rng(np.random.SeedSequence([seed, wid, index]))


def _registry(rng: np.random.Generator, names: list[str]) -> tuple[str, dict[str, float]]:
    """Registry JSON of 27-qubit systems with generated CLOPS, and name -> C."""
    clops = {name: float(round(rng.uniform(1000.0, 5000.0), 1)) for name in names}
    entries = [
        {"name": name, "num_qubits": 27, "quantum_volume": int(2 ** rng.integers(3, 8)),
         "clops": clops[name]}
        for name in names
    ]
    return json.dumps({"backends": entries}), clops


# -- references ---------------------------------------------------------------


def feature_map_state(x: np.ndarray, d: int, pairs) -> np.ndarray:
    """|phi(x)> of the Havlicek et al. feature map, from its definition.

    d repetitions of [Hadamard on every qubit, then the diagonal phase
    exp(-i sum_j x_j s_j - i sum_(j,k) (pi - x_j)(pi - x_k) s_j s_k)], with
    s_j = +1 / -1 the Z eigenvalue of qubit j. Global phase is irrelevant.
    """
    n = len(x)
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    s = 1.0 - 2.0 * bits
    phase = s @ x
    for j, k in pairs:
        phase = phase + (np.pi - x[j]) * (np.pi - x[k]) * s[:, j] * s[:, k]
    diag = np.exp(-1j * phase)
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for _ in range(d):
        t = state.reshape((2,) * n)
        for axis in range(n):  # Walsh-Hadamard transform, one qubit at a time
            a, b = np.take(t, 0, axis=axis), np.take(t, 1, axis=axis)
            t = np.stack([a + b, a - b], axis=axis) / np.sqrt(2.0)
        state = diag * t.reshape(-1)
    return state


def reference_kernel(family: dict, data: np.ndarray) -> np.ndarray:
    """Exact Gram matrix |<phi(y)|phi(x)>|^2 over the rows of `data`."""
    n = family["n"]
    if family.get("entanglement", "linear") == "full":
        pairs = list(combinations(range(n), 2))
    else:
        pairs = [(j, j + 1) for j in range(n - 1)]
    states = np.array([feature_map_state(x, family["d"], pairs) for x in data])
    return np.abs(states.conj() @ states.T) ** 2


def check_kernel_matrix(matrix: np.ndarray, reference: np.ndarray, shots: int) -> list[str]:
    """Unit diagonal, exact symmetry, every entry within 5 binomial sigma of
    the reference (sigma floored at 1/shots)."""
    errors = []
    if matrix.shape != reference.shape:
        return [f"kernel shape {matrix.shape}, expected {reference.shape}"]
    if not np.all(np.diag(matrix) == 1.0):
        errors.append("kernel diagonal is not exactly 1")
    if not np.array_equal(matrix, matrix.T):
        errors.append("kernel matrix is not symmetric")
    p = np.clip(reference, 0.0, 1.0)
    tol = 5.0 * np.maximum(np.sqrt(p * (1.0 - p) / shots), 1.0 / shots)
    off = ~np.eye(len(matrix), dtype=bool)
    bad = off & (np.abs(matrix - reference) > tol)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        errors.append(
            f"{int(bad.sum())} kernel entries outside 5 sigma, e.g. [{i},{j}] "
            f"{matrix[i, j]!r} vs reference {reference[i, j]!r}"
        )
    return errors


# -- sweep-kak ------------------------------------------------------------------


def sweep_kak(seed: int, index: int) -> Op:
    rng = _rng(seed, "sweep-kak", index)
    op_seed = int(rng.integers(0, 2**31))
    registry, clops = _registry(rng, ["ibm_hanoi"])
    params = {
        "t_job": float(rng.uniform(1.0, 5.0)),
        "t_circ": float(rng.uniform(0.01, 0.1)),
        "t_layer_shot": float(1.0 / rng.uniform(1500.0, 3000.0)),
        "jitter": float(rng.uniform(0.01, 0.1)),
    }

    def check(stdout: str, artifacts: dict[str, str]) -> list[str]:
        rows = _csv_rows(artifacts["sweep.csv"])
        expected = len(SWEEP_FAMILIES) * len(SWEEP_M) * len(SWEEP_S)
        if len(rows) != expected or stdout.strip() != f"swept {expected} job(s) -> sweep.csv":
            return [f"sweep wrote {len(rows)} rows, expected {expected}"]
        errors = []
        per_family = len(SWEEP_M) * len(SWEEP_S)
        for k, row in enumerate(rows):
            fam = SWEEP_FAMILIES[k // per_family]
            m, s = SWEEP_M[(k % per_family) // len(SWEEP_S)], SWEEP_S[k % len(SWEEP_S)]
            deff = float(row["deff"])
            t_pred, t_sim, r = float(row["T_pred"]), float(row["T_sim"]), float(row["r"])
            base = params["t_job"] + m * (params["t_circ"] + s * deff * params["t_layer_shot"])
            ok = (
                row["backend"] == "ibm_hanoi" and (int(row["M"]), int(row["S"])) == (m, s)
                and float(row["a"]) == 2 * fam["d"] / fam["n"]
                and deff == float(rows[k - k % per_family]["deff"])
                and math.isfinite(deff) and deff > 0
                and _close(t_pred, m * s * deff / clops["ibm_hanoi"])
                and t_sim / base - 1.0 > -0.9
                and _close(r, t_pred / t_sim) and _close(float(row["L"]), _loss(r))
            )
            if not ok:
                errors.append(f"sweep row {k} inconsistent: {row}")
        return errors

    args = ["sweep", "--backend", "ibm_hanoi", "--registry", "registry.json",
            "--params", "params.json", "--M", ",".join(map(str, SWEEP_M)),
            "--S", ",".join(map(str, SWEEP_S)), "--families", json.dumps(SWEEP_FAMILIES),
            "--seed", str(op_seed), "--out", "sweep.csv"]
    inputs = {"registry.json": registry, "params.json": json.dumps(params)}
    return Op(args, inputs, ["sweep.csv"], check,
              work=len(SWEEP_FAMILIES) * sum(DEFF_SAMPLES))


# -- kernel-sim -----------------------------------------------------------------


def kernel_data(seed: int, index: int) -> tuple[int, np.ndarray]:
    rng = _rng(seed, "kernel-sim", index)
    op_seed = int(rng.integers(0, 2**31))
    centre = rng.uniform(0.0, 2.0 * np.pi, KERNEL_FAMILY["n"])
    return op_seed, centre + rng.normal(0.0, KERNEL_SPREAD, (KERNEL_VECTORS, KERNEL_FAMILY["n"]))


def kernel_sim(seed: int, index: int) -> Op:
    op_seed, data = kernel_data(seed, index)
    n_pairs = KERNEL_VECTORS * (KERNEL_VECTORS - 1) // 2

    def check(stdout: str, artifacts: dict[str, str]) -> list[str]:
        rows = list(csv.reader(io.StringIO(artifacts["kernel.csv"])))
        matrix = np.array([[float(v) for v in row] for row in rows[1:]])
        errors = check_kernel_matrix(matrix, reference_kernel(KERNEL_FAMILY, data), KERNEL_SHOTS)
        summary = json.loads(stdout)
        if (summary["n"], summary["pairs_evaluated"], summary["shots"]) != (
            KERNEL_VECTORS, n_pairs, KERNEL_SHOTS
        ) or artifacts["summary.json"] != stdout:
            errors.append(f"summary {summary} does not describe the run")
        return errors

    data_csv = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in data)
    args = ["simulate-kernel", "--family", json.dumps(KERNEL_FAMILY), "--data", "data.csv",
            "--shots", str(KERNEL_SHOTS), "--seed", str(op_seed),
            "--out", "kernel.csv", "--summary", "summary.json"]
    return Op(args, {"data.csv": data_csv}, ["kernel.csv", "summary.json"], check, work=n_pairs)


# -- cli-light ------------------------------------------------------------------

CLI_ROTATION = ("fit", "score-records", "score-pairs", "predict", "extrapolate")


def _records(rng, backends: list[str], rows: int, truth=None) -> list[list]:
    """Runtime records: backend, M, S, K, deff, T_seconds (repr-exact floats)."""
    out = []
    for k in range(rows):
        m, s = [10, 50, 100, 200][k % 4], [100, 1000, 4000][k % 3]
        kk = int(rng.integers(1, 4))
        deff = float(round(rng.uniform(2.0, 8.0), 3))
        if truth is None:
            t = float(rng.uniform(10.0, 5000.0))
        else:
            t_job, t_circ, t_ls = truth
            t = (t_job + m * (t_circ + kk * s * deff * t_ls)) * (1.0 + rng.normal(0.0, 0.03))
        out.append([backends[k % len(backends)], m, s, kk, deff, float(t)])
    return out


def cli_light(seed: int, index: int) -> Op:
    rng = _rng(seed, "cli-light", index)
    kind = CLI_ROTATION[index % len(CLI_ROTATION)]
    names = ["sys0", "sys1", "sys2"]
    registry, clops = _registry(rng, names)
    header = ["backend", "M", "S", "K", "deff", "T_seconds"]

    if kind == "fit":
        truth = (float(rng.uniform(1, 5)), float(rng.uniform(0.01, 0.1)),
                 float(1 / rng.uniform(1500, 3000)))
        records = _csv_text(header, _records(rng, names[:1], 12, truth))

        def check(stdout, artifacts):
            fit = json.loads(stdout)
            keys = ("t_job", "t_circ", "t_layer_shot", "jitter")
            if sorted(fit) != sorted(keys) or artifacts["fit.json"] != stdout:
                return [f"fit output {fit} malformed"]
            bad = [k for k in keys if not (math.isfinite(fit[k]) and fit[k] >= 0)]
            return [f"fit parameters not finite and non-negative: {bad}"] if bad else []

        return Op(["fit", "--records", "records.csv", "--out", "fit.json"],
                  {"records.csv": records}, ["fit.json"], check, work=1)

    if kind == "score-records":
        rows = _records(rng, names, 9)

        def check(stdout, artifacts):
            out = _csv_rows(artifacts["report.csv"])
            if len(out) != len(rows) or stdout.strip() != f"scored {len(rows)} run(s) -> report.csv":
                return ["score report has the wrong row count"]
            errors = []
            for k, (rec, row) in enumerate(zip(rows, out)):
                name, m, s, kk, deff, t = rec
                r = m * kk * s * deff / clops[name] / t
                if not (_close(float(row["r"]), r) and _close(float(row["L"]), _loss(r))):
                    errors.append(f"score row {k}: r,L = {row['r']},{row['L']}, expected {r!r},{_loss(r)!r}")
            return errors

        return Op(["score", "--records", "records.csv", "--registry", "registry.json",
                   "--out", "report.csv"],
                  {"records.csv": _csv_text(header, rows), "registry.json": registry},
                  ["report.csv"], check, work=1)

    if kind == "score-pairs":
        pairs = [[float(rng.uniform(1, 1000)), float(rng.uniform(1, 1000))] for _ in range(10)]

        def check(stdout, artifacts):
            out = _csv_rows(artifacts["pairs_report.csv"])
            if len(out) != len(pairs):
                return ["pairs report has the wrong row count"]
            return [
                f"pairs row {k}: r,L = {row['r']},{row['L']}"
                for k, ((p, a), row) in enumerate(zip(pairs, out))
                if not (_close(float(row["r"]), p / a) and _close(float(row["L"]), _loss(p / a)))
            ]

        return Op(["score", "--records", "pairs.csv", "--out", "pairs_report.csv"],
                  {"pairs.csv": _csv_text(["T_pred", "T_actual"], pairs)},
                  ["pairs_report.csv"], check, work=1)

    if kind == "predict":
        name = names[int(rng.integers(0, len(names)))]
        m, s, kk = int(rng.integers(1, 1000)), int(rng.integers(1, 10000)), int(rng.integers(1, 20))
        deff = float(round(rng.uniform(1.0, 20.0), 4))

        def check(stdout, artifacts):
            value = float(stdout.split("=", 1)[1].split(" ", 1)[0])
            expected = m * kk * s * deff / clops[name]
            return [] if _close(value, expected) else [f"predict {value!r}, expected {expected!r}"]

        return Op(["predict", "--backend", name, "--registry", "registry.json", "--M", str(m),
                   "--S", str(s), "--K", str(kk), "--deff", repr(deff)],
                  {"registry.json": registry}, [], check, work=1)

    sizes = [int(v) for v in rng.integers(2, 100000, 2)]
    speeds = [float(round(rng.uniform(500, 20000), 1)) for _ in range(2)]
    s, deff = int(rng.integers(100, 10000)), float(round(rng.uniform(1.0, 20.0), 4))

    def check(stdout, artifacts):
        grid = [(n, c, n * (n - 1) // 2 * s * deff / c) for n in sizes for c in speeds]
        lines = stdout.strip().splitlines()
        out = _csv_rows(artifacts["extrapolate.csv"])
        if len(lines) != len(grid) or len(out) != len(grid):
            return ["extrapolate printed the wrong number of rows"]
        errors = []
        for (n, c, t), line, row in zip(grid, lines, out):
            printed = float(line.split("seconds=", 1)[1].split(" ", 1)[0])
            if not (line.startswith(f"N={n} clops={c!r} ") and _close(printed, t)
                    and float(row["seconds"]) == printed):
                errors.append(f"extrapolate N={n} clops={c}: {line!r}, expected {t!r}")
        return errors

    return Op(["extrapolate", "--N", ",".join(map(str, sizes)), "--S", str(s),
               "--deff", repr(deff), "--clops", ",".join(map(repr, speeds)),
               "--out", "extrapolate.csv"],
              {}, ["extrapolate.csv"], check, work=1)


WORKLOADS = {
    "sweep-kak": sweep_kak,
    "kernel-sim": kernel_sim,
    "cli-light": cli_light,
}
# Ops that cover every command of a workload once; a traced pass is one cycle.
CYCLE = {"sweep-kak": 1, "kernel-sim": 1, "cli-light": len(CLI_ROTATION)}
