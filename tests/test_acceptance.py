"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line (run with `pytest tests/test_acceptance.py -s` to see them).

Reference expected values live in refdata.py; derived expected values are
computed by independent oracles inside the tests.
"""

import csv
import json
import math

import numpy as np
import pytest

from conftest import CliRunner, mean_transpiled_depth, random_circuit
from refdata import (
    CLOPS_JOB_RUNS,
    SHOT_SWEEP_RUNS,
    SHOT_SWEEP_SHOTS,
    SQUARE_KERNEL_RUNS,
)
from qjobtime.circuit import Circuit
from qjobtime.cli import main as cli_main
from qjobtime.deff import (
    equivalent_qv_width,
    sample_kernel_circuits,
    sample_qv_circuits,
)
from qjobtime.execsim import StackTimingParams, fit_params, simulate_job_runtime
from qjobtime.generators import Entanglement, KernelFamily, sample_features
from qjobtime.model import (
    BackendSpec,
    JobSpec,
    get_backend,
    extrapolate,
    kernel_job_size,
    loss_from_ratio,
    predict_runtime,
    score,
)
from qjobtime.sim import estimate_kernel, exact_kernel, kernel_matrix, simulate
from qjobtime.transpile import all_to_all_map, decompose, heavy_hex_like_map, line_map, route, transpiled_depth, uses_only_map_edges


def _ok(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: PASS{suffix}")


def test_criterion_1_speed_job_predictions():
    """Predicted runtimes of the five reference speed-measurement jobs
    (M=S=100, K=1, d_eff = log2 V) match the published values within 5%."""
    worst = 0.0
    for name, (_qv, _clops, _t, t_pred, _r, _l) in CLOPS_JOB_RUNS.items():
        backend = get_backend(name)
        job = JobSpec(100, 100, 1, float(backend.qv_layers))
        mine = predict_runtime(job, backend)
        rel = abs(mine - t_pred) / t_pred
        worst = max(worst, rel)
        assert rel <= 0.05, f"{name}: {mine:.2f}s vs published {t_pred}s"
    _ok("criterion 1", f"worst relative error {worst:.3f}")


def test_criterion_2_scoring_reproduction():
    """score() on the published (predicted, actual) pairs reproduces the
    published ratio and loss within 0.05 absolute."""
    for name, (_qv, _clops, t_actual, t_pred, r_ref, l_ref) in CLOPS_JOB_RUNS.items():
        rep = score(t_pred, t_actual)
        assert abs(rep.ratio - r_ref) <= 0.05, name
        assert abs(rep.loss - l_ref) <= 0.05, name
    _ok("criterion 2")


def _consistent(ratio: float, loss: float, r_tol: float = 0.005, l_tol: float = 0.005) -> bool:
    """Is there an unrounded r' with |r' - ratio| <= r_tol whose loss lies
    within l_tol of `loss`?

    The loss is continuous, decreasing on (0, 1) and increasing on (1, inf),
    so its range over the candidate interval is exactly [min, max] computed
    from the endpoints (with minimum 0 when the interval straddles 1).
    """
    lo, hi = max(ratio - r_tol, 1e-12), ratio + r_tol
    end_losses = (loss_from_ratio(lo), loss_from_ratio(hi))
    l_min = 0.0 if lo <= 1.0 <= hi else min(end_losses)
    l_max = max(end_losses)
    return l_min <= loss + l_tol and l_max >= loss - l_tol


def test_criterion_3_shot_sweep_internal_consistency():
    """Every (ratio, loss) pair of the shot-sweep reference table is
    consistent with one unrounded ratio under two-decimal rounding."""
    checked = 0
    for name, rows in SHOT_SWEEP_RUNS.items():
        for shots, ratio, loss in zip(SHOT_SWEEP_SHOTS, rows["ratio"], rows["loss"]):
            assert _consistent(ratio, loss), f"{name} S={shots}: r={ratio} L={loss}"
            checked += 1
    _ok("criterion 3 (shot-sweep table)", f"{checked} (r, L) pairs")


def _nearest_to_one(ratio: float, tol: float) -> float:
    """The r' with |r' - ratio| <= tol that has the least loss."""
    return min(max(1.0, ratio - tol), ratio + tol)


def _width_witness(ratio: float, loss: float, tol: float = 0.005):
    """Five per-width ratios (widths 2..6) whose equal-weight mean rounds to
    `ratio` and whose mean loss rounds to `loss`, or None when none exist.

    The loss is convex, so a mean loss is never below the loss of the mean
    ratio (Jensen); a row is feasible exactly when `loss + tol` reaches the
    least loss over the rounding interval of `ratio`. The same bound holds
    for any positive weights. The witness sets one width to t and the other
    four to u = (5r - t) / 4. For t <= r <= u convexity makes the mean loss
    fall monotonically from infinity at t -> 0 to loss(r) at t = r, so
    bisection on t meets any target at or above loss(r).
    """
    r = ratio if loss_from_ratio(ratio) <= loss else _nearest_to_one(ratio, tol)
    target = max(loss, loss_from_ratio(r))
    if target > loss + tol:
        return None

    def spread(t: float) -> list[float]:
        return [t] + [(5 * r - t) / 4] * 4

    def mean_loss(t: float) -> float:
        return sum(loss_from_ratio(x) for x in spread(t)) / 5

    t_lo, t_hi = 0.0, r
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        t_lo, t_hi = (mid, t_hi) if mean_loss(mid) > target else (t_lo, mid)
    return spread(t_hi)


def test_criterion_3_square_kernel_internal_consistency():
    """Every (loss, ratio) row of the square-kernel reference table can come
    from loss_from_ratio applied per circuit width.

    Those rows report r and L as separate equal-weight means over widths
    2..6, so each row must have five positive per-width ratios whose mean
    rounds to r and whose mean loss rounds to L. A row that no such ratios
    reproduce, such as the doctored (L=0.50, r=0.50), is rejected.
    """
    assert _width_witness(0.50, 0.50) is None, "doctored row (L=0.50, r=0.50) accepted"
    witnesses = []
    for name, rows in SQUARE_KERNEL_RUNS.items():
        for strategy, (loss, ratio) in rows.items():
            ratios = _width_witness(ratio, loss)
            assert ratios is not None, (
                f"{name}/{strategy}: L={loss} is below "
                f"{loss_from_ratio(_nearest_to_one(ratio, 0.005)):.3f}, the least loss(r') "
                f"over |r' - {ratio}| <= 0.005; the loss is convex, so a mean loss "
                f"over widths is never below the loss of the mean ratio"
            )
            assert len(ratios) == 5 and min(ratios) > 0.0
            # 1e-12 absorbs float error when the mean sits on the rounding edge
            assert abs(sum(ratios) / 5 - ratio) <= 0.005 + 1e-12
            assert abs(sum(loss_from_ratio(x) for x in ratios) / 5 - loss) <= 0.005 + 1e-12
            witnesses.append(f"{name}/{strategy} r_2..r_6=" + ",".join(f"{x:.3f}" for x in ratios))
    _ok("criterion 3 (square-kernel table)", "; ".join(witnesses))


def test_criterion_4_extrapolation():
    """Whole-dataset extrapolations: N=2513 at S=4000, d_eff=2 lands near
    2.53e7 s at C=1000 (250..330 days) and near 2.53e6 s at C=1e4;
    N=70571 at C=1e4 exceeds 50 years."""
    county_slow = extrapolate(2513, 4000, 2.0, 1000.0)
    assert county_slow == kernel_job_size(2513) * 4000 * 2.0 / 1000.0  # exact arithmetic
    assert 2.4e7 <= county_slow <= 2.6e7
    assert 250.0 <= county_slow / 86400.0 <= 330.0

    county_fast = extrapolate(2513, 4000, 2.0, 10_000.0)
    assert abs(county_fast - 2.53e6) / 2.53e6 <= 0.01
    assert 20.0 <= county_fast / 86400.0 <= 60.0  # order of months

    zip_fast = extrapolate(70571, 4000, 2.0, 10_000.0)
    assert zip_fast / (365.25 * 86400.0) > 50.0
    _ok(
        "criterion 4",
        f"county {county_slow/86400:.1f} days @1K, {county_fast/86400:.1f} days @10K; "
        f"zip {zip_fast/(365.25*86400):.0f} years @10K",
    )


def test_criterion_5_qv_width_grid_and_linearity():
    """v = ceil(sqrt(2dn)) exactly over n in [2,8], d in [1,6]; doubling
    every kernel-circuit depth doubles the layer estimate within 1%."""
    for n in range(2, 9):
        for d in range(1, 7):
            assert equivalent_qv_width(n, d) == math.ceil(math.sqrt(2 * d * n))

    fam = KernelFamily(4, 1, Entanglement.LINEAR)
    for cmap in (all_to_all_map(4), line_map(4)):
        circuits = sample_kernel_circuits(fam, 25, seed=3)
        v = equivalent_qv_width(fam.n, fam.d)
        qv_mean = mean_transpiled_depth(sample_qv_circuits(v, v, 20, seed=3), cmap)
        d_eff = mean_transpiled_depth(circuits, cmap) / qv_mean * v
        d_eff_2x = mean_transpiled_depth([c.compose(c) for c in circuits], cmap) / qv_mean * v
        assert abs(d_eff_2x / d_eff - 2.0) <= 0.01
    _ok("criterion 5")


def test_criterion_6_kernel_semantics():
    """Kernel oracle properties: self-kernel 1 within 1e-10, symmetry within
    1e-10, exact Gram matrices PSD within -1e-8, and the shot estimator is
    unbiased within the 4-sigma binomial band over 200 seeds at S=1000."""
    rng = np.random.default_rng(60)
    for n in (2, 3, 4):
        fam = KernelFamily(n, 1, Entanglement.FULL)
        x = sample_features(fam, rng)
        assert abs(exact_kernel(fam, x, x) - 1.0) <= 1e-10
        y = sample_features(fam, rng)
        assert abs(exact_kernel(fam, x, y) - exact_kernel(fam, y, x)) <= 1e-10

    fam = KernelFamily(3, 1, Entanglement.LINEAR)
    data = [sample_features(fam, rng) for _ in range(8)]
    assert np.linalg.eigvalsh(kernel_matrix(fam, data)).min() >= -1e-8

    shots, n_seeds, worst_excess = 1000, 200, 0.0
    pair_index = 0
    for n in (2, 3, 4):
        fam = KernelFamily(n, 1, Entanglement.LINEAR)
        count = 4 if n < 4 else 2  # 10 random pairs total
        for _ in range(count):
            x, y = sample_features(fam, rng), sample_features(fam, rng)
            p = exact_kernel(fam, x, y)
            mean = np.mean(
                [estimate_kernel(fam, x, y, shots, seed=(pair_index, s)).estimate
                 for s in range(n_seeds)]
            )
            band = 4.0 * math.sqrt(p * (1.0 - p) / shots)
            assert abs(mean - p) <= band, f"n={n}: |{mean:.4f} - {p:.4f}| > {band:.4f}"
            worst_excess = max(worst_excess, abs(mean - p) / band if band else 0.0)
            pair_index += 1
    _ok("criterion 6", f"worst bias at {worst_excess:.2f} of the binomial band")


def test_criterion_7_transpiler_correctness():
    """Routing legality on 200 random circuits, unitary equivalence after
    layout correction for widths <= 4, and the depth trends: full
    entanglement beats linear on a line map at n=5 for d in {1,2,3}, and
    mean depth is nondecreasing in d."""
    rng = np.random.default_rng(7)
    maps = [line_map(4), heavy_hex_like_map(7), all_to_all_map(5)]
    checked = 0
    for i in range(200):
        cmap = maps[i % len(maps)]
        width = int(rng.integers(2, min(5, cmap.num_qubits) + 1))
        c = decompose(random_circuit(width, int(rng.integers(5, 30)), rng))
        routed = route(c, cmap)
        assert uses_only_map_edges(routed.circuit, cmap)
        if width <= 4:
            got = simulate(routed.circuit).amplitudes.reshape((2,) * cmap.num_qubits)
            got = np.moveaxis(got, routed.final_layout, range(width)).reshape(-1)
            want = simulate(c).amplitudes
            idle = 2 ** (cmap.num_qubits - width)
            assert np.abs(got[: 2 ** width * idle : idle] - want).max() <= 1e-8
        checked += 1
    assert checked == 200

    lmap = line_map(5)
    prev_full = prev_linear = 0.0
    for d in (1, 2, 3):
        full = mean_transpiled_depth(
            sample_kernel_circuits(KernelFamily(5, d, Entanglement.FULL), 25, seed=2), lmap
        )
        linear = mean_transpiled_depth(
            sample_kernel_circuits(KernelFamily(5, d, Entanglement.LINEAR), 25, seed=2), lmap
        )
        assert full > linear, f"d={d}"
        assert full >= prev_full and linear >= prev_linear, f"d={d}"
        prev_full, prev_linear = full, linear
    _ok("criterion 7")


def test_criterion_8_execution_stack_regimes():
    """Stack simulator fitted to the reference runs reproduces the shot-sweep
    shape (monotone r, r<0.1 at S=10, r>1 for S>=1000 on at least 3 of 5
    backends); with zero overheads and jitter every loss is exactly 0; the
    calibration round-trips within 1e-6."""
    shaped = 0
    for name, rows in SHOT_SWEEP_RUNS.items():
        backend = get_backend(name)
        d = float(backend.qv_layers)
        obs = []
        for shots, ratio in zip(SHOT_SWEEP_SHOTS, rows["ratio"]):
            job = JobSpec(100, shots, 1, d)
            obs.append((job, predict_runtime(job, backend) / ratio))
        clops_job = JobSpec(100, 100, 1, d)
        obs.append((clops_job, CLOPS_JOB_RUNS[name][2]))
        fitted = fit_params(obs, fix_t_job=0.0)
        assert fitted.t_circ > 0.0
        mean_model = StackTimingParams(fitted.t_job, fitted.t_circ, fitted.t_layer_shot, 0.0)
        ratios = []
        for shots in SHOT_SWEEP_SHOTS:
            job = JobSpec(100, shots, 1, d)
            ratios.append(predict_runtime(job, backend) / simulate_job_runtime(job, mean_model, 0))
        assert all(a < b for a, b in zip(ratios, ratios[1:])), f"{name}: not monotone"
        if ratios[0] < 0.1 and all(r > 1.0 for s, r in zip(SHOT_SWEEP_SHOTS, ratios) if s >= 1000):
            shaped += 1
    assert shaped >= 3, f"only {shaped}/5 backends reproduce the sweep shape"

    backend = BackendSpec("pow2", 8, 16, 2048.0)
    ideal = StackTimingParams(0.0, 0.0, 1.0 / 2048.0, 0.0)
    for shots in SHOT_SWEEP_SHOTS:
        job = JobSpec(100, shots, 1, 4.0)
        rep = score(predict_runtime(job, backend), simulate_job_runtime(job, ideal, 0))
        assert rep.loss == 0.0

    true = StackTimingParams(2.0, 0.31, 8.5e-5, 0.0)
    jobs = [JobSpec(m, s, 1, 4.0) for m in (10, 100, 400) for s in (10, 100, 1000)]
    fitted = fit_params([(j, simulate_job_runtime(j, true, 0)) for j in jobs])
    for got, want in [(fitted.t_job, 2.0), (fitted.t_circ, 0.31), (fitted.t_layer_shot, 8.5e-5)]:
        assert abs(got - want) / want <= 1e-6
    _ok("criterion 8", f"{shaped}/5 backends match the sweep shape")


def test_criterion_9_reproducibility(tmp_path):
    """Rerunning any artifact-producing subcommand with the same seed yields
    byte-identical files."""
    runner = CliRunner()
    data = tmp_path / "data.csv"
    rng = np.random.default_rng(1)
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(rng.uniform(0, 2 * np.pi, (3, 2)).tolist())
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"t_job": 0.1, "t_circ": 0.4, "t_layer_shot": 5e-5, "jitter": 0.1}))

    invocations = {
        "gen-circuits": lambda out: [
            "gen-circuits", "--family", '{"n":3,"d":2,"entanglement":"full"}',
            "--count", "3", "--seed", "13", "--out", str(out)],
        "deff": lambda out: [
            "deff", "--family", '{"n":3,"d":1}', "--map", "line:4",
            "--kernel-samples", "5", "--qv-samples", "5", "--seed", "3", "--out", str(out)],
        "simulate-kernel": lambda out: [
            "simulate-kernel", "--family", '{"n":2,"d":1}', "--data", str(data),
            "--shots", "200", "--seed", "4", "--out", str(out)],
        "extrapolate": lambda out: [
            "extrapolate", "--N", "100,2513", "--S", "4000", "--deff", "2",
            "--clops", "1000,10000", "--out", str(out)],
        "sweep": lambda out: [
            "sweep", "--backend", "ibmq_jakarta", "--params", str(params),
            "--M", "10,100", "--S", "100,1000",
            "--families", '[{"n":3,"d":1,"entanglement":"linear"}]',
            "--kernel-samples", "3", "--qv-samples", "3", "--seed", "5", "--out", str(out)],
    }
    for name, build in invocations.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            result = runner.invoke(cli_main, build(out))
            assert result.exit_code == 0, f"{name}: {result.output}"
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{name} artifacts differ between identical runs"
    _ok("criterion 9", f"{len(invocations)} subcommands byte-identical")
