import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CliRunner
from refdata import CLOPS_JOB_RUNS, SHOT_SWEEP_RUNS, SHOT_SWEEP_SHOTS
from qjobtime.cli import main
from qjobtime.errors import FitError, InvalidParameterError
from qjobtime.execsim import (
    StackTimingParams,
    _nnls,
    fit_params,
    simulate_job_runtime,
)
from qjobtime.model import BackendSpec, JobSpec, get_backend, predict_runtime, score


def reference_observations(name: str) -> list[tuple[JobSpec, float]]:
    """Reconstruct measured runtimes from the published ratios: T = T_hat / r."""
    backend = get_backend(name)
    d = float(backend.qv_layers)
    obs = []
    for shots, ratio in zip(SHOT_SWEEP_SHOTS, SHOT_SWEEP_RUNS[name]["ratio"]):
        job = JobSpec(100, shots, 1, d)
        obs.append((job, predict_runtime(job, backend) / ratio))
    job = JobSpec(100, 100, 1, d)
    obs.append((job, CLOPS_JOB_RUNS[name][2]))
    return obs


class TestSimulateJobRuntime:
    def test_exact_when_model_assumptions_hold(self):
        # a power-of-two speed makes 1/C exact, so T_sim = T_pred bit for bit
        backend = BackendSpec("pow2", 8, 16, 1024.0)
        params = StackTimingParams(0.0, 0.0, 1.0 / 1024.0, 0.0)
        for m in (1, 3, 7, 100, 333):
            for shots in (10, 100, 1000, 8000):
                job = JobSpec(m, shots, 3, 4.37)
                simulated = simulate_job_runtime(job, params, seed=0)
                assert simulated == predict_runtime(job, backend)
                assert score(predict_runtime(job, backend), simulated).loss == 0.0

    def test_circuit_overhead_causes_under_prediction_at_low_shots(self):
        backend = BackendSpec("b", 8, 16, 2000.0)
        params = StackTimingParams(0.0, 0.5, 1.0 / 2000.0, 0.0)
        job = JobSpec(100, 10, 1, 4.0)
        rep = score(predict_runtime(job, backend), simulate_job_runtime(job, params, 0))
        assert rep.ratio < 1.0

    def test_ratio_strictly_increasing_in_shots(self):
        backend = BackendSpec("b", 8, 16, 2000.0)
        params = StackTimingParams(1.0, 0.4, 2.5e-4, 0.0)
        ratios = []
        for shots in (10, 50, 100, 500, 1000, 4000):
            job = JobSpec(100, shots, 1, 4.0)
            ratios.append(predict_runtime(job, backend) / simulate_job_runtime(job, params, 0))
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_ratio_stable_across_circuit_count(self):
        backend = get_backend("ibm_hanoi")
        params = StackTimingParams(0.5, 0.65, 5.1e-5, 0.0)
        jobs = [JobSpec(m, 100, 1, 6.0) for m in (10, 25, 50, 100, 250, 500)]
        ratios = np.array(
            [predict_runtime(j, backend) / simulate_job_runtime(j, params, seed=1) for j in jobs]
        )
        assert ratios.std() / ratios.mean() < 0.10

    def test_jitter_deterministic_and_positive(self):
        params = StackTimingParams(1.0, 0.1, 1e-4, 0.9)
        job = JobSpec(10, 100, 1, 2.0)
        values = [simulate_job_runtime(job, params, seed=s) for s in range(200)]
        assert values == [simulate_job_runtime(job, params, seed=s) for s in range(200)]
        assert all(v > 0 for v in values)
        assert len(set(values)) > 1

    def test_param_invariants(self):
        with pytest.raises(InvalidParameterError):
            StackTimingParams(-1.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            StackTimingParams(0.0, 0.0, 0.0, 1.0)


class TestFitParams:
    def make_observations(self, params, rng):
        jobs = [
            JobSpec(int(m), int(s), 1, float(d))
            for m in (10, 50, 200)
            for s in (10, 100, 1000)
            for d in (2.0, 4.0)
        ]
        return [(j, simulate_job_runtime(j, params, seed=0)) for j in jobs]

    def test_noiseless_round_trip(self, rng):
        true = StackTimingParams(3.0, 0.25, 7.3e-5, 0.0)
        fitted = fit_params(self.make_observations(true, rng))
        assert fitted.t_job == pytest.approx(true.t_job, rel=1e-6)
        assert fitted.t_circ == pytest.approx(true.t_circ, rel=1e-6)
        assert fitted.t_layer_shot == pytest.approx(true.t_layer_shot, rel=1e-6)
        assert fitted.jitter < 1e-6

    def test_underdetermined_rejected(self):
        job = JobSpec(10, 10, 1, 1.0)
        with pytest.raises(FitError):
            fit_params([(job, 1.0), (JobSpec(10, 20, 1, 1.0), 2.0)])

    def test_constant_circuit_count_is_rank_deficient(self):
        jobs = [JobSpec(100, s, 1, 4.0) for s in (10, 100, 1000)]
        obs = [(j, 1.0 + j.shots * 0.001) for j in jobs]
        with pytest.raises(FitError, match="t_job and t_circ"):
            fit_params(obs)

    def test_constant_shots_rejected(self):
        jobs = [JobSpec(m, 100, 1, 4.0) for m in (10, 100, 1000)]
        with pytest.raises(FitError, match="distinct shot"):
            fit_params([(j, float(j.circuits)) for j in jobs])

    def test_fixing_job_overhead_restores_identifiability(self):
        true = StackTimingParams(0.0, 0.4, 6e-5, 0.0)
        jobs = [JobSpec(100, s, 1, 4.0) for s in (10, 100, 1000, 4000)]
        obs = [(j, simulate_job_runtime(j, true, 0)) for j in jobs]
        fitted = fit_params(obs, fix_t_job=0.0)
        assert fitted.t_circ == pytest.approx(0.4, rel=1e-6)
        assert fitted.t_layer_shot == pytest.approx(6e-5, rel=1e-6)

    @pytest.mark.parametrize("name", sorted(SHOT_SWEEP_RUNS))
    def test_reference_data_fits_with_positive_circuit_overhead(self, name):
        fitted = fit_params(reference_observations(name), fix_t_job=0.0)
        assert fitted.t_circ > 0.0
        assert fitted.t_layer_shot > 0.0

    @pytest.mark.parametrize("name", sorted(SHOT_SWEEP_RUNS))
    def test_loss_minimized_at_intermediate_shots(self, name):
        backend = get_backend(name)
        d = float(backend.qv_layers)
        fitted = fit_params(reference_observations(name), fix_t_job=0.0)
        mean_model = StackTimingParams(fitted.t_job, fitted.t_circ, fitted.t_layer_shot, 0.0)
        losses = []
        for shots in SHOT_SWEEP_SHOTS:
            job = JobSpec(100, shots, 1, d)
            rep = score(predict_runtime(job, backend), simulate_job_runtime(job, mean_model, 0))
            losses.append(rep.loss)
        best = losses.index(min(losses))
        assert 0 < best < len(losses) - 1


class TestSweep:
    """The CLI `sweep` command is the one sweep over (M, S) pairs."""

    def sweep(self, tmp_path, params, *extra, seed=0) -> str:
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main,
            ["sweep", "--backend", "ibmq_jakarta", "--params", str(path),
             "--M", "10,100", "--S", "100,1000",
             "--families", '[{"n":3,"d":1,"entanglement":"linear"}]',
             "--kernel-samples", "5", "--qv-samples", "5", "--seed", str(seed),
             "--out", str(out), *extra],
        )
        assert result.exit_code == 0, result.output
        return out.read_text()

    def test_zero_overhead_sweep_all_losses_zero(self, tmp_path):
        # No stack overhead at the backend's own speed: every loss is 0. A
        # power-of-two speed keeps T_sim = T_pred exact in floating point.
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(
            {"backends": [{"name": "pow2", "num_qubits": 7, "quantum_volume": 16, "clops": 2048.0}]}
        ))
        text = self.sweep(
            tmp_path, {"t_job": 0.0, "t_circ": 0.0, "t_layer_shot": 1 / 2048, "jitter": 0.0},
            "--backend", "pow2", "--registry", str(registry),
        )
        assert [float(row["L"]) for row in csv.DictReader(io.StringIO(text))] == [0.0] * 4

    def test_deterministic_per_seed(self, tmp_path):
        params = {"t_job": 1.0, "t_circ": 0.3, "t_layer_shot": 1e-4, "jitter": 0.2}
        first = self.sweep(tmp_path, params, seed=7)
        assert self.sweep(tmp_path, params, seed=7) == first
        assert self.sweep(tmp_path, params, seed=8) != first


class TestNNLS:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.floats(-10, 10), min_size=n, max_size=n),
                    min_size=n, max_size=8,
                ),
                st.lists(st.floats(-10, 10), min_size=8, max_size=8),
            )
        )
    )
    def test_kkt_conditions(self, design_and_target):
        rows, target = design_and_target
        a = np.array(rows)
        b = np.array(target[: len(rows)])
        x = _nnls(a, b)
        grad = a.T @ (a @ x - b)
        tol = 1e-8 * (1.0 + np.abs(a).max() ** 2) * (1.0 + np.abs(b).max() + np.abs(x).max())
        assert np.all(x >= 0)
        assert np.all(grad[x == 0] >= -tol)
        assert np.all(np.abs(grad[x > 0]) <= tol)

    def test_overflowing_subset_fit_is_not_feasible(self):
        # the second column alone fits b only at x1 = 1 / 2.2e-309, beyond float range
        a = np.array([[0.0, 0.0], [0.0, 2.225073858507203e-309]])
        x = _nnls(a, np.array([0.0, 1.0]))
        assert np.array_equal(x, [0.0, 0.0])

    def test_active_constraint_is_hit(self):
        # The unconstrained fit is (2, -1); the constrained optimum pins x1 = 0.
        a = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        b = a @ np.array([2.0, -1.0])
        x = _nnls(a, b)
        assert x[1] == 0.0
        assert x[0] == pytest.approx(b.mean())
