import json
import math

import numpy as np
import pytest

from refdata import CLOPS_JOB_RUNS
from qjobtime.errors import BackendNotFoundError, InvalidParameterError
from qjobtime.transpile import coupling
from qjobtime.transpile.coupling import heavy_hex_like_map
from qjobtime.model import (
    BackendSpec,
    CLOPS_PROTOCOL,
    JobSpec,
    builtin_backends,
    clops_from_measurement,
    extrapolate,
    format_duration,
    get_backend,
    kernel_job_size,
    loss_from_ratio,
    predict_runtime,
    registry_from_json,
    registry_to_json,
    required_shots,
    score,
    shot_limited_runtime,
    total_runtime_scaling,
)


class TestClops:
    def test_direct_arithmetic(self):
        # M*D*K*S = 100*4*10*100 = 4e5 layer-shots over 1000 s
        assert clops_from_measurement(100, 4, 10, 100, 1000.0) == pytest.approx(400.0)

    def test_round_trips_with_prediction(self):
        c = clops_from_measurement(80, 5, 2, 700, 431.0)
        backend = BackendSpec("b", 8, 32, c)
        job = JobSpec(80, 700, 2, 5.0)
        assert predict_runtime(job, backend) == pytest.approx(431.0, rel=1e-12)

    def test_measurement_protocol_defaults(self):
        assert CLOPS_PROTOCOL == {"circuits": 100, "shots": 100, "updates": 10}

    def test_nonpositive_time_rejected(self):
        with pytest.raises(InvalidParameterError):
            clops_from_measurement(1, 1, 1, 1, 0.0)


class TestPredictRuntime:
    def test_unit_case(self):
        backend = BackendSpec("u", 2, 2, 1.0)
        assert predict_runtime(JobSpec(1, 1, 1, 1.0), backend) == 1.0

    def test_reference_speed_jobs_within_five_percent(self):
        for name, (qv, clops, _t, t_pred, _r, _l) in CLOPS_JOB_RUNS.items():
            backend = get_backend(name)
            assert backend.quantum_volume == qv and backend.clops == clops
            job = JobSpec(100, 100, 1, float(backend.qv_layers))
            assert predict_runtime(job, backend) == pytest.approx(t_pred, rel=0.05)

    def test_exactly_linear_in_each_factor(self):
        backend = BackendSpec("b", 8, 16, 1700.0)
        base = predict_runtime(JobSpec(10, 20, 3, 2.5), backend)
        assert predict_runtime(JobSpec(20, 20, 3, 2.5), backend) == pytest.approx(2 * base, rel=1e-12)
        assert predict_runtime(JobSpec(10, 40, 3, 2.5), backend) == pytest.approx(2 * base, rel=1e-12)
        assert predict_runtime(JobSpec(10, 20, 6, 2.5), backend) == pytest.approx(2 * base, rel=1e-12)
        assert predict_runtime(JobSpec(10, 20, 3, 5.0), backend) == pytest.approx(2 * base, rel=1e-12)
        double_speed = BackendSpec("b2", 8, 16, 3400.0)
        assert predict_runtime(JobSpec(10, 20, 3, 2.5), double_speed) == pytest.approx(base / 2, rel=1e-12)


class TestScore:
    def test_exact_agreement(self):
        rep = score(10.0, 10.0)
        assert rep.ratio == 1.0 and rep.loss == 0.0
        assert not rep.ratio < 1

    def test_reference_under_prediction_rounds_to_published_values(self):
        rep = score(25.6, 68.0)
        assert round(rep.ratio, 1) == 0.4
        assert round(rep.loss, 1) == 1.7
        assert rep.ratio < 1

    @pytest.mark.parametrize(
        "ratio,loss",
        [(2.0, 1.0), (0.5, 1.0), (0.25, 3.0), (4.0, 3.0), (0.1, 9.0), (1.9, 0.9)],
    )
    def test_two_branch_loss(self, ratio, loss):
        assert loss_from_ratio(ratio) == pytest.approx(loss)

    def test_under_prediction_penalized_more_steeply(self):
        # equal distance from 1 on a log scale: loss is equal; on a linear
        # scale the under-prediction side grows much faster
        assert loss_from_ratio(0.1) > loss_from_ratio(1.9)

    def test_loss_shape(self):
        grid = np.linspace(0.05, 0.99, 40)
        losses = [loss_from_ratio(r) for r in grid]
        assert all(a > b for a, b in zip(losses, losses[1:]))  # decreasing on (0,1)
        grid = np.linspace(1.0, 8.0, 40)
        losses = [loss_from_ratio(r) for r in grid]
        assert all(a < b for a, b in zip(losses, losses[1:]))  # increasing on (1,inf)
        assert loss_from_ratio(1.0) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidParameterError):
            score(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            score(1.0, -2.0)


class TestKernelJobSize:
    def test_smallest_dataset(self):
        assert kernel_job_size(2) == 1

    def test_county_level_dataset(self):
        assert kernel_job_size(2513) == 3_156_328

    def test_zip_code_level_dataset(self):
        assert kernel_job_size(70571) == 2_490_097_735

    def test_increment_property(self):
        for n in (2, 10, 1000):
            assert kernel_job_size(n + 1) - kernel_job_size(n) == n

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            kernel_job_size(1)


class TestExtrapolate:
    def test_county_dataset_at_current_speeds(self):
        seconds = extrapolate(2513, 4000, 2.0, 1000.0)
        assert seconds == pytest.approx(3_156_328 * 4000 * 2.0 / 1000.0)
        assert 250 <= seconds / 86400 <= 330

    def test_county_dataset_at_demonstrated_speeds(self):
        seconds = extrapolate(2513, 4000, 2.0, 10_000.0)
        assert seconds / 86400 == pytest.approx(29.2, abs=0.2)

    def test_zip_dataset_remains_infeasible(self):
        seconds = extrapolate(70571, 4000, 2.0, 10_000.0)
        assert seconds / (365.25 * 86400) > 50


class TestRequiredShots:
    def test_degenerate_boundary(self):
        assert required_shots(2, 1.0, 1.0) == math.ceil(2 ** (8 / 3)) == 7

    def test_doubling_dataset_scales_shots(self):
        base = required_shots(100, 0.1, 1.0)
        doubled = required_shots(200, 0.1, 1.0)
        assert doubled / base == pytest.approx(2 ** (8 / 3), rel=0.01)

    def test_halving_error_quadruples_shots(self):
        base = required_shots(100, 0.2, 1.0)
        assert required_shots(100, 0.1, 1.0) / base == pytest.approx(4.0, rel=0.01)

    def test_epsilon_domain(self):
        with pytest.raises(InvalidParameterError):
            required_shots(10, 0.0)
        with pytest.raises(InvalidParameterError):
            required_shots(10, 1.5)

    def test_total_runtime_scaling_power_law(self):
        base = total_runtime_scaling(100, 0.1, 1.0, 2.0, 1000.0)
        doubled = total_runtime_scaling(200, 0.1, 1.0, 2.0, 1000.0)
        assert doubled / base == pytest.approx(2 ** (14 / 3), rel=1e-9)

    def test_shot_limited_runtime_consistent(self):
        n, eps = 50, 0.2
        expected = extrapolate(n, required_shots(n, eps, 1.0), 2.0, 1000.0)
        assert shot_limited_runtime(n, eps, 1.0, 2.0, 1000.0) == expected


NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: score(NAN, 1.0), id="score-nan-predicted"),
        pytest.param(lambda: score(1.0, NAN), id="score-nan-actual"),
        pytest.param(lambda: loss_from_ratio(NAN), id="loss-nan-ratio"),
        pytest.param(lambda: clops_from_measurement(1, 1, 1, 1, NAN), id="clops-nan-elapsed"),
        pytest.param(lambda: format_duration(NAN), id="duration-nan"),
        pytest.param(lambda: format_duration(math.inf), id="duration-inf"),
        pytest.param(lambda: required_shots(10, 0.1, NAN), id="shots-nan-scale"),
        pytest.param(lambda: required_shots(10, 0.1, math.inf), id="shots-inf-scale"),
        pytest.param(lambda: required_shots(10**200, 0.1), id="shots-overflowing-n"),
        pytest.param(lambda: total_runtime_scaling(100, 0.0, 1.0, 2.0, 1000.0), id="scaling-zero-eps"),
        pytest.param(lambda: total_runtime_scaling(100, 0.1, 1.0, NAN, 1000.0), id="scaling-nan-deff"),
        pytest.param(lambda: total_runtime_scaling(10**200, 0.1, 1.0, 2.0, 1000.0),
                     id="scaling-overflowing-n"),
        pytest.param(lambda: JobSpec(1, 1, 1, 10**400), id="job-huge-int-deff"),
        pytest.param(lambda: score(10**400, 1.0), id="score-huge-int-predicted"),
    ],
)
def test_non_finite_input_or_result_is_a_coded_error(call):
    """NaN, infinite and overflowing inputs (floats, and ints beyond float
    range) raise the coded error, never return NaN or raise a bare Python
    arithmetic error."""
    with pytest.raises(InvalidParameterError):
        call()


class TestRegistry:
    def test_builtin_contents(self):
        reg = builtin_backends()
        assert set(reg) == {
            "ibm_hanoi", "ibmq_guadalupe", "ibmq_jakarta",
            "ibmq_mumbai", "ibmq_toronto", "ibmq_auckland",
        }
        auckland = reg["ibmq_auckland"]
        assert auckland.num_qubits == 27
        assert auckland.quantum_volume == 64
        assert auckland.clops == 2400.0

    def test_qv_layer_derivation(self):
        for name, (qv, _c, *_rest) in CLOPS_JOB_RUNS.items():
            assert get_backend(name).qv_layers == int(math.log2(qv))

    def test_coupling_attached(self):
        for backend in builtin_backends().values():
            expected = heavy_hex_like_map(backend.num_qubits)
            assert backend.coupling.num_qubits == expected.num_qubits
            assert backend.coupling.edges == expected.edges
            assert backend.coupling is backend.coupling  # built once

    def test_loading_builds_no_coupling_map(self, monkeypatch):
        """Maps are built on first read: a registry with a 3000-qubit entry
        loads without its all-pairs tables."""
        built = []
        monkeypatch.setattr(coupling, "heavy_hex_like_map", lambda n: built.append(n) or n)
        entry = {"name": "big", "num_qubits": 3000, "quantum_volume": 64, "clops": 1.0}
        reg = registry_from_json(json.dumps({"backends": [entry]}))
        builtin = builtin_backends()
        assert built == []
        assert reg["big"].coupling == 3000 and builtin["ibm_hanoi"].coupling == 27
        assert built == [3000, 27]

    def test_unknown_backend(self):
        with pytest.raises(BackendNotFoundError):
            get_backend("ibm_nowhere")

    def test_power_of_two_enforced(self):
        with pytest.raises(InvalidParameterError):
            BackendSpec("bad", 5, 48, 1000.0)
        with pytest.raises(InvalidParameterError):
            BackendSpec("bad", 2, 16, 1000.0)  # log2(16)=4 > 2 qubits

    def test_registry_json_round_trip(self):
        reg = builtin_backends()
        text = registry_to_json(reg)
        again = registry_to_json(registry_from_json(text))
        assert text == again


class TestJobSpec:
    def test_invariants(self):
        with pytest.raises(InvalidParameterError):
            JobSpec(0, 1)
        with pytest.raises(InvalidParameterError):
            JobSpec(1, 1, 1, 0.0)


class TestFormatDuration:
    def test_units(self):
        assert format_duration(12.0) == "12 s"
        assert format_duration(7200.0) == "2.0 hours"
        assert format_duration(25_250_624.0) == "292.3 days"
        assert format_duration(2.0e9) == "63.4 years"
