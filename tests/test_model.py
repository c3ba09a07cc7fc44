import copy
import json
import math
import operator
import pickle
from collections import namedtuple

import numpy as np
import pytest

from refdata import CLOPS_JOB_RUNS
from qjobtime.errors import BackendNotFoundError, InvalidParameterError
from qjobtime.transpile import coupling
from qjobtime.transpile.coupling import heavy_hex_like_map
from qjobtime.model import (
    BackendSpec,
    CLOPS_PROTOCOL,
    FrozenRecord,
    JobSpec,
    RuntimeReport,
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
from qjobtime.records import RuntimeRecord


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
        pytest.param(lambda: score(0.17, 1.7976931348623157e308), id="score-overflowing-loss"),
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


def rebuilds(record):
    """Every way to rebuild `record` from its fields: pickling at each
    protocol, copying, `_make` and `_replace`."""
    return ([lambda p=p: pickle.loads(pickle.dumps(record, p)) for p in range(6)]
            + [lambda: copy.copy(record), lambda: copy.deepcopy(record),
               lambda: type(record)._make(record), lambda: record._replace()])


def assert_record_contract(record, expected_repr: str) -> None:
    """The value rules every record keeps: its repr, equality and hash by
    value with its own class only, no order, no assignment, and rebuilds that
    give an equal record of the same class."""
    cls, fields = type(record), tuple(record)
    assert repr(record) == expected_repr
    same = cls(*fields)
    assert same == record and not same != record and hash(same) == hash(record) == hash(fields)
    assert cls(**record._asdict()) == record
    # neither a plain tuple nor another record class with equal fields is equal
    other = type("Other", (FrozenRecord, namedtuple("Other", cls._fields)), {})(*fields)
    for stranger in (fields, other):
        assert record != stranger and stranger != record
        assert not record == stranger and not stranger == record
    for order in (operator.lt, operator.le, operator.gt, operator.ge):
        for left, right in ((record, same), (record, fields), (fields, record)):
            with pytest.raises(TypeError):
                order(left, right)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    for rebuild in rebuilds(record):
        clone = rebuild()
        assert type(clone) is cls and clone == record and repr(clone) == expected_repr


def assert_rebuilds_check(record, error: str, **bad) -> None:
    """`record`, made past its checks, is refused with `error` by every
    rebuild, and so is `_replace` with the `bad` field values."""
    for rebuild in rebuilds(record) + [lambda: record._replace(**bad)]:
        with pytest.raises(InvalidParameterError) as info:
            rebuild()
        assert str(info.value) == error


class TestRecordContract:
    """The four light-path value types are namedtuple records that keep the
    construction, checks, repr, equality and hash they had as frozen
    dataclasses, and rebuild (pickle, copy, `_make`, `_replace`) through
    their checks."""

    def test_job_spec(self):
        job = JobSpec(3, 100)
        assert (job.updates, job.d_eff) == (1, 1.0)
        assert job == JobSpec(circuits=3, shots=100, updates=1, d_eff=1.0)
        assert JobSpec(3, 100, 2, 1.5) == JobSpec(d_eff=1.5, updates=2, shots=100, circuits=3)
        assert_record_contract(job, "JobSpec(circuits=3, shots=100, updates=1, d_eff=1.0)")
        assert_record_contract(JobSpec(3, 100, 2, 1.5),
                               "JobSpec(circuits=3, shots=100, updates=2, d_eff=1.5)")
        assert not hasattr(job, "__dict__")
        needs = "JobSpec needs circuits, shots, updates >= 1"
        for make, error in [
            (lambda: JobSpec(0, 1), needs), (lambda: JobSpec(1, 0), needs),
            (lambda: JobSpec(1, 1, 0), needs),
            (lambda: JobSpec(1, 1, 1, 0.0), "d_eff must be finite and above 0, got 0.0"),
            (lambda: JobSpec(1, 1, d_eff=math.inf), "d_eff must be finite and above 0, got inf"),
            (lambda: JobSpec(1, 1, 1, 10**400),
             "d_eff must be finite and above 0, got an int beyond float range"),
            (lambda: JobSpec(10**200, 10**200, 1, 1e100), "M*K*S*d_eff overflows a float"),
        ]:
            with pytest.raises(InvalidParameterError) as info:
                make()
            assert str(info.value) == error
        assert_rebuilds_check(tuple.__new__(JobSpec, (0, 1, 1, 1.0)), needs, circuits=0)

    def test_backend_spec(self, monkeypatch):
        built = []
        monkeypatch.setattr(coupling, "heavy_hex_like_map", lambda n: built.append(n) or [n])
        hanoi = BackendSpec("ibm_hanoi", 27, 64, 2300.0)
        assert hanoi == BackendSpec(clops=2300.0, quantum_volume=64, num_qubits=27,
                                    name="ibm_hanoi")
        text = "BackendSpec(name='ibm_hanoi', num_qubits=27, quantum_volume=64, clops=2300.0)"
        assert_record_contract(hanoi, text)
        # the coupling map is built once, cached, and no part of the value
        unread = BackendSpec("ibm_hanoi", 27, 64, 2300.0)
        assert hanoi.coupling is hanoi.coupling and built == [27]
        assert hanoi == unread and hash(hanoi) == hash(unread) and repr(hanoi) == text
        assert_record_contract(hanoi, text)
        assert all("coupling" not in clone().__dict__ for clone in rebuilds(hanoi))
        assert hanoi.to_dict() == hanoi._asdict()
        power = "quantum volume must be a power of two >= 2, got %s"
        for make, error in [
            (lambda: BackendSpec("x", 5, 48, 1.0), power % 48),
            (lambda: BackendSpec("x", 5, 1, 1.0), power % 1),
            (lambda: BackendSpec("x", 5, 64, 0.0), "CLOPS must be finite and above 0, got 0.0"),
            (lambda: BackendSpec("x", 5, 64, math.nan),
             "CLOPS must be finite and above 0, got nan"),
            (lambda: BackendSpec("x", 2, 16, 1.0), "log2(V) = 4 exceeds qubit count 2"),
        ]:
            with pytest.raises(InvalidParameterError) as info:
                make()
            assert str(info.value) == error
        assert_rebuilds_check(tuple.__new__(BackendSpec, ("x", 5, 48, 1.0)), power % 48,
                              quantum_volume=48)

    def test_count_fields_are_integers(self):
        """A count field is refused as `INVALID_PARAMETER` unless it is an
        integer, Python's or numpy's: never a float, a bool or a string."""
        for make, error in [
            (lambda: JobSpec(1.5, 2), "circuits must be an integer, got 1.5"),
            (lambda: JobSpec(True, True), "circuits must be an integer, got True"),
            (lambda: JobSpec(3, "100"), "shots must be an integer, got '100'"),
            (lambda: JobSpec(3, 100, np.True_), "updates must be an integer, got np.True_"),
            (lambda: BackendSpec("x", 27.5, 64, 1.0), "num_qubits must be an integer, got 27.5"),
            (lambda: BackendSpec("x", 27, 64.0, 1.0),
             "quantum_volume must be an integer, got 64.0"),
            (lambda: kernel_job_size(2.5), "N must be an integer, got 2.5"),
        ]:
            with pytest.raises(InvalidParameterError) as info:
                make()
            assert str(info.value) == error
        assert JobSpec(np.int64(3), np.int32(100)).total_layers == 300.0
        assert BackendSpec("x", np.int64(27), np.int16(64), 1.0).qv_layers == 6
        assert kernel_job_size(np.int64(4)) == 6

    def test_runtime_report(self):
        report = score(2.0, 1.0)
        assert report == RuntimeReport(2.0, 1.0, 2.0, 1.0)
        assert report == RuntimeReport(loss=1.0, ratio=2.0, actual=1.0, predicted=2.0)
        assert_record_contract(report, "RuntimeReport(predicted=2.0, actual=1.0, ratio=2.0, loss=1.0)")
        assert not hasattr(report, "__dict__")

    def test_runtime_record(self):
        record = RuntimeRecord(JobSpec(3, 100), "ibm_hanoi", 1.5)
        assert record == RuntimeRecord(seconds=1.5, backend="ibm_hanoi", job=JobSpec(3, 100))
        assert_record_contract(record, "RuntimeRecord(job=JobSpec(circuits=3, shots=100, "
                                       "updates=1, d_eff=1.0), backend='ibm_hanoi', seconds=1.5)")
        assert not hasattr(record, "__dict__")
        # its job is rebuilt through the job's checks by pickling and deep copying
        smuggled = RuntimeRecord(tuple.__new__(JobSpec, (0, 1, 1, 1.0)), "ibm_hanoi", 1.5)
        for rebuild in rebuilds(smuggled)[:6] + [lambda: copy.deepcopy(smuggled)]:
            with pytest.raises(InvalidParameterError, match="JobSpec needs"):
                rebuild()


class TestFormatDuration:
    def test_units(self):
        assert format_duration(12.0) == "12 s"
        assert format_duration(7200.0) == "2.0 hours"
        assert format_duration(25_250_624.0) == "292.3 days"
        assert format_duration(2.0e9) == "63.4 years"
