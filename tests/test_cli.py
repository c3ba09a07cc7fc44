import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import CliRunner
from refdata import CLOPS_JOB_RUNS
from qjobtime import cli, deff, sim
from qjobtime.circuit import MAX_GATES, MAX_SAMPLE_GATES, read_circuits
from qjobtime.cli import COMMANDS, MAX_GRID_ROWS, main
from qjobtime.deff import sample_kernel_circuits, sample_qv_circuits
from qjobtime.errors import MalformedRecordsError, QJobTimeError
from qjobtime.generators import Entanglement, KernelFamily
from qjobtime.model import builtin_backends, registry_to_json
from qjobtime.records import RECORD_HEADER, load_runtime_records
from qjobtime.sim import MAX_AMPLITUDE_UPDATES, MAX_ENTRIES
from qjobtime.transpile.coupling import MAX_MAP_QUBITS


@pytest.fixture
def runner():
    return CliRunner()


def write_reference_records(path):
    rows = []
    for name, (qv, _clops, t_actual, *_rest) in sorted(CLOPS_JOB_RUNS.items()):
        d = int(np.log2(qv))
        rows.append([name, 100, 100, 1, float(d), t_actual])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_HEADER)
        writer.writerows(rows)
    return path


def write_shot_sweep_records(path, name="ibm_hanoi"):
    """Reference actual runtimes for one backend across the shot sweep."""
    from refdata import SHOT_SWEEP_RUNS, SHOT_SWEEP_SHOTS
    from qjobtime.model import JobSpec, get_backend, predict_runtime

    backend = get_backend(name)
    d = float(backend.qv_layers)
    rows = []
    for shots, ratio in zip(SHOT_SWEEP_SHOTS, SHOT_SWEEP_RUNS[name]["ratio"]):
        t = predict_runtime(JobSpec(100, shots, 1, d), backend) / ratio
        rows.append([name, 100, shots, 1, d, t])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_HEADER)
        writer.writerows(rows)
    return path


class TestRecords:
    def test_loads_reference_rows(self, tmp_path):
        path = write_reference_records(tmp_path / "runs.csv")
        records = load_runtime_records(path)
        assert len(records) == 5
        assert {r.backend for r in records} == set(CLOPS_JOB_RUNS)
        assert sorted(r.seconds for r in records) == sorted(
            v[2] for v in CLOPS_JOB_RUNS.values()
        )

    def test_empty_body_warns(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(RECORD_HEADER) + "\n")
        with pytest.warns(UserWarning):
            assert load_runtime_records(path) == []

    def test_zero_runtime_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(RECORD_HEADER) + "\nibm_hanoi,100,100,1,6.0,50.0\nibm_hanoi,100,100,1,6.0,0.0\n"
        )
        with pytest.raises(MalformedRecordsError, match=":3"):
            load_runtime_records(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("backend,M,S\n")
        with pytest.raises(MalformedRecordsError):
            load_runtime_records(path)

    def test_save_load_round_trip(self, tmp_path):
        path = write_reference_records(tmp_path / "runs.csv")
        records = load_runtime_records(path)
        out = tmp_path / "copy.csv"
        from qjobtime.records import save_runtime_records

        save_runtime_records(out, records)
        assert load_runtime_records(out) == records


class TestPredict:
    def test_reference_prediction(self, runner):
        result = runner.invoke(
            main,
            ["predict", "--backend", "ibm_hanoi", "--M", "100", "--S", "100", "--deff", "6"],
        )
        assert result.exit_code == 0
        seconds = float(re.search(r"predicted_seconds=([\d.e+-]+)", result.output)[1])
        assert seconds == pytest.approx(25.6, rel=0.05)

    def test_unknown_backend_error_code(self, runner):
        result = runner.invoke(
            main,
            ["predict", "--backend", "ibm_atlantis", "--M", "1", "--S", "1", "--deff", "1"],
        )
        assert result.exit_code == 3
        err = json.loads(result.stderr)
        assert err["error"]["code"] == "BACKEND_NOT_FOUND"

    def test_config_file_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"predict": {"m": 100, "s": 100, "deff": 6.0}}))
        result = runner.invoke(
            main, ["--config", str(cfg), "predict", "--backend", "ibm_hanoi"]
        )
        assert result.exit_code == 0, result.output
        seconds = float(re.search(r"predicted_seconds=([\d.e+-]+)", result.output)[1])
        assert seconds == pytest.approx(26.087, rel=1e-3)

    def test_explicit_flags_beat_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"predict": {"m": 100, "s": 100, "deff": 6.0}}))
        result = runner.invoke(
            main, ["--config", str(cfg), "predict", "--backend", "ibm_hanoi", "--deff", "12"]
        )
        assert result.exit_code == 0, result.output
        seconds = float(re.search(r"predicted_seconds=([\d.e+-]+)", result.output)[1])
        assert seconds == pytest.approx(2 * 26.087, rel=1e-3)

    def test_config_values_go_through_the_flag_type(self, runner, tmp_path):
        """String values convert as the same words on the command line would,
        and a group's commands take theirs from its nested object."""
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"backends": [
            {"name": "pow2", "num_qubits": 7, "quantum_volume": 16, "clops": 2048.0}]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"predict": {"m": "100", "s": "100", "deff": "6"},
                                   "backends": {"list": {"registry": str(registry)}}}))
        result = runner.invoke(main, ["--config", str(cfg), "predict", "--backend", "ibm_hanoi"])
        assert result.exit_code == 0, result.output
        seconds = float(re.search(r"predicted_seconds=([\d.e+-]+)", result.output)[1])
        assert seconds == pytest.approx(26.087, rel=1e-3)
        listed = runner.invoke(main, ["--config", str(cfg), "backends", "list"])
        assert listed.exit_code == 0, listed.output
        assert [line.split()[0] for line in listed.stdout.splitlines()[1:]] == ["pow2"]


class TestExtrapolateCommand:
    def test_human_readable_days(self, runner):
        result = runner.invoke(
            main,
            ["extrapolate", "--N", "2513", "--S", "4000", "--deff", "2", "--clops", "1000"],
        )
        assert result.exit_code == 0
        assert "292.3 days" in result.output

    def test_grid_csv(self, runner, tmp_path):
        out = tmp_path / "extrap.csv"
        result = runner.invoke(
            main,
            ["extrapolate", "--N", "100,200", "--S", "4000", "--deff", "2",
             "--clops", "1000,10000", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 4
        assert {r["N"] for r in rows} == {"100", "200"}

    def test_bad_size_list_reports_error_json(self, runner):
        result = runner.invoke(
            main,
            ["extrapolate", "--N", "100,many", "--S", "10", "--deff", "2", "--clops", "1000"],
        )
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["code"] == "INVALID_PARAMETER"


class TestScoreCommand:
    def test_runtime_record_schema(self, runner, tmp_path):
        records = write_reference_records(tmp_path / "runs.csv")
        out = tmp_path / "report.csv"
        result = runner.invoke(main, ["score", "--records", str(records), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 5
        by_name = {r["backend"]: r for r in rows}
        rep = by_name["ibm_hanoi"]
        assert float(rep["r"]) == pytest.approx(26.087 / 68.0, rel=1e-3)
        assert float(rep["L"]) == pytest.approx(68.0 / 26.087 - 1.0, rel=1e-3)

    def test_plain_prediction_schema(self, runner, tmp_path):
        records = tmp_path / "pairs.csv"
        records.write_text("T_pred,T_actual\n25.6,68.0\n10.0,10.0\n")
        out = tmp_path / "report.csv"
        result = runner.invoke(main, ["score", "--records", str(records), "--out", str(out)])
        assert result.exit_code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert float(rows[0]["L"]) == pytest.approx(68.0 / 25.6 - 1.0, rel=1e-6)
        assert float(rows[1]["L"]) == 0.0


class TestCircuitAndKernelCommands:
    def test_gen_circuits_parse_back(self, runner, tmp_path):
        out = tmp_path / "circuits.txt"
        result = runner.invoke(
            main,
            ["gen-circuits", "--family", '{"n":3,"d":1,"entanglement":"full"}',
             "--count", "4", "--seed", "5", "--out", str(out)],
        )
        assert result.exit_code == 0
        circuits = read_circuits(out)
        assert len(circuits) == 4
        assert all(c.width == 3 and c.base_layers == 2 for c in circuits)

    def test_gen_qv_circuits(self, runner, tmp_path):
        out = tmp_path / "qv.txt"
        result = runner.invoke(
            main,
            ["gen-circuits", "--qv-width", "4", "--qv-layers", "4",
             "--count", "2", "--seed", "1", "--out", str(out)],
        )
        assert result.exit_code == 0
        circuits = read_circuits(out)
        assert len(circuits) == 2
        assert all(len(c) == 8 for c in circuits)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_gen_circuits_writes_the_samples_deff_draws(self, runner, tmp_path, seed):
        """A `gen-circuits` file is the `to_text` of `deff`'s samples at its
        seed, blank-line separated: both commands draw through one sampler."""
        fam = KernelFamily(3, 2, Entanglement.FULL)
        runs = {
            "kernel": (["--family", json.dumps(fam.to_dict())],
                       sample_kernel_circuits(fam, 3, seed)),
            "qv": (["--qv-width", "5", "--qv-layers", "3"], sample_qv_circuits(5, 3, 3, seed)),
        }
        for name, (kind, samples) in runs.items():
            out = tmp_path / f"{name}.txt"
            args = ["gen-circuits", *kind, "--count", "3", "--seed", str(seed), "--out", str(out)]
            assert runner.invoke(main, args).exit_code == 0
            assert out.read_text() == "\n".join(c.to_text() for c in samples), name

    def test_gen_circuits_memory_does_not_grow_with_count(self, runner, tmp_path):
        """Each circuit is written as it is built: the traced peak at
        `--count 16` is within 20% of the peak at `--count 1`."""
        args = ["gen-circuits", "--family", '{"n":2,"d":150}', "--out"]  # 1500 gates each
        assert runner.invoke(main, args + [str(tmp_path / "warm.txt")]).exit_code == 0
        peaks = []
        for count in ("1", "16"):
            tracemalloc.start()
            result = runner.invoke(main, args + [str(tmp_path / f"{count}.txt"), "--count", count])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert result.exit_code == 0
        assert (tmp_path / "16.txt").read_text().count("width=") == 16
        assert peaks[1] <= 1.2 * peaks[0], peaks

    def test_deff_command_json(self, runner):
        result = runner.invoke(
            main,
            ["deff", "--family", '{"n":3,"d":1}', "--map", "line:4", "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["v"] == 3
        assert payload["d_eff"] > 0

    def test_deff_on_a_backend_map(self, runner):
        """`--map backend:<name>` is that backend's coupling map."""
        family = ["deff", "--family", '{"n":3,"d":1}', "--map"]
        by_name = runner.invoke(main, family + ["backend:ibmq_jakarta"])
        by_shape = runner.invoke(main, family + ["heavy-hex-like:7"])
        assert by_name.exit_code == 0, by_name.output
        assert by_name.output == by_shape.output

    def test_deff_qv_job_bypass(self, runner):
        result = runner.invoke(
            main,
            ["deff", "--family", '{"n":4,"d":4}', "--map", "heavy-hex-like:7", "--qv-job"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["d_eff"] == 4.0

    def test_simulate_kernel(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rng.uniform(0, 2 * np.pi, (4, 2)).tolist())
        out = tmp_path / "kernel.csv"
        summary = tmp_path / "summary.json"
        result = runner.invoke(
            main,
            ["simulate-kernel", "--family", '{"n":2,"d":1}', "--data", str(data),
             "--out", str(out), "--summary", str(summary)],
        )
        assert result.exit_code == 0, result.output
        info = json.loads(summary.read_text())
        assert info["n"] == 4
        assert info["pairs_evaluated"] == 6
        assert info["positive_semidefinite"] is True
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        matrix = np.array([[float(v) for v in row] for row in rows])
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_simulate_kernel_at_sixteen_qubits(self, runner, tmp_path):
        """n = 16 over 50 vectors runs from the CLI: its 50 x 2^16 states are
        within the simulator's bound, and sampled entries match the
        gate-by-gate `exact_kernel`."""
        from qjobtime.generators import KernelFamily
        from qjobtime.sim import exact_kernel

        family = {"n": 16, "d": 2, "entanglement": "full"}
        rng = np.random.default_rng(16)
        centre = rng.uniform(0, 2 * np.pi, 16)
        vectors = centre + rng.normal(0.0, 0.05, (50, 16))  # entries far from 0
        data, out = tmp_path / "data.csv", tmp_path / "kernel.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(vectors.tolist())
        result = runner.invoke(main, ["simulate-kernel", "--family", json.dumps(family),
                                      "--data", str(data), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["n"] == 50
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        matrix = np.array([[float(v) for v in row] for row in rows])
        fam = KernelFamily.from_dict(family)
        for i, j in ((0, 1), (7, 30), (48, 49)):
            assert abs(matrix[i, j] - exact_kernel(fam, vectors[i], vectors[j])) <= 1e-12

    def test_simulate_kernel_bad_shots_value(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0.1,0.2\n0.3,0.4\n")
        result = runner.invoke(
            main,
            ["simulate-kernel", "--family", '{"n":2,"d":1}', "--data", str(data),
             "--shots", "lots", "--out", str(tmp_path / "k.csv")],
        )
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["code"] == "INVALID_PARAMETER"


class TestSweepAndFit:
    def test_sweep_csv_columns(self, runner, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(
            {"t_job": 0.0, "t_circ": 0.5, "t_layer_shot": 5e-5, "jitter": 0.0}
        ))
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["sweep", "--backend", "ibmq_jakarta", "--params", str(params),
             "--M", "10,100", "--S", "100,1000",
             "--families", '[{"n":3,"d":1,"entanglement":"linear"}]',
             "--kernel-samples", "5", "--qv-samples", "5", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 4
        assert list(rows[0]) == ["backend", "M", "S", "a", "deff", "T_pred", "T_sim", "r", "L"]

    def test_fit_command(self, runner, tmp_path):
        records = write_shot_sweep_records(tmp_path / "runs.csv")
        result = runner.invoke(
            main, ["fit", "--records", str(records), "--fix-t-job", "0"]
        )
        assert result.exit_code == 0, result.output
        params = json.loads(result.output)
        assert params["t_layer_shot"] > 0
        assert params["t_circ"] > 0

    def test_fit_constant_m_needs_pinned_job_overhead(self, runner, tmp_path):
        records = write_shot_sweep_records(tmp_path / "runs.csv")
        result = runner.invoke(main, ["fit", "--records", str(records)])
        assert result.exit_code == 8
        assert json.loads(result.stderr)["error"]["code"] == "FIT_RANK_DEFICIENT"


PAIRS = "T_pred,T_actual\n25.6,68.0\n"
RECORDS = ",".join(RECORD_HEADER) + "\nibm_hanoi,100,100,1,6.0,68.0\n"
SCORE = ["score", "--records", "INPUT", "--out", "OUT"]
KERNEL = ["simulate-kernel", "--family", '{"n":2,"d":1}', "--data", "INPUT", "--out", "OUT"]
PREDICT = ["predict", "--backend", "ibm_hanoi", "--M", "1", "--S", "1", "--deff"]
EXTRAPOLATE = ["extrapolate", "--N", "100", "--S", "10", "--deff", "2", "--clops"]
CONFIG = ["--config", "INPUT"] + PREDICT + ["2"]
MAP_FILE = ["deff", "--family", '{"n":2,"d":1}', "--map", "INPUT"]
REGISTRY = ["backends", "list", "--registry", "INPUT"]
PARAMS = ["sweep", "--backend", "ibm_hanoi", "--params", "INPUT", "--M", "1", "--S", "1",
          "--families", '[{"n":2,"d":1}]', "--out", "OUT"]
FIT_RECORDS = RECORDS + "ibm_hanoi,100,1000,1,6.0,300.0\nibm_hanoi,100,4000,1,6.0,1100.0\n"
FIX_T_JOB = ["fit", "--records", "INPUT", "--fix-t-job"]
TIMING = '{"t_job": %s, "t_circ": 0.1, "t_layer_shot": 0.001}'
BACKEND = '{"name": %s, "num_qubits": %s, "quantum_volume": %s, "clops": %s}'
ONE_BACKEND = '{"backends": [%s]}' % BACKEND
HUGE = "1" + "0" * 400
GEN = ["gen-circuits", "--out", "OUT"]
BAD_MAP = ("COUPLING_MAP", 6)
BAD_CSV, BAD_VALUE = ("MALFORMED_CSV", 4), ("INVALID_PARAMETER", 2)
BAD_GATE = ("INVALID_GATE", 5)
DEFF = ["deff", "--family", '{"n":2,"d":1}', "--map", "line:4"]
OVER_CEILING = "10001"  # just over, on tiny circuits: a missing check fails, not hangs
GEN_QV = ["gen-circuits", "--qv-width", "2", "--qv-layers", "1", "--out"]
EXPORT = ["backends", "export", "--out"]
# family descriptors that are not an object of integer sizes, and the phrase
# each one's message must contain
NOT_AN_OBJECT, NOT_AN_INTEGER = "must be a JSON object", "must be an integer"
BAD_FAMILIES = [("[]", NOT_AN_OBJECT, "list"), ("3", NOT_AN_OBJECT, "number"),
                ("null", NOT_AN_OBJECT, "null"), ('{"n":1e400,"d":1}', NOT_AN_INTEGER, "inf-n"),
                ('{"n":4,"d":1.9}', NOT_AN_INTEGER, "float-d"),
                ('{"n":true,"d":1}', NOT_AN_INTEGER, "bool-n")]
OVER_MAP = str(MAX_MAP_QUBITS + 1)
OVER_QV = str(MAX_GATES // 43 + 1)  # layers of width 2, one SU4 gate of 43 basis gates each
MORE_THAN_QV_GATES = f"2 and {OVER_QV} layers would hold 2000016 basis gates, more than {MAX_GATES}"
# kernel families whose overlap circuit is just over the gate bound: n = 2
# lowers to 22 basis gates per d, and full entanglement on n qubits to
# 3n^2 + 5n at d = 1
OVER_D = MAX_GATES // 22 + 1
OVER_KERNEL = '{"n":2,"d":%d}' % OVER_D
MORE_THAN_KERNEL_GATES = (f"kernel family {{'n': 2, 'd': {OVER_D}, 'entanglement': 'linear'}} "
                          f"would hold {22 * OVER_D} basis gates, more than {MAX_GATES}")
WIDE_FULL = next(n for n in range(2, MAX_GATES) if 3 * n * n + 5 * n > MAX_GATES)
OVER_KERNEL_FULL = '{"n":%d,"d":1,"entanglement":"full"}' % WIDE_FULL
MORE_THAN_FULL_GATES = (f"would hold {3 * WIDE_FULL**2 + 5 * WIDE_FULL} basis gates, "
                        f"more than {MAX_GATES}")
OVER_ENTRIES = f"would hold more than the simulator's bound of MAX_ENTRIES = {MAX_ENTRIES} entries"
WIDTH_OVER_CAP = ("WIDTH_OVER_CAP", 7)


@pytest.mark.parametrize(
    "command, text, error, detail",
    [
        pytest.param(SCORE, PAIRS + "25.6,abc\n", BAD_CSV, 3, id="pairs-text"),
        pytest.param(SCORE, PAIRS + "25.6\n", BAD_CSV, 3, id="pairs-short-row"),
        pytest.param(SCORE, PAIRS + "nan,1\n", BAD_CSV, 3, id="pairs-nan"),
        pytest.param(SCORE, PAIRS + "1,inf\n", BAD_CSV, 3, id="pairs-inf"),
        pytest.param(SCORE, PAIRS + "0,1\n", BAD_CSV, 3, id="pairs-zero"),
        pytest.param(SCORE, PAIRS + "-2,1\n", BAD_CSV, 3, id="pairs-negative"),
        pytest.param(SCORE, RECORDS + "ibm_hanoi,100,100,1,6.0,inf\n", BAD_CSV, 3,
                     id="records-inf-seconds"),
        pytest.param(SCORE, RECORDS + "ibm_hanoi,100,100,1,nan,68.0\n", BAD_CSV, 3,
                     id="records-nan-deff"),
        pytest.param(["fit", "--records", "INPUT"], RECORDS + "ibm_hanoi,100,100,1,inf,68.0\n",
                     BAD_CSV, 3, id="fit-inf-deff"),
        pytest.param(["fit", "--records", "INPUT"],
                     FIT_RECORDS + f"ibm_hanoi,{HUGE},100,1,6.0,68.0\n", BAD_CSV, 5,
                     id="fit-overflowing-m"),
        pytest.param(KERNEL, "0.1,0.2\n0.3,nan\n", BAD_CSV, 2, id="dataset-nan"),
        pytest.param(KERNEL, "0.1,0.2\n\ninf,0.4\n", BAD_CSV, 3, id="dataset-inf-after-blank"),
        pytest.param(["simulate-kernel", "--family", '{"n":24,"d":1}'] + KERNEL[3:],
                     ",".join(["0.1"] * 24) + "\n" + ",".join(["0.2"] * 24) + "\n", WIDTH_OVER_CAP,
                     f"the 2 x 2^24 encoded states {OVER_ENTRIES}", id="kernel-width-over-cap"),
        pytest.param(KERNEL, "0.1,0.2\n" * 4097, WIDTH_OVER_CAP,
                     f"the 4097 x 4097 overlaps {OVER_ENTRIES}", id="kernel-vectors-over-bound"),
        # the largest linear d under MAX_GATES at n = 12, over 17 vectors: 1.03e10 updates
        pytest.param(["simulate-kernel", "--family", '{"n":12,"d":12345}'] + KERNEL[3:],
                     (",".join(["0.1"] * 12) + "\n") * 17, WIDTH_OVER_CAP,
                     f"would make 10314448896 amplitude updates, more than the simulator's "
                     f"budget of MAX_AMPLITUDE_UPDATES = {MAX_AMPLITUDE_UPDATES}",
                     id="kernel-h-rounds-over-budget"),
        pytest.param(KERNEL + ["--shots", "0"], "0.1,0.2\n", BAD_VALUE, None,
                     id="kernel-zero-shots"),
        pytest.param(KERNEL, "1e200,1e200\n0.2,0.3\n", BAD_GATE, "non-finite",
                     id="kernel-overflowing-phase-exact"),
        pytest.param(KERNEL + ["--shots", "100"], "1e200,1e200\n0.2,0.3\n", BAD_GATE,
                     "non-finite", id="kernel-overflowing-phase-shots"),
        pytest.param(KERNEL + ["--shots", "-3"], "0.1,0.2\n", BAD_VALUE, None,
                     id="kernel-negative-shots"),
        pytest.param(KERNEL + ["--shots", str(2**63)], "0.1,0.2\n", BAD_VALUE,
                     "shots must be in 1..9223372036854775807", id="kernel-shots-beyond-int64"),
        pytest.param(KERNEL + ["--shots", "10", "--seed", "-1"], "0.1,0.2\n0.3,0.4\n", BAD_VALUE,
                     "seed must be >= 0", id="kernel-negative-seed"),
        pytest.param(PREDICT + ["nan"], None, BAD_VALUE, None, id="predict-nan-deff"),
        pytest.param(PREDICT + ["-inf"], None, BAD_VALUE, "d_eff must be finite",
                     id="predict-minus-inf-deff"),
        pytest.param(PREDICT[:2] + ["-x"] + PREDICT[3:] + ["2"], None, ("BACKEND_NOT_FOUND", 3),
                     "'-x'", id="predict-backend-starting-with-a-dash"),
        pytest.param(PREDICT + ["inf"], None, BAD_VALUE, None, id="predict-inf-deff"),
        pytest.param(EXTRAPOLATE + ["nan"], None, BAD_VALUE, None, id="extrapolate-nan-clops"),
        pytest.param(EXTRAPOLATE + ["inf"], None, BAD_VALUE, None, id="extrapolate-inf-clops"),
        pytest.param(["predict", "--backend", "ibm_hanoi", "--M", HUGE, "--S", "1", "--deff", "2"],
                     None, BAD_VALUE, "overflows", id="predict-huge-m"),
        pytest.param(PREDICT + ["1e308", "--K", "100"], None, BAD_VALUE, "overflows",
                     id="predict-overflowing-product"),
        pytest.param(["extrapolate", "--N", HUGE[:201], "--S", "1", "--deff", "2", "--clops", "1"],
                     None, BAD_VALUE, "overflows", id="extrapolate-huge-n"),
        pytest.param(["extrapolate", "--N", "10000000000", "--S", "1000000000", "--deff", "1e300",
                      "--clops", "1"], None, BAD_VALUE, "overflows",
                     id="extrapolate-overflowing-product"),
        pytest.param(["predict", "--backend", "ibm_hanoi", "--M", "10", "--S", "100", "--deff",
                      "5e-324"], None, BAD_VALUE,
                     "predicted runtime M*K*S*d_eff / C underflows a float",
                     id="predict-underflowing-quotient"),
        pytest.param(["extrapolate", "--N", "2", "--S", "1", "--deff", "1e-320", "--clops",
                      "1e308"], None, BAD_VALUE, "underflows a float",
                     id="extrapolate-underflowing-quotient"),
        pytest.param(CONFIG, '{"predict": ', BAD_VALUE, None, id="config-bad-json"),
        pytest.param(CONFIG, '{"predict": [1]}', BAD_VALUE, None, id="config-not-flag-defaults"),
        pytest.param(MAP_FILE, '{"n": 3, "edges": [[0, 1]', BAD_MAP, None, id="map-bad-json"),
        pytest.param(MAP_FILE, '{"n": 3}', BAD_MAP, None, id="map-missing-edges"),
        pytest.param(MAP_FILE, '{"n": 3, "edges": [[0, 1], [1, 2]], "tag": 5}', BAD_MAP,
                     "tag must be a string, got 5", id="map-tag-not-a-string"),
        pytest.param(MAP_FILE[:-1] + ["backend:nope"], None, ("BACKEND_NOT_FOUND", 3), "'nope'",
                     id="map-unknown-backend"),
        pytest.param(GEN + ["--qv-width", "3"], None, BAD_VALUE, "--qv-layers is required",
                     id="gen-qv-width-without-layers"),
        pytest.param(GEN, None, BAD_VALUE, "provide --family", id="gen-no-family-or-qv"),
        pytest.param(GEN + ["--family", '{"n":2,"d":1}', "--count", OVER_CEILING], None, BAD_VALUE,
                     "--count must be <= 10000", id="gen-count-over-ceiling"),
        pytest.param(GEN + ["--qv-width", "2", "--qv-layers", "1", "--count", OVER_CEILING], None,
                     BAD_VALUE, "--count must be <= 10000", id="gen-qv-count-over-ceiling"),
        pytest.param(GEN + ["--family", '{"n":2,"d":1}', "--count", "0"], None, BAD_VALUE,
                     "--count must be >= 1, got 0", id="gen-count-zero"),
        pytest.param(GEN + ["--qv-width", "2", "--qv-layers", "1", "--count", "-5"], None,
                     BAD_VALUE, "--count must be >= 1, got -5", id="gen-count-negative"),
        pytest.param(DEFF + ["--kernel-samples", OVER_CEILING], None, BAD_VALUE,
                     "kernel_samples must be <= 10000", id="deff-kernel-samples-over-ceiling"),
        pytest.param(DEFF + ["--qv-samples", OVER_CEILING], None, BAD_VALUE,
                     "qv_samples must be <= 10000", id="deff-qv-samples-over-ceiling"),
        pytest.param(DEFF + ["--qv-job", "--qv-samples", OVER_CEILING], None, BAD_VALUE,
                     "qv_samples must be <= 10000", id="deff-qv-job-samples-over-ceiling"),
        pytest.param(DEFF + ["--seed", "-1"], None, BAD_VALUE, "seed must be >= 0",
                     id="deff-negative-seed"),
        pytest.param(["deff", "--qv-job", "--family", '{"n":40,"d":40}', "--map", "line:40",
                      "--qv-samples", "10000"], None, BAD_VALUE,
                     f"qv_samples 10000 x 34400 basis gates per circuit would hold 344000000 "
                     f"basis gates, more than {MAX_SAMPLE_GATES}",
                     id="deff-qv-job-sample-gates-over-ceiling"),
        pytest.param(["deff", "--family", '{"n":100,"d":10}', "--map", "line:100",
                      "--kernel-samples", "10000", "--qv-samples", "1"], None, BAD_VALUE,
                     f"kernel_samples 10000 x 13940 basis gates per circuit would hold "
                     f"139400000 basis gates, more than {MAX_SAMPLE_GATES}",
                     id="deff-kernel-sample-gates-over-ceiling"),
        pytest.param(["deff", "--family", '{"n":1200,"d":1}', "--map", "line:1200",
                      "--kernel-samples", "1191"], None, BAD_VALUE,
                     f"kernel_samples 1191 x 16794 basis gates per circuit would hold "
                     f"20001654 basis gates, more than {MAX_SAMPLE_GATES}",
                     id="deff-kernel-samples-one-over-ceiling"),
        pytest.param(DEFF + ["--qv-job", "--seed", "-1"], None, BAD_VALUE, "seed must be >= 0",
                     id="deff-qv-job-negative-seed"),
        pytest.param(GEN + ["--family", '{"n":2,"d":1}', "--seed", "-1"], None, BAD_VALUE,
                     "seed must be >= 0", id="gen-negative-seed"),
        pytest.param(GEN + ["--qv-width", "2", "--qv-layers", "1", "--seed", "-1"], None,
                     BAD_VALUE, "seed must be >= 0", id="gen-qv-negative-seed"),
        pytest.param(MAP_FILE, '{"n": 3, "edges": [[0, 1, 2]]}', BAD_MAP, None,
                     id="map-edge-not-a-pair"),
        pytest.param(REGISTRY, '{"backends": [', BAD_VALUE, None, id="registry-bad-json"),
        pytest.param(REGISTRY, '{"backends": [{"name": "x", "num_qubits": 5}]}', BAD_VALUE, None,
                     id="registry-missing-key"),
        pytest.param(REGISTRY, ONE_BACKEND % ('"x"', "27.9", "64", "2300"), BAD_VALUE,
                     "num_qubits must be an integer, got 27.9", id="registry-float-qubits"),
        pytest.param(REGISTRY, ONE_BACKEND % ('"x"', "27", '"64"', "2300"), BAD_VALUE,
                     "quantum_volume must be an integer, got '64'", id="registry-string-qv"),
        pytest.param(REGISTRY, ONE_BACKEND % ('"x"', "27", "64", '"2300"'), BAD_VALUE,
                     "clops must be a number, got '2300'", id="registry-string-clops"),
        pytest.param(REGISTRY, ONE_BACKEND % ('"x"', "true", "2", "2300"), BAD_VALUE,
                     "num_qubits must be an integer, got True", id="registry-bool-qubits"),
        pytest.param(REGISTRY, ONE_BACKEND % ('["x"]', "27", "64", "2300"), BAD_VALUE,
                     "name must be a string", id="registry-list-name"),
        pytest.param(REGISTRY, '{"backends": [%s, %s]}' % (BACKEND % ('"x"', "27", "64", "2300"),
                                                          BACKEND % ('"x"', "7", "16", "2400")),
                     BAD_VALUE, "backend 'x' is listed twice", id="registry-repeated-name"),
        pytest.param(REGISTRY, ONE_BACKEND % ('"x"', "27", "64", HUGE), BAD_VALUE,
                     "int too large to convert to float", id="registry-huge-int-clops"),
        pytest.param(PARAMS, '{"t_job": 1.0,', BAD_VALUE, None, id="params-bad-json"),
        pytest.param(PARAMS, TIMING % "true", BAD_VALUE, "t_job must be a number, got True",
                     id="params-bool-t-job"),
        pytest.param(PARAMS, '{"t_job": 1.0, "t_circ": "0.5", "t_layer_shot": 0.001}', BAD_VALUE,
                     "t_circ must be a number, got '0.5'", id="params-string-t-circ"),
        pytest.param(PARAMS, TIMING % HUGE, BAD_VALUE, "int too large to convert to float",
                     id="params-huge-int-t-job"),
        pytest.param(PARAMS, '{"t_job": 1.0}', BAD_VALUE, None, id="params-missing-key"),
        pytest.param(PARAMS + ["--kernel-samples", OVER_CEILING], TIMING % "1.0", BAD_VALUE,
                     "kernel_samples must be <= 10000", id="sweep-kernel-samples-over-ceiling"),
        pytest.param(PARAMS + ["--seed", "-1"], TIMING % "1.0", BAD_VALUE, "seed must be >= 0",
                     id="sweep-negative-seed"),
        pytest.param(PARAMS, TIMING % "NaN", BAD_VALUE, "t_job must be finite", id="params-nan"),
        pytest.param(PARAMS, TIMING % "Infinity", BAD_VALUE, "t_job must be finite",
                     id="params-inf"),
        pytest.param(FIX_T_JOB + ["nan"], FIT_RECORDS, BAD_VALUE, "t_job must be finite",
                     id="fit-nan-fixed-t-job"),
        pytest.param(FIX_T_JOB + ["inf"], FIT_RECORDS, BAD_VALUE, "t_job must be finite",
                     id="fit-inf-fixed-t-job"),
        pytest.param(["score", "--records", "DIR", "--out", "OUT"], None, BAD_VALUE, "DIR",
                     id="score-records-directory"),
        pytest.param(["fit", "--records", "DIR"], None, BAD_VALUE, "DIR",
                     id="fit-records-directory"),
        pytest.param(PREDICT + ["2", "--registry", "DIR"], None, BAD_VALUE, "DIR",
                     id="predict-registry-directory"),
        pytest.param(SCORE[:-1] + ["DIR"], PAIRS, BAD_VALUE, "DIR", id="score-out-directory"),
        pytest.param(SCORE[:-1] + ["NO_PARENT"], PAIRS, BAD_VALUE, "NO_PARENT",
                     id="score-out-missing-parent"),
        pytest.param(EXTRAPOLATE + ["10", "--out", "DIR"], None, BAD_VALUE, "DIR",
                     id="extrapolate-out-directory"),
        pytest.param(EXTRAPOLATE + ["10", "--out", "NO_PARENT"], None, BAD_VALUE, "NO_PARENT",
                     id="extrapolate-out-missing-parent"),
        pytest.param(KERNEL + ["--summary", "NO_PARENT"], "0.1,0.2\n0.3,0.4\n", BAD_VALUE,
                     "NO_PARENT", id="kernel-summary-missing-parent"),
        pytest.param(KERNEL + ["--summary", "DIR"], "0.1,0.2\n0.3,0.4\n", BAD_VALUE, "DIR",
                     id="kernel-summary-directory"),
        pytest.param(GEN_QV + ["DIR"], None, BAD_VALUE, "DIR", id="gen-out-directory"),
        pytest.param(GEN_QV + ["NO_PARENT"], None, BAD_VALUE, "NO_PARENT",
                     id="gen-out-missing-parent"),
        *(pytest.param(["deff", "--family", family, "--map", "line:4"], None, BAD_VALUE, detail,
                       id=f"deff-family-{name}") for family, detail, name in BAD_FAMILIES),
        *(pytest.param(["simulate-kernel", "--family", family] + KERNEL[3:], "0.1,0.2\n",
                       BAD_VALUE, detail, id=f"kernel-family-{name}")
          for family, detail, name in BAD_FAMILIES),
        pytest.param(PARAMS[:-4] + ["--families", "3", "--out", "OUT"], TIMING % "1.0", BAD_VALUE,
                     "--families must be a JSON array", id="sweep-families-not-an-array"),
        pytest.param(PARAMS[:-4] + ["--families", json.dumps([{"n": 2, "d": 1}] * 10001), "--out",
                                    "OUT"], TIMING % "1.0", BAD_VALUE,
                     "--families holds 10001 families, more than 10000", id="sweep-too-many-families"),
        pytest.param(PARAMS[:6] + ["0"] + PARAMS[7:], TIMING % "1.0", BAD_VALUE,
                     "--M values must be >= 1, got 0", id="sweep-zero-circuits"),
        pytest.param(PARAMS[:8] + ["1,-3"] + PARAMS[9:], TIMING % "1.0", BAD_VALUE,
                     "--S values must be >= 1, got -3", id="sweep-negative-shots"),
        pytest.param(EXTRAPOLATE + [","], None, BAD_VALUE, "expected at least one number in ','",
                     id="extrapolate-empty-list"),
        pytest.param(DEFF[:-1] + ["line:x"], None, BAD_MAP, "bad map spec 'line:x'",
                     id="deff-map-not-a-size"),
        pytest.param(DEFF[:-1] + ["ring:2"], None, BAD_MAP, "ring needs at least 3 qubits",
                     id="deff-ring-of-two"),
        pytest.param(DEFF[:-1] + ["line:0"], None, BAD_MAP, "coupling map needs at least one qubit",
                     id="deff-map-of-no-qubits"),
        pytest.param(MAP_FILE[:-1] + ["MISSING"], None, BAD_MAP,
                     "coupling map file 'MISSING' not found", id="map-file-missing"),
        pytest.param(MAP_FILE, '{"n": 2, "edges": [[1, 1]]}', BAD_MAP, "self-loop on qubit 1",
                     id="map-file-self-loop"),
        pytest.param(SCORE, "", BAD_CSV, "empty file, expected header", id="records-empty-file"),
        pytest.param(KERNEL, "", BAD_VALUE, "no feature vectors found", id="kernel-empty-dataset"),
        pytest.param(DEFF[:-1] + [f"line:{OVER_MAP}"], None, BAD_MAP, f"above {MAX_MAP_QUBITS}",
                     id="deff-map-over-ceiling"),
        pytest.param(DEFF[:-1] + ["line:99999999999999999999"], None, BAD_MAP,
                     f"above {MAX_MAP_QUBITS}", id="deff-map-far-over-ceiling"),
        pytest.param(MAP_FILE, '{"n": %s, "edges": [[0, 1]]}' % OVER_MAP, BAD_MAP,
                     f"above {MAX_MAP_QUBITS}", id="map-file-over-ceiling"),
        pytest.param(["deff", "--family", '{"n":200,"d":1,"entanglement":"full"}', "--map",
                      "line:200", "--kernel-samples", "1", "--qv-samples", "1"], None, BAD_MAP,
                     "the route of a 200-qubit circuit onto a 200-qubit map would hold",
                     id="deff-route-over-ceiling"),
        pytest.param(["deff", "--qv-job", "--family", '{"n":2,"d":%s}' % OVER_QV, "--map", "line:4",
                      "--qv-samples", "1"], None, BAD_VALUE, MORE_THAN_QV_GATES,
                     id="deff-qv-job-over-gate-ceiling"),
        pytest.param(GEN + ["--qv-width", "2", "--qv-layers", OVER_QV], None, BAD_VALUE,
                     MORE_THAN_QV_GATES, id="gen-qv-over-gate-ceiling"),
        pytest.param(GEN + ["--family", OVER_KERNEL], None, BAD_VALUE, MORE_THAN_KERNEL_GATES,
                     id="gen-kernel-over-gate-ceiling"),
        pytest.param(GEN + ["--family", OVER_KERNEL_FULL], None, BAD_VALUE,
                     MORE_THAN_FULL_GATES, id="gen-kernel-full-over-gate-ceiling"),
        pytest.param(["simulate-kernel", "--family", OVER_KERNEL] + KERNEL[3:], "0.1,0.2\n",
                     BAD_VALUE, MORE_THAN_KERNEL_GATES, id="kernel-over-gate-ceiling"),
        pytest.param(MAP_FILE, '{"n": 2.5, "edges": [[0, 1]]}', BAD_MAP,
                     "n must be an integer, got 2.5", id="map-float-n"),
        pytest.param(MAP_FILE, '{"n": true, "edges": []}', BAD_MAP,
                     "n must be an integer, got True", id="map-bool-n"),
        pytest.param(MAP_FILE, '{"n": "3", "edges": [[0, 1], [1, 2]]}', BAD_MAP,
                     "n must be an integer, got '3'", id="map-string-n"),
        pytest.param(MAP_FILE, '{"n": 3, "edges": [[0, 1], [1, 2.0]]}', BAD_MAP,
                     "edge [1, 2.0] must be a pair of integers", id="map-float-endpoint"),
        pytest.param(MAP_FILE, '{"n": 2, "edges": [[false, true]]}', BAD_MAP,
                     "edge [False, True] must be a pair of integers", id="map-bool-endpoint"),
        pytest.param(EXPORT + ["DIR"], None, BAD_VALUE, "DIR", id="export-out-directory"),
        pytest.param(EXPORT + ["NO_PARENT"], None, BAD_VALUE, "NO_PARENT",
                     id="export-out-missing-parent"),
        pytest.param(SCORE[:2] + ["MISSING"] + SCORE[3:], None, BAD_VALUE, "cannot open MISSING",
                     id="records-missing"),
        pytest.param(PREDICT + ["2", "--registry", "MISSING"], None, BAD_VALUE,
                     "cannot open MISSING", id="registry-missing"),
        pytest.param([{"INPUT": "MISSING"}.get(a, a) for a in PARAMS], None, BAD_VALUE,
                     "cannot open MISSING", id="params-missing"),
        pytest.param(KERNEL[:4] + ["MISSING"] + KERNEL[5:], None, BAD_VALUE,
                     "cannot open MISSING", id="data-missing"),
        pytest.param(["--config", "MISSING"] + PREDICT + ["2"], None, BAD_VALUE,
                     "cannot open MISSING", id="config-missing"),
        pytest.param(PREDICT[:5] + PREDICT[7:] + ["2"], None, BAD_VALUE, "--S",
                     id="usage-missing-option"),
        pytest.param(PREDICT, None, BAD_VALUE, "--deff", id="usage-missing-value"),
        pytest.param(PREDICT + ["2", "--bogus"], None, BAD_VALUE, "--bogus",
                     id="usage-unknown-option"),
        pytest.param(PREDICT[:1] + ["--back"] + PREDICT[2:] + ["2"], None, BAD_VALUE, "--back",
                     id="usage-abbreviated-option"),
        pytest.param(PREDICT + ["2", "-h"], None, BAD_VALUE, "-h", id="usage-short-help"),
        pytest.param(["predikt"], None, BAD_VALUE, "'predikt'", id="usage-unknown-command"),
        pytest.param(["backends", "show"], None, BAD_VALUE, "'show'",
                     id="usage-unknown-group-command"),
        pytest.param([], None, BAD_VALUE, "missing command", id="usage-no-command"),
        pytest.param(["backends"], None, BAD_VALUE, "missing command",
                     id="usage-no-group-command"),
        pytest.param(PREDICT[:4] + ["ten"] + PREDICT[5:] + ["2"], None, BAD_VALUE, "'ten'",
                     id="usage-non-integer"),
        pytest.param(PREDICT + ["two"], None, BAD_VALUE, "'two'", id="usage-non-number"),
        pytest.param(GEN_QV + ["OUT", "--count", "1.5"], None, BAD_VALUE, "'1.5'",
                     id="usage-float-for-integer"),
        pytest.param(CONFIG, '{"predict": {"k": "ten"}}', BAD_VALUE, "'ten'",
                     id="config-non-integer"),
        pytest.param(["--config", "INPUT"] + DEFF, '{"deff": {"qv_job": "maybe"}}', BAD_VALUE,
                     "'maybe'", id="config-non-boolean-flag"),
        pytest.param(["--config", "INPUT", "backends", "list"], '{"backends": {"list": 5}}',
                     BAD_VALUE, "must map subcommand names", id="config-group-not-flag-defaults"),
    ],
)
def test_malformed_input_is_a_coded_error(runner, tmp_path, command, text, error, detail):
    """Bad cells, short rows, non-finite numbers, out-of-range values,
    overflowing results, malformed JSON inputs, usage errors and paths that
    cannot be read or written (DIR is a directory, NO_PARENT a file in a
    missing one, MISSING a file that does not exist) give
    the error JSON and its exit status, never a traceback or a NaN result.
    A refused command prints nothing on stdout and leaves no file behind.
    `detail` is the CSV row the message must name, or a phrase or path it
    must contain."""
    path = tmp_path / "input.csv"
    if text is not None:
        path.write_text(text)
    names = {"INPUT": str(path), "OUT": str(tmp_path / "out.csv"), "DIR": str(tmp_path),
             "NO_PARENT": str(tmp_path / "missing" / "out.csv"),
             "MISSING": str(tmp_path / "absent.json")}
    result = runner.invoke(main, [names.get(arg, arg) for arg in command])
    code, status = error
    assert result.exit_code == status, result.output
    payload = json.loads(result.stderr)["error"]
    assert payload["code"] == code
    if isinstance(detail, int):
        assert f"{path}:{detail}:" in payload["message"]
    elif detail is not None:
        detail = re.sub(r"\b(%s)\b" % "|".join(names), lambda m: names[m[1]], detail)
        assert detail in payload["message"]
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == ([path] if text is not None else [])


@pytest.mark.parametrize(
    "args, status",
    [
        (PREDICT + ["2"], 0),
        (PREDICT[:2] + ["ibm_atlantis"] + PREDICT[3:] + ["2"], 3),
        (PREDICT, 2),
        (["--help"], 0),
        (["predict", "--help"], 0),
        (["backends", "export", "--help"], 0),
    ],
    ids=["success", "coded-error", "usage-error", "help", "command-help", "group-command-help"],
)
def test_main_returns_the_exit_status(capsys, args, status):
    """`main.main(args=..., prog_name=..., standalone_mode=False)`, as the
    benchmark calls it in-process, and `main(args, standalone_mode=False)`
    return the exit status (0 or None on success) instead of exiting."""
    assert (main(args, standalone_mode=False) or 0) == status
    capsys.readouterr()
    assert (main.main(args=args, prog_name="qjobtime", standalone_mode=False) or 0) == status
    out, err = capsys.readouterr()
    assert bool(err) == (status != 0)
    if args == ["--help"]:
        commands = re.findall(r"^  ([a-z-]+) ", out.partition("commands:")[2], re.MULTILINE)
        assert commands == sorted(COMMANDS)


def set_gate_bounds(monkeypatch, gates: int, sample_gates: int) -> None:
    """Set `MAX_GATES` and `MAX_SAMPLE_GATES` in every module that binds them."""
    for name in ("circuit", "generators", "deff", "transpile.route"):
        module = importlib.import_module(f"qjobtime.{name}")
        for bound, value in (("MAX_GATES", gates), ("MAX_SAMPLE_GATES", sample_gates)):
            if hasattr(module, bound):
                monkeypatch.setattr(module, bound, value)


def bound_near(draw, count: int) -> int:
    """A bound one under, at or one over `count`, or well over it. At the
    bound a count passes, and swaps may take the routed count past it."""
    return max(1, draw(st.sampled_from([count - 1, count, count + 1, 2 * count, 10 * count])))


# per n=2 family of depth d, one sample a side: the kernel side's 22d basis
# gates and the QV side's 43 v (v // 2), at v = 2 for d = 1 and v = 3 for d = 2
SWEEP_SIDES = {1: (22, 86), 2: (44, 129)}


def sweep_run(depths: list, m: list, s: list) -> list:
    """`sweep` argv over n=2 families of `depths`, one sample a side, with INPUT and OUT."""
    families = json.dumps([{"n": 2, "d": d} for d in depths])
    return ["sweep", "--backend", "ibm_hanoi", "--params", "INPUT", "--M", ",".join(map(str, m)),
            "--S", ",".join(map(str, s)), "--families", families,
            "--kernel-samples", "1", "--qv-samples", "1", "--out", "OUT"]


@st.composite
def grid_runs(draw):
    """A `sweep` or `extrapolate` run as `sized_runs` gives it, with
    `MAX_GATES` at its default and `MAX_GRID_ROWS` near its rows: families ×
    |M| × |S| for `sweep`, |N| × |clops| for `extrapolate`. A `sweep`'s
    `MAX_SAMPLE_GATES` is near half its families' summed d_eff work, which
    is refused above twice that bound, and at least each side's own work."""
    values = lambda low, high: draw(st.lists(st.integers(low, high), min_size=1, max_size=4))
    if draw(st.booleans()):
        depths, m, s = values(1, 2), values(1, 50), values(1, 4000)
        argv, rows = sweep_run(depths, m, s), len(depths) * len(m) * len(s)
        work = sum(sum(SWEEP_SIDES[d]) for d in depths)
        sample_gates = max(bound_near(draw, -(-work // 2)), *(max(SWEEP_SIDES[d]) for d in depths))
        over = work > 2 * sample_gates
    else:
        n, clops = values(2, 10**6), values(1, 10**6)
        argv = ["extrapolate", "--N", ",".join(map(str, n)), "--S", "100", "--deff", "2",
                "--clops", ",".join(map(str, clops)), "--out", "OUT"]
        rows, sample_gates, over = len(n) * len(clops), MAX_SAMPLE_GATES, False
    grid = bound_near(draw, rows)
    return argv, MAX_GATES, sample_gates, grid, over or rows > grid, False, False


@st.composite
def sized_runs(draw):
    """(argv with INPUT and OUT for the data and output paths, a small
    MAX_GATES and MAX_SAMPLE_GATES near the run's counts, MAX_GRID_ROWS,
    whether a count worked out before any draw passes its bound, whether the
    map is too small, and whether a `simulate-kernel` run's H rounds pass
    `MAX_AMPLITUDE_UPDATES`). Counts are in basis gates: 43 per QV SU4 gate,
    2d(4n + 3|pairs|) per kernel circuit. Each `deff` side counts its samples
    times the gates per circuit against the side bound, and `gen-circuits`
    counts `--count` times them. A `simulate-kernel` run over the budget takes the smallest d
    whose (d - 1) n 2^n updates pass it on one vector. A third of the runs
    are `grid_runs`."""
    command = draw(st.sampled_from(["deff", "deff-qv-job", "gen-kernel", "gen-qv", "simulate",
                                    "grid", "grid"]))
    if command == "grid":
        return draw(grid_runs())
    over_budget = command == "simulate" and draw(st.booleans())
    if command in ("deff-qv-job", "gen-qv"):
        q, layers = draw(st.integers(2, 9)), draw(st.integers(1, 6))
        circuits, widths = [43 * layers * (q // 2)], [q]
        family = {"n": q, "d": layers}
    else:
        n, d = draw(st.integers(1 if command == "simulate" else 2, 6)), draw(st.integers(1, 4))
        if over_budget:
            d = MAX_AMPLITUDE_UPDATES // (n << n) + 2
        entanglement = draw(st.sampled_from(["linear", "full"]))
        pairs = n - 1 if entanglement == "linear" else n * (n - 1) // 2
        v = math.isqrt(2 * d * n - 1) + 1
        circuits, widths = [2 * d * (4 * n + 3 * pairs), 43 * v * (v // 2)], [n, v]
        family = {"n": n, "d": d, "entanglement": entanglement}
    argv, sides, map_too_small = [json.dumps(family)], [], False
    if command == "simulate":
        argv = ["simulate-kernel", "--family", *argv, "--data", "INPUT"]
        circuits = circuits[:1]
    elif command.startswith("gen"):
        kind = (["--family", *argv] if command == "gen-kernel"
                else ["--qv-width", str(q), "--qv-layers", str(layers)])
        count = draw(st.integers(1, 3))
        argv = ["gen-circuits", *kind, "--count", str(count)]
        circuits = circuits[:1]
        sides.append(count * circuits[0])
    else:
        kind = draw(st.sampled_from(["line", "ring", "heavy-hex-like", "all-to-all"]))
        size = draw(st.integers(max(3 if kind == "ring" else 2, max(widths) - 1), max(widths) + 2))
        argv = ["deff", "--family", *argv, "--map", f"{kind}:{size}"]
        map_too_small = size < max(widths)
        samples = draw(st.lists(st.integers(1, 6), min_size=len(circuits), max_size=2))
        for flag, count, gates in zip(["--kernel-samples", "--qv-samples"][-len(circuits):],
                                      samples, circuits):
            argv += [flag, str(count)]
            sides.append(count * gates)
        argv += ["--qv-job"] if command == "deff-qv-job" else []
    gates, sample_gates = bound_near(draw, max(circuits)), bound_near(draw, max(sides, default=1))
    over = max(circuits) > gates or max(sides, default=0) > sample_gates
    return argv + ["--out", "OUT"], gates, sample_gates, MAX_GRID_ROWS, over, map_too_small, over_budget


def built_over_budget(*args):
    raise AssertionError("encoded states built over MAX_AMPLITUDE_UPDATES")


def built_over_grid(*args, **kwargs):
    raise AssertionError("d_eff computed for a sweep over MAX_GRID_ROWS or its work bound")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=sized_runs(), rows=st.integers(1, 3))
# two d = 1 families hold 2 x 108 basis gates of d_eff: at the bound of 2 x 108, and just over it
@example(run=(sweep_run([1, 1], [1], [1]), MAX_GATES, 108, MAX_GRID_ROWS, False, False, False), rows=1)
@example(run=(sweep_run([1, 1], [1], [1]), MAX_GATES, 107, MAX_GRID_ROWS, True, False, False), rows=1)
def test_sizes_around_the_gate_bounds_give_a_result_or_a_coded_error(tmp_path_factory, run, rows):
    """`deff` (with and without `--qv-job`), both `gen-circuits` modes and
    `simulate-kernel` at sizes around both gate bounds, set small, and
    `sweep` and `extrapolate` around `MAX_GRID_ROWS`, set small, and
    `sweep` around its d_eff work bound, 2 x `MAX_SAMPLE_GATES` set small,
    either exit 0 with finite numbers and their file, or print the error
    JSON with its exit status, nothing on stdout and no file. A count over a
    bound before any draw is `INVALID_PARAMETER`, and a grid or a sweep's
    work over its bound is too, before any d_eff; with every count under,
    only routing may refuse (`COUPLING_MAP`), on one circuit or a side's
    total, and the simulator's budget (`WIDTH_OVER_CAP`), before any
    allocation."""
    argv, gates, sample_gates, grid, over, map_too_small, over_budget = run
    tmp = tmp_path_factory.mktemp("run")
    data, out = tmp / "data.csv", tmp / "out"
    if argv[0] == "simulate-kernel":
        n = json.loads(argv[2])["n"]
        data.write_text("".join(",".join([str(0.5 + r)] * n) + "\n" for r in range(rows)))
    elif argv[0] == "sweep":
        data.write_text(json.dumps({"t_job": 2.0, "t_circ": 0.05, "t_layer_shot": 5e-4, "jitter": 0.05}))
    with pytest.MonkeyPatch.context() as monkeypatch:
        set_gate_bounds(monkeypatch, gates, sample_gates)
        monkeypatch.setattr(cli, "MAX_GRID_ROWS", grid)
        if over_budget:  # refused before any state is built: a missing check fails, not hangs
            monkeypatch.setattr(sim, "_encoded_states", built_over_budget)
        if over and argv[0] == "sweep":
            monkeypatch.setattr(deff, "effective_layers", built_over_grid)
        result = CliRunner().invoke(main, [{"INPUT": str(data), "OUT": str(out)}.get(a, a)
                                           for a in argv])
    if result.exit_code == 0:
        assert not over and not map_too_small and not over_budget, argv
        if argv[0] == "gen-circuits":
            assert len(read_circuits(out)) == int(argv[argv.index("--count") + 1])
        elif argv[0] in ("sweep", "extrapolate"):
            table = list(csv.reader(out.read_text().splitlines()))[1:]
            assert len(table) <= grid and all(math.isfinite(float(v)) for row in table
                                              for v in row[1:])
        else:
            assert out.exists()
            values = json.loads(result.stdout).values()
            assert all(np.isfinite(v) for v in values if isinstance(v, (int, float)))
        return
    assert isinstance(result.exception, SystemExit), (argv, result.exception)
    error = json.loads(result.stderr)["error"]
    if map_too_small:
        assert (error["code"], result.exit_code) == BAD_MAP
    elif over_budget and not over:
        assert (error["code"], result.exit_code) == WIDTH_OVER_CAP
        assert f"budget of MAX_AMPLITUDE_UPDATES = {MAX_AMPLITUDE_UPDATES}" in error["message"]
    else:
        assert (error["code"], result.exit_code) == (BAD_VALUE if over else BAD_MAP), (argv, error)
        assert error["message"].endswith((f"basis gates, more than {gates}",
                                          f"basis gates, more than {sample_gates}",
                                          f"basis gates, more than {2 * sample_gates}",
                                          f"references, more than {sample_gates // 4}",
                                          f"rows, more than {grid}")), error
    assert result.stdout == ""
    assert not out.exists()


# words for a flag that takes a number, and for the numbers inside a file
# input: finite extremes, inf, nan, zero, negatives, huge integers, and a word
NUMBERS = ["0", "1", "2", "3", "-1", "-2.5", "0.25", "5e-324", "1.7976931348623157e308", "-1e308",
           "inf", "-inf", "nan", str(2**63), str(10**20), "many"]
# every coded error's (code, exit status)
CODED = {(cls.code, cls.exit_code) for cls in QJobTimeError.__subclasses__()}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def cli_runs(draw):
    """(argv of any command, with the names of its input files and OUT and
    SUMMARY for its outputs, {input file name: its contents}). A number is
    one of `NUMBERS` or, three times as often, a small integer; each file
    input is one well-formed file whose numbers are drawn, or a malformed
    one."""
    number = st.sampled_from(["1", "2", "3"] * 16 + NUMBERS)
    files = {}

    def num():
        return draw(number)

    def nums():
        return ",".join(draw(st.lists(number, min_size=1, max_size=3)))

    def file(name, *texts):
        files[name] = draw(st.sampled_from(texts))
        return name

    def family(n=None):
        n, d = n or draw(st.sampled_from([2, 3, 2, 3, 1, num()])), draw(st.sampled_from([1, 2, num()]))
        ent = draw(st.sampled_from(['"linear"', '"full"', '"linear"', '"full"', '"ring"', "5"]))
        return draw(st.sampled_from([f'{{"n": {n}, "d": {d}, "entanglement": {ent}}}'] * 4
                                    + [f'{{"n": {n}, "d": {d}}}', f"[{n}, {d}]", "{"]))

    def samples():
        return ["--kernel-samples", draw(st.sampled_from(["1", "2"] * 3 + ["0", "nan", str(10**20)])),
                "--qv-samples", draw(st.sampled_from(["1", "2"] * 3 + ["0", str(2**63)]))]

    def records():
        return file("RECORDS",
                    f"backend,M,S,K,deff,T_seconds\nibm_hanoi,{num()},100,1,4,{num()}\n"
                    f"ibm_hanoi,200,{num()},1,{num()},80\nibmq_auckland,10,1000,1,4,12\n",
                    f"T_pred,T_actual\n{num()},{num()}\n1,2\n", "", "backend,M\nibm_hanoi,1\n",
                    "T_pred,T_actual\n1\n", "backend,M,S,K,deff,T_seconds\nnope,1,1,1,1,1\n")

    def params():
        jitter = draw(st.sampled_from(["0.05"] * 3 + NUMBERS))
        return file("PARAMS", f'{{"t_job": {num()}, "t_circ": 0.05, "t_layer_shot": {num()}, '
                              f'"jitter": {jitter}}}', "{", "[1]", '{"t_job": "1"}')

    map_file = ('{"n": 3, "edges": [[0, 1], [1, 2]]}', "{", '{"n": 1e20, "edges": []}',
                f'{{"n": {10**20}, "edges": []}}', '{"n": 3, "edges": [[0, 5]]}',
                '{"n": 2, "edges": [[0, 1]], "tag": 5}', '{"n": 3, "edges": [[0, 0]]}', "[3]")
    maps = ["line:4", "ring:2", "heavy-hex-like:27", "all-to-all:5", "line:-1", "line:nan",
            f"line:{10**20}", "backend:ibm_hanoi", "backend:nope", "MAP"]
    command = draw(st.sampled_from(["predict", "score", "deff", "gen-kernel", "gen-qv", "simulate",
                                    "extrapolate", "sweep", "fit", "list", "export"]))
    registry = True
    if command == "predict":
        argv = ["predict", "--backend", draw(st.sampled_from(["ibm_hanoi", "nope"])), "--M", num(),
                "--S", num(), "--K", num(), "--deff", num()]
    elif command == "score":
        argv = ["score", "--records", records(), "--out", "OUT"]
    elif command == "deff":
        argv = ["deff", "--family", family(), "--map", draw(st.sampled_from(maps)),
                *samples(), "--seed", num(), *draw(st.sampled_from([[], ["--qv-job"]])), "--out", "OUT"]
        if argv[4] == "MAP":
            file("MAP", *map_file)
    elif command.startswith("gen"):
        kind = (["--family", family()] if command == "gen-kernel"
                else ["--qv-width", draw(st.sampled_from(["2", "3"] * 3 + ["-1", "1e3", str(10**20)])),
                      "--qv-layers", draw(st.sampled_from(["1", "2"] * 3 + ["0", "nan"]))])
        argv = ["gen-circuits", *kind, "--count", draw(st.sampled_from(["1", "2"] * 3 + ["0", "nan"])),
                "--seed", num(), "--out", "OUT"]
        registry = False
    elif command == "simulate":
        argv = ["simulate-kernel", "--family", family(2),
                "--data", file("DATA", *[f"0.1,{num()}\n0.3,0.4\n"] * 3, f"{num()}\n0.5\n", "",
                               "a,b\n", "0.1\n0.1,0.2\n"),
                "--shots", draw(st.sampled_from(["exact", "100"] * 3 + ["0", "-5", "nan", str(2**63)])),
                "--seed", num(), "--out", "OUT", *draw(st.sampled_from([[], ["--summary", "SUMMARY"]]))]
        registry = False
    elif command == "extrapolate":
        argv = ["extrapolate", "--N", nums(), "--S", num(), "--deff", num(), "--clops", nums(),
                *draw(st.sampled_from([[], ["--out", "OUT"]]))]
        registry = False
    elif command == "sweep":
        argv = ["sweep", "--backend", "ibm_hanoi", "--params", params(), "--M", nums(), "--S", nums(),
                "--families", f"[{family()}]", *samples(), "--seed", num(), "--out", "OUT"]
    elif command == "fit":
        argv = ["fit", "--records", records(), *draw(st.sampled_from([[], ["--fix-t-job", num()]])),
                "--out", "OUT"]
        registry = False
    else:
        argv = ["backends", command] + (["--out", "OUT"] if command == "export" else [])
    if registry and draw(st.booleans()):
        argv += ["--registry", file(
            "REGISTRY", *[registry_to_json(builtin_backends())] * 4, "{", "[]", '{"backends": "x"}',
            f'{{"backends": [{{"name": "x", "num_qubits": 5, "quantum_volume": 32, "clops": {num()}}}]}}',
            '{"backends": [{"name": 5, "num_qubits": 5, "quantum_volume": 32, "clops": 1.0}]}')]
    if draw(st.integers(0, 3)) == 0:
        argv = ["--config", file("CONFIG", f'{{"predict": {{"m": {num()}, "s": 100, "deff": 6}}}}',
                                 f'{{"extrapolate": {{"clops": "{num()}"}}}}', "[1, 2]", "{",
                                 '{"predict": [1]}', '{"deff": {"qv_job": "maybe"}}',
                                 '{"backends": {"list": {"registry": 5}}}'), *argv]
    return argv, files


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=cli_runs())
def test_every_command_gives_a_finite_result_or_a_coded_error(tmp_path_factory, run):
    """Every command, on numbers from finite extremes to nan and on
    malformed file inputs, either exits 0 with only finite numbers in stdout
    and its files, or prints a coded error JSON with its exit status, nothing
    on stdout and no file."""
    argv, files = run
    tmp = tmp_path_factory.mktemp("cli")
    for name, text in files.items():
        (tmp / name).write_text(text)
    paths = {name: str(tmp / name) for name in [*files, "OUT", "SUMMARY"]}
    result = CliRunner().invoke(main, [paths.get(word, word) for word in argv])
    written = {p.name: p.read_text() for p in tmp.iterdir() if p.name not in files}
    if result.exit_code == 0:
        assert result.exception is None, argv
        for text in [result.stdout, *written.values()]:
            assert not NON_FINITE.search(text), (argv, text[:400])
        return
    assert isinstance(result.exception, SystemExit), (argv, result.exception)
    error = json.loads(result.stderr)["error"]
    assert (error["code"], result.exit_code) in CODED, (argv, error)
    assert result.stdout == "" and written == {}, (argv, result.stdout, written)


def run_fresh(*argv: str, cwd=None) -> str:
    """stdout of `python *argv` in a fresh interpreter that imports from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *argv], env={**os.environ, "PYTHONPATH": path}, cwd=cwd,
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


# numpy and the modules that import it, and dataclasses with the inspect it
# loads, all left out of the light commands; and click, which nothing imports
HEAVY = ("scipy", "numpy", "qjobtime.sim", "qjobtime.generators", "qjobtime.circuit",
         "qjobtime.transpile", "qjobtime.deff", "qjobtime.execsim", "dataclasses", "inspect")
LOADED = ("print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'click') "
          f"or m in {HEAVY}))")


@pytest.mark.parametrize("module", ["qjobtime", "qjobtime.cli"])
def test_cli_import_leaves_scipy_out(module):
    """Importing the package or the CLI loads neither scipy, numpy, click nor
    dataclasses, nor any module of the circuit stack."""
    assert run_fresh("-c", f"import sys, {module}; {LOADED}") == "[]"


def test_deff_leaves_the_simulator_unloaded():
    """Estimating d_eff (sampling, lowering, routing, depth) loads no simulator."""
    probe = ("import sys\nfrom qjobtime.deff import effective_layers\n"
             "from qjobtime.generators import KernelFamily\n"
             "from qjobtime.transpile import line_map\n"
             "effective_layers(KernelFamily(3, 1), line_map(4), kernel_samples=2, qv_samples=2)\n"
             "print('qjobtime.sim' in sys.modules)")
    assert run_fresh("-c", probe) == "False"


def test_deff_loads_kak_only_to_lower_su4_gates():
    """The array commands' modules and a d_eff estimate on heavy-hex-like:27
    load neither `dataclasses` nor KAK; lowering an SU4 gate loads KAK."""
    probe = ("import sys\nimport qjobtime.cli, qjobtime.deff, qjobtime.execsim\n"
             "from qjobtime.generators import KernelFamily, qv_circuit\n"
             "from qjobtime.transpile import decompose, heavy_hex_like_map\n"
             "qjobtime.deff.effective_layers(KernelFamily(4, 2), heavy_hex_like_map(27))\n"
             "kak, loaded = 'qjobtime.transpile.kak', lambda: [m for m in (kak, 'dataclasses')"
             " if m in sys.modules]\n"
             "print(loaded(), vars(sys.modules['qjobtime.transpile.decompose']).get('kak_decompose'))\n"
             "decompose(qv_circuit(2, 1, seed=0))\n"
             "print(loaded())")
    assert run_fresh("-c", probe).splitlines() == ["[] None", "['qjobtime.transpile.kak']"]


@pytest.mark.parametrize(
    "args",
    [
        PREDICT + ["2", "--registry", "registry.json"],
        ["score", "--records", "pairs.csv", "--out", "pairs_out.csv"],
        ["score", "--records", "records.csv", "--out", "records_out.csv"],
        EXTRAPOLATE + ["1000", "--out", "grid.csv"],
        ["backends", "list", "--registry", "registry.json"],
        ["backends", "export", "--registry", "registry.json", "--out", "export.json"],
        ["--help"],
    ],
    ids=["predict", "score-pairs", "score-records", "extrapolate", "backends-list",
         "backends-export", "help"],
)
def test_light_commands_leave_numpy_unloaded(tmp_path, args):
    (tmp_path / "pairs.csv").write_text(PAIRS)
    (tmp_path / "records.csv").write_text(RECORDS)
    (tmp_path / "registry.json").write_text(registry_to_json(builtin_backends()))
    probe = (f"import sys\nfrom qjobtime.cli import main\n"
             f"main({args!r}, standalone_mode=False)\n{LOADED}")
    assert run_fresh("-c", probe, cwd=tmp_path).splitlines()[-1] == "[]"


def test_sweep_leaves_fractions_unloaded(tmp_path):
    """`sweep` writes each family's aspect ratio 2d/n without building the
    exact `Fraction`, so neither fractions nor the decimal it loads is imported."""
    (tmp_path / "params.json").write_text(TIMING % "1.0")
    args = ["sweep", "--backend", "ibm_hanoi", "--params", "params.json", "--M", "1",
            "--S", "1", "--families", '[{"n":3,"d":2}]', "--kernel-samples", "1",
            "--qv-samples", "1", "--out", "sweep.csv"]
    probe = (f"import sys\nfrom qjobtime.cli import main\n"
             f"main({args!r}, standalone_mode=False)\n"
             "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))")
    assert run_fresh("-c", probe, cwd=tmp_path).splitlines()[-1] == "[]"
    with open(tmp_path / "sweep.csv", newline="") as fh:
        assert next(csv.DictReader(fh))["a"] == repr(4 / 3)


def test_wrappers_set_on_the_cli_module_are_called(runner, tmp_path, monkeypatch):
    """The array commands look their numpy-backed helpers up on the module at
    each call, so a wrapper set there with `setattr` is what they call. The
    circuits are drawn through `deff`'s samplers, which look `kernel_circuit`
    and `qv_circuit` up on `deff` as each sample is read."""
    import qjobtime.cli as cli
    import qjobtime.deff as deff

    calls = []
    for module, name in ((cli, "kernel_matrix"), (deff, "kernel_circuit"), (deff, "qv_circuit"),
                         (cli, "simulate_job_runtime"), (cli, "fit_params")):
        def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    data, params = tmp_path / "data.csv", tmp_path / "params.json"
    data.write_text("0.1,0.2\n0.3,0.4\n")
    params.write_text(TIMING % "1.0")
    out = str(tmp_path / "out")
    family = '{"n":2,"d":1}'
    runs = [
        ["simulate-kernel", "--family", family, "--data", str(data), "--out", out],
        GEN_QV + [out],
        ["gen-circuits", "--family", family, "--out", out],
        ["sweep", "--backend", "ibm_hanoi", "--params", str(params), "--M", "1", "--S", "1",
         "--families", f"[{family}]", "--kernel-samples", "1", "--qv-samples", "1",
         "--out", out],
        ["fit", "--records", str(write_shot_sweep_records(tmp_path / "runs.csv")),
         "--fix-t-job", "0"],
    ]
    for args in runs:
        assert runner.invoke(main, args).exit_code == 0
    # the sweep draws its one kernel sample; its QV side is routed from the
    # pairings alone and draws no QV circuit
    assert calls == ["kernel_matrix", "qv_circuit", "kernel_circuit", "kernel_circuit",
                     "simulate_job_runtime", "fit_params"]


def test_cli_runs_as_main(tmp_path):
    """`python -m qjobtime.cli` resolves the numpy-backed names on itself
    while it runs as `__main__`."""
    out = run_fresh("-m", "qjobtime.cli", *GEN_QV, "qv.txt", "--count", "2", cwd=tmp_path)
    assert out == "wrote 2 circuit(s) -> qv.txt"


def test_lazy_exports_resolve_to_their_definitions():
    """Every public name of the package is the object its defining module
    binds, and `from qjobtime import *` binds all of them."""
    import qjobtime

    names = [name for name in qjobtime.__all__ if name != "__version__"]
    for name in names:
        value = getattr(qjobtime, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    star = {}
    exec("from qjobtime import *", star)
    assert all(star[name] is getattr(qjobtime, name) for name in qjobtime.__all__)
    with pytest.raises(AttributeError):
        qjobtime.no_such_name


class TestBackendsCommands:
    def test_list(self, runner):
        result = runner.invoke(main, ["backends", "list"])
        assert result.exit_code == 0
        assert "ibm_hanoi" in result.output
        assert "ibmq_auckland" in result.output

    def test_export_import_round_trip(self, runner, tmp_path):
        first = tmp_path / "reg1.json"
        second = tmp_path / "reg2.json"
        assert runner.invoke(main, ["backends", "export", "--out", str(first)]).exit_code == 0
        result = runner.invoke(
            main, ["backends", "export", "--registry", str(first), "--out", str(second)]
        )
        assert result.exit_code == 0
        assert first.read_bytes() == second.read_bytes()


class TestReproducibility:
    def run_twice(self, runner, tmp_path, args_builder):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.out"
            result = runner.invoke(main, args_builder(out))
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        return outputs

    def test_gen_circuits_byte_identical(self, runner, tmp_path):
        a, b = self.run_twice(
            runner, tmp_path,
            lambda out: ["gen-circuits", "--family", '{"n":3,"d":2}', "--count", "3",
                         "--seed", "9", "--out", str(out)],
        )
        assert a == b

    def test_extrapolate_byte_identical(self, runner, tmp_path):
        a, b = self.run_twice(
            runner, tmp_path,
            lambda out: ["extrapolate", "--N", "100,2513", "--S", "4000", "--deff", "2",
                         "--clops", "1000,10000", "--out", str(out)],
        )
        assert a == b
