import csv
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from refdata import CLOPS_JOB_RUNS
from qjobtime.circuit import read_circuits
from qjobtime.cli import main
from qjobtime.errors import MalformedRecordsError
from qjobtime.deff import MAX_KERNEL_SAMPLE_GATES, MAX_QV_SAMPLE_GATES
from qjobtime.generators import MAX_KERNEL_GATES, MAX_QV_GATES
from qjobtime.model import builtin_backends, registry_to_json
from qjobtime.records import RECORD_HEADER, load_runtime_records
from qjobtime.sim import MAX_ENTRIES
from qjobtime.transpile.coupling import MAX_MAP_QUBITS
from qjobtime.transpile.route import MAX_ROUTED_GATES


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
OVER_QV = str(MAX_QV_GATES + 1)  # layers of width 2, one SU4 gate each
# kernel families whose overlap circuit is just over the gate ceiling: n = 2
# linear has 2*d*5 gates, and full entanglement on n qubits n*(n + 3) per d
OVER_KERNEL = '{"n":2,"d":%d}' % (MAX_KERNEL_GATES // 10 + 1)
WIDE_FULL = next(n for n in range(2, MAX_KERNEL_GATES) if n * (n + 3) > MAX_KERNEL_GATES)
OVER_KERNEL_FULL = '{"n":%d,"d":1,"entanglement":"full"}' % WIDE_FULL
MORE_THAN_KERNEL_GATES = f"more than {MAX_KERNEL_GATES} gates"
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
        pytest.param(CONFIG, '{"predict": ', BAD_VALUE, None, id="config-bad-json"),
        pytest.param(CONFIG, '{"predict": [1]}', BAD_VALUE, None, id="config-not-flag-defaults"),
        pytest.param(MAP_FILE, '{"n": 3, "edges": [[0, 1]', BAD_MAP, None, id="map-bad-json"),
        pytest.param(MAP_FILE, '{"n": 3}', BAD_MAP, None, id="map-missing-edges"),
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
                     f"qv_samples 10000 x 800 gates per circuit would hold 8000000 gates at once, "
                     f"more than {MAX_QV_SAMPLE_GATES}",
                     id="deff-qv-job-sample-gates-over-ceiling"),
        pytest.param(["deff", "--family", '{"n":100,"d":10}', "--map", "line:100",
                      "--kernel-samples", "10000", "--qv-samples", "1"], None, BAD_VALUE,
                     f"kernel_samples 10000 x 5980 gates per circuit would hold 59800000 gates "
                     f"at once, more than {MAX_KERNEL_SAMPLE_GATES}",
                     id="deff-kernel-sample-gates-over-ceiling"),
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
        pytest.param(DEFF[:-1] + [f"line:{OVER_MAP}"], None, BAD_MAP, f"above {MAX_MAP_QUBITS}",
                     id="deff-map-over-ceiling"),
        pytest.param(DEFF[:-1] + ["line:99999999999999999999"], None, BAD_MAP,
                     f"above {MAX_MAP_QUBITS}", id="deff-map-far-over-ceiling"),
        pytest.param(MAP_FILE, '{"n": %s, "edges": [[0, 1]]}' % OVER_MAP, BAD_MAP,
                     f"above {MAX_MAP_QUBITS}", id="map-file-over-ceiling"),
        pytest.param(["deff", "--family", '{"n":200,"d":1,"entanglement":"full"}', "--map",
                      "line:200", "--kernel-samples", "1", "--qv-samples", "1"], None, BAD_MAP,
                     f"more than {MAX_ROUTED_GATES} gates", id="deff-route-over-ceiling"),
        pytest.param(["deff", "--qv-job", "--family", '{"n":2,"d":%s}' % OVER_QV, "--map", "line:4",
                      "--qv-samples", "1"], None, BAD_VALUE, f"more than {MAX_QV_GATES} SU4 gates",
                     id="deff-qv-job-over-gate-ceiling"),
        pytest.param(GEN + ["--qv-width", "2", "--qv-layers", OVER_QV], None, BAD_VALUE,
                     f"more than {MAX_QV_GATES} SU4 gates", id="gen-qv-over-gate-ceiling"),
        pytest.param(GEN + ["--family", OVER_KERNEL], None, BAD_VALUE, MORE_THAN_KERNEL_GATES,
                     id="gen-kernel-over-gate-ceiling"),
        pytest.param(GEN + ["--family", OVER_KERNEL_FULL], None, BAD_VALUE,
                     MORE_THAN_KERNEL_GATES, id="gen-kernel-full-over-gate-ceiling"),
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
    ],
)
def test_malformed_input_is_a_coded_error(runner, tmp_path, command, text, error, detail):
    """Bad cells, short rows, non-finite numbers, out-of-range values,
    overflowing results, malformed JSON inputs and paths that cannot be read
    or written (DIR is a directory, NO_PARENT a file in a missing one) give
    the error JSON and its exit status, never a traceback or a NaN result.
    A refused command prints nothing on stdout and leaves no file behind.
    `detail` is the CSV row the message must name, or a phrase or path it
    must contain."""
    path = tmp_path / "input.csv"
    if text is not None:
        path.write_text(text)
    names = {"INPUT": str(path), "OUT": str(tmp_path / "out.csv"), "DIR": str(tmp_path),
             "NO_PARENT": str(tmp_path / "missing" / "out.csv")}
    result = runner.invoke(main, [names.get(arg, arg) for arg in command])
    code, status = error
    assert result.exit_code == status, result.output
    payload = json.loads(result.stderr)["error"]
    assert payload["code"] == code
    if isinstance(detail, int):
        assert f"{path}:{detail}:" in payload["message"]
    elif detail is not None:
        assert names.get(detail, detail) in payload["message"]
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == ([path] if text is not None else [])


def run_fresh(*argv: str, cwd=None) -> str:
    """stdout of `python *argv` in a fresh interpreter that imports from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *argv], env={**os.environ, "PYTHONPATH": path}, cwd=cwd,
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


# numpy and the modules that import it, left out of the light commands
HEAVY = ("scipy", "numpy", "qjobtime.sim", "qjobtime.generators", "qjobtime.circuit",
         "qjobtime.transpile", "qjobtime.deff", "qjobtime.execsim")
LOADED = f"print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in {HEAVY}))"


@pytest.mark.parametrize("module", ["qjobtime", "qjobtime.cli"])
def test_cli_import_leaves_scipy_out(module):
    """Importing the package or the CLI loads neither scipy nor numpy, nor
    any module of the circuit stack."""
    assert run_fresh("-c", f"import sys, {module}; {LOADED}") == "[]"


def test_deff_leaves_the_simulator_unloaded():
    """Estimating d_eff (sampling, lowering, routing, depth) loads no simulator."""
    probe = ("import sys\nfrom qjobtime.deff import effective_layers\n"
             "from qjobtime.generators import KernelFamily\n"
             "from qjobtime.transpile import line_map\n"
             "effective_layers(KernelFamily(3, 1), line_map(4), kernel_samples=2, qv_samples=2)\n"
             "print('qjobtime.sim' in sys.modules)")
    assert run_fresh("-c", probe) == "False"


@pytest.mark.parametrize(
    "args",
    [
        PREDICT + ["2", "--registry", "registry.json"],
        ["score", "--records", "pairs.csv", "--out", "pairs_out.csv"],
        ["score", "--records", "records.csv", "--out", "records_out.csv"],
        EXTRAPOLATE + ["1000", "--out", "grid.csv"],
        ["backends", "list", "--registry", "registry.json"],
    ],
    ids=["predict", "score-pairs", "score-records", "extrapolate", "backends-list"],
)
def test_light_commands_leave_numpy_unloaded(tmp_path, args):
    (tmp_path / "pairs.csv").write_text(PAIRS)
    (tmp_path / "records.csv").write_text(RECORDS)
    (tmp_path / "registry.json").write_text(registry_to_json(builtin_backends()))
    probe = (f"import sys\nfrom qjobtime.cli import main\n"
             f"main({args!r}, standalone_mode=False)\n{LOADED}")
    assert run_fresh("-c", probe, cwd=tmp_path).splitlines()[-1] == "[]"


def test_wrappers_set_on_the_cli_module_are_called(runner, tmp_path, monkeypatch):
    """The array commands look their numpy-backed helpers up on the module at
    each call, so a wrapper set there with `setattr` is what they call."""
    import qjobtime.cli as cli

    calls = []
    for name in ("kernel_matrix", "kernel_circuit", "qv_circuit", "simulate_job_runtime",
                 "fit_params"):
        def wrapper(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
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
    assert calls == ["kernel_matrix", "qv_circuit", "kernel_circuit", "simulate_job_runtime",
                     "fit_params"]


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
