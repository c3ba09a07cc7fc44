import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qjobtime.circuit import Circuit, Gate
from qjobtime.generators import haar_su4
from qjobtime.transpile import transpiled_depths

SRC = Path(__file__).resolve().parents[1] / "src"


@dataclass
class Result:
    """What one CLI run printed, and how it ended."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # what ended a failed run: SystemExit unless it crashed

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class CliRunner:
    """Runs a CLI entry point in this process as its console script would,
    with stdout and stderr captured."""

    def invoke(self, cli, args: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        exception = None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli(args)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
                exception = exc if code else None
            except Exception as exc:  # a traceback, which the test reports
                code, exception = 1, exc
        return Result(code, out.getvalue(), err.getvalue(), exception)


def run_python(*argv: str, cwd=None, env=None, **kwargs) -> subprocess.CompletedProcess:
    """`python *argv` in a fresh interpreter that imports from src/, with text
    streams; `kwargs` go to `subprocess.run`. It returns whatever the exit
    status. `env` is by default this process's environment without
    `PYTHONUNBUFFERED`, so that its stdout is block-buffered, as a pipe's or a
    file's is by default."""
    env = dict({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
               if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, text=True, **kwargs)


def up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise distance between a and b after aligning global phase."""
    overlap = np.trace(b.conj().T @ a)
    if abs(overlap) < 1e-9:
        return np.inf
    return float(np.abs(a - (overlap / abs(overlap)) * b).max())


def mean_transpiled_depth(circuits, cmap) -> float:
    """Mean depth of `circuits` lowered and routed by the full path, `transpiled_depths`."""
    return float(np.mean(transpiled_depths(circuits, cmap)))


def random_circuit(width: int, n_gates: int, rng: np.random.Generator,
                   two_qubit_only_cx: bool = False) -> Circuit:
    """Random circuit over the full gate alphabet."""
    gates = []
    for _ in range(n_gates):
        choice = rng.integers(0, 8 if not two_qubit_only_cx else 6)
        q = int(rng.integers(width))
        if choice == 0:
            gates.append(Gate.h(q))
        elif choice == 1:
            gates.append(Gate.x(q))
        elif choice == 2:
            gates.append(Gate.sx(q))
        elif choice == 3:
            gates.append(Gate.rz(q, float(rng.uniform(-np.pi, np.pi))))
        elif choice == 4:
            gates.append(Gate.u3(q, *(float(v) for v in rng.uniform(-np.pi, np.pi, 4))))
        elif choice == 5 and width >= 2:
            a, b = rng.choice(width, 2, replace=False)
            gates.append(Gate.cx(int(a), int(b)))
        elif choice == 6 and width >= 2:
            a, b = rng.choice(width, 2, replace=False)
            kind = rng.integers(3)
            if kind == 0:
                gates.append(Gate.swap(int(a), int(b)))
            elif kind == 1:
                gates.append(Gate.rzz(int(a), int(b), float(rng.uniform(-np.pi, np.pi))))
            else:
                gates.append(Gate.su4(int(a), int(b), haar_su4(rng)))
        else:
            gates.append(Gate.rz(q, float(rng.uniform(-np.pi, np.pi))))
    return Circuit(width, tuple(gates))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
