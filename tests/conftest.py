import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qjobtime.circuit import Circuit, Gate
from qjobtime.generators import haar_su4


def up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise distance between a and b after aligning global phase."""
    overlap = np.trace(b.conj().T @ a)
    if abs(overlap) < 1e-9:
        return np.inf
    return float(np.abs(a - (overlap / abs(overlap)) * b).max())


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
