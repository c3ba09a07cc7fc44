"""Exact statevector simulation and shot-based kernel estimation.

This is the semantic oracle for everything that produces circuits: small
circuits are simulated densely (default cap 12 qubits) and kernel values are
either read off the final amplitude or estimated by Born sampling. A kernel
matrix simulates only its N encoded states; the overlap circuit U(x)U(y)^dagger
behind `exact_kernel` is the single-pair oracle it is checked against.

Basis convention: the state is stored as a rank-n tensor with axis i belonging
to qubit i; in the flattened vector, qubit 0 is the most significant bit.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .errors import InvalidParameterError, SimulationCapError
from .generators import KernelFamily, encoding_circuit, kernel_circuit

DEFAULT_QUBIT_CAP = 12

_SQ2 = 1.0 / np.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary of a single gate (2x2 or 4x4; first listed qubit = high bit)."""
    k = gate.kind
    if k is GateKind.H:
        return _H
    if k is GateKind.X:
        return _X
    if k is GateKind.SX:
        return _SX
    if k is GateKind.RZ:
        t = gate.params[0]
        return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]])
    if k is GateKind.U3:
        theta, phi, lam, phase = gate.params
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        return np.exp(1j * phase) * np.array(
            [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
        )
    if k is GateKind.CX:
        return _CX
    if k is GateKind.SWAP:
        return _SWAP
    if k is GateKind.RZZ:
        t = gate.params[0]
        e = np.exp(-0.5j * t)
        return np.diag([e, e.conjugate(), e.conjugate(), e])
    return gate.matrix  # SU4


def _apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply a gate to a state tensor whose leading axes are the qubits.

    Trailing axes (if any) are carried along untouched, which lets the same
    code build full unitaries column-wise.
    """
    m = gate_matrix(gate)
    qs = gate.qubits
    if len(qs) == 1:
        out = np.tensordot(m, state, axes=([1], [qs[0]]))
        return np.moveaxis(out, 0, qs[0])
    m4 = m.reshape(2, 2, 2, 2)
    out = np.tensordot(m4, state, axes=([2, 3], [qs[0], qs[1]]))
    return np.moveaxis(out, (0, 1), (qs[0], qs[1]))


@dataclass(frozen=True)
class StateVector:
    """Final state of a simulated circuit: 2^n amplitudes over n qubits."""

    amplitudes: np.ndarray
    n: int

    def zero_probability(self) -> float:
        """Probability of the all-zeros outcome."""
        return float(abs(self.amplitudes[0]) ** 2)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_cap(c: Circuit, max_qubits: int) -> None:
    """Dense simulation holds 2^width amplitudes; a library caller who accepts
    that memory passes a larger `max_qubits`."""
    if c.width > max_qubits:
        raise SimulationCapError(
            f"circuit width {c.width} exceeds the dense-simulation cap of {max_qubits} qubits"
        )


def simulate(c: Circuit, max_qubits: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Apply every gate to |0...0> in order; norm preserved to 1e-10."""
    _check_cap(c, max_qubits)
    state = np.zeros((2,) * c.width, dtype=complex)
    state[(0,) * c.width] = 1.0
    for g in c.gates:
        state = _apply_gate(state, g)
    return StateVector(state.reshape(-1), c.width)


def circuit_unitary(c: Circuit, max_qubits: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Full 2^n x 2^n unitary of the circuit."""
    _check_cap(c, max_qubits)
    dim = 2 ** c.width
    u = np.eye(dim, dtype=complex).reshape((2,) * c.width + (dim,))
    for g in c.gates:
        u = _apply_gate(u, g)
    return u.reshape(dim, dim)


@dataclass(frozen=True)
class KernelEstimate:
    """Shot-based kernel estimate: frequency of the all-zeros bitstring."""

    estimate: float
    shots: int
    zero_count: int


def exact_kernel(
    fam: KernelFamily,
    x: Sequence[float],
    y: Sequence[float],
    max_qubits: int = DEFAULT_QUBIT_CAP,
) -> float:
    """Exact kernel value: squared overlap of U(y)|0> and U(x)|0>."""
    return simulate(kernel_circuit(fam, x, y), max_qubits).zero_probability()


def _zero_count(p0: float, shots: int, seed_seq: np.random.SeedSequence) -> int:
    """Count of `shots` Born draws that land on the all-zeros outcome.

    An inverse-CDF draw u lands on outcome 0 exactly when u < p0, so the count
    needs only p0. Philox is counter-based, so per-pair streams derived from
    spawn keys stay reproducible no matter how a batch is parallelized.
    """
    rng = np.random.Generator(np.random.Philox(seed_seq))
    return int(np.count_nonzero(rng.random(shots) < p0))


def estimate_kernel(
    fam: KernelFamily,
    x: Sequence[float],
    y: Sequence[float],
    shots: int,
    seed=0,
    max_qubits: int = DEFAULT_QUBIT_CAP,
) -> KernelEstimate:
    """Sample `shots` bitstrings from the overlap circuit's output distribution
    and return the zero-string frequency; deterministic for a fixed seed."""
    if shots < 1:
        raise InvalidParameterError("shots must be >= 1")
    count = _zero_count(exact_kernel(fam, x, y, max_qubits), shots, np.random.SeedSequence(seed))
    return KernelEstimate(count / shots, shots, count)


def kernel_matrix(
    fam: KernelFamily,
    dataset: Sequence[Sequence[float]],
    shots: int | None = None,
    seed: int = 0,
    max_qubits: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Symmetric N x N kernel matrix over a dataset.

    Each vector's encoded state is simulated once (N simulations) and entry
    (i, j) is |<phi(x_j)|phi(x_i)>|^2; the diagonal is pinned to 1. With
    `shots=None` entries are exact, otherwise each unordered pair is a shot
    estimate with its own random stream derived from (seed, i, j).
    """
    if shots is not None and shots < 1:
        raise InvalidParameterError(f"shots must be >= 1, got {shots}")
    n = len(dataset)
    if n == 0:
        return np.zeros((0, 0))
    states = np.array([simulate(encoding_circuit(fam, v), max_qubits).amplitudes for v in dataset])
    p0 = np.abs(states.conj() @ states.T) ** 2
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            val = p0[i, j]
            if shots is not None:
                val = _zero_count(val, shots, np.random.SeedSequence((seed, i, j))) / shots
            out[i, j] = out[j, i] = val
    return out
