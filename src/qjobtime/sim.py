"""Exact statevector simulation and shot-based kernel estimation.

This is the semantic oracle for everything that produces circuits: they are
simulated densely, gate by gate, and kernel values are either read off the
final amplitude or estimated by Born sampling. A kernel matrix needs no
circuits: it builds its N encoded states together in closed form, d rounds of a
Walsh-Hadamard transform and a diagonal phase, and the gate-by-gate overlap
circuit U(x)U(y)^dagger behind `exact_kernel` is its single-pair oracle.

Any array above `MAX_ENTRIES` = 2^24 entries (256 MiB of complex128) is
refused before it is allocated: the 2^w state of `simulate`, the 4^w matrix of
`circuit_unitary`, and `kernel_matrix`'s N x 2^n states, 2^n x n sign tables
and N x N overlaps (so 16 qubits over 256 vectors, or 12 over 4096, fit).
`kernel_matrix` also refuses, before any allocation, H rounds above
`MAX_AMPLITUDE_UPDATES`: (d - 1) n N 2^n amplitude updates.

Basis convention: the state is stored as a rank-n tensor with axis i belonging
to qubit i; in the flattened vector, qubit 0 is the most significant bit.
"""

from collections import namedtuple
from typing import Sequence

import numpy as np

from .circuit import ArrayRecord, Circuit, Gate, gate_matrix  # gate_matrix is public here too
from .errors import InvalidParameterError, SimulationCapError
from .generators import KernelFamily, kernel_basis_gates, kernel_circuit, phase_angles, seed_stream
from .model import FrozenRecord

MAX_ENTRIES = 2**24  # most entries in any one array the simulator builds
MAX_SHOTS = 2**63 - 1  # numpy's int64 limit for a binomial draw
# most amplitude updates of `kernel_matrix`'s H rounds: about a minute at the
# 5 to 6 ns per update measured for 12 qubits over 16 to 64 vectors, and about
# 135 s at the worst accepted matrix, 16 qubits over 256 vectors at d = 38
# (13.4 ns per update, extrapolated from d = 2 and 3; 2 CPUs)
MAX_AMPLITUDE_UPDATES = 10**10

def _apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply a gate to a state tensor whose leading axes are the qubits.

    Trailing axes (if any) are carried along untouched, which lets the same
    code build full unitaries column-wise and transform a batch of states.
    """
    m = gate_matrix(gate)
    qs = gate.qubits
    if len(qs) == 1:
        out = np.tensordot(m, state, axes=([1], [qs[0]]))
        return np.moveaxis(out, 0, qs[0])
    m4 = m.reshape(2, 2, 2, 2)
    out = np.tensordot(m4, state, axes=([2, 3], [qs[0], qs[1]]))
    return np.moveaxis(out, (0, 1), (qs[0], qs[1]))


class StateVector(ArrayRecord, namedtuple("StateVector", "amplitudes n")):
    """Final state of a simulated circuit: 2^n amplitudes over n qubits."""

    __slots__ = ()

    def zero_probability(self) -> float:
        """Probability of the all-zeros outcome."""
        return float(abs(self.amplitudes[0]) ** 2)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_entries(what: str, count: int, qubits: int = 0) -> None:
    """Refuse `what`, an array of count * 2^qubits entries, above `MAX_ENTRIES`.
    2^qubits is never formed past the bound, so an absurd width is refused at once."""
    if qubits >= MAX_ENTRIES.bit_length() or count << qubits > MAX_ENTRIES:
        raise SimulationCapError(
            f"{what} would hold more than the simulator's bound of MAX_ENTRIES = "
            f"{MAX_ENTRIES} entries ({MAX_ENTRIES >> 16} MiB of complex128)"
        )


def simulate(c: Circuit) -> StateVector:
    """Apply every gate to |0...0> in order; norm preserved to 1e-10."""
    _check_entries(f"the 2^{c.width} state of a {c.width}-qubit circuit", 1, c.width)
    state = np.zeros((2,) * c.width, dtype=complex)
    state[(0,) * c.width] = 1.0
    for g in c.gates:
        state = _apply_gate(state, g)
    return StateVector(state.reshape(-1), c.width)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of the circuit."""
    _check_entries(f"the 4^{c.width} unitary of a {c.width}-qubit circuit", 1, 2 * c.width)
    dim = 2 ** c.width
    u = np.eye(dim, dtype=complex).reshape((2,) * c.width + (dim,))
    for g in c.gates:
        u = _apply_gate(u, g)
    return u.reshape(dim, dim)


class KernelEstimate(FrozenRecord, namedtuple("KernelEstimate", "estimate shots zero_count")):
    """Shot-based kernel estimate: frequency of the all-zeros bitstring."""

    __slots__ = ()


def exact_kernel(fam: KernelFamily, x: Sequence[float], y: Sequence[float]) -> float:
    """Exact kernel value: squared overlap of U(y)|0> and U(x)|0>."""
    return simulate(kernel_circuit(fam, x, y)).zero_probability()


def _check_shots(shots: int) -> None:
    if not 1 <= shots <= MAX_SHOTS:
        raise InvalidParameterError(f"shots must be in 1..{MAX_SHOTS}, got {shots}")


def _zero_counts(p0, shots: int, seed) -> np.ndarray:
    """All-zeros counts of `shots` Born samples at each p0: one Binomial(shots,
    p0) draw from the stream `seed`, with p0 clipped to [0, 1] because a
    repeated vector's overlap can round to just above 1."""
    return np.random.default_rng(seed).binomial(shots, np.clip(p0, 0.0, 1.0))


def estimate_kernel(
    fam: KernelFamily,
    x: Sequence[float],
    y: Sequence[float],
    shots: int,
    seed=0,
) -> KernelEstimate:
    """Sample `shots` bitstrings from the overlap circuit's output distribution
    and return the zero-string frequency: one binomial draw on the stream
    `seed` (an int or a sequence of ints), deterministic for a fixed seed."""
    _check_shots(shots)
    if any(part < 0 for part in np.atleast_1d(seed).tolist()):
        raise InvalidParameterError(f"seed must be >= 0, got {seed!r}")
    count = int(_zero_counts(exact_kernel(fam, x, y), shots, seed))
    return KernelEstimate(count / shots, shots, count)


def _encoded_states(fam: KernelFamily, angles: np.ndarray) -> np.ndarray:
    """|phi(x)> for every row of `angles` (see `generators.phase_angles`), as
    one (N, 2^n) batch.

    The encoding circuit is d rounds of [H on every qubit, then RZ and RZZ].
    The RZ/RZZ layer is diagonal: it multiplies amplitude b by exp(-i phi_b)
    with phi_b = sum_j x_j s_j + sum_(j,k) (pi - x_j)(pi - x_k) s_j s_k, where
    s are the Z eigenvalues of b. Round one maps |0...0> to the uniform state;
    each later H layer acts on all N states at once, which ride along as a
    trailing axis.
    """
    n = fam.n
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    s = 1.0 - 2.0 * bits  # s[b, j]: Z eigenvalue of qubit j in basis state b
    phase = angles[:, :n] @ s.T
    for p, (j, k) in enumerate(fam.entanglement.pairs(n)):
        phase += angles[:, n + p, None] * (s[:, j] * s[:, k])
    diag = np.exp(-1j * phase)
    states = diag / np.sqrt(2.0**n)
    for _ in range(fam.d - 1):
        t = states.T.reshape((2,) * n + (-1,))
        for q in range(n):
            t = _apply_gate(t, Gate.h(q))
        states = diag * t.reshape(-1, len(diag)).T
    return states


def kernel_matrix(
    fam: KernelFamily,
    dataset: Sequence[Sequence[float]],
    shots: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Symmetric N x N kernel matrix over a dataset.

    The N encoded states are built together in closed form, with no circuits
    and no `simulate` calls, and entry (i, j) is |<phi(x_j)|phi(x_i)>|^2; the
    diagonal is pinned to 1. The gate-by-gate `exact_kernel` is the oracle
    for each entry. With `shots=None` entries are exact; otherwise every
    unordered pair's count is drawn in one binomial call on stream (seed, 3),
    over the upper triangle in row-major order.
    """
    if shots is not None:
        _check_shots(shots)
        stream = seed_stream(seed, 3)
    kernel_basis_gates(fam)
    n = len(dataset)
    if n == 0:
        return np.zeros((0, 0))
    # The first vector is checked before the sizes, as building and
    # simulating its encoding circuit would be, so every input gets the
    # oracle's error. Angles mod 2*pi keep every sum of them finite.
    angles = [phase_angles(fam, dataset[0])]
    _check_entries(f"the {n} x 2^{fam.n} encoded states", n, fam.n)
    _check_entries(f"the 2^{fam.n} x {fam.n} sign tables", fam.n, fam.n)
    _check_entries(f"the {n} x {n} overlaps", n * n)
    updates = (fam.d - 1) * fam.n * n << fam.n
    if updates > MAX_AMPLITUDE_UPDATES:
        raise SimulationCapError(
            f"the {fam.d - 1} H rounds of {n} x 2^{fam.n} encoded states would make {updates} "
            f"amplitude updates, more than the simulator's budget of MAX_AMPLITUDE_UPDATES = "
            f"{MAX_AMPLITUDE_UPDATES} (about a minute at 12 qubits, 135 s at 16)"
        )
    angles += [phase_angles(fam, x) for x in dataset[1:]]
    states = _encoded_states(fam, np.remainder(angles, 2.0 * np.pi))
    upper = np.triu_indices(n, 1)
    values = (np.abs(states.conj() @ states.T) ** 2)[upper]
    if shots is not None:
        values = _zero_counts(values, shots, stream) / shots
    out = np.eye(n)
    out[upper] = out[upper[::-1]] = values
    return out
