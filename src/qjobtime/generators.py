"""Circuit family constructors: quantum volume circuits and kernel circuits.

Both constructors are deterministic for a fixed seed; parallel generation is
safe when each task derives its own seed.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate, GateKind, check_su4_payloads
from .errors import InvalidGateError, InvalidParameterError
from .model import json_typed

# the kinds the generators emit, bound once outside their per-gate loops
_H, _RZ, _RZZ, _SU4 = GateKind.H, GateKind.RZ, GateKind.RZZ, GateKind.SU4


class Entanglement(Enum):
    """Which qubit pairs the encoding circuit entangles."""

    LINEAR = "linear"  # adjacent pairs (0,1), (1,2), ..., (n-2, n-1)
    FULL = "full"      # all pairs (j, k) with j < k

    def pairs(self, n: int) -> tuple[tuple[int, int], ...]:
        if self is Entanglement.LINEAR:
            return tuple((j, j + 1) for j in range(n - 1))
        return tuple((j, k) for j in range(n) for k in range(j + 1, n))


@dataclass(frozen=True)
class KernelFamily:
    """Descriptor of an encoding circuit: width, template repetitions, pairing.

    n = 1 is allowed as a degenerate family (empty pair set); it exists so the
    single-qubit closed-form kernel can serve as a simulation oracle.
    """

    n: int
    d: int
    entanglement: Entanglement = Entanglement.LINEAR

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("KernelFamily needs n >= 1")
        if self.d < 1:
            raise InvalidParameterError("KernelFamily needs d >= 1")

    @property
    def aspect_ratio(self) -> Fraction:
        """Exact 2d/n: <1 wide and shallow, 1 square, >1 narrow and deep."""
        return Fraction(2 * self.d, self.n)

    @classmethod
    def from_dict(cls, spec) -> "KernelFamily":
        """Family from a JSON object with integer `n` and `d` (bools, floats
        and strings are refused, never rounded) and an optional entanglement."""
        if not isinstance(spec, dict):
            raise InvalidParameterError(f"family descriptor must be a JSON object, got {spec!r}")
        try:
            n, d = (json_typed(f"family {k}", spec[k], int) for k in ("n", "d"))
            entanglement = Entanglement(spec.get("entanglement", "linear"))
        except (KeyError, ValueError) as exc:
            raise InvalidParameterError(f"bad family descriptor {spec!r}: {exc}") from exc
        return cls(n, d, entanglement)

    def to_dict(self) -> dict:
        return {"n": self.n, "d": self.d, "entanglement": self.entanglement.value}


def aspect_label(ratio) -> str:
    if ratio < 1:
        return "wide-shallow"
    if ratio == 1:
        return "square"
    return "narrow-deep"


# most SU4 gates one QV circuit may hold (layers * floor(q/2)), refused before
# any draw: lowering and routing peak at about 8 kB per SU4 gate (40-qubit
# heavy-hex-like map), so about 80 MB for a circuit at the ceiling
MAX_QV_GATES = 10_000


def _haar_su4(g: np.ndarray) -> np.ndarray:
    """Haar-random SU(4) matrices from normals g (k, 2, 4, 4): per row, QR of
    the complex Ginibre matrix (g[0] + i g[1]) / sqrt(2), phase fix, and
    det normalization, all as one stacked pass."""
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    return q * np.linalg.det(q)[:, None, None] ** -0.25


def haar_su4_stack(rng: np.random.Generator, k: int) -> np.ndarray:
    """k Haar-random SU(4) matrices (k, 4, 4) from one draw of 32k normals:
    per matrix, 16 real parts then 16 imaginary parts, the stream order of
    k one-matrix draws."""
    return _haar_su4(rng.standard_normal((k, 2, 4, 4)))


def haar_su4(rng: np.random.Generator) -> np.ndarray:
    """One Haar-random SU(4) matrix: the one-row case of `haar_su4_stack`."""
    return haar_su4_stack(rng, 1)[0]


def qv_circuit(q: int, layers: int, seed: "int | np.random.SeedSequence") -> Circuit:
    """Quantum volume circuit: `layers` rounds of a random qubit pairing with a
    Haar-random SU(4) on each of the floor(q/2) disjoint pairs.

    Permutations are logical relabelings (they select the pairing), not SWAP
    gates, so the circuit contains exactly layers*floor(q/2) two-qubit gates.
    Each layer draws its permutation, then the normals of its floor(q/2)
    matrices, in the stream order of per-layer `haar_su4_stack` calls; the
    whole circuit's matrices are then made in one stacked pass, checked once
    and made read-only, and each gate holds one row of that stack.
    """
    if q < 2:
        raise InvalidParameterError("qv_circuit needs q >= 2")
    if layers < 1:
        raise InvalidParameterError("qv_circuit needs layers >= 1")
    if layers * (q // 2) > MAX_QV_GATES:
        raise InvalidParameterError(
            f"qv_circuit of width {q} and {layers} layers has more than {MAX_QV_GATES} SU4 gates"
        )
    rng = np.random.default_rng(seed)
    pairs, normals = [], np.empty((layers, q // 2, 2, 4, 4))
    for layer in normals:
        perm = rng.permutation(q).tolist()
        pairs += zip(perm[::2], perm[1::2])  # an odd width leaves its last qubit out
        rng.standard_normal(out=layer)
    payloads = _haar_su4(normals.reshape(-1, 2, 4, 4))
    check_su4_payloads(payloads)
    payloads.setflags(write=False)
    gates = tuple(Gate._trusted(_SU4, pair, (), m) for pair, m in zip(pairs, payloads))
    return Circuit._trusted(q, gates, layers)


# most gates one overlap circuit U(x) U(y)^dagger may hold, 2*d*(2n + |pairs|),
# refused before any gate or state is built; the families the tests, the README
# and the benchmark use hold at most about a thousand gates. Lowering and
# routing peak at about 0.1 kB per gate for linear entanglement on a 40-qubit
# heavy-hex-like map, so about 10 MB at the ceiling. The swaps routing adds
# grow with the map's distances and are bounded separately, by the router's
# `MAX_ROUTED_GATES`: full entanglement at this ceiling on that map would
# route to about 2.7 million gates and is refused there
MAX_KERNEL_GATES = 100_000


def check_kernel_gates(fam: KernelFamily) -> int:
    """The gate count of the family's overlap circuit (H and RZ per qubit and
    RZZ per pair, in 2d rounds), worked out without building the pairs; a
    family above `MAX_KERNEL_GATES` is refused."""
    n = fam.n
    pairs = n - 1 if fam.entanglement is Entanglement.LINEAR else n * (n - 1) // 2
    gates = 2 * fam.d * (2 * n + pairs)
    if gates > MAX_KERNEL_GATES:
        raise InvalidParameterError(
            f"kernel family {fam.to_dict()} has an overlap circuit of more than "
            f"{MAX_KERNEL_GATES} gates"
        )
    return gates


def _as_features(fam: KernelFamily, x: Sequence[float]) -> np.ndarray:
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.shape[0] != fam.n:
        raise InvalidParameterError(
            f"feature vector has {arr.shape[0]} components, family needs {fam.n}"
        )
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"feature vector has non-finite components: {arr}")
    return arr


def phase_angles(fam: KernelFamily, x: Sequence[float]) -> np.ndarray:
    """x_j per qubit, then (pi - x_j)(pi - x_k) per entangled pair: the phase
    layer rotates by twice these, so a vector whose doubled angle overflows
    is refused."""
    v = _as_features(fam, x)
    j, k = np.array(fam.entanglement.pairs(fam.n), dtype=int).reshape(-1, 2).T
    with np.errstate(over="ignore"):
        angles = np.concatenate([v, (np.pi - v[j]) * (np.pi - v[k])])
        if not np.isfinite(2.0 * angles).all():
            raise InvalidGateError(f"feature vector {v} gives a non-finite phase angle")
    return angles


def _encoding_layer(fam: KernelFamily, x: Sequence[float], sign: float) -> list[Gate]:
    """One round of the encoding template with every angle times `sign`: H on
    every qubit, RZ(2*x_j) on qubit j, RZZ on each pair. Gates are built
    unchecked: the angles were checked by `phase_angles`, the qubits come
    from range(n) and the entanglement's pairs."""
    n, trusted = fam.n, Gate._trusted
    theta = (sign * (2.0 * phase_angles(fam, x))).tolist()
    layer = [trusted(_H, (j,)) for j in range(n)]
    layer += [trusted(_RZ, (j,), (t,)) for j, t in enumerate(theta[:n])]
    pairs = fam.entanglement.pairs(n)
    layer += [trusted(_RZZ, pair, (t,)) for pair, t in zip(pairs, theta[n:])]
    return layer


def encoding_circuit(fam: KernelFamily, x: Sequence[float]) -> Circuit:
    """Data-encoding circuit: d repetitions of [H on every qubit, then the
    parameterized phase layer].

    The phase layer applies RZ(2*x_j) on qubit j and an entangling ZZ phase
    RZZ(2*(pi - x_j)*(pi - x_k)) on each pair of the entanglement strategy
    (angles from `phase_angles`). Global phase is dropped throughout; kernel
    values are insensitive to it.
    """
    check_kernel_gates(fam)
    return Circuit._trusted(fam.n, tuple(_encoding_layer(fam, x, 1.0)) * fam.d, fam.d)


def kernel_circuit(fam: KernelFamily, x: Sequence[float], y: Sequence[float]) -> Circuit:
    """Overlap circuit U(x) followed by U(y)^dagger; 2d base layers on n qubits.

    U(y)^dagger is built directly as d repetitions of the reversed layer with
    negated angles: H is its own inverse and RZ, RZZ invert by negation, as
    `Circuit.inverse` would give.
    """
    check_kernel_gates(fam)
    forward = tuple(_encoding_layer(fam, x, 1.0))
    back = tuple(reversed(_encoding_layer(fam, y, -1.0)))
    return Circuit._trusted(fam.n, forward * fam.d + back * fam.d, 2 * fam.d)


def seed_stream(seed: int, *path: int) -> np.random.SeedSequence:
    """Stream `path` under a user seed, the one rule for every derived stream:
    (seed, 0, k) kernel sample k's features, (seed, 1, k) QV sample k,
    (seed, 2, j) sweep job j's jitter, (seed, 3) kernel-matrix shot counts."""
    seed = int(seed)
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence((seed, *path))


def sample_features(fam: KernelFamily, rng: np.random.Generator) -> np.ndarray:
    """Synthetic feature vector, one component per qubit, uniform on [0, 2*pi)."""
    return rng.uniform(0.0, 2.0 * np.pi, size=fam.n)
