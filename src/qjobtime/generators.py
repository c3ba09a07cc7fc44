"""Circuit family constructors: quantum volume circuits and kernel circuits.

Both constructors are deterministic for a fixed seed; parallel generation is
safe when each task derives its own seed.
"""

from collections import namedtuple
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .circuit import MAX_GATES, Circuit, Gate, GateKind, check_gates, check_su4_payloads
from .errors import InvalidGateError, InvalidParameterError
from .model import FrozenRecord, json_typed

if TYPE_CHECKING:
    from fractions import Fraction

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

    def pair_count(self, n: int) -> int:
        return n - 1 if self is Entanglement.LINEAR else n * (n - 1) // 2


class KernelFamily(FrozenRecord, namedtuple("KernelFamily", "n d entanglement",
                                            defaults=(Entanglement.LINEAR,))):
    """Descriptor of an encoding circuit: width, template repetitions, pairing.

    n = 1 is allowed as a degenerate family (empty pair set); it exists so the
    single-qubit closed-form kernel can serve as a simulation oracle.
    """

    __slots__ = ()

    def _check(self):
        if self.n < 1:
            raise InvalidParameterError("KernelFamily needs n >= 1")
        if self.d < 1:
            raise InvalidParameterError("KernelFamily needs d >= 1")

    @property
    def aspect_ratio(self) -> "Fraction":
        """Exact 2d/n: <1 wide and shallow, 1 square, >1 narrow and deep."""
        from fractions import Fraction  # here, not at the top: it loads decimal

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
    qv_basis_gates(q, layers)
    pairs, normals = qv_draw(q, layers, seed)
    payloads = _haar_su4(normals.reshape(-1, 2, 4, 4))
    check_su4_payloads(payloads)
    payloads.setflags(write=False)
    gates = tuple(Gate._trusted(_SU4, pair, (), m) for pair, m in zip(pairs, payloads))
    return Circuit._trusted(q, gates, layers)


def qv_draw(q: int, layers: int, seed) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The draw of `qv_circuit(q, layers, seed)`: its pairs in gate order, and
    its normals (layers, q // 2, 2, 4, 4), each layer's after its permutation."""
    rng = np.random.default_rng(seed)
    pairs, normals = [], np.empty((layers, q // 2, 2, 4, 4))
    for layer in normals:
        perm = rng.permutation(q).tolist()
        pairs += zip(perm[::2], perm[1::2])  # an odd width leaves its last qubit out
        rng.standard_normal(out=layer)
    return pairs, normals


def qv_basis_gates(q: int, layers: int) -> int:
    """At most how many basis gates a QV circuit of width q lowers to,
    `SU4.basis_gates` per gate; a width under 2, no layers or a circuit
    above `MAX_GATES` is refused."""
    if q < 2:
        raise InvalidParameterError("qv_circuit needs q >= 2")
    if layers < 1:
        raise InvalidParameterError("qv_circuit needs layers >= 1")
    return check_gates(f"a QV circuit of width {q} and {layers} layers",
                       _SU4.basis_gates * layers * (q // 2), MAX_GATES)


def kernel_basis_gates(fam: KernelFamily) -> int:
    """The basis gates of the family's overlap circuit, 2d(4n + 3|pairs|)
    exactly, worked out without building the pairs; a family above
    `MAX_GATES` is refused."""
    per_round = (fam.n * (_H.basis_gates + _RZ.basis_gates)
                 + fam.entanglement.pair_count(fam.n) * _RZZ.basis_gates)
    return check_gates(f"the overlap circuit of kernel family {fam.to_dict()}",
                       2 * fam.d * per_round, MAX_GATES)


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
    kernel_basis_gates(fam)
    return Circuit._trusted(fam.n, tuple(_encoding_layer(fam, x, 1.0)) * fam.d, fam.d)


def kernel_circuit(fam: KernelFamily, x: Sequence[float], y: Sequence[float]) -> Circuit:
    """Overlap circuit U(x) followed by U(y)^dagger; 2d base layers on n qubits.

    U(y)^dagger is built directly as d repetitions of the reversed layer with
    negated angles: H is its own inverse and RZ, RZZ invert by negation, as
    `Circuit.inverse` would give.
    """
    kernel_basis_gates(fam)
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
