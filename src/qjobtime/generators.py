"""Circuit family constructors: quantum volume circuits and kernel circuits.

Both constructors are deterministic for a fixed seed; parallel generation is
safe when each task derives its own seed.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate
from .errors import InvalidGateError, InvalidParameterError


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

    @property
    def volumetric_area(self) -> int:
        """Width times total base layers of the kernel circuit: 2*d*n."""
        return 2 * self.d * self.n

    @classmethod
    def from_dict(cls, spec: dict) -> "KernelFamily":
        try:
            return cls(int(spec["n"]), int(spec["d"]), Entanglement(spec.get("entanglement", "linear")))
        except (KeyError, ValueError) as exc:
            raise InvalidParameterError(f"bad family descriptor {spec!r}: {exc}") from exc

    def to_dict(self) -> dict:
        return {"n": self.n, "d": self.d, "entanglement": self.entanglement.value}


def aspect_label(ratio) -> str:
    if ratio < 1:
        return "wide-shallow"
    if ratio == 1:
        return "square"
    return "narrow-deep"


def haar_su4(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(4) via QR of a complex Ginibre matrix with phase fix."""
    g = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q * np.linalg.det(q) ** -0.25


def qv_circuit(q: int, layers: int, seed: "int | np.random.SeedSequence") -> Circuit:
    """Quantum volume circuit: `layers` rounds of a random qubit pairing with a
    Haar-random SU(4) on each of the floor(q/2) disjoint pairs.

    Permutations are logical relabelings (they select the pairing), not SWAP
    gates, so the circuit contains exactly layers*floor(q/2) two-qubit gates.
    """
    if q < 2:
        raise InvalidParameterError("qv_circuit needs q >= 2")
    if layers < 1:
        raise InvalidParameterError("qv_circuit needs layers >= 1")
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(layers):
        perm = rng.permutation(q)
        for k in range(q // 2):
            gates.append(Gate.su4(int(perm[2 * k]), int(perm[2 * k + 1]), haar_su4(rng)))
    return Circuit(q, tuple(gates), base_layers=layers)


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


def encoding_circuit(fam: KernelFamily, x: Sequence[float]) -> Circuit:
    """Data-encoding circuit: d repetitions of [H on every qubit, then the
    parameterized phase layer].

    The phase layer applies RZ(2*x_j) on qubit j and an entangling ZZ phase
    RZZ(2*(pi - x_j)*(pi - x_k)) on each pair of the entanglement strategy
    (angles from `phase_angles`). Global phase is dropped throughout; kernel
    values are insensitive to it.
    """
    n, a = fam.n, phase_angles(fam, x)
    pairs = fam.entanglement.pairs(n)
    layer = [Gate.h(j) for j in range(n)] + [Gate.rz(j, 2.0 * a[j]) for j in range(n)]
    layer += [Gate.rzz(j, k, 2.0 * a[n + p]) for p, (j, k) in enumerate(pairs)]
    return Circuit(n, tuple(layer) * fam.d, base_layers=fam.d)


def kernel_circuit(fam: KernelFamily, x: Sequence[float], y: Sequence[float]) -> Circuit:
    """Overlap circuit U(x) followed by U(y)^dagger; 2d base layers on n qubits."""
    return encoding_circuit(fam, x).compose(encoding_circuit(fam, y).inverse())


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
