"""Lowering to the hardware basis: 1q {RZ, SX, X}, 2q {CX}.

Output is unitarily equivalent to the input up to global phase. Fixed rules:

    H         -> RZ(pi/2), SX, RZ(pi/2)
    RZZ(t)    -> CX, RZ(t) on the target, CX            (exact)
    SWAP      -> CX, CX, CX                             (exact)
    U3        -> ZYZ Euler angles as an RZ/SX string
    SU4       -> three CX with 1q dressings (see kak); the SU4 payloads of
                 the circuits given to `decompose_all` are factored in
                 stacked passes of at most `KAK_BATCH` payloads

Every emitted gate acts on the qubits of an already-checked input gate, so it
is built with `Gate._trusted` (angles passed as Python floats), skipping the
construction checks. Gates are immutable, so a gate that recurs within one
circuit (each qubit's SX and the H rule's RZ(pi/2), each pair's CX) is built
once and shared.
"""

from typing import Iterable, Iterator

import numpy as np

from ..circuit import Circuit, Gate, GateKind, gate_matrix
from .kak import canonical_layers, kak_decompose, zsx_angles

BASIS_1Q = (GateKind.RZ, GateKind.SX, GateKind.X)
BASIS_2Q = (GateKind.CX,)

# the kinds, bound once: reading an Enum member costs a class attribute
# lookup, and the lowering tests a kind on every gate
_H, _SX, _RZ, _RZZ, _CX = GateKind.H, GateKind.SX, GateKind.RZ, GateKind.RZZ, GateKind.CX
_SWAP, _U3, _SU4 = GateKind.SWAP, GateKind.U3, GateKind.SU4
_PASS_THROUGH = frozenset(BASIS_1Q + BASIS_2Q)  # already in the basis
_HALF_PI = (np.pi / 2,)  # the H rule's RZ angle


def _emit_1q(out: list[Gate], rows) -> None:
    """Append rows of `zsx_angles`, each (sx, n, [a1, a2, a3]) giving its n
    gates on the qubit of the shared gate `sx`: none, RZ(a1), or
    RZ(a1) SX RZ(a2) SX RZ(a3)."""
    trusted = Gate._trusted
    for sx, n, (a1, a2, a3) in rows:
        if n == 3:
            q = sx.qubits
            out += (trusted(_RZ, q, (a1,)), sx, trusted(_RZ, q, (a2,)), sx, trusted(_RZ, q, (a3,)))
        elif n:
            out.append(trusted(_RZ, sx.qubits, (a1,)))


class SharedGates(dict):
    """Gates keyed by their `Gate._trusted` arguments, (kind, qubits) or
    (kind, qubits, params), each built on its first lookup."""

    def __missing__(self, key):
        gate = self[key] = Gate._trusted(*key)
        return gate


def swap_as_cx(shared: SharedGates, a: int, b: int) -> tuple[Gate, Gate, Gate]:
    """SWAP(a, b) as CX(a,b), CX(b,a), CX(a,b), taken from `shared`."""
    ab = shared[_CX, (a, b)]
    return ab, shared[_CX, (b, a)], ab


# most SU4 payloads one stacked KAK pass factors: a whole QV baseline of 20
# width-8 circuits (640 payloads) fits in one pass, and the pass's
# intermediates stay the same size however many circuits are lowered
KAK_BATCH = 1024


def _su4_dressings(payloads: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per SU4 payload, the `zsx_angles` counts (k, 8) and angles (k, 8, 3) of
    its eight 1q dressings in emission order: (hi, lo) before the first CX
    and after each of the three CX. All payloads go through one stacked KAK
    pass."""
    _, a1, a0, xyz, b1, b0 = kak_decompose(np.stack(payloads))
    (pre_hi, pre_lo), (m1_hi, m1_lo), (m2_hi, m2_lo) = canonical_layers(*xyz.T)
    layers = np.broadcast_arrays(pre_hi @ b1, pre_lo @ b0, m1_hi, m1_lo, m2_hi, m2_lo, a1, a0)
    counts, angles = zsx_angles(np.stack(layers, axis=1).reshape(-1, 2, 2))
    return counts.reshape(-1, 8), angles.reshape(-1, 8, 3)


def decompose_all(circuits: Iterable[Circuit]) -> Iterator[Circuit]:
    """`decompose` of each circuit, yielded in order. Consecutive circuits are
    gathered while their SU4 payloads fit in `KAK_BATCH` (a larger circuit
    forms a batch alone); a batch's payloads are factored in stacked passes
    of at most `KAK_BATCH`, and its circuits are then lowered one at a time."""
    batch, size = [], 0
    for c in circuits:
        su4 = [g.matrix for g in c.gates if g.kind is _SU4]
        if batch and size + len(su4) > KAK_BATCH:
            yield from _lower_batch(batch)
            batch, size = [], 0
        batch.append((c, su4))
        size += len(su4)
    yield from _lower_batch(batch)


def _lower_batch(batch: list[tuple[Circuit, list[np.ndarray]]]) -> Iterator[Circuit]:
    payloads = [m for _, su4 in batch for m in su4]
    passes = [_su4_dressings(payloads[i : i + KAK_BATCH])
              for i in range(0, len(payloads), KAK_BATCH)]
    counts, angles = map(np.concatenate, zip(*passes)) if passes else (None, None)
    start = 0
    for c, su4 in batch:
        end = start + len(su4)
        # dressing rows become Python lists only for the circuit being lowered
        rows = zip(counts[start:end].tolist(), angles[start:end].tolist()) if su4 else None
        yield _lower(c, rows)
        start = end


def decompose(c: Circuit) -> Circuit:
    """Rewrite every gate into basis gates; width and metadata preserved."""
    return next(decompose_all((c,)))


def _lower(c: Circuit, dressings) -> Circuit:
    """`c` in basis gates, taking each SU4 gate's dressing rows, in gate
    order, from the iterator `dressings`."""
    shared = SharedGates()
    out: list[Gate] = []
    for g in c.gates:
        k = g.kind
        if k in _PASS_THROUGH:
            out.append(g)
        elif k is _H:
            rz = shared[_RZ, g.qubits, _HALF_PI]
            out += (rz, shared[_SX, g.qubits], rz)
        elif k is _RZZ:
            cx = shared[_CX, g.qubits]
            out += (cx, Gate._trusted(_RZ, g.qubits[1:], g.params), cx)
        elif k is _SWAP:
            out.extend(swap_as_cx(shared, *g.qubits))
        elif k is _U3:
            counts, angles = zsx_angles(gate_matrix(g)[None])
            sx = shared[_SX, g.qubits]
            _emit_1q(out, zip((sx,), counts.tolist(), angles.tolist()))
        else:  # SU4: a 1q layer (rows 0, 1), then three times CX and a 1q layer
            counts, angles = next(dressings)
            qa, qb = g.qubits
            cx = shared[_CX, g.qubits]
            sides = (shared[_SX, (qa,)], shared[_SX, (qb,)])
            _emit_1q(out, zip(sides, counts[:2], angles[:2]))
            for i in (2, 4, 6):
                out.append(cx)
                _emit_1q(out, zip(sides, counts[i : i + 2], angles[i : i + 2]))
    return Circuit._trusted(c.width, tuple(out), c.base_layers)
