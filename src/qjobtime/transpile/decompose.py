"""Lowering to the hardware basis: 1q {RZ, SX, X}, 2q {CX}.

Output is unitarily equivalent to the input up to global phase. Fixed rules:

    H         -> RZ(pi/2), SX, RZ(pi/2)
    RZZ(t)    -> CX, RZ(t) on the target, CX            (exact)
    SWAP      -> CX, CX, CX                             (exact)
    U3        -> ZYZ Euler angles as an RZ/SX string
    SU4       -> three CX with 1q dressings (see kak)

Every emitted gate acts on the qubits of an already-checked input gate, so it
is built with `Gate._trusted` (angles passed as Python floats), skipping the
construction checks.
"""

import numpy as np

from ..circuit import Circuit, Gate, GateKind
from ..sim import gate_matrix
from .kak import canonical_layers, kak_decompose, zsx_angles

BASIS_1Q = (GateKind.RZ, GateKind.SX, GateKind.X)
BASIS_2Q = (GateKind.CX,)


def _emit_1q(out: list[Gate], q: int, matrix: np.ndarray) -> None:
    angles = zsx_angles(matrix)
    if angles is None:
        return
    qubits = (q,)
    if len(angles) == 1:
        out.append(Gate._trusted(GateKind.RZ, qubits, (float(angles[0]),)))
        return
    rz1, rz2, rz3 = (Gate._trusted(GateKind.RZ, qubits, (float(a),)) for a in angles)
    sx = Gate._trusted(GateKind.SX, qubits)
    out.extend([rz1, sx, rz2, sx, rz3])


def swap_as_cx(a: int, b: int) -> tuple[Gate, Gate, Gate]:
    """SWAP(a, b) as CX(a,b), CX(b,a), CX(a,b); the outer two are one shared gate."""
    ab = Gate._trusted(GateKind.CX, (a, b))
    return ab, Gate._trusted(GateKind.CX, (b, a)), ab


def _emit_su4(out: list[Gate], qa: int, qb: int, matrix: np.ndarray) -> None:
    _, a1, a0, (x, y, z), b1, b0 = kak_decompose(matrix)
    (pre_hi, pre_lo), (m1_hi, m1_lo), (m2_hi, m2_lo) = canonical_layers(x, y, z)
    _emit_1q(out, qa, pre_hi @ b1)
    _emit_1q(out, qb, pre_lo @ b0)
    cx = Gate._trusted(GateKind.CX, (qa, qb))
    out.append(cx)
    _emit_1q(out, qa, m1_hi)
    _emit_1q(out, qb, m1_lo)
    out.append(cx)
    _emit_1q(out, qa, m2_hi)
    _emit_1q(out, qb, m2_lo)
    out.append(cx)
    _emit_1q(out, qa, a1)
    _emit_1q(out, qb, a0)


def decompose(c: Circuit) -> Circuit:
    """Rewrite every gate into basis gates; width and metadata preserved."""
    out: list[Gate] = []
    for g in c.gates:
        k = g.kind
        if k in (GateKind.X, GateKind.SX, GateKind.RZ, GateKind.CX):
            out.append(g)
        elif k is GateKind.H:
            rz = Gate._trusted(GateKind.RZ, g.qubits, (np.pi / 2,))
            out.extend([rz, Gate._trusted(GateKind.SX, g.qubits), rz])
        elif k is GateKind.RZZ:
            cx = Gate._trusted(GateKind.CX, g.qubits)
            out.extend([cx, Gate._trusted(GateKind.RZ, g.qubits[1:], g.params), cx])
        elif k is GateKind.SWAP:
            out.extend(swap_as_cx(*g.qubits))
        elif k is GateKind.U3:
            _emit_1q(out, g.qubits[0], gate_matrix(g))
        else:  # SU4
            _emit_su4(out, g.qubits[0], g.qubits[1], g.matrix)
    return Circuit._trusted(c.width, tuple(out), c.base_layers)
